"""Root systems from Cartan matrices.

A Cartan matrix is stored with the convention A[i][j] = value of the i-th
simple coroot on the j-th simple root, so a root written in simple-root
coordinates phi = sum_k c_k alpha_k pairs with the i-th coroot as
sum_k c_k A[i][k].  Positive roots are integer coordinate vectors over the
simple roots and the height of a root is the sum of its coordinates.

The derived combinatorics: exponents m_j, degrees d_j = m_j + 1, Coxeter
number h, and the layer dimensions r_m (r_1 = rank, r_m = number of positive
roots of height m-1 for m >= 2).  The layer sequence is the dual partition
of the degree sequence and both sum to b = rank + number of positive roots.
The symmetrizer d_i (1, 2 or 3 on a finite type) and every root norm are ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd


class NonFiniteType(Exception):
    """Reflection closure did not terminate: not a finite-type Cartan matrix."""


class UnsupportedType(Exception):
    """Algebra label outside the supported set."""


SERIES_LABELS = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "C2": [[2, -2], [-1, 2]],
    "G2": [[2, -3], [-1, 2]],
}

SUPPORTED_LABELS = ("A1", "A2", "A3", "B2", "C2", "A1xA1")
FLAGGED_LABELS = ("G2",)


def cartan_matrix_for_label(label: str) -> list[list[int]]:
    """Cartan matrix for a series label; factors joined by 'x' give products."""
    parts = label.split("x")
    blocks = []
    for part in parts:
        if part not in SERIES_LABELS:
            raise UnsupportedType(f"unsupported algebra label {part!r}")
        blocks.append(SERIES_LABELS[part])
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[off + i][off + j] = v
        off += len(b)
    return out


@dataclass(frozen=True)
class CartanMatrix:
    entries: tuple

    @classmethod
    def from_rows(cls, rows) -> "CartanMatrix":
        entries = tuple(tuple(row) for row in rows)
        if not all(type(v) is int for row in entries for v in row):
            raise ValueError("Cartan matrix entries must be integers")
        cm = cls(entries)
        cm.validate()
        return cm

    @property
    def rank(self) -> int:
        return len(self.entries)

    def validate(self) -> None:
        n = len(self.entries)
        if not n:
            raise ValueError("Cartan matrix must be nonempty")
        for row in self.entries:
            if len(row) != n:
                raise ValueError("Cartan matrix must be square")
        for i in range(n):
            if self.entries[i][i] != 2:
                raise ValueError("Cartan matrix diagonal entries must equal 2")
            for j in range(n):
                if i != j:
                    if self.entries[i][j] > 0:
                        raise ValueError("off-diagonal Cartan entries must be <= 0")
                    if (self.entries[i][j] == 0) != (self.entries[j][i] == 0):
                        raise ValueError("zero pattern of a Cartan matrix is symmetric")


@dataclass(frozen=True)
class RootSystem:
    cartan: CartanMatrix
    rank: int
    positive_roots: tuple          # tuples of simple-root coordinates, sorted by (height, coords)
    heights: tuple
    num_positive: int
    coxeter_number: int
    exponents: tuple               # nondecreasing
    degrees: tuple                 # exponents + 1
    layer_dims: tuple              # r_1..r_h
    symmetrizer: tuple = field(repr=False, default=())  # d_i with d_i A[i][j] symmetric

    def pairing(self, coords, i: int) -> int:
        """Value of the i-th simple coroot on the root with given coordinates."""
        a = self.cartan.entries
        return sum(c * a[i][k] for k, c in enumerate(coords))

    def root_norm(self, coords) -> int:
        """Squared length (phi, phi) with short roots normalized to length 2."""
        a = self.cartan.entries
        d = self.symmetrizer
        # (alpha_m, alpha_k) = d_k * A[k][m]
        total = 0
        for k, ck in enumerate(coords):
            if not ck:
                continue
            for m, cm in enumerate(coords):
                if cm:
                    total += ck * cm * d[k] * a[k][m]
        return total


def _simple_reflection(rs_entries, coords, i):
    pairing = sum(c * rs_entries[i][k] for k, c in enumerate(coords))
    out = list(coords)
    out[i] -= pairing
    return tuple(out)


def _symmetrizer(entries) -> tuple:
    """Positive ints d_i with d_i A[i][j] = d_j A[j][i], coprime over each
    component, so the smallest is 1 on a finite type.  A component is walked
    from its first index; where d_i A[i][j] / A[j][i] is not an int, the
    component found so far is scaled first."""
    n = len(entries)
    d = [0] * n
    for start in range(n):
        if not d[start]:
            d[start], comp = 1, [start]
            for i in comp:      # comp grows as the walk reaches new indices
                for j in range(n):
                    if entries[i][j] and not d[j]:
                        num, den = d[i] * entries[i][j], entries[j][i]
                        for k in comp:
                            d[k] *= abs(den) // gcd(num, den)
                        d[j] = d[i] * entries[i][j] // den
                        comp.append(j)
            g = gcd(*(d[k] for k in comp))
            for k in comp:
                d[k] //= g
    if any(d[i] * entries[i][j] != d[j] * entries[j][i] for i in range(n) for j in range(n)):
        raise NonFiniteType("Cartan matrix is not symmetrizable")
    return tuple(d)


def build_root_system(cm: CartanMatrix) -> RootSystem:
    """Close the simple roots under simple reflections.

    Raises NonFiniteType when root heights exceed 10 * rank**2, which a
    finite type never does.
    """
    cm.validate()
    n = cm.rank
    bound = 10 * n * n
    entries = cm.entries
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    seen = set(simple)
    queue = list(simple)
    while queue:
        coords = queue.pop()
        for i in range(n):
            img = _simple_reflection(entries, coords, i)
            if any(c < 0 for c in img):
                continue
            if img in seen:
                continue
            if sum(img) > bound:
                raise NonFiniteType(
                    f"root height exceeded bound {bound}; Cartan matrix is not of finite type")
            seen.add(img)
            queue.append(img)
    roots = sorted(seen, key=lambda c: (sum(c), c))
    heights = tuple(sum(c) for c in roots)
    hmax = max(heights)
    coxeter = hmax + 1
    layers = _layer_dims(n, heights, coxeter)
    degrees = tuple(sorted(dual_partition(layers)))
    if sum(degrees) != n + len(roots):
        raise NonFiniteType("degree/layer bookkeeping failed; input is not finite type")
    exponents = tuple(d - 1 for d in degrees)
    sym = _symmetrizer(entries)
    return RootSystem(
        cartan=cm,
        rank=n,
        positive_roots=tuple(roots),
        heights=heights,
        num_positive=len(roots),
        coxeter_number=coxeter,
        exponents=exponents,
        degrees=degrees,
        layer_dims=layers,
        symmetrizer=sym,
    )


def _layer_dims(rank: int, heights, coxeter: int) -> tuple:
    # r_1 = rank; r_m = number of positive roots of height m-1 for m >= 2
    out = [rank]
    for m in range(2, coxeter + 1):
        out.append(sum(1 for h in heights if h == m - 1))
    return tuple(out)


def dual_partition(parts) -> tuple:
    """Public helper: dual of a partition given in any order (nonincreasing result)."""
    if not parts:
        return ()
    top = max(parts)
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, top + 1))
