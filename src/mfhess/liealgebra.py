"""Chevalley-basis realization of a semisimple Lie algebra.

Basis order: root vectors for the positive roots (in root order), the simple
coroots h_1..h_l, then root vectors for the negative roots.  Signs are
resolved by the classical extraspecial-pair rule: positive roots are totally
ordered by (height, coordinates); for each positive root t that is a sum of
two positive roots, the decomposition t = r + s with r minimal is assigned
the positive constant p+1, where p is the largest integer with s - p*r still
a root.  Every other constant follows from antisymmetry, the opposition
symmetry N(-a,-b) = -N(a,b), the cyclic relation N(a,b)/(c,c) = N(b,c)/(a,a)
for a+b+c = 0, and the Jacobi identity.  The Killing form is the trace form
of the adjoint representation, which cross-validates the constants.

Everything here runs on ints.  The resolver keeps every N(a, b) an int, each
ratio of the integer root norms an exact division (a remainder raises
ConstructionFailure), and a LieAlgebra refuses any structure constant or
Killing entry that is not an int (a Fraction or a float planted through
dataclasses.replace among them).  Every vector taken or returned is a
cleared vector, integer numerators over one positive denominator, and one
handed on is canonical (rational.canonical); a basis vector is a list of
ints over 1.  int_bracket, int_ad and int_killing_pair return integer
numerators over the product of the denominators, and the principal triple,
check 3's decomposition and check 2 (validate_algebra) run on the same ints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial

from . import linalg
from .rational import all_ints, canonical
from .rootdata import RootSystem


class ConstructionFailure(Exception):
    """Structure-constant resolution produced an inconsistent table."""


class DimensionMismatch(Exception):
    """Coordinate vector of the wrong length."""


class SingularSystem(Exception):
    """A linear solve that theory guarantees solvable had no solution."""


class DecompositionFailure(Exception):
    """The adjoint decomposition did not match the expected module shapes."""


@dataclass
class LieAlgebra:
    rs: RootSystem
    dim: int
    rank: int
    n: int
    # basis index blocks
    pos_indices: tuple
    cartan_indices: tuple
    neg_indices: tuple
    # sparse table: (a, b) -> {c: int coefficient} gives [e_a, e_b]; the
    # chevalley build stores a < b only, and [e_b, e_a] is then -[e_a, e_b]
    table: dict = field(repr=False)
    # the int matrix tr(ad e_i ad e_j); built from int_table when not given
    killing: list = field(default=None, repr=False)
    # per-basis-index data
    layers: tuple = ()          # ad-w eigenvalue / 2 for each basis vector
    weights: tuple = ()         # root-lattice weight of each basis vector
    labels: tuple = ()
    # Read from table and killing by __post_init__, and so rebuilt by
    # dataclasses.replace; both hold ints with no scale, and a table or
    # Killing matrix with any other entry is refused.  int_table[a][b] lists
    # the pairs (c, coefficient of e_c in [e_a, e_b]), every stored key as
    # stored and its reverse by antisymmetry unless that is stored too.  Rows
    # are tuples, not dicts, and equal rows share one tuple: the integer
    # table then takes about half the memory of table.  int_killing[i] lists
    # the pairs (j, killing[i][j]) with a nonzero entry.
    int_table: list = field(init=False, repr=False)
    int_killing: list = field(init=False, repr=False)

    def __post_init__(self):
        if not all_ints([v for row in self.table.values() for v in row.values()]):
            raise ConstructionFailure("table: structure constants must be ints")
        cols: list = [{} for _ in range(self.dim)]
        shared: dict = {}   # one tuple per distinct row
        for (a, b), row in self.table.items():
            ints = tuple((k, v) for k, v in row.items() if v)
            cols[a][b] = shared.setdefault(ints, ints)
        for (a, b) in self.table:
            if a != b and a not in cols[b]:
                ints = tuple((k, -v) for k, v in cols[a][b])
                cols[b][a] = shared.setdefault(ints, ints)
        self.int_table = cols
        if self.killing is None:
            self.killing = _killing_matrix(self)
        elif not all_ints([c for row in self.killing for c in row]):
            raise ConstructionFailure("killing: Killing matrix entries must be ints")
        self.int_killing = [tuple((j, c) for j, c in enumerate(row) if c)
                            for row in self.killing]

    @cached_property
    def signature(self) -> str:
        """The hash of signature_hash, on first read: the cache paths and
        convention checks of one build read it several times."""
        items = [repr(self.rs.cartan.entries), repr(self.rs.positive_roots)]
        for key in sorted(self.table):
            row = self.table[key]
            items.append(f"{key}:" + ",".join(f"{c}={v}" for c, v in sorted(row.items())))
        return hashlib.sha256("|".join(items).encode()).hexdigest()[:16]

    def check_vector(self, x) -> None:
        if len(x) != self.dim:
            raise DimensionMismatch(f"expected length {self.dim}, got {len(x)}")

    # -- cleared vectors (numerators, den) in, integer numerators and one
    # positive denominator out

    def int_bracket(self, x, y) -> tuple:
        """[x, y] of cleared vectors x = (numerators, dx) and y = (..., dy),
        accumulated on the integer table, over dx * dy."""
        (nx, dx), (ny, dy) = x, y
        self.check_vector(nx)
        self.check_vector(ny)
        cols = self.int_table
        nzy = [(j, v) for j, v in enumerate(ny) if v]
        acc = [0] * self.dim
        for i, xi in enumerate(nx):
            if xi:
                ci = cols[i]
                for j, yj in nzy:
                    row = ci.get(j)
                    if row:
                        c = xi * yj
                        for k, v in row:
                            acc[k] += c * v
        return acc, dx * dy

    def int_ad(self, x) -> tuple:
        """The matrix of ad x for a cleared vector x = (numerators, dx),
        column j being [x, e_j], in one pass over the integer table: integer
        rows over dx."""
        nx, dx = x
        self.check_vector(nx)
        cols = self.int_table
        acc = [[0] * self.dim for _ in range(self.dim)]
        for i, xi in enumerate(nx):
            if xi:
                for j, row in cols[i].items():
                    for k, v in row:
                        acc[k][j] += xi * v
        return acc, dx

    def int_killing_pair(self, x, y) -> tuple:
        """(x, y) of cleared vectors x = (numerators, dx) and y = (..., dy) on
        the integer Killing rows, over dx * dy."""
        (nx, dx), (ny, dy) = x, y
        self.check_vector(nx)
        self.check_vector(ny)
        rows = self.int_killing
        total = 0
        for i, xi in enumerate(nx):
            if xi:
                for j, k in rows[i]:
                    if ny[j]:
                        total += xi * k * ny[j]
        return total, dx * dy

    def basis_vector(self, i: int) -> list:
        v = [0] * self.dim
        v[i] = 1
        return v

    def centralizer_dim(self, x) -> int:
        return self.dim - linalg.rank(self.int_ad(x)[0])

    def zero(self) -> list:
        return [0] * self.dim

    def supported_in(self, x, indices) -> bool:
        allowed = set(indices)
        return all(not v or i in allowed for i, v in enumerate(x))

    def layer_indices(self, m: int) -> tuple:
        return tuple(i for i, lay in enumerate(self.layers) if lay == m)

    @cached_property
    def bminus_indices(self) -> tuple:
        return tuple(i for i, lay in enumerate(self.layers) if lay <= 0)

    @cached_property
    def nminus_indices(self) -> tuple:
        return tuple(i for i, lay in enumerate(self.layers) if lay < 0)

    @cached_property
    def n_indices(self) -> tuple:
        return tuple(i for i, lay in enumerate(self.layers) if lay > 0)


def _roots_with_negatives(rs: RootSystem):
    pos = list(rs.positive_roots)
    index = {r: ("+", i) for i, r in enumerate(pos)}
    for i, r in enumerate(pos):
        index[tuple(-c for c in r)] = ("-", i)
    return pos, index


class _ConstantResolver:
    """Computes all bracket constants N(a, b) between root vectors, as ints:
    each ratio of root norms is taken as one exact integer division
    (_exact), and a remainder raises ConstructionFailure."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.pos, self.index = _roots_with_negatives(rs)
        self.rootset = set(self.index)
        self.order = {r: i for i, r in enumerate(self.pos)}
        self.norm = {}
        for r in self.pos:
            nr = rs.root_norm(r)
            self.norm[r] = nr
            self.norm[tuple(-c for c in r)] = nr
        self.extraspecial = self._extraspecial_pairs()
        self.memo = {}

    def _extraspecial_pairs(self):
        out = {}
        for t in self.pos:
            if sum(t) < 2:
                continue
            best = None
            for r in self.pos:
                s = tuple(tc - rc for tc, rc in zip(t, r))
                if s in self.rootset and all(c >= 0 for c in s):
                    if self.order[r] < self.order[s] and (best is None or self.order[r] < self.order[best[0]]):
                        best = (r, s)
            if best is None:
                raise ConstructionFailure(f"no decomposition for positive root {t}")
            out[t] = best
        return out

    def chain_p(self, r, s) -> int:
        """Largest p with s - p*r a root."""
        p = 0
        cur = tuple(sc - rc for sc, rc in zip(s, r))
        while cur in self.rootset:
            p += 1
            cur = tuple(c - rc for c, rc in zip(cur, r))
        return p

    def n(self, a, b):
        """Constant in [e_a, e_b] = N(a,b) e_{a+b}; a, b, a+b must be roots."""
        key = (a, b)
        if key in self.memo:
            return self.memo[key]
        val = self._compute(a, b)
        self.memo[key] = val
        return val

    def _compute(self, a, b):
        apos = a in self.order
        bpos = b in self.order
        if apos and bpos:
            if self.order[a] > self.order[b]:
                return -self.n(b, a)
            return self._positive_pair(a, b)
        if not apos and not bpos:
            return -self.n(tuple(-c for c in a), tuple(-c for c in b))
        # mixed signs: rotate through the cyclic relation for a + b + c = 0
        c = tuple(-(ai + bi) for ai, bi in zip(a, b))
        if (a in self.order) and (c in self.order):
            # pair (c, a) is the positive pair
            return self._exact(self.norm[c] * self.n(c, a), self.norm[b])
        # pair (b, c) is the all-negative pair
        return self._exact(self.norm[c] * self.n(b, c), self.norm[a])

    def _positive_pair(self, a, b):
        t = tuple(ai + bi for ai, bi in zip(a, b))
        r1, s1 = self.extraspecial[t]
        if (a, b) == (r1, s1):
            return self.chain_p(a, b) + 1
        # Jacobi identity on (e_{-r1}, e_a, e_b); the target component is e_{s1}
        n_negr1_t = self._exact(self.norm[s1] * (self.chain_p(r1, s1) + 1), self.norm[t])
        acc = 0
        bm = tuple(bi - ri for bi, ri in zip(b, r1))
        if bm in self.rootset:
            acc += self.n(b, tuple(-c for c in r1)) * self.n(a, bm)
        am = tuple(ai - ri for ai, ri in zip(a, r1))
        if am in self.rootset:
            acc += self.n(tuple(-c for c in r1), a) * self.n(b, am)
        return self._exact(-acc, n_negr1_t)

    def coroot(self, root) -> list:
        """The coefficients 2 c_k d_k / (root, root) of the coroot of root
        over the simple coroots."""
        return [self._exact(2 * c * dk, self.norm[root], "coroot coefficient")
                for c, dk in zip(root, self.rs.symmetrizer)]

    @staticmethod
    def _exact(num: int, den: int, what: str = "structure constant") -> int:
        q, r = divmod(num, den)
        if r:
            raise ConstructionFailure(f"non-integer {what} {num}/{den}")
        return q


def chevalley_algebra(rs: RootSystem) -> LieAlgebra:
    """Build the algebra with integer structure constants from a root system.

    The exhaustive Jacobi / Killing checks of validate_algebra are not run
    here: they are check 2 of the suite, so a defective table is reported
    there with its violations instead of failing the build.
    """
    pos = list(rs.positive_roots)
    n = len(pos)
    ell = rs.rank
    dim = ell + 2 * n
    pos_indices = tuple(range(n))
    cartan_indices = tuple(range(n, n + ell))
    neg_indices = tuple(range(n + ell, dim))

    resolver = _ConstantResolver(rs)

    def eidx(sign, i):
        return i if sign == "+" else n + ell + i

    rootidx = {}
    for i, r in enumerate(pos):
        rootidx[r] = eidx("+", i)
        rootidx[tuple(-c for c in r)] = eidx("-", i)

    table: dict = {}

    def put(a, b, comp: dict):
        comp = {k: v for k, v in comp.items() if v}
        if not comp:
            return
        if a > b:
            a, b = b, a
            comp = {k: -v for k, v in comp.items()}
        table[(a, b)] = comp

    # [h_i, h_j] = 0; [h_i, e_phi] = phi(h_i) e_phi
    allroots = [(r, rootidx[r]) for r in rootidx]
    for i in range(ell):
        hi = n + i
        for r, ri in allroots:
            val = rs.pairing(r, i) if sum(r) > 0 else -rs.pairing(tuple(-c for c in r), i)
            if val:
                put(hi, ri, {ri: val})

    # [e_phi, e_psi]
    for r in rootidx:
        for s in rootidx:
            ri, si = rootidx[r], rootidx[s]
            if ri >= si:
                continue
            tsum = tuple(a + b for a, b in zip(r, s))
            if all(c == 0 for c in tsum):
                # [e_phi, e_{-phi}] = coroot of phi
                prim = r if sum(r) > 0 else s
                co = resolver.coroot(prim)
                sign = 1 if sum(r) > 0 else -1
                put(ri, si, {n + k: sign * c for k, c in enumerate(co)})
            elif tsum in rootidx:
                c = resolver.n(r, s)
                p = resolver.chain_p(r, s)
                if abs(c) != p + 1:
                    raise ConstructionFailure(
                        f"constant {c} for pair {r},{s} violates |N| = p+1 = {p + 1}")
                put(ri, si, {rootidx[tsum]: c})

    layers = [0] * dim
    weights = [None] * dim
    labels = [""] * dim
    for i, r in enumerate(pos):
        layers[i] = sum(r)
        layers[n + ell + i] = -sum(r)
        weights[i] = r
        weights[n + ell + i] = tuple(-c for c in r)
        labels[i] = "e[" + ",".join(str(c) for c in r) + "]"
        labels[n + ell + i] = "e[" + ",".join(str(-c) for c in r) + "]"
    for k in range(ell):
        weights[n + k] = tuple(0 for _ in range(ell))
        labels[n + k] = f"h[{k + 1}]"

    return LieAlgebra(
        rs=rs, dim=dim, rank=ell, n=n,
        pos_indices=pos_indices, cartan_indices=cartan_indices, neg_indices=neg_indices,
        table=table, layers=tuple(layers), weights=tuple(weights), labels=tuple(labels),
    )


def _killing_matrix(L: LieAlgebra) -> list:
    """tr(ad e_i ad e_j) for every pair i <= j, as ints, from the integer
    table: the trace is the sum over c and r of cols[j][c][r] * cols[i][r][c]."""
    cols = L.int_table
    out = [[0] * L.dim for _ in range(L.dim)]
    for i in range(L.dim):
        ci = {r: dict(row) for r, row in cols[i].items()}
        for j in range(i, L.dim):
            tr = 0
            for c, col in cols[j].items():
                for r, v in col:
                    back = ci.get(r)    # [e_i, e_r]
                    if back and c in back:
                        tr += v * back[c]
            out[i][j] = out[j][i] = tr
    return out


def validate_algebra(L: LieAlgebra) -> list:
    """Exhaustive antisymmetry / Jacobi / Killing invariance on basis triples.

    Everything is read from the integer table and the integer Killing rows:
    [e_i, e_j] is the sparse column cols[i][j], so a key stored against the
    table's a < b convention is seen (as [e_i, e_i] != 0 or as an
    antisymmetry failure).  Each identity is a sum over one common
    denominator, tested for zero on its integer numerator.
    """
    errs = []
    cols, krows = L.int_table, L.int_killing
    for i in range(L.dim):
        if cols[i].get(i):
            errs.append(f"[b{i}, b{i}] != 0")
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            total = dict(cols[i].get(j, ()))
            for k, v in cols[j].get(i, ()):
                total[k] = total.get(k, 0) + v
            if any(total.values()):
                errs.append(f"antisymmetry fails on ({i},{j})")
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
                term: dict = {}
                for u, t in ((cols[i].get(j, ()), k), (cols[j].get(k, ()), i),
                             (cols[k].get(i, ()), j)):
                    for r, c in u:
                        for s, v in cols[r].get(t, ()):
                            term[s] = term.get(s, 0) + c * v
                if any(term.values()):
                    errs.append(f"Jacobi fails on ({i},{j},{k})")
                    if len(errs) > 3:
                        return errs
    for i in range(L.dim):
        ci = cols[i]
        # into[r]: the pairs (k, coefficient of e_r in [e_i, e_k])
        into: dict = {}
        for k, col in ci.items():
            for r, c in col:
                into.setdefault(r, []).append((k, c))
        for j in range(L.dim):
            # over k: ([e_i, e_j], e_k) + (e_j, [e_i, e_k])
            lhs: dict = {}
            for r, c in ci.get(j, ()):
                for k, v in krows[r]:
                    lhs[k] = lhs.get(k, 0) + c * v
            for r, v in krows[j]:
                for k, c in into.get(r, ()):
                    lhs[k] = lhs.get(k, 0) + v * c
            for k in sorted(k for k, v in lhs.items() if v):
                errs.append(f"Killing invariance fails on ({i},{j},{k})")
                if len(errs) > 3:
                    return errs
    if linalg.rank(L.killing) != L.dim:
        errs.append("Killing form is degenerate")
    return errs


def signature_hash(L: LieAlgebra) -> str:
    """Hash of the sign/ordering conventions baked into the structure
    constants: LieAlgebra.signature, computed once per algebra."""
    return L.signature


@dataclass
class PrincipalTriple:
    """The S-triple {w, e, f} and e1 = e / (e, f), each a canonical point."""
    w: tuple
    e: tuple
    f: tuple
    e1: tuple


@dataclass
class PrincipalDecomposition:
    modules: list          # one list of canonical vectors per irreducible summand
    exponents: tuple       # ad-w weight of each highest weight vector, halved
    chains: list           # chains z_{j k} = (ad f / 2)^k z_j, k = 0..m_j


def cartan_from_root_values(L: LieAlgebra, values) -> tuple:
    """The Cartan element whose simple-root values are the given integers,
    as a canonical point: alpha_i(w) = sum_j c_j A[j][i] solved on integers
    for the coefficients c_j."""
    a = L.rs.cartan.entries
    at = [[a[j][i] for j in range(L.rank)] for i in range(L.rank)]
    try:
        coeffs, den = linalg.solve(at, list(values))
    except ValueError as exc:
        raise SingularSystem(str(exc))
    w = L.zero()
    for j, c in enumerate(coeffs):
        w[L.cartan_indices[j]] = c
    return tuple(w), den


def principal_triple(L: LieAlgebra) -> PrincipalTriple:
    """The S-triple {w, e, f}: w in the Cartan with every simple root value 2,
    f the sum of the negative simple root vectors, e solved from [e, f] = w;
    and e1 = e / (e, f).  Each is solved and tested on integers."""
    simple = [i for i, r in enumerate(L.rs.positive_roots) if sum(r) == 1]
    simple_pos = [L.pos_indices[i] for i in simple]
    w = cartan_from_root_values(L, [2] * L.rank)
    fn = L.zero()
    for i in simple:
        fn[L.neg_indices[i]] = 1
    f = (tuple(fn), 1)

    # solve [sum c_i e_{alpha_i}, f] = w for the c_i on the numerators of w
    cols = [L.int_bracket((L.basis_vector(idx), 1), f)[0] for idx in simple_pos]
    mat = [[col[k] for col in cols] for k in range(L.dim)]
    try:
        ce, cden = linalg.solve(mat, w[0])
    except ValueError as exc:
        raise SingularSystem(f"no solution for the nilpositive element: {exc}")
    if not all(ce):
        raise SingularSystem("nilpositive element has a vanishing simple coefficient")
    en = L.zero()
    for c, idx in zip(ce, simple_pos):
        en[idx] = c
    e = canonical(en, cden * w[1])

    # e1 = e den / num for (e, f) = num / den
    num, den = L.int_killing_pair(e, f)
    if not num:
        raise SingularSystem("(e, f) = 0")
    sign = 1 if num > 0 else -1
    e1 = canonical([sign * den * c for c in e[0]], sign * num * e[1])

    triple = PrincipalTriple(w=w, e=e, f=f, e1=e1)
    violation = _triple_violation(L, triple)
    if violation:
        raise SingularSystem(violation)
    return triple


def _triple_violation(L: LieAlgebra, triple: PrincipalTriple) -> str | None:
    """The first S-triple relation that {w, e, f} breaks, tested on the
    integer numerators, or None."""
    w, e, f = triple.w, triple.e, triple.f
    for (vn, vd), target, name in ((f, -2, "f"), (e, 2, "e")):
        # [w, v] over w[1] vd is target v exactly when its numerators are
        # target w[1] times those of v
        got, _ = L.int_bracket(w, (vn, vd))
        if any(g != target * w[1] * c for g, c in zip(got, vn)):
            return f"[w, {name}] != {target} {name}"
    if canonical(*L.int_bracket(e, f)) != w:
        return "[e, f] != w"
    return None


def principal_decomposition(L: LieAlgebra, triple: PrincipalTriple) -> PrincipalDecomposition:
    """Split the algebra into irreducible modules under the principal triple,
    once its S-triple relations hold.

    Highest weight vectors are the kernel of ad e; ad w acts on them with
    even nonnegative eigenvalues 2*m_j; applying (ad f / 2)^{m_j} lands in
    the Cartan, giving the representative z_j; further lowering gives the
    triangular chains whose union is a basis of the lower Borel subalgebra.

    Everything runs on integer numerators.  The highest weight vectors are
    the reduced echelon basis of ker ad e, ordered by layer and then by
    leading column: the kernel basis of the column-reversed system, read
    back in order, has a unit on each vector's leading column and zeros on
    the others', so it is that basis.  ad e raises the layer by one, so each
    of its vectors lies in one layer.  Each lowering chain is a run of
    int_bracket on one growing denominator, and every vector handed on is
    canonical.
    """
    violation = _triple_violation(L, triple)
    if violation:
        raise DecompositionFailure(violation)
    rows, _ = L.int_ad(triple.e)    # a positive scale leaves the kernel
    ker, kden = linalg.kernel([row[::-1] for row in rows])
    if len(ker) != L.rank:
        raise DecompositionFailure(
            f"kernel of ad e has dimension {len(ker)}, expected {L.rank}")
    hw = []
    for v in ker:
        v = v[::-1]
        hit = sorted({L.layers[i] for i, c in enumerate(v) if c})
        if len(hit) != 1:
            raise DecompositionFailure("a kernel vector of ad e is not ad-w homogeneous")
        hw.append((hit[0], next(i for i, c in enumerate(v) if c), canonical(v, kden)))
    hw.sort()
    exps = tuple(m for m, _, _ in hw)
    if sorted(exps) != list(L.rs.exponents):
        raise DecompositionFailure(
            f"exponents from the decomposition {exps} != {L.rs.exponents}")

    modules = []
    chains = []
    for m, _, v in hw:
        mod = [v]
        for _ in range(2 * m):
            mod.append(L.int_bracket(triple.f, mod[-1]))
        if any(L.int_bracket(triple.f, mod[-1])[0]):
            raise DecompositionFailure("lowering chain did not terminate at depth 2m+1")
        modules.append([canonical(*u) for u in mod])
        # z_j = (ad f / 2)^m applied to the highest weight vector
        z = canonical(mod[m][0], mod[m][1] << m)
        if not L.supported_in(z[0], L.cartan_indices):
            raise DecompositionFailure("Cartan representative is not in the Cartan")
        chain = [z]
        for _ in range(m):
            nums, den = L.int_bracket(triple.f, chain[-1])
            chain.append(canonical(nums, 2 * den))
        chains.append(chain)

    if linalg.rank([u for mod in modules for u, _ in mod]) != L.dim:
        raise DecompositionFailure("module sum is not direct")
    if linalg.rank([u for ch in chains for u, _ in ch]) != L.rank + L.n:
        raise DecompositionFailure("triangular chains do not span the lower Borel")
    return PrincipalDecomposition(modules=modules, exponents=exps, chains=chains)


def is_regular(L: LieAlgebra, x) -> bool:
    """True when the centralizer of the cleared point x has the minimal
    possible dimension (the rank)."""
    return L.centralizer_dim(x) == L.rank


def exp_ad_nilpotent(L: LieAlgebra, z, v) -> tuple:
    """exp(ad z) applied to v for nilpotent ad z (the series terminates), for
    cleared z and v, as a canonical point.

    The series is summed on integers.  With z and v numerators over dz and
    dv, the k-th bracket (ad z)^k v from int_bracket is over dv dz^k; the
    sum up to the last nonzero term K is taken over K! dv dz^K."""
    term = v
    terms = [term[0]]
    k = 0
    while True:
        k += 1
        term = L.int_bracket(z, term)
        if not any(term[0]):
            break
        if k > L.dim + 1:
            raise ValueError("exp(ad z) series did not terminate; z is not ad-nilpotent")
        terms.append(term[0])
    # term j is over dv dz^j; over the common denominator it gains
    # K! / j! dz^(K - j)
    top, dz = len(terms) - 1, z[1]
    out = [0] * L.dim
    weight = 1
    for j in range(top, -1, -1):
        for i, c in enumerate(terms[j]):
            if c:
                out[i] += weight * c
        weight *= j * dz
    return canonical(out, term[1] // dz * factorial(top))
