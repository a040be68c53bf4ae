"""The affine slice through the normalized nilpositive element.

Hess is the translate e1 + (lower Borel), where e1 is the multiple of the
nilpositive element normalized against f by the Killing form.  Restriction
of polynomial functions to Hess is substitution of the affine
parametrization s -> e1 + sum_g s_g frame_g, done for the whole family in
one integer pass (polyring.restrict_affine); the frame is dual (under the
Killing pairing of the upper and lower Borel) to the gradient frame
z_beta = dq_beta(e1) of an ordered shift family, and is read from the one
integer inverse (linalg.inverse) of the integer pairing of the gradient
rows with the integer Killing rows, whose singularity is the basis test.

In these coordinates the restricted generators are unitriangular: the
restriction of q_beta is s_beta plus a polynomial in the strictly earlier
coordinates, with unit diagonal derivative.  That makes the generator value
map invertible on Hess by one ascending division-free substitution pass,
which is the exact section implemented here.

Orbit slices of Hess are cut out by fixing the values of the underived
invariants; slice_sample draws points exp(ad z) v0, z in the lower
nilradical, of the slice through v0, and their infinitesimal structure
(tangents from the lower nilradical, trivial isotropy) is read from ad x by
the slice of a symplectic.HessVisit.

Points, value vectors and chart coordinates s are canonical cleared
vectors (rational.canonical), so equal vectors have equal pairs.  Both
frames are held once, as integer rows over one positive denominator
(rows, den): the gradient frame as frame_rows gives it, the dual frame over
the LCM of its vectors' reduced denominators.  The chart sums its points on
integers over the dual frame's nonzeros, the section solves on them, slice
points come from exp_ad_nilpotent on integers, and check 11's series are
series of ints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd

from . import linalg
from .liealgebra import LieAlgebra, PrincipalTriple, exp_ad_nilpotent
from .argshift import ShiftFamily
from .polyring import CompiledPolys, restrict_affine
from .rational import canonical, draw, reduced
from .rootdata import RootSystem


class NotTriangular(Exception):
    """The restricted generators failed unitriangularity (upstream bug)."""


def point_in_hess(L: LieAlgebra, triple: PrincipalTriple, v) -> bool:
    """True when the cleared point v lies on e1 + b_-: v agrees with e1 on
    the upper nilradical.  A vector of the wrong length raises
    DimensionMismatch."""
    (vn, vd), (en, ed) = v, triple.e1
    L.check_vector(vn)
    return all(vn[i] * ed == en[i] * vd for i in L.n_indices)


def restrict_to_hess(L: LieAlgebra, triple: PrincipalTriple, polys,
                     frame: list | None = None) -> list:
    """Restrictions of polys to Hess as polynomials in the frame coordinates.

    frame, a list of cleared vectors, defaults to the Chevalley basis of the
    lower Borel; a chart substitutes its dual frame instead.
    """
    if frame is None:
        frame = [(L.basis_vector(i), 1) for i in L.bminus_indices]
    return restrict_affine(polys, triple.e1, frame)


def _unitriangular_violation(restricted: list) -> str | None:
    """Why the restricted generators are not unitriangular, or None.

    Generator bi must not involve any coordinate after s_bi, and its only
    term involving s_bi must be s_bi itself with coefficient 1 (that is, its
    derivative along s_bi is 1).  Generators are taken in order and the
    diagonal is tested before the later coordinates.
    """
    for bi, rp in enumerate(restricted):
        diagonal = False
        later = None
        for e, c in rp.nums.items():
            if e[bi]:
                if c != rp.den or sum(e) != 1:
                    return f"diagonal derivative of restricted generator {bi + 1} is not 1"
                diagonal = True
            for gi in range(bi + 1, len(e)):
                if e[gi]:
                    if later is None or gi < later:
                        later = gi
                    break
        if not diagonal:
            return f"diagonal derivative of restricted generator {bi + 1} is not 1"
        if later is not None:
            return f"restricted generator {bi + 1} depends on later coordinate {later + 1}"
    return None


@dataclass
class HessChart:
    triple: PrincipalTriple
    # frame_rows(F): z_beta = dq_beta(e1), a basis of the upper Borel, as
    # integer rows over one positive denominator (rows, den)
    zvecs: tuple
    # the dual frame in the lower Borel, (z_beta, frame_gamma) = delta, in the
    # same form: frame vector g is rows[g] / den, den the LCM of the reduced
    # denominators of the frame vectors
    frame: tuple
    restricted: list       # restrictions of the generators, in frame coordinates

    # each restricted generator compiled alone, on first read: the section
    # evaluates one per step, and no build stage reads them
    @cached_property
    def compiled(self) -> list:
        return [CompiledPolys([rp]) for rp in self.restricted]

    # each frame row's nonzero (index, numerator) pairs, on first read: a
    # frame row is zero off its layer of b_-
    @cached_property
    def frame_support(self) -> list:
        return [[(i, c) for i, c in enumerate(row) if c] for row in self.frame[0]]

    @property
    def b(self) -> int:
        return len(self.zvecs[0])

    def point_from_cleared(self, snums, sden: int) -> tuple:
        """The point e1 + sum_g s_g frame_g of Hess for s = snums / sden,
        summed on integers over the frame's nonzeros, as a canonical point.

        With the frame Fr / df and e1 = E / de, coordinate i is
        (E_i sden df + de sum_g snums_g Fr_gi) / (de sden df)."""
        fden, (enums, eden) = self.frame[1], self.triple.e1
        acc = [0] * len(enums)
        for s, support in zip(snums, self.frame_support):
            if s:
                for i, c in support:
                    acc[i] += s * c
        scale = sden * fden
        return canonical([e * scale + eden * a for e, a in zip(enums, acc)], eden * scale)


def frame_rows(F: ShiftFamily) -> tuple:
    """The b gradients at e1 as integer rows over one positive denominator,
    (rows, den), equal to F.gradient_rows(e1), compiled from only the family
    terms whose gradient at e1 can be nonzero (CompiledPolys grad_at): e1 is
    zero off the simple root vectors, so most terms drop out.  The family's
    own compiled form is left unbuilt."""
    e1 = F.triple.e1
    return CompiledPolys(F.qs, grad_at=e1[0]).int_gradients(F.ctx, e1)


def build_chart(F: ShiftFamily) -> HessChart:
    """Gradient frame at e1, its dual coordinates, restricted generators.

    Verifies exactly that the frame is a basis of the upper Borel supported
    layer by layer, and that the restricted generators are unitriangular;
    a violation raises NotTriangular.  The gradients at e1 are the integer
    rows of frame_rows (over den), read from the terms that reach e1 and
    not from the family's compiled form: they are paired with the lower
    Borel basis on the integer Killing matrix into the integer matrix P, and
    frame vector g is den times column g of P^-1, read from the one
    linalg.inverse as integer rows over one denominator.  The rows lie in
    the upper Borel once the layer test passes, and the Killing pairing of
    the upper with the lower Borel is nondegenerate, so P is singular
    exactly when the rows are dependent: the inverse's ValueError is the
    basis test.
    """
    L = F.L
    triple = F.triple
    rows, den = frame_rows(F)
    for e, row in zip(F.entries, rows):
        if not L.supported_in(row, L.layer_indices(e.m - 1)):
            raise NotTriangular(
                f"frame vector for position {e.beta} is not in layer {e.m - 1}")
    # (z_beta, e_mu) = pairing[beta][mu] / den on the integer Killing matrix
    pairing = [[sum(z * L.killing[i][idx] for i, z in enumerate(row) if z)
                for idx in L.bminus_indices] for row in rows]
    try:
        inv, iden = linalg.inverse(pairing)
    except ValueError:
        raise NotTriangular("gradient frame at e1 is not a basis of the upper Borel") from None
    # one gcd puts the frame over the LCM of its vectors' reduced
    # denominators, the smallest ints for restrict_affine to multiply
    k = gcd(iden, den * gcd(*chain.from_iterable(inv)))
    frows = [L.zero() for _ in range(F.b)]
    for idx, inv_row in zip(L.bminus_indices, inv):
        for vec, c in zip(frows, inv_row):
            vec[idx] = den * c // k
    fden = iden // k
    restricted = restrict_to_hess(L, triple, [e.poly for e in F.entries],
                                  [(vec, fden) for vec in frows])
    violation = _unitriangular_violation(restricted)
    if violation:
        raise NotTriangular(violation)
    return HessChart(triple=triple, zvecs=(rows, den), frame=(frows, fden),
                     restricted=restricted)


def hess_section(chart: HessChart, cvals) -> tuple:
    """The point of Hess whose generator values are the cleared vector
    cvals, solved ascending, as a canonical point.

    Each step is linear in the next coordinate with unit coefficient, so the
    solve is division free and exact for every input tuple.  The solved
    coordinates are held as integer numerators over their common
    denominator, which grows only when a new coordinate's reduced
    denominator does not divide it.
    """
    cnums, cden = cvals
    if len(cnums) != chart.b:
        raise ValueError(f"expected {chart.b} values, got {len(cnums)}")
    snums, sden = [0] * chart.b, 1
    for bi, c in enumerate(cnums):
        # snums[bi] and every later coordinate are still 0 here, so this is
        # generator bi without its diagonal term s_bi
        (rest,), whole = chart.compiled[bi].int_values(snums, sden)
        # s_bi = c / cden - rest / whole
        num, den = reduced(c * whole - cden * rest, cden * whole)
        if sden % den:
            grow = den // gcd(sden, den)
            snums = [v * grow for v in snums]
            sden *= grow
        snums[bi] = num * (sden // den)
    return chart.point_from_cleared(snums, sden)


# -- orbit slices ------------------------------------------------------------


def slice_sample(L: LieAlgebra, v0, count: int, rng: random.Random,
                 coeff_bound: int = 3) -> list:
    """Points exp(ad z) v0 for random z in the lower nilradical (exact), its
    coordinates drawn a / q with q in 1..2."""
    out = []
    idx = L.nminus_indices
    for _ in range(count):
        znums, zden = draw(rng, len(idx), coeff_bound, 2)
        z = [0] * L.dim
        for i, c in zip(idx, znums):
            z[i] = c
        out.append(exp_ad_nilpotent(L, (z, zden), v0))
    return out


# -- graded series -----------------------------------------------------------


def _series_mul(a: list, b: list, order: int) -> list:
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def _geometric(k: int, order: int) -> list:
    return [int(i % k == 0) for i in range(order + 1)]


def poincare_series(rs: RootSystem, order: int) -> list:
    """Graded dimension series of the generator algebra, to the given order,
    as ints.

    Computed in two ways: over the invariant degrees (for each j the factors
    1/(1-t^i), i = 1..d_j) and over the layer dimensions (factors
    1/(1-t^m)^{r_m}).  Raises if the truncations disagree.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    f1 = [1] + [0] * order
    for d in rs.degrees:
        for i in range(1, d + 1):
            f1 = _series_mul(f1, _geometric(i, order), order)
    f2 = [1] + [0] * order
    for m, r in enumerate(rs.layer_dims, start=1):
        for _ in range(r):
            f2 = _series_mul(f2, _geometric(m, order), order)
    if f1 != f2:
        raise ValueError("the two series factorizations disagree")
    return f1
