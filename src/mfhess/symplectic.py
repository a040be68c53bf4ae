"""Orbit symplectic form and Lagrangian verdicts at points.

Every tangent vector to an adjoint orbit at x is [x, z] for some bracket
preimage z, and the orbit form evaluates on preimages:
omega_x([x, z1], [x, z2]) = (x, [z2, z1]).  By the invariance of the trace
form that value is also ([x, z2], z1), one Killing pairing of a preimage
with a tangent, so no two preimages are ever bracketed.  The definitional
omega below is the reference for that identity and the subject of the
well-definedness check (the value only depends on the tangent vectors:
shifting a preimage by a centralizer element leaves it unchanged).

Every verdict here is a rank or a vanishing test, and neither changes when
a vector is scaled by a positive integer.  So a visited point arrives as a
canonical cleared vector (rational.canonical), as the sampler and
hessenberg.slice_sample draw it, and stays on integers to its verdict.  A
TangentFrame holds integer preimages and integer tangents, each list over
one positive denominator; omega, the pairing determinant and an isotropy
witness are reduced integer pairs.

A point x of Hess is settled by one HessVisit, the only holder of what is
known at x and the only code that knows the pairing certificate.  Each part
is built on its first read: the b gradients (one gradient_rows call) and
their rank, one bracket pass [x, g] over them, and one ad x (its n_- columns
are the slice tangents [x, e_j]), so a visit that reads only the slice, as
check 16 does, evaluates no gradient.  The b x n Jacobian
J_ij = (g_i, [x, e_j]) is read by invariance as -([x, g_i], e_j), one
sparse Killing row per entry, from those brackets; M is its n rows of
derived gradients, and the whole is built only where the certificate
fails.  It holds when det M is nonzero, the slice tangents are isotropic,
the underived gradients commute with x and have rank l (one l x dim rank
call).  Then, in exact linear algebra:
- the n Hamiltonian tangents and the n slice tangents are each independent
  (M pairs the slice tangents with the g_i, and -M the Hamiltonian tangents
  with the e_j), so zx_dim = slice_dim = n;
- a vector in both spans pairs to zero with every slice preimage e_k, as
  the slice is isotropic ((e_k, [x, e_j]) = 0), while as sum c_i [x, g_i]
  it pairs with e_k to -(c M)_k; so c M = 0, c = 0, and the combined rank
  is 2n;
- the underived gradients lie in z(x), so dim z(x) >= l, and the combined
  tangents in the image of ad x, so rank ad x = dim - l = 2n: x is
  regular and its orbit has dimension 2n;
- ad x maps a relation sum a_i g_i + sum c_k h_k = 0 among the gradients
  (h_k the underived ones) to sum a_i [x, g_i] = 0, so a = 0 and then
  c = 0: the b gradients are independent and x is strongly regular;
- M is n rows of the Jacobian, whose rank is then n.
Each claim of checks 12 to 15 and polarization is one read on the visit:
n, 2n or True where the certificate holds, else a rank of the matrices the
visit already holds, so every result, exception and witness is the
eliminating route's.  A certified visit drops its brackets, ad x and the
slice, which no claim reads again; a later read builds them anew.  Check
14 reads slice_dim and the slice's isotropy, check 16 the slice's rank.

At a strongly regular x the Hamiltonian vectors of the non-invariant family
generators span an n-dimensional isotropic subspace Z_x of the 2n-dimensional
orbit tangent space; at a point of the slice Hess the lower-nilradical
tangents span the n-dimensional isotropic tangent space of the orbit slice;
the two are complementary and pair nonsingularly.  All of this is certified
pointwise with exact arithmetic; slice_polarization gives these verdicts
over a sampled orbit slice through a visited point as one bool per point,
and polarization_report through a point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .liealgebra import LieAlgebra
from .invariants import InvariantFamily
from .argshift import ShiftFamily
from .hessenberg import HessChart, point_in_hess, slice_sample
from .rational import reduced


class NotStronglyRegular(Exception):
    """The point does not have independent generator gradients."""


def omega(L: LieAlgebra, x, z1, z2) -> tuple:
    """Orbit form on tangents [x, z1], [x, z2] for cleared x, z1 and z2, by
    its definition (x, [z2, z1]), as the reduced pair (numerator, den)."""
    return reduced(*L.int_killing_pair(x, L.int_bracket(z2, z1)))


@dataclass
class TangentFrame:
    preimages: list    # integer numerators of the preimages z, over pden
    pden: int
    tangents: list     # integer numerators of [x, z] for each preimage z, over tden
    tden: int

    @cached_property
    def dim(self) -> int:
        """The rank of the tangents, taken on the first read."""
        return linalg.rank(self.tangents)


def _checked(visit: HessVisit) -> TangentFrame:
    """The visit's Hamiltonian frame, once ranks show its gradients and the
    frame's n tangents independent."""
    if visit.gradient_rank != visit.F.b:
        raise NotStronglyRegular("generator gradients are dependent at this point")
    if visit._frame.dim != visit.F.L.n:
        raise ValueError("Hamiltonian tangents are dependent at a strongly regular point")
    return visit._frame


def zx_frame(F: ShiftFamily, x) -> TangentFrame:
    """Hamiltonian tangent frame of the non-invariant generators at x, by
    elimination: strong regularity is the rank of the b gradients, and the
    n tangents [x, g] are ranked; no ad x is built."""
    return _checked(HessVisit(F, x))


def isotropy_witness(L: LieAlgebra, frame: TangentFrame) -> tuple | None:
    """First pair i < j with omega_x(z_i, z_j) = (z_i, [x, z_j]) nonzero, as
    (i, j, (num, den)), the value num / den reduced, or None if the frame is
    isotropic."""
    z, t = frame.preimages, frame.tangents
    for i in range(len(z)):
        zi = (z[i], frame.pden)
        for j in range(i + 1, len(z)):
            num, den = L.int_killing_pair(zi, (t[j], frame.tden))
            if num:
                return (i, j, reduced(num, den))
    return None


@dataclass
class TransversalityResult:
    zx_dim: int
    slice_dim: int
    combined_dim: int
    orbit_dim: int
    pairing_det: tuple      # the reduced pair (numerator, den)
    jacobian_rank: int
    passed: bool


class HessVisit:
    """One visit to a cleared point x of Hess (see the module docstring):
    every claim about x is one read here, and only here is the certificate
    chosen over elimination."""

    def __init__(self, F: ShiftFamily, x):
        self.F, self.x = F, x

    @cached_property
    def gradients(self) -> tuple:
        """The b family gradients at x, (integer rows, positive den)."""
        return self.F.gradient_rows(self.x)

    @cached_property
    def gradient_rank(self) -> int:
        """b exactly where x is strongly regular."""
        return linalg.rank(self.gradients[0])

    @cached_property
    def _tangents(self) -> list:
        rows, den = self.gradients
        return [self.F.L.int_bracket(self.x, (g, den))[0] for g in rows]

    @cached_property
    def _frame(self) -> TangentFrame:
        """The derived gradients' frame."""
        (rows, den), N = self.gradients, self.F.N_positions
        return TangentFrame(preimages=[rows[i] for i in N], pden=den,
                            tangents=[self._tangents[i] for i in N], tden=self.x[1] * den)

    @cached_property
    def _adx(self) -> tuple:
        return self.F.L.int_ad(self.x)

    @cached_property
    def slice(self) -> TangentFrame:
        """Tangents [x, e_j] of the orbit slice, j in the lower nilradical:
        those columns of ad x."""
        L = self.F.L
        rows, den = self._adx
        idx = L.nminus_indices
        return TangentFrame(preimages=[[int(i == j) for j in range(L.dim)] for i in idx], pden=1,
                            tangents=[[row[j] for row in rows] for j in idx], tden=den)

    def _jacobian(self, positions) -> list:
        """Rows i of J_ij = (g_i, [x, e_j]) = -([x, g_i], e_j), one sparse
        Killing row per slice direction, over the tangents' denominator."""
        L = self.F.L
        killing = [L.int_killing[j] for j in L.nminus_indices]
        return [[-sum(t[k] * c for k, c in row) for row in killing]
                for t in (self._tangents[i] for i in positions)]

    # -- the conditions of the certificate

    @cached_property
    def pairing_det(self) -> tuple:
        """det M as a reduced pair; (0, 1) unless there are n derived members."""
        n = self.F.L.n
        M = self._jacobian(self.F.N_positions)
        return reduced(linalg.det(M) if len(M) == n else 0, self._frame.tden ** n)

    @cached_property
    def slice_isotropic(self) -> bool:
        return isotropy_witness(self.F.L, self.slice) is None

    @cached_property
    def casimirs_commute(self) -> bool:
        """Whether [x, g] vanishes for every underived member's gradient g."""
        return not any(any(self._tangents[i]) for i in self.F.I_positions)

    @cached_property
    def underived_rank(self) -> int:
        return linalg.rank([self.gradients[0][i] for i in self.F.I_positions])

    @cached_property
    def certified(self) -> bool:
        """det M nonzero, the slice isotropic, and the underived members,
        l of them, commuting with x and independent."""
        held = (bool(self.pairing_det[0]) and self.slice_isotropic and self.casimirs_commute
                and len(self.F.I_positions) == self.F.L.rank == self.underived_rank)
        if held:    # a suite pass holds its visits; nothing certified reads these again
            for name in ("_tangents", "_adx", "slice"):
                self.__dict__.pop(name, None)
        return held

    # -- the claims

    @property
    def strongly_regular(self) -> bool:
        return self.certified or self.gradient_rank == self.F.b

    @cached_property
    def orbit_dim(self) -> int:
        return 2 * self.F.L.n if self.certified else linalg.rank(self._adx[0])

    @property
    def regular(self) -> bool:
        return self.orbit_dim == 2 * self.F.L.n

    @property
    def slice_dim(self) -> int:
        return self.F.L.n if self.certified else self.slice.dim

    @property
    def frame(self) -> TangentFrame:
        """The Hamiltonian frame, raising as zx_frame does where x is not
        strongly regular or its tangents are dependent."""
        return self._frame if self.certified else _checked(self)

    @cached_property
    def transversality(self) -> TransversalityResult:
        """Check 15 at x (see transversality_check)."""
        n = self.F.L.n
        if self.certified:
            zx_dim, combined, jrank = n, 2 * n, n
        else:
            zx = self.frame
            zx_dim, combined, jrank = (zx.dim, linalg.rank(zx.tangents + self.slice.tangents),
                                       linalg.rank(self._jacobian(range(self.F.b))))
        passed = (zx_dim == self.slice_dim == jrank == n and combined == self.orbit_dim == 2 * n
                  and bool(self.pairing_det[0]))
        return TransversalityResult(zx_dim=zx_dim, slice_dim=self.slice_dim,
                                    combined_dim=combined, orbit_dim=self.orbit_dim,
                                    pairing_det=self.pairing_det, jacobian_rank=jrank,
                                    passed=passed)


def _hess_visit(F: ShiftFamily, chart: HessChart, x) -> HessVisit:
    if not point_in_hess(F.L, chart.triple, x):
        raise ValueError("transversality is checked at points of the affine slice")
    return HessVisit(F, x)


def transversality_check(F: ShiftFamily, chart: HessChart, x) -> TransversalityResult:
    """At a cleared point of Hess: the Hamiltonian frame and the slice
    tangents are complementary Lagrangians of the orbit tangent space,
    nonsingularly paired.

    The pairing omega_x(g, e_i) = (g, [x, e_i]) of a derived generator's
    gradient g with a slice preimage is that generator's row of the Jacobian
    of the family along the slice tangents; its determinant is the
    fraction-free determinant of the integer pairing over its denominator,
    as a reduced integer pair.  Every dimension is read from the point's
    HessVisit.
    """
    return _hess_visit(F, chart, x).transversality


def polarization_report(F: ShiftFamily, chart: HessChart, inv: InvariantFamily,
                        v0, count: int, seed: int) -> list:
    """Whether each point of a sampled orbit slice of Hess is polarized, one
    bool per point: v0 first, then count - 1 points exp(ad z) v0.

    A point passes when it is strongly regular, its Hamiltonian frame and
    its slice tangents are Lagrangian, the two are transversal on an orbit
    of full dimension 2n, and its invariant values are v0's, taken at the
    first point.  The slice stays in Hess, so v0 must be a cleared point of
    Hess.  Each point is read from one HessVisit, and every point is
    evaluated.
    """
    return slice_polarization(chart, inv, HessVisit(F, v0), count, seed)


def slice_polarization(chart: HessChart, inv: InvariantFamily, base: HessVisit,
                       count: int, seed: int) -> list:
    """polarization_report on the slice through the point of base, whose
    verdict is read from base itself."""
    F, v0 = base.F, base.x
    if not point_in_hess(F.L, chart.triple, v0):
        raise ValueError("polarization is checked on slices through points of Hess")
    values = inv.compiled.values(v0)
    rng = random.Random(f"{seed}:polarization")
    out = []
    for k, x in enumerate([v0] + slice_sample(F.L, v0, max(count - 1, 0), rng)):
        visit = _hess_visit(F, chart, x) if k else base
        try:
            ok = (visit.transversality.passed and isotropy_witness(F.L, visit.frame) is None
                  and visit.slice_isotropic)
        except NotStronglyRegular:
            ok = False
        out.append((not k or inv.compiled.values(x) == values) and ok)
    return out
