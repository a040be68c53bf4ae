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
canonical cleared vector (integer numerators over one denominator,
rational.canonical), as the sampler and hessenberg.slice_sample draw it,
and stays on integers from its gradients to its verdict; omega returns its
value as a reduced integer pair.  A TangentFrame holds integer preimages
and integer tangents, each list over one positive denominator.
The Hamiltonian tangents are LieAlgebra.int_bracket(x, z) and the pairings
LieAlgebra.int_killing_pair.  ad x (LieAlgebra.int_ad) is built only where
its columns are read, once per point: the slice tangents are its n_-
columns.  The pairing determinant and an isotropy witness are reduced
integer pairs.

A point x of Hess is settled by one certificate (pairing_certificate),
built from the b gradients, the brackets [x, g], one ad x and the n x n
pairing M_ij = (g_i, [x, e_j]) of the derived gradients with the slice
tangents (read as -([x, g_i], e_j), one sparse Killing row per entry), with
one l x dim rank call.  It holds when det M is nonzero, the
slice tangents are isotropic, the underived gradients commute with x and
are independent.  Then, in exact linear algebra:
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
- M is n rows of the b x n Jacobian, whose rank is then n.
Transversality (check 15 and every polarization point) and checks 12 and
13 read these dimensions from it.  Where it fails they eliminate, in the
order zx_frame, slice_frame, the ranks of the combined tangents, ad x and
the Jacobian, so every result, exception and witness is the eliminating
route's.

At a strongly regular x the Hamiltonian vectors of the non-invariant family
generators span an n-dimensional isotropic subspace Z_x of the 2n-dimensional
orbit tangent space; at a point of the slice Hess the lower-nilradical
tangents span the n-dimensional isotropic tangent space of the orbit slice;
the two are complementary and pair nonsingularly.  All of this is certified
pointwise with exact arithmetic; polarization_report gives these verdicts
over a sampled orbit slice as one bool per point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import linalg
from .liealgebra import LieAlgebra
from .invariants import InvariantFamily
from .argshift import GradientVisit, ShiftFamily, gradient_visit
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
    dim: int
    gradients: list | None = None   # zx_frame: all b family gradients at x, over pden
    point: tuple | None = None      # zx_frame: x, cleared


def slice_frame(L: LieAlgebra, adx, dim: int | None = None) -> TangentFrame:
    """Tangents [x, e_i] of the orbit slice, i in the lower nilradical: those
    columns of ad x = (integer rows, den).  The dimension is their rank,
    taken here unless a certificate already gave it as dim."""
    rows, den = adx
    idx = L.nminus_indices
    tangents = [[row[j] for row in rows] for j in idx]
    units = [[int(i == j) for j in range(L.dim)] for i in idx]
    return TangentFrame(preimages=units, pden=1, tangents=tangents, tden=den,
                        dim=linalg.rank(tangents) if dim is None else dim)


def zx_frame(F: ShiftFamily, x, visit: GradientVisit | None = None) -> TangentFrame:
    """Hamiltonian tangent frame of the non-invariant generators at x.

    Requires strong regularity, read from the rank of the visit's gradient
    matrix; the n tangents [x, g] are verified independent.  visit is the
    gradient_visit of x when one was already built (a failed certificate
    hands its own), else it is built here.  The frame carries all b
    gradients, the only ones built for this visit, and the cleared point;
    it builds no ad x.
    """
    if visit is None:
        visit = gradient_visit(F, x)
    if visit.rank != F.b:
        raise NotStronglyRegular("generator gradients are dependent at this point")
    frame = _hamiltonian_frame(F, visit)
    if linalg.rank(frame.tangents) != F.L.n:
        raise ValueError("Hamiltonian tangents are dependent at a strongly regular point")
    return frame


def _hamiltonian_frame(F: ShiftFamily, visit: GradientVisit) -> TangentFrame:
    """The tangents [x, g] of the derived gradients at the visit's point,
    with dimension n, which the caller proves."""
    L = F.L
    xc, rows, den = visit.point, visit.rows, visit.den
    preimages = [rows[i] for i in F.N_positions]
    brackets = [L.int_bracket(xc, (g, den)) for g in preimages]
    return TangentFrame(preimages=preimages, pden=den, tangents=[t for t, _ in brackets],
                        tden=brackets[0][1], dim=L.n, gradients=rows, point=xc)


def casimirs_commute(F: ShiftFamily, frame: TangentFrame) -> bool:
    """Whether the gradient of every underived family member commutes with x,
    read from a zx_frame at x: the Hamiltonian vectors of the invariants
    vanish."""
    L = F.L
    return not any(any(L.int_bracket(frame.point, (frame.gradients[i], frame.pden))[0])
                   for i in F.I_positions)


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
class PairingCertificate:
    """One visit to a point x of Hess: its gradient visit and, only when
    the certificate holds, the Hamiltonian frame with dimension n.  The
    visit's rank is not taken, and neither ad x nor the slice tangents are
    kept: a suite pass holds the certificates of all its Hess points at
    once, and checks 12 and 13 read only these two."""
    visit: GradientVisit
    frame: TangentFrame | None = None

    @property
    def holds(self) -> bool:
        return self.frame is not None


def pairing_certificate(F: ShiftFamily, x) -> PairingCertificate:
    """Build the certificate at the cleared point x (see the module
    docstring): det M nonzero, the slice isotropic, the underived gradients
    commuting with x and of rank l.  A family without n derived and l
    underived members is never certified."""
    return _certify(F, x)[0]


def _certify(F: ShiftFamily, x) -> tuple:
    """pairing_certificate at x, with the slice tangents (dimension n) and
    the pairing determinant as a reduced pair where it holds, which only
    transversality reads, else None for both."""
    L = F.L
    visit = gradient_visit(F, x)
    cert = PairingCertificate(visit=visit)
    if len(F.N_positions) != L.n or len(F.I_positions) != L.rank:
        return cert, None, None
    zx = _hamiltonian_frame(F, visit)
    # M_ij = (g_i, [x, e_j]) = -([x, g_i], e_j) by invariance: one sparse
    # Killing row per slice direction, over the tangents' denominator
    num = linalg.det([[-sum(t[k] * c for k, c in L.int_killing[j]) for j in L.nminus_indices]
                      for t in zx.tangents])
    sl = slice_frame(L, L.int_ad(x), L.n)
    if (num and isotropy_witness(L, sl) is None and casimirs_commute(F, zx)
            and linalg.rank([visit.rows[i] for i in F.I_positions]) == L.rank):
        cert.frame = zx
        return cert, sl, reduced(num, zx.tden ** L.n)
    return cert, None, None


def hess_lagrangian_check(L: LieAlgebra, v) -> bool:
    """At the cleared point v: the lower-nilradical tangents have dimension n
    and are isotropic."""
    sl = slice_frame(L, L.int_ad(v))
    return sl.dim == L.n and isotropy_witness(L, sl) is None


@dataclass
class TransversalityResult:
    zx_dim: int
    slice_dim: int
    combined_dim: int
    orbit_dim: int
    pairing_det: tuple      # the reduced pair (numerator, den)
    jacobian_rank: int
    passed: bool
    frame: TangentFrame
    slice: TangentFrame
    # whether a pairing certificate gave every dimension; both routes give
    # equal results, so the route is not compared
    certified: bool = field(default=False, compare=False)


def transversality_check(F: ShiftFamily, chart: HessChart, x) -> TransversalityResult:
    """At a cleared point of Hess: the Hamiltonian frame and the slice
    tangents are complementary Lagrangians of the orbit tangent space,
    nonsingularly paired.

    The pairing omega_x(g, e_i) = (g, [x, e_i]) of a derived generator's
    gradient g with a slice preimage is that generator's row of the Jacobian
    of the family along the slice tangents; its determinant is the
    fraction-free determinant of the integer pairing over its denominator,
    as a reduced integer pair.

    Where pairing_certificate holds, every dimension is read from it and
    nothing is eliminated.  Where it fails, the gradient visit is the
    certificate's and every dimension is eliminated.
    """
    L = F.L
    if not point_in_hess(L, chart.triple, x):
        raise ValueError("transversality is checked at points of the affine slice")
    cert, sl, pdet = _certify(F, x)
    n = L.n
    if cert.holds:
        return TransversalityResult(zx_dim=n, slice_dim=n, combined_dim=2 * n,
                                    orbit_dim=2 * n, pairing_det=pdet, jacobian_rank=n,
                                    passed=True, frame=cert.frame, slice=sl,
                                    certified=True)
    zx = zx_frame(F, x, cert.visit)
    adx = L.int_ad(zx.point)
    sl = slice_frame(L, adx)
    combined = linalg.rank(zx.tangents + sl.tangents)
    # every entry is over the one denominator pden * tden
    jac = [[L.int_killing_pair((g, zx.pden), (t, sl.tden))[0] for t in sl.tangents]
           for g in zx.gradients]
    den = zx.pden * sl.tden
    pairing = [jac[i] for i in F.N_positions]
    pdet = reduced(linalg.det(pairing), den ** n) if sl.dim == n else (0, 1)
    orbit_dim = linalg.rank(adx[0])
    jrank = linalg.rank(jac)
    passed = (zx.dim == n and sl.dim == n
              and combined == 2 * n and orbit_dim == 2 * n
              and bool(pdet[0]) and jrank == n)
    return TransversalityResult(zx_dim=zx.dim, slice_dim=sl.dim,
                                combined_dim=combined, orbit_dim=orbit_dim,
                                pairing_det=pdet, jacobian_rank=jrank, passed=passed,
                                frame=zx, slice=sl)


def polarization_report(F: ShiftFamily, chart: HessChart, inv: InvariantFamily,
                        v0, count: int, seed: int) -> list:
    """Whether each point of a sampled orbit slice of Hess is polarized, one
    bool per point: v0 first, then count - 1 points exp(ad z) v0.

    A point passes when it is strongly regular, its Hamiltonian frame and
    its slice tangents are Lagrangian, the two are transversal on an orbit
    of full dimension 2n, and its invariant values are v0's, taken at the
    first point.  The slice stays in Hess, so v0 must be a cleared point of
    Hess.  Each point takes its dimensions, its frames and ad x from one
    transversality_check; a certified one has isotropic slice tangents
    already.  Every point is evaluated.
    """
    L = F.L
    if not point_in_hess(L, chart.triple, v0):
        raise ValueError("polarization is checked on slices through points of Hess")
    values = inv.compiled.values(v0)
    rng = random.Random(f"{seed}:polarization")
    out = []
    for k, x in enumerate([v0] + slice_sample(L, v0, max(count - 1, 0), rng)):
        try:
            res = transversality_check(F, chart, x)
        except NotStronglyRegular:
            res = None
        ok = (res is not None and isotropy_witness(L, res.frame) is None
              and res.slice_dim == L.n
              and (res.certified or isotropy_witness(L, res.slice) is None)
              and res.passed)
        out.append((not k or inv.compiled.values(x) == values) and ok)
    return out
