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
LieAlgebra.int_killing_pair.  A point's gradient matrix and its rank come
from one argshift.gradient_visit, which zx_frame builds or is handed (check
13 reads the visits check 12 built).  ad x (LieAlgebra.int_ad) is built
only where its columns are read, once per point: the slice tangents are its
n_- columns.  Transversality reads the orbit dimension and the Jacobian
rank from certificates already in hand (the combined tangents' rank with
the Casimir gradients' commuting with x, and a nonzero pairing
determinant) and eliminates ad x or the Jacobian only when one fails.  The
pairing determinant and an isotropy witness are reduced integer pairs.

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
from dataclasses import dataclass

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


def slice_frame(L: LieAlgebra, adx) -> TangentFrame:
    """Tangents [x, e_i] of the orbit slice, i in the lower nilradical: those
    columns of ad x = (integer rows, den).  The dimension is their rank."""
    rows, den = adx
    idx = L.nminus_indices
    tangents = [[row[j] for row in rows] for j in idx]
    units = [[int(i == j) for j in range(L.dim)] for i in idx]
    return TangentFrame(preimages=units, pden=1, tangents=tangents, tden=den,
                        dim=linalg.rank(tangents))


def zx_frame(F: ShiftFamily, x, visit: GradientVisit | None = None) -> TangentFrame:
    """Hamiltonian tangent frame of the non-invariant generators at x.

    Requires strong regularity, read from the rank of the visit's gradient
    matrix; the n tangents [x, g] are verified independent.  visit is the
    gradient_visit of x when one was already built (check 12 builds it for
    check 13), else it is built here.  The frame carries all b gradients,
    the only ones built for this visit, and the cleared point; it builds no
    ad x.
    """
    if visit is None:
        visit = gradient_visit(F, x)
    if visit.rank != F.b:
        raise NotStronglyRegular("generator gradients are dependent at this point")
    L = F.L
    xc, rows, den = visit.point, visit.rows, visit.den
    preimages = [rows[i] for i in F.N_positions]
    brackets = [L.int_bracket(xc, (g, den)) for g in preimages]
    tangents = [t for t, _ in brackets]
    if linalg.rank(tangents) != L.n:
        raise ValueError("Hamiltonian tangents are dependent at a strongly regular point")
    return TangentFrame(preimages=preimages, pden=den, tangents=tangents,
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


def transversality_check(F: ShiftFamily, chart: HessChart, x) -> TransversalityResult:
    """At a cleared point of Hess: the Hamiltonian frame and the slice
    tangents are complementary Lagrangians of the orbit tangent space,
    nonsingularly paired.

    The pairing omega_x(g, e_i) = (g, [x, e_i]) of a derived generator's
    gradient g with a slice preimage is that generator's row of the Jacobian
    of the family along the slice tangents.  ad x is built here, once, for
    the slice tangents; the pairing determinant is the fraction-free
    determinant of the integer pairing over its denominator, as a reduced
    integer pair.

    Two ranks are read from certificates already in hand and eliminated
    only when a certificate fails:
    - orbit_dim = rank(ad x) is 2n when the combined tangents have rank 2n
      (they lie in the image of ad x, so rank(ad x) >= 2n) and the l
      underived invariants' gradients commute with x (they are independent,
      x being strongly regular, so dim z(x) >= l and rank(ad x) <= 2n);
    - jacobian_rank is n when the pairing determinant is nonzero: its n rows
      are rows of the Jacobian, which has n columns.
    """
    L = F.L
    if not point_in_hess(L, chart.triple, x):
        raise ValueError("transversality is checked at points of the affine slice")
    zx = zx_frame(F, x)
    adx = L.int_ad(zx.point)
    sl = slice_frame(L, adx)
    combined = linalg.rank(zx.tangents + sl.tangents)
    # every entry is over the one denominator pden * tden
    jac = [[L.int_killing_pair((g, zx.pden), (t, sl.tden))[0] for t in sl.tangents]
           for g in zx.gradients]
    den = zx.pden * sl.tden
    pairing = [jac[i] for i in F.N_positions]
    pdet = reduced(linalg.det(pairing), den ** L.n) if sl.dim == L.n else (0, 1)
    if combined == 2 * L.n and casimirs_commute(F, zx):
        orbit_dim = 2 * L.n
    else:
        orbit_dim = linalg.rank(adx[0])
    jrank = L.n if pdet[0] else linalg.rank(jac)
    passed = (zx.dim == L.n and sl.dim == L.n
              and combined == 2 * L.n and orbit_dim == 2 * L.n
              and bool(pdet[0]) and jrank == L.n)
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
    of full dimension 2n, and its invariant values are v0's.  The slice
    stays in Hess, so v0 must be a cleared point of Hess.  Each point takes
    its dimensions, its frames and ad x from one transversality_check, and
    every point is evaluated.
    """
    L = F.L
    if not point_in_hess(L, chart.triple, v0):
        raise ValueError("polarization is checked on slices through points of Hess")
    values = inv.compiled.values(v0)
    rng = random.Random(f"{seed}:polarization")
    out = []
    for x in [v0] + slice_sample(L, v0, max(count - 1, 0), rng):
        try:
            res = transversality_check(F, chart, x)
        except NotStronglyRegular:
            res = None
        ok = (res is not None and isotropy_witness(L, res.frame) is None
              and res.slice_dim == L.n and isotropy_witness(L, res.slice) is None
              and res.passed)
        out.append(inv.compiled.values(x) == values and ok)
    return out
