"""Orbit symplectic form and Lagrangian verdicts at points.

Every tangent vector to an adjoint orbit at x is -[z, x] for some bracket
preimage z, and the orbit form evaluates on preimages:
omega_x(-[z1, x], -[z2, x]) = (x, [z2, z1]).  The value only depends on the
tangent vectors, which is itself a tested property (shifting a preimage by a
centralizer element leaves it unchanged).

At a strongly regular x the Hamiltonian vectors of the non-invariant family
generators span an n-dimensional isotropic subspace Z_x of the 2n-dimensional
orbit tangent space; at a point of the slice Hess the lower-nilradical
tangents span the n-dimensional isotropic tangent space of the orbit slice;
the two are complementary and pair nonsingularly.  All of this is certified
pointwise with exact arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import linalg
from .liealgebra import LieAlgebra
from .invariants import InvariantFamily
from .argshift import ShiftFamily, is_strongly_regular
from .hessenberg import (HessChart, orbit_slice, point_in_hess,
                         slice_membership, slice_sample, slice_tangent_rows)
from .rational import R0, rat, to_rat


class NotStronglyRegular(Exception):
    """The point does not have independent generator gradients."""


def omega(L: LieAlgebra, x, z1, z2):
    """Orbit form on tangents -[z1, x], -[z2, x], evaluated on the preimages."""
    return L.killing_pair(x, L.bracket(z2, z1))


@dataclass
class TangentFrame:
    point: list
    preimages: list
    tangents: list
    dim: int


def orbit_frame(L: LieAlgebra, x) -> TangentFrame:
    """Spanning frame of the orbit tangent space at x with bracket preimages.

    Its dimension always equals dim g minus the centralizer dimension.
    """
    x = [to_rat(c) for c in x]
    basis = [L.basis_vector(i) for i in range(L.dim)]
    images = [linalg.vec_scale(L.bracket(z, x), rat(-1)) for z in basis]
    kept = linalg.independent_subset(images)
    return TangentFrame(point=x, preimages=[basis[i] for i in kept],
                        tangents=[images[i] for i in kept], dim=len(kept))


def zx_frame(F: ShiftFamily, x) -> TangentFrame:
    """Hamiltonian tangent frame of the non-invariant generators at x.

    Requires strong regularity; the n tangents are verified independent.
    """
    x = [to_rat(c) for c in x]
    if not is_strongly_regular(F, x):
        raise NotStronglyRegular("generator gradients are dependent at this point")
    L = F.L
    rows = F.gradient_rows(x)
    preimages = [rows[i] for i in F.N_positions]
    tangents = [linalg.vec_scale(L.bracket(g, x), rat(-1)) for g in preimages]
    if linalg.rank(tangents) != L.n:
        raise ValueError("Hamiltonian tangents are dependent at a strongly regular point")
    return TangentFrame(point=x, preimages=preimages, tangents=tangents, dim=L.n)


def isotropy_witness(L: LieAlgebra, x, preimages) -> tuple | None:
    """First pair of preimages with nonzero form value, or None if isotropic."""
    for i in range(len(preimages)):
        for j in range(i + 1, len(preimages)):
            val = omega(L, x, preimages[i], preimages[j])
            if val:
                return (i, j, val)
    return None


def hess_lagrangian_check(L: LieAlgebra, v) -> bool:
    """At v: the lower-nilradical tangents have dimension n and are isotropic."""
    v = [to_rat(c) for c in v]
    rows = slice_tangent_rows(L, v)
    if linalg.rank(rows) != L.n:
        return False
    preimages = [L.basis_vector(i) for i in L.nminus_indices]
    return isotropy_witness(L, v, preimages) is None


@dataclass
class TransversalityResult:
    zx_dim: int
    slice_dim: int
    combined_dim: int
    orbit_dim: int
    pairing_det: object
    jacobian_rank: int
    passed: bool


def transversality_check(F: ShiftFamily, chart: HessChart, x) -> TransversalityResult:
    """At a point of Hess: the Hamiltonian frame and the slice tangents are
    complementary Lagrangians of the orbit tangent space, nonsingularly paired.
    """
    L = F.L
    x = [to_rat(c) for c in x]
    if not point_in_hess(L, chart.triple, x):
        raise ValueError("transversality is checked at points of the affine slice")
    zx = zx_frame(F, x)
    slice_rows = slice_tangent_rows(L, x)
    slice_pre = [L.basis_vector(i) for i in L.nminus_indices]
    kept = linalg.independent_subset(slice_rows)
    slice_basis = [slice_rows[i] for i in kept]
    slice_pre_kept = [slice_pre[i] for i in kept]
    orbit_dim = L.dim - L.centralizer_dim(x)
    combined = linalg.rank(zx.tangents + slice_basis)
    pairing = [[omega(L, x, zx.preimages[i], slice_pre_kept[j])
                for j in range(len(slice_pre_kept))]
               for i in range(len(zx.preimages))]
    pdet = linalg.det(pairing) if len(slice_pre_kept) == L.n else R0
    grads = F.gradient_rows(x)
    jac = [[L.killing_pair(g, t) for t in slice_basis] for g in grads]
    jrank = linalg.rank(jac)
    passed = (zx.dim == L.n and len(slice_basis) == L.n
              and combined == 2 * L.n and orbit_dim == 2 * L.n
              and bool(pdet) and jrank == L.n)
    return TransversalityResult(zx_dim=zx.dim, slice_dim=len(slice_basis),
                                combined_dim=combined, orbit_dim=orbit_dim,
                                pairing_det=pdet, jacobian_rank=jrank, passed=passed)


@dataclass
class PointVerdict:
    strongly_regular: bool
    zx_lagrangian: bool
    slice_lagrangian: bool
    transversal: bool
    orbit_dim: int
    in_slice: bool

    @property
    def all_ok(self) -> bool:
        return (self.strongly_regular and self.zx_lagrangian and
                self.slice_lagrangian and self.transversal and self.in_slice)


@dataclass
class PolarizationReport:
    base_point: list
    invariant_values: tuple
    verdicts: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(v.all_ok for v in self.verdicts)


def polarization_report(F: ShiftFamily, chart: HessChart, inv: InvariantFamily,
                        v0, count: int, seed: int) -> PolarizationReport:
    """Pointwise polarization data over a sampled orbit slice of Hess.

    At each sampled point of the slice through v0: strong regularity, the
    Hamiltonian frame is Lagrangian, the slice tangents are Lagrangian, the
    two are transversal, and the orbit has full dimension 2n.
    """
    L = F.L
    v0 = [to_rat(c) for c in v0]
    s = orbit_slice(inv, v0)
    rng = random.Random(f"{seed}:polarization")
    points = [v0] + slice_sample(L, v0, max(count - 1, 0), rng)
    report = PolarizationReport(base_point=v0, invariant_values=s.values)
    for x in points:
        sreg = is_strongly_regular(F, x)
        zx_ok = False
        trans_ok = False
        if sreg:
            frame = zx_frame(F, x)
            zx_ok = frame.dim == L.n and isotropy_witness(L, x, frame.preimages) is None
            trans_ok = transversality_check(F, chart, x).passed
        verdict = PointVerdict(
            strongly_regular=sreg,
            zx_lagrangian=zx_ok,
            slice_lagrangian=hess_lagrangian_check(L, x),
            transversal=trans_ok,
            orbit_dim=L.dim - L.centralizer_dim(x),
            in_slice=slice_membership(s, inv, x) and point_in_hess(L, chart.triple, x),
        )
        report.verdicts.append(verdict)
    return report
