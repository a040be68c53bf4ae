import random

import pytest

from mfhess import linalg
from mfhess.hessenberg import (hess_section, orbit_slice, point_in_hess,
                               poincare_series, restrict_to_hess, slice_membership,
                               slice_sample)
from mfhess.liealgebra import exp_ad_nilpotent
from mfhess.polyring import Poly
from mfhess.argshift import phi
from mfhess.rational import rat, R0, R1
from mfhess.symplectic import slice_frame


def rand_svals(rng, b, bound=4):
    return [rat(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(b)]


def test_restriction_of_f_functional_is_one(bundles):
    for label in ("A1", "A2", "B2"):
        B = bundles(label)
        lf = B.ctx.linear_functional(B.triple.f)
        assert restrict_to_hess(B.L, B.triple, lf) == Poly.const(B.rs.b, 1)


def test_restriction_of_constant(bundles):
    B = bundles("A2")
    p = Poly.const(B.L.dim, rat(5, 3))
    assert restrict_to_hess(B.L, B.triple, p) == Poly.const(B.rs.b, rat(5, 3))


def test_restriction_of_upper_borel_linear_functionals(bundles):
    B = bundles("A2")
    # in the chart frame the functional of a frame vector is its coordinate
    for beta, z in enumerate(B.chart.zvecs):
        lz = B.ctx.linear_functional(z)
        assert restrict_to_hess(B.L, B.triple, lz, B.chart.frame) == \
            Poly.coordinate(B.family.b, beta)
    # with the default frame a linear functional restricts to degree <= 1
    lz = B.ctx.linear_functional(B.L.basis_vector(B.L.pos_indices[0]))
    r = restrict_to_hess(B.L, B.triple, lz)
    assert r.degree() <= 1


def test_chart_frame_properties(bundles):
    for label in ("A1", "A2", "A1xA1", "B2"):
        B = bundles(label)
        chart = B.chart
        assert linalg.rank(chart.zvecs) == B.family.b
        for e, z in zip(B.family.entries, chart.zvecs):
            assert B.L.supported_in(z, B.L.layer_indices(e.m - 1))
        # dual pairing
        for i, z in enumerate(chart.zvecs):
            for j, w in enumerate(chart.frame):
                assert B.L.killing_pair(z, w) == (R1 if i == j else R0)


def test_chart_unitriangular_jacobian(bundles):
    for label in ("A2", "B2"):
        B = bundles(label)
        chart = B.chart
        b = B.family.b
        for bi, rp in enumerate(chart.restricted):
            for gi in range(b):
                d = rp.partial(gi)
                if gi == bi:
                    assert d == Poly.const(b, 1)
                elif gi > bi:
                    assert d.is_zero()
        # degree-one generators restrict to bare coordinates
        for bi, e in enumerate(B.family.entries):
            if e.m == 1:
                assert chart.restricted[bi] == Poly.coordinate(b, bi)


def test_leading_term_against_interpolation(bundles):
    """Frame vectors against an interpolated first derivative along the slice."""
    B = bundles("A2")
    L = B.L
    e1 = B.triple.e1
    nodes = [0, 1, 2, 3, 4]
    for e, z in zip(B.family.entries, B.chart.zvecs):
        for i in L.bminus_indices:
            zdir = L.basis_vector(i)
            vals = []
            for t in nodes:
                pt = linalg.vec_add(e1, linalg.vec_scale(zdir, rat(t)))
                vals.append([e.poly.evaluate(pt)])
            coeffs = linalg.vandermonde_solve(nodes, vals)
            assert coeffs[1][0] == L.killing_pair(z, zdir)


def test_section_round_trips(bundles):
    for label in ("A1", "A2", "A1xA1", "B2"):
        B = bundles(label)
        chart, F = B.chart, B.family
        rng = random.Random(f"rt:{label}")
        for _ in range(20):
            v = chart.point_from_s(rand_svals(rng, F.b))
            assert point_in_hess(B.L, B.triple, v)
            assert hess_section(chart, phi(F, v)) == v
            c = rand_svals(rng, F.b)
            w = hess_section(chart, c)
            assert phi(F, w) == c and point_in_hess(B.L, B.triple, w)
        assert hess_section(chart, phi(F, B.triple.e1)) == B.triple.e1


def test_section_input_validation(bundles):
    B = bundles("A2")
    with pytest.raises(ValueError):
        hess_section(B.chart, [rat(1)] * (B.family.b + 1))


def test_orbit_slice_membership_and_exponential(bundles):
    B = bundles("A2")
    L = B.L
    rng = random.Random("slice")
    v0 = B.chart.point_from_s(rand_svals(rng, B.family.b, 3))
    s = orbit_slice(B.inv, v0)
    assert slice_membership(s, B.inv, v0)
    for v in slice_sample(L, v0, 4, rng):
        assert point_in_hess(L, B.triple, v)
        assert slice_membership(s, B.inv, v)
        assert slice_frame(L, L.ad(v)).dim == L.n


def test_slice_partition_of_sampled_points(bundles):
    B = bundles("A2")
    rng = random.Random("partition")
    pts = [B.chart.point_from_s(rand_svals(rng, B.family.b, 2)) for _ in range(5)]
    for p in pts:
        sp = orbit_slice(B.inv, p)
        for q in pts:
            same_values = tuple(f.evaluate(q) for f in B.inv.polys) == sp.values
            assert slice_membership(sp, B.inv, q) == same_values


def test_exponential_preserves_slice_plane(bundles):
    B = bundles("B2")
    L = B.L
    rng = random.Random("plane")
    v0 = B.triple.e1
    z = L.zero()
    for i in L.nminus_indices:
        z[i] = rat(rng.randint(-2, 2))
    v = exp_ad_nilpotent(L, z, v0)
    assert point_in_hess(L, B.triple, v)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "A1xA1"])
def test_poincare_series_forms_agree(bundles, label):
    B = bundles(label)
    order = 2 * B.rs.coxeter_number
    ser = poincare_series(B.rs, order)   # raises if the two forms disagree
    assert ser[0] == R1
    assert ser[1] == rat(B.rs.rank)
    # independent recomputation of the layer form for a hand check
    by_hand = [R1] + [R0] * order
    for m, r in enumerate(B.rs.layer_dims, start=1):
        for _ in range(r):
            nxt = [R0] * (order + 1)
            for i, c in enumerate(by_hand):
                if c:
                    k = i
                    while k <= order:
                        nxt[k] = nxt[k] + c
                        k += m
            by_hand = nxt
    assert by_hand == ser


def test_poincare_series_a2_order_10(bundles):
    ser = poincare_series(bundles("A2").rs, 10)
    assert len(ser) == 11


def test_poincare_rejects_bad_order(bundles):
    with pytest.raises(ValueError):
        poincare_series(bundles("A1").rs, 0)
