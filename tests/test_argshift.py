import random

import pytest

from mfhess import linalg
from mfhess.argshift import (NotInvertible, ZetaChain, cartan_from_root_values,
                             choose_regular_y, gradient_span, is_regular_cartan,
                             is_strongly_regular, mv_membership, pairwise_commute,
                             phi, root_values, shift_family, shifted_invariants,
                             zeta_apply, zeta_chain)
from mfhess.liealgebra import exp_ad_nilpotent, is_regular
from mfhess.polyring import Poly
from mfhess.rational import rat


def test_choose_regular_y_deterministic(bundles):
    B = bundles("A2")
    y1 = choose_regular_y(B.L, B.rs, 42)
    y2 = choose_regular_y(B.L, B.rs, 42)
    assert y1 == y2
    assert is_regular_cartan(B.L, y1)
    assert all(v for v in root_values(B.L, y1))
    assert not is_regular_cartan(B.L, B.L.zero())


def test_a2_direction_from_simple_root_values(bundles):
    B = bundles("A2")
    y = cartan_from_root_values(B.L, [1, 2])
    vals = root_values(B.L, y)
    assert all(v for v in vals)
    # the three positive roots take values 1, 2 and 3
    assert sorted(vals) == [rat(1), rat(2), rat(3)]


def test_piece_degrees_and_top_coefficient(bundles):
    B = bundles("A2")
    L = B.L
    pieces = shifted_invariants(L, B.ctx, B.inv, B.y)
    for j, k, p in pieces:
        d = B.inv.degrees[j]
        assert p.degree() == d - k
        assert p.is_homogeneous()
    # I_j(t y + x): the t^d coefficient is the constant I_j(y)
    rng = random.Random("top")
    x = [rat(rng.randint(-3, 3)) for _ in range(L.dim)]
    for j, p in enumerate(B.inv.polys):
        d = B.inv.degrees[j]
        subs = [Poly(1, {(1,): B.y[c]}) + Poly(1, {(0,): x[c]}) for c in range(L.dim)]
        expansion = p.compose(subs)
        assert expansion.terms.get((d,), rat(0)) == p.evaluate(B.y)
        # and the t^k coefficient is the k-th piece at x
        for jj, k, piece in pieces:
            if jj == j:
                assert expansion.terms.get((k,), rat(0)) == piece.evaluate(x)


@pytest.mark.parametrize("label,expected", [
    ("A1", {1: 1, 2: 1}),
    ("A2", {1: 2, 2: 2, 3: 1}),
    ("B2", {1: 2, 2: 2, 3: 1, 4: 1}),
])
def test_family_graded_dimensions(bundles, label, expected):
    B = bundles(label)
    assert B.family.graded_dims() == expected
    assert B.family.b == B.rs.b


def test_family_ordering_and_index_split(bundles):
    for label in ("A1", "A2", "A1xA1", "B2"):
        B = bundles(label)
        F = B.family
        ms = [e.m for e in F.entries]
        assert ms == sorted(ms)
        for a, bq in zip(F.entries, F.entries[1:]):
            if a.m == bq.m:
                assert a.j < bq.j
        assert len(F.I_positions) == B.L.rank
        assert len(F.N_positions) == B.L.n
        assert set(F.I_positions) | set(F.N_positions) == set(range(F.b))
        for pos in F.I_positions:
            e = F.entries[pos]
            assert e.k == 0 and e.poly == B.inv.polys[e.j]
            assert e.m == B.inv.degrees[e.j]
            assert e.i == B.L.rank - e.j


def test_invalid_direction_rejected(bundles):
    B = bundles("A1xA1")
    bad = B.L.basis_vector(B.L.cartan_indices[0])  # kills the second factor's root
    with pytest.raises(NotInvertible):
        shift_family(B.L, B.inv, bad, B.ctx, B.triple)


@pytest.mark.parametrize("label,pairs", [("A1", 1), ("A2", 10)])
def test_pairwise_commutativity(bundles, label, pairs):
    ok, count = pairwise_commute(bundles(label).family)
    assert ok and count == pairs


def test_phi_basics(bundles):
    B = bundles("A2")
    F = B.family
    assert phi(F, B.L.zero()) == [rat(0)] * F.b
    rng = random.Random("phi")
    # invariant components are constant along the exponential orbit
    x = B.chart.point_from_s([rat(rng.randint(-2, 2)) for _ in range(F.b)])
    z = B.L.zero()
    for i in B.L.nminus_indices:
        z[i] = rat(rng.randint(-2, 2))
    moved = exp_ad_nilpotent(B.L, z, x)
    vx, vm = phi(F, x), phi(F, moved)
    for pos in F.I_positions:
        assert vx[pos] == vm[pos]
    # distinct sampled slice points give distinct value tuples
    pts = [B.chart.point_from_s([rat(rng.randint(-3, 3), rng.randint(1, 2))
                                 for _ in range(F.b)]) for _ in range(6)]
    tuples = [tuple(phi(F, p)) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] != pts[j]:
                assert tuples[i] != tuples[j]


def test_strong_regularity(bundles):
    B = bundles("A2")
    F = B.family
    rng = random.Random("sreg")
    for _ in range(5):
        x = B.chart.point_from_s([rat(rng.randint(-3, 3), rng.randint(1, 2))
                                  for _ in range(F.b)])
        assert is_strongly_regular(F, x)
        assert is_regular(B.L, x)   # strong regularity implies regularity
    assert not is_strongly_regular(F, B.L.zero())


def test_gradient_span_bounds(bundles):
    B = bundles("A2")
    F = B.family
    dim, _ = gradient_span(B.ctx, [Poly.const(B.L.dim, 3)], B.triple.e)
    assert dim == 0
    rng = random.Random("bound")
    for _ in range(5):
        x = [rat(rng.randint(-3, 3)) for _ in range(B.L.dim)]
        dim, _ = gradient_span(B.ctx, F.qs, x)
        assert dim <= F.b


def test_span_at_nilpotent_points(bundles):
    for label in ("A1", "A2", "B2"):
        B = bundles(label)
        de, _ = gradient_span(B.ctx, B.family.qs, B.triple.e)
        de1, _ = gradient_span(B.ctx, B.family.qs, B.triple.e1)
        assert de == de1 == B.family.b


def test_shift_along_f_spans_lower_borel(bundles):
    B = bundles("A2")
    members = [p for _, _, p in shifted_invariants(B.L, B.ctx, B.inv, B.triple.f)]
    dim, basis = gradient_span(B.ctx, members, B.triple.w)
    bminus = [B.L.basis_vector(i) for i in B.L.bminus_indices]
    assert dim == B.family.b and linalg.same_span(basis, bminus)


def test_zeta_chain_structure(bundles):
    B = bundles("A2")
    zc = zeta_chain(B.L, B.triple, B.y, B.inv, B.ctx)
    assert isinstance(zc, ZetaChain)
    for j, d in enumerate(B.inv.degrees):
        assert len(zc.chains[j]) == d
        v0 = zc.chains[j][0]
        assert B.L.supported_in(v0, B.L.cartan_indices)
        # zero extension beyond the degree
        assert zc.vector(j, d, B.L.dim) == [rat(0)] * B.L.dim
        # forward map reproduces the chain
        for i in range(d - 1):
            assert zeta_apply(B.L, B.triple, B.y, zc.chains[j][i]) == zc.chains[j][i + 1]


def test_zeta_chain_a1_length(bundles):
    B = bundles("A1")
    zc = zeta_chain(B.L, B.triple, B.y, B.inv, B.ctx)
    assert len(zc.chains[0]) == 2 == B.inv.degrees[0]


def test_zeta_requires_regular_direction(bundles):
    B = bundles("A1xA1")
    bad = B.L.basis_vector(B.L.cartan_indices[0])
    with pytest.raises(NotInvertible):
        zeta_chain(B.L, B.triple, bad, B.inv, B.ctx)
    with pytest.raises(NotInvertible):
        zeta_apply(B.L, B.triple, B.L.zero(), B.L.basis_vector(B.L.cartan_indices[0]))


def test_membership_search(bundles):
    B = bundles("A2")
    ok, wit = mv_membership(B.L, B.inv, B.triple.f, 3, 42, B.ctx)
    assert ok and wit == B.triple.w
    ok2, _ = mv_membership(B.L, B.inv, linalg.vec_scale(B.triple.f, rat(2)), 3, 42, B.ctx)
    assert ok2  # scaling preserves certification
    ok3, _ = mv_membership(B.L, B.inv, B.y, 3, 42, B.ctx)
    assert ok3
    ok0, wit0 = mv_membership(B.L, B.inv, B.L.zero(), 3, 42, B.ctx)
    assert not ok0 and wit0 is None
