import random

import pytest
from hypothesis import given, settings, strategies as st

from mfhess import linalg
from mfhess.polyring import (Poly, coefficient_rows, gradient, gradient_polys,
                             hamiltonian_at, poisson_bracket)
from mfhess.rational import rat, to_rat, factorial_rat

frac = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def poly_strategy(nvars, max_deg=3, max_terms=4):
    # a monomial is a multiset of at most max_deg variable indices
    mono = st.lists(st.integers(min_value=0, max_value=nvars - 1),
                    max_size=max_deg).map(
        lambda idxs: tuple(idxs.count(k) for k in range(nvars)))
    term = st.tuples(mono, frac)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: Poly(nvars, {tuple(e): to_rat(c) for e, c in ts if c}))


def rand_point(rng, n, bound=4):
    return [rat(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(n)]


@settings(max_examples=25, deadline=None)
@given(poly_strategy(3), poly_strategy(3), poly_strategy(3))
def test_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p - p == Poly.zero(3)


@settings(max_examples=25, deadline=None)
@given(poly_strategy(3), poly_strategy(3))
def test_evaluation_is_a_homomorphism(p, q):
    x = [rat(1, 2), rat(-2), rat(3)]
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)


@settings(max_examples=25, deadline=None)
@given(poly_strategy(4, max_deg=4))
def test_serialization_round_trip(p):
    assert Poly.from_payload(4, p.to_payload()) == p


def test_directional_derivative_basics(bundles):
    B = bundles("A1")
    n = B.L.dim
    y = [rat(1), rat(2), rat(-1)]
    assert Poly.const(n, 5).directional(y).is_zero()
    z = [rat(3), rat(0), rat(1)]
    lz = B.ctx.linear_functional(z)
    dy = lz.directional(y)
    assert dy == Poly.const(n, B.L.killing_pair(y, z))


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_taylor_coefficients_match_iterated_derivatives(bundles, label):
    """t-expansion of p(x + t y) against directional derivatives over factorials."""
    B = bundles(label)
    n = B.L.dim
    rng = random.Random(f"taylor:{label}")
    for _ in range(5):
        p = Poly(n, {tuple(rng.randint(0, 1) for _ in range(n)): rat(rng.randint(-3, 3))
                     for _ in range(4)})
        p = p + Poly.coordinate(n, 0) * Poly.coordinate(n, min(2, n - 1)) * \
            Poly.coordinate(n, min(4, n - 1))
        x = rand_point(rng, n)
        y = rand_point(rng, n)
        subs = [Poly(1, {(0,): x[c]}) + Poly(1, {(1,): y[c]}) for c in range(n)]
        expanded = p.compose(subs)
        cur = p
        for k in range(p.degree() + 1):
            want = cur.evaluate(x) / factorial_rat(k)
            assert expanded.terms.get((k,), rat(0)) == want
            cur = cur.directional(y)


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_gradient_pairing_identity(bundles, label):
    """(dp(x), z) equals the first-order coefficient of p(x + t z)."""
    B = bundles(label)
    n = B.L.dim
    rng = random.Random(f"grad:{label}")
    p = B.inv.polys[-1] * Poly.coordinate(n, 0) + Poly.coordinate(n, n - 1) ** 3
    for _ in range(20):
        x = rand_point(rng, n, 3)
        z = rand_point(rng, n, 3)
        g = gradient(B.ctx, p, x)
        subs = [Poly(1, {(0,): x[c]}) + Poly(1, {(1,): z[c]}) for c in range(n)]
        lin = p.compose(subs).terms.get((1,), rat(0))
        assert B.L.killing_pair(g, z) == lin


def test_gradient_of_linear_and_constant(bundles):
    B = bundles("A2")
    n = B.L.dim
    rng = random.Random("lin")
    z = rand_point(rng, n)
    lz = B.ctx.linear_functional(z)
    for _ in range(3):
        x = rand_point(rng, n)
        assert gradient(B.ctx, lz, x) == z
    assert gradient(B.ctx, Poly.const(n, 7), x) == [rat(0)] * n


def test_invariant_gradient_in_cartan_at_regular_semisimple(bundles):
    B = bundles("A2")
    L = B.L
    grads = [gradient(B.ctx, p, B.triple.w) for p in B.inv.polys]
    for g in grads:
        assert L.supported_in(g, L.cartan_indices)
    # they form a basis of the Cartan subalgebra
    assert linalg.rank(grads) == L.rank


def test_poisson_self_and_linear(bundles):
    B = bundles("A2")
    n = B.L.dim
    rng = random.Random("poisson")
    p = B.inv.polys[0] * Poly.coordinate(n, 1)
    assert poisson_bracket(B.ctx, p, p).is_zero()
    u = rand_point(rng, n)
    v = rand_point(rng, n)
    lu, lv = B.ctx.linear_functional(u), B.ctx.linear_functional(v)
    assert poisson_bracket(B.ctx, lu, lv) == B.ctx.linear_functional(B.L.bracket(u, v))


@settings(max_examples=10, deadline=None)
@given(poly_strategy(3, max_deg=2), poly_strategy(3, max_deg=2), poly_strategy(3, max_deg=2))
def test_poisson_laws_sl2(bundles, p, q, r):
    ctx = bundles("A1").ctx
    br = lambda a, b: poisson_bracket(ctx, a, b)
    assert br(p, q) == -br(q, p)
    assert br(p, q * r) == br(p, q) * r + q * br(p, r)
    jac = br(p, br(q, r)) + br(q, br(r, p)) + br(r, br(p, q))
    assert jac.is_zero()


def test_poisson_with_invariant_vanishes(bundles):
    B = bundles("A2")
    n = B.L.dim
    q = Poly.coordinate(n, 2) * Poly.coordinate(n, 5) + Poly.coordinate(n, 0)
    for inv in B.inv.polys:
        assert poisson_bracket(B.ctx, inv, q).is_zero()


def test_poisson_evaluation_compatibility(bundles):
    B = bundles("A2")
    n = B.L.dim
    rng = random.Random("compat")
    p = B.inv.polys[0] + Poly.coordinate(n, 1) * Poly.coordinate(n, 4)
    q = Poly.coordinate(n, 3) ** 2 + Poly.coordinate(n, 6)
    br = poisson_bracket(B.ctx, p, q)
    for _ in range(5):
        x = rand_point(rng, n)
        dp = gradient(B.ctx, p, x)
        dq = gradient(B.ctx, q, x)
        assert br.evaluate(x) == B.L.killing_pair(x, B.L.bracket(dp, dq))


def test_hamiltonian_values(bundles):
    B = bundles("A2")
    L = B.L
    n = L.dim
    rng = random.Random("ham")
    z = rand_point(rng, n)
    lz = B.ctx.linear_functional(z)
    for _ in range(3):
        x = rand_point(rng, n)
        assert hamiltonian_at(B.ctx, lz, x) == linalg.vec_scale(L.bracket(z, x), rat(-1))
        for inv in B.inv.polys:
            assert hamiltonian_at(B.ctx, inv, x) == [rat(0)] * n
    assert hamiltonian_at(B.ctx, lz, L.zero()) == [rat(0)] * n


def test_hamiltonian_tangent_to_orbit(bundles):
    B = bundles("A2")
    L = B.L
    n = L.dim
    rng = random.Random("tan")
    p = B.inv.polys[0] * Poly.coordinate(n, 2) + Poly.coordinate(n, 7) ** 2
    for _ in range(5):
        x = rand_point(rng, n)
        v = hamiltonian_at(B.ctx, p, x)
        image = [L.bracket(L.basis_vector(i), x) for i in range(n)]
        assert linalg.in_span(v, [r for r in image if any(r)])


def test_gradient_polys_match_pointwise(bundles):
    B = bundles("A2")
    n = B.L.dim
    rng = random.Random("gp")
    p = B.inv.polys[1]
    comps = gradient_polys(B.ctx, p)
    for _ in range(3):
        x = rand_point(rng, n)
        assert [c.evaluate(x) for c in comps] == gradient(B.ctx, p, x)


def test_graded_parts():
    p = Poly(2, {(0, 0): rat(1), (1, 0): rat(2), (1, 1): rat(3)})
    parts = p.graded_parts()
    assert set(parts) == {0, 1, 2}
    assert parts[2] == Poly(2, {(1, 1): rat(3)})
    assert p.homogeneous_part(1) == Poly(2, {(1, 0): rat(2)})
    assert not p.is_homogeneous()


def test_coefficient_rows():
    p = Poly(2, {(1, 0): rat(2), (0, 1): rat(-1)})
    q = Poly(2, {(2, 0): rat(3)})
    # default columns: the sorted union (0,1), (1,0), (2,0)
    assert coefficient_rows([p, q]) == [[rat(-1), rat(2), rat(0)],
                                        [rat(0), rat(0), rat(3)]]
    assert coefficient_rows([p], [(1, 0), (0, 1)]) == [[rat(2), rat(-1)]]
    with pytest.raises(KeyError):
        coefficient_rows([q], [(1, 0), (0, 1)])
