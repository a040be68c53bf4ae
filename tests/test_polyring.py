import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from mfhess import linalg
from mfhess.polyring import (CompiledPolys, GradientContext, Poly, _pack, _packing, _unpack,
                             coefficient_rows, gradient, poisson_bracket, restrict_affine)
from mfhess.rational import clear, cleared, over, rat, to_rat
from mfhess.rootdata import FLAGGED_LABELS, SUPPORTED_LABELS

frac = st.fractions(min_value=-4, max_value=4, max_denominator=3)
mixed = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def poly_strategy(nvars, max_deg=3, max_terms=4, coeffs=frac):
    # a monomial is a multiset of at most max_deg variable indices
    mono = st.lists(st.integers(min_value=0, max_value=nvars - 1),
                    max_size=max_deg).map(
        lambda idxs: tuple(idxs.count(k) for k in range(nvars)))
    term = st.tuples(mono, coeffs)
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


@settings(max_examples=60, deadline=None)
@given(poly_strategy(4, max_deg=4, max_terms=6, coeffs=mixed))
def test_serialization_round_trip(canonical, reference_poly, p):
    """to_payload writes the strings of the Fraction route, and from_payload
    reads them back to the same canonical form."""
    assert p.to_payload() == reference_poly.payload(p)
    q = Poly.from_payload(4, p.to_payload())
    canonical(q)
    assert q == p and q.terms == p.terms


def test_from_payload_takes_exact_types_only():
    """Exponents must be ints (no float, bool or string is coerced);
    a coefficient is an int, a "p/q" string or an exact rational, and the
    memo of parsed strings never serves a bool for the string "1"."""
    for bad in ([1.9, 0, 0], [True, 0, 0], ["1", 0, 0], [1, 0], [1, 0, -1]):
        with pytest.raises(ValueError):
            Poly.from_payload(3, [[bad, "1"]])
    with pytest.raises(TypeError):
        Poly.from_payload(3, [[[1, 0, 0], "1"], [[0, 1, 0], True]])
    p = Poly.from_payload(3, [[[1, 0, 0], "1"], [[0, 1, 0], "-3/6"], [[0, 0, 1], "1"],
                              [[2, 0, 0], 1], [[0, 2, 0], rat(5, 2)]])
    assert p.terms == {(1, 0, 0): 1, (0, 1, 0): rat(-1, 2), (0, 0, 1): 1,
                       (2, 0, 0): 1, (0, 2, 0): rat(5, 2)}


# -- the integer form -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          st.one_of(st.integers(-20, 20), mixed, mixed.map(to_rat))),
                max_size=6))
def test_poly_is_canonical_and_terms_are_the_fraction_dict(canonical, reference_poly, items):
    """Poly(n, terms) takes int, Fraction and zero coefficients, keeps one
    canonical integer form, and terms gives back the Fraction dict."""
    terms = dict(items)
    p = Poly(2, terms)
    canonical(p)
    assert p.terms == reference_poly.terms(terms)
    assert all(type(c) is type(rat(1)) for c in p.terms.values())
    assert p == Poly.from_ints(2, {e: c * 6 for e, c in p.nums.items()}, 6 * p.den)
    assert hash(p) == hash(Poly(2, p.terms))


def test_from_ints_divides_one_gcd_and_moves_the_sign(canonical):
    p = Poly.from_ints(2, {(1, 0): 6, (0, 1): -4, (1, 1): 0}, -10)
    canonical(p)
    assert (p.den, p.nums) == (5, {(1, 0): -3, (0, 1): 2})
    assert p == Poly(2, {(1, 0): rat(-3, 5), (0, 1): rat(2, 5)})
    zero = Poly.from_ints(2, {(1, 0): 0}, 7)
    canonical(zero)
    assert zero == Poly.zero(2) and zero.den == 1


@pytest.mark.parametrize("bad", [0.5, 0.0, 2.0, True, False])
def test_poly_rejects_float_and_bool_coefficients(bad):
    """As rational.to_rat does, and before any zero is dropped."""
    with pytest.raises(TypeError, match="exact rational required"):
        Poly(2, {(1, 0): bad})
    with pytest.raises(TypeError):
        Poly(2, {(0, 0): rat(1, 2), (1, 0): bad})


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 2 ** 12 - 1), st.integers(-50, 50), max_size=8),
       st.integers(1, 36))
def test_unpack_is_canonical_and_matches_the_fraction_reference(canonical, reference_poly,
                                                                acc, scale):
    p = _unpack(3, 4, acc, scale)
    canonical(p)
    assert p.terms == reference_poly.unpack(3, 4, acc, scale)


def test_directional_derivative_basics(helpers, bundles, reference_shift):
    directional = reference_shift.directional
    B = bundles("A1")
    n = B.L.dim
    y = [rat(1), rat(2), rat(-1)]
    assert directional(Poly.const(n, 5), y).is_zero()
    z = [rat(3), rat(0), rat(1)]
    lz = helpers.linear_functional(B.ctx, z)
    dy = directional(lz, y)
    assert dy == Poly.const(n, helpers.killing_pair(B.L, y, z))


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_taylor_coefficients_match_iterated_derivatives(helpers, bundles, reference_shift,
                                                        label):
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
        [expanded] = restrict_affine([p], cleared(x), [cleared(y)])
        cur = p
        for k in range(p.degree() + 1):
            want = cur.evaluate(x) / math.factorial(k)
            assert expanded.terms.get((k,), rat(0)) == want
            cur = reference_shift.directional(cur, y)


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_gradient_pairing_identity(bundles, helpers, label):
    """(dp(x), z) equals the first-order coefficient of p(x + t z)."""
    B = bundles(label)
    n = B.L.dim
    rng = random.Random(f"grad:{label}")
    p = B.inv.polys[-1] * Poly.coordinate(n, 0) + Poly.coordinate(n, n - 1) ** 3
    for _ in range(20):
        x = rand_point(rng, n, 3)
        z = rand_point(rng, n, 3)
        g = gradient(B.ctx, p, x)
        [expansion] = restrict_affine([p], cleared(x), [cleared(z)])
        lin = expansion.terms.get((1,), rat(0))
        assert helpers.killing_pair(B.L, g, z) == lin


def test_gradient_of_linear_and_constant(helpers, bundles):
    B = bundles("A2")
    n = B.L.dim
    rng = random.Random("lin")
    z = rand_point(rng, n)
    lz = helpers.linear_functional(B.ctx, z)
    for _ in range(3):
        x = rand_point(rng, n)
        assert gradient(B.ctx, lz, x) == z
    assert gradient(B.ctx, Poly.const(n, 7), x) == [rat(0)] * n


def test_invariant_gradient_in_cartan_at_regular_semisimple(bundles):
    B = bundles("A2")
    L = B.L
    grads = [gradient(B.ctx, p, over(*B.triple.w)) for p in B.inv.polys]
    for g in grads:
        assert L.supported_in(g, L.cartan_indices)
    # they form a basis of the Cartan subalgebra
    assert linalg.rank([clear(g)[0] for g in grads]) == L.rank


def test_poisson_self_and_linear(helpers, bundles):
    B = bundles("A2")
    n = B.L.dim
    rng = random.Random("poisson")
    p = B.inv.polys[0] * Poly.coordinate(n, 1)
    assert poisson_bracket(B.ctx, p, p).is_zero()
    u = rand_point(rng, n)
    v = rand_point(rng, n)
    lu, lv = helpers.linear_functional(B.ctx, u), helpers.linear_functional(B.ctx, v)
    assert poisson_bracket(B.ctx, lu, lv) == helpers.linear_functional(
        B.ctx, helpers.bracket(B.L, u, v))


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


def test_poisson_evaluation_compatibility(bundles, helpers):
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
        assert br.evaluate(x) == helpers.killing_pair(B.L, x, helpers.bracket(B.L, dp, dq))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poisson_bracket_matches_reference(bundles, reference_bracket, data):
    B = bundles(data.draw(st.sampled_from(["A1", "A2"])))
    n = B.L.dim
    p = data.draw(poly_strategy(n, max_deg=3, max_terms=5, coeffs=mixed))
    q = data.draw(poly_strategy(n, max_deg=3, max_terms=5, coeffs=mixed))
    c = to_rat(data.draw(mixed.filter(bool)))
    # besides independent pairs, pairs whose bracket vanishes identically
    case = data.draw(st.sampled_from(["free", "multiple", "casimir"]))
    if case == "multiple":
        q = p.scale(c)
    elif case == "casimir":
        p = data.draw(st.sampled_from(B.inv.polys)).scale(c)
    assert poisson_bracket(B.ctx, p, q) == reference_bracket(B.ctx, p, q)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_poisson_bracket_at_packing_width(bundles, reference_bracket, k):
    # {x0, x1} = x0/4 on A1, so {x0^k, x0^(k-1) x1} = (k/4) x0^(2k-1): the
    # exponent 2k - 1 = deg p + deg q - 1 fills every bit of its packed field
    ctx = bundles("A1").ctx
    x0, x1 = Poly.coordinate(3, 0), Poly.coordinate(3, 1)
    p = x0 ** k
    q = (x0 ** (k - 1) * x1).scale(rat(1, 3)) + Poly.coordinate(3, 2) ** k
    br = poisson_bracket(ctx, p, q)
    assert br == reference_bracket(ctx, p, q)
    assert br.terms[(2 * k - 1, 0, 0)] == rat(k, 12)


@pytest.mark.parametrize("label", list(SUPPORTED_LABELS) + list(FLAGGED_LABELS)
                         + ["B3", "C3", "A4", "D4"])
def test_integer_pair_table_equals_the_fraction_route(algebras, reference_pairs, label):
    """The table is also antisymmetric entry by entry, which the chain
    certificate of pairwise_commute reads."""
    ctx = GradientContext(algebras(label))
    scale, rows = ctx.pair_table()
    assert (scale, rows) == reference_pairs(ctx)
    for i, row in enumerate(rows):
        for j, lin in row:
            assert (i, tuple((k, -c) for k, c in lin)) in rows[j]


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_brackets_shifts_and_restrictions_are_canonical(bundles, canonical, label):
    B = bundles(label)
    qs = B.family.qs
    for p in qs + B.inv.polys + B.chart.restricted:
        canonical(p)
    for q in qs[:4]:
        canonical(poisson_bracket(B.ctx, q, qs[-1]))
        canonical(poisson_bracket(B.ctx, Poly.coordinate(B.L.dim, 0), q))
    for p in restrict_affine(qs, B.triple.e1, [B.y]):
        canonical(p)


@st.composite
def exponent_pairs(draw):
    """(top, a, b): two exponent tuples of one length, every entry at most
    top; top is often at a field-width edge, 2^k - 1 (a full field) or 2^k
    (one bit wider than the degree below)."""
    edges = st.integers(min_value=0, max_value=7).flatmap(
        lambda k: st.sampled_from([2 ** k - 1, 2 ** k]))
    top = draw(st.one_of(edges, st.integers(min_value=0, max_value=300)))
    n = draw(st.integers(min_value=1, max_value=6))
    exps = st.lists(st.one_of(st.just(0), st.just(top), st.integers(0, top)),
                    min_size=n, max_size=n).map(tuple)
    return top, draw(exps), draw(exps)


@settings(max_examples=300, deadline=None)
@given(exponent_pairs())
@example((7, (7, 0, 7), (0, 7, 0)))
@example((8, (8, 8, 8), (8, 8, 7)))
@example((1, (1, 0), (0, 1)))
@example((0, (0, 0), (0, 0)))
def test_packing_inverts_and_keeps_tuple_order(case):
    """_unpack inverts _pack, packed ints order as the exponent tuples do
    (the invariant solver sorts its equation rows by them), and a sum of
    exponents that stays within top packs to the sum of the packed ints."""
    top, a, b = case
    n = len(a)
    unit, width = _packing(n, top)
    pa, support = _pack(a, unit)
    pb, _ = _pack(b, unit)
    assert support == tuple((k, ek) for k, ek in enumerate(a) if ek)
    assert _unpack(n, width, {pa: 3}, 2) == Poly(n, {a: rat(3, 2)})
    assert _unpack(n, width, {pb: -1}, 1) == Poly(n, {b: rat(-1)})
    assert (pa < pb) == (a < b) and (pa == pb) == (a == b)
    s = tuple(x + y for x, y in zip(a, b))
    if max(s) <= top:
        assert _pack(s, unit)[0] == pa + pb


def hamiltonian(helpers, B, p, x):
    """The Hamiltonian vector of p at x: [x, dp(x)]."""
    return helpers.bracket(B.L, x, gradient(B.ctx, p, x))


def test_hamiltonian_values(helpers, bundles):
    B = bundles("A2")
    L = B.L
    n = L.dim
    rng = random.Random("ham")
    z = rand_point(rng, n)
    lz = helpers.linear_functional(B.ctx, z)
    for _ in range(3):
        x = rand_point(rng, n)
        assert hamiltonian(helpers, B, lz, x) == helpers.vec_scale(helpers.bracket(L, z, x), -1)
        for inv in B.inv.polys:
            assert hamiltonian(helpers, B, inv, x) == [rat(0)] * n
    assert hamiltonian(helpers, B, lz, L.zero()) == [rat(0)] * n


def test_hamiltonian_tangent_to_orbit(helpers, bundles):
    B = bundles("A2")
    L = B.L
    n = L.dim
    rng = random.Random("tan")
    p = B.inv.polys[0] * Poly.coordinate(n, 2) + Poly.coordinate(n, 7) ** 2
    for _ in range(5):
        x = rand_point(rng, n)
        v = hamiltonian(helpers, B, p, x)
        image = [helpers.bracket(L, L.basis_vector(i), x) for i in range(n)]
        image = [clear(r)[0] for r in image if any(r)]
        assert linalg.rank(image) == linalg.rank(image + [clear(v)[0]])


def test_gradient_polys_match_pointwise(bundles, reference_gradients):
    B = bundles("A2")
    n = B.L.dim
    rng = random.Random("gp")
    p = B.inv.polys[1]
    points = [rand_point(rng, n) for _ in range(3)]
    for x, [want] in zip(points, reference_gradients(B.ctx, [p], points)):
        assert gradient(B.ctx, p, x) == want


def test_is_homogeneous():
    p = Poly(2, {(0, 0): rat(1), (1, 0): rat(2), (1, 1): rat(3)})
    assert not p.is_homogeneous()
    assert Poly(2, {(2, 0): rat(2), (1, 1): rat(3)}).is_homogeneous()
    assert Poly.zero(2).is_homogeneous()


def test_coefficient_rows():
    p = Poly(2, {(1, 0): rat(2), (0, 1): rat(-1)})
    q = Poly(2, {(2, 0): rat(3)})
    # default columns: the sorted union (0,1), (1,0), (2,0)
    assert coefficient_rows([p, q]) == [[-1, 2, 0], [0, 0, 3]]
    assert coefficient_rows([p], [(1, 0), (0, 1)]) == [[2, -1]]
    # each row is the numerator row of its polynomial, over its den
    half = Poly(2, {(1, 0): rat(1, 2), (0, 1): rat(-1, 3)})
    assert coefficient_rows([half]) == [[-2, 3]]
    assert {type(c) for row in coefficient_rows([p, q, half]) for c in row} == {int}
    with pytest.raises(KeyError):
        coefficient_rows([q], [(1, 0), (0, 1)])


def _compiled_cases(bundles):
    """Family members, invariants and restricted generators of A2 and B2."""
    out = []
    for label in ("A2", "B2"):
        B = bundles(label)
        out.append((B.ctx, B.family.qs))
        out.append((B.ctx, B.inv.polys))
        out.append((None, B.chart.restricted))   # non-homogeneous, with constants
    return out


coordinate = st.one_of(st.just(0), st.just(0),
                       st.fractions(min_value=-6, max_value=6, max_denominator=7))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_compiled_evaluation_matches_reference(bundles, reference_gradients, data):
    """Compiled values against Poly.evaluate and gradients against the Poly
    partials, at points with zero coordinates (the zero point included)."""
    for ctx, polys in _compiled_cases(bundles):
        n = polys[0].n
        extra = data.draw(poly_strategy(n, max_deg=4, max_terms=5, coeffs=mixed))
        polys = list(polys) + [extra, extra + Poly.const(n, rat(-7, 3)),
                               Poly.const(n, 5), Poly.zero(n)]
        compiled = CompiledPolys(polys)
        for x in ([rat(0)] * n,
                  [to_rat(c) for c in data.draw(st.lists(coordinate, min_size=n,
                                                         max_size=n))]):
            assert compiled.values(cleared(x)) == cleared([p.evaluate(x) for p in polys])
            if ctx is not None:
                rows, den = compiled.int_gradients(ctx, cleared(x))
                assert [over(row, den) for row in rows] == reference_gradients(ctx, polys, [x])[0]


B3 = "[[2,-1,0],[-1,2,-1],[0,-2,2]]"
KERNEL_LABELS = SUPPORTED_LABELS + FLAGGED_LABELS + (B3,)
nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


def _zero_cases(compiled):
    """Coordinates to zero at a point with no other zero: each k that some
    term of a compiled polynomial holds with exponent 1 beside another
    factor, each k that some term holds with exponent at least 2, and each
    pair k, k' that one term holds both with exponent 1."""
    ones, twos, pairs = set(), set(), set()
    for terms in compiled.polys:
        for _, _, support in terms:
            linear = [k for k, ek in support if ek == 1]
            twos.update(k for k, ek in support if ek >= 2)
            if len(support) >= 2:
                ones.update(linear)
            pairs.update((a, b) for a in linear for b in linear if a < b)
    return sorted(ones), sorted(twos), sorted(pairs)


@pytest.mark.parametrize("label", KERNEL_LABELS, ids=SUPPORTED_LABELS + FLAGGED_LABELS + ("B3",))
def test_compiled_kernel_matches_prefix_suffix_reference(bundles, reference_gradients,
                                                         reference_values, helpers, label):
    """The product-once kernel (values drop a term at its first zero,
    partials divide the term's product by N_k) gives the values and the
    gradients (of the Poly partials) of the reference, for the family and
    the invariants: at e, e1 and w, at sampled Hess points, and at points
    whose only zeros are one coordinate held with exponent 1, one held with
    exponent at least 2, or two coordinates held by one term with exponent
    1.  The name predates the Poly reference and is kept so that the test
    ids stay stable."""
    B = bundles(label)
    ctx, n = B.ctx, B.L.dim
    cases = [(polys, compiled, _zero_cases(compiled)) for polys, compiled in
             ((B.family.qs, B.family.compiled), (B.inv.polys, B.inv.compiled))]

    def agree(points):
        for polys, compiled, _ in cases:
            for x, grads, values in zip(points, reference_gradients(ctx, polys, points),
                                        reference_values(polys, points)):
                rows, den = compiled.int_gradients(ctx, cleared(x))
                assert den > 0 and [over(row, den) for row in rows] == grads
                assert compiled.values(cleared(x)) == cleared(values)

    agree([over(*x) for x in (B.triple.e, B.triple.e1, B.triple.w)])

    @settings(max_examples=4 if label in ("G2", B3) else 10, deadline=None)
    @given(st.data())
    def check(data):
        svals = data.draw(st.lists(nonzero, min_size=B.family.b, max_size=B.family.b))
        points = [over(*helpers.point_from_s(B.chart, svals))]
        dense = [to_rat(c) for c in data.draw(st.lists(nonzero, min_size=n, max_size=n))]
        for _, _, (ones, twos, pairs) in cases:
            for zeros in ([data.draw(st.sampled_from(ones))],
                          [data.draw(st.sampled_from(twos))],
                          list(data.draw(st.sampled_from(pairs)))):
                points.append([rat(0) if k in zeros else c for k, c in enumerate(dense)])
        agree(points)

    check()


def test_compiled_rejects_wrong_dimension(bundles):
    B = bundles("A1")
    compiled = CompiledPolys(B.inv.polys)
    with pytest.raises(ValueError):
        compiled.values(cleared([rat(1)] * (B.L.dim + 1)))
    with pytest.raises(ValueError):
        CompiledPolys([Poly.const(2, 1), Poly.const(3, 1)])


# -- affine restriction ---------------------------------------------------------

big = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_restrict_affine_matches_reference(reference_compose, affine_subs, data):
    """restrict_affine against Poly-product substitution: large denominators,
    non-homogeneous polynomials and constants, degrees up to 8, zero
    coordinates of the substitution, a zero base, no directions at all."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    m = data.draw(st.integers(min_value=0, max_value=3))
    entry = st.one_of(st.just(rat(0)), big.map(to_rat))
    vector = st.lists(entry, min_size=n, max_size=n)
    base = data.draw(st.one_of(st.just([rat(0)] * n), vector))
    directions = data.draw(st.lists(vector, min_size=m, max_size=m))
    polys = data.draw(st.lists(poly_strategy(n, max_deg=8, max_terms=4, coeffs=big),
                               min_size=1, max_size=3))
    polys.append(polys[0] + Poly.const(n, rat(-7, 999983)))
    subs = affine_subs(base, directions)
    assert restrict_affine(polys, cleared(base), [cleared(d) for d in directions]) == \
        [reference_compose(p, subs) for p in polys]


@pytest.mark.parametrize("d", [1, 3, 4, 7, 8])
def test_restrict_affine_at_packing_width(reference_compose, affine_subs, d):
    """Degrees where the exponent field is exactly full (3, 7) or one bit
    wider than the degree below (4, 8): every field of (s0 + s1 + s2 + c)^d
    reaches d next to its neighbours, and lower-degree terms are lifted."""
    n = 3
    p = (Poly.coordinate(n, 0) + Poly.coordinate(n, 1) + Poly.coordinate(n, 2)) ** d
    p = p + Poly.coordinate(n, 1) ** (d - 1) + Poly.const(n, rat(2, 7))
    base = [rat(1, 3), rat(0), rat(-5, 2)]
    directions = [[rat(1), rat(0), rat(2, 5)], [rat(0), rat(-3), rat(0)],
                  [rat(1, 7), rat(0), rat(1)]]
    restricted = restrict_affine([p, Poly.zero(n)], cleared(base),
                                 [cleared(d) for d in directions])
    assert restricted == [reference_compose(p, affine_subs(base, directions)),
                          Poly.zero(3)]
    assert restricted[0].degree() == d


def test_restrict_affine_rejects_mismatched_dimensions():
    with pytest.raises(ValueError):
        restrict_affine([Poly.const(2, 1)], ([0] * 3, 1), [])
    with pytest.raises(ValueError):
        restrict_affine([Poly.const(2, 1)], ([0] * 2, 1), [([1], 1)])


@pytest.mark.parametrize("label", ["A1", "A1xA1", "A2", "B2", "G2", "B3", "D4",
                                   "A3", "C2", "C3", "A4", "F4", "E6"])
def test_gram_inverse_by_blocks_is_the_dense_inverse(helpers, algebras, label):
    """The Gram inverse is linalg.inverse of the whole Killing matrix, and
    gram_inv_int its rows held sparse over the same denominator: the
    Fraction inverse cleared by clear_rows, over the LCM of its
    denominators.  The name predates the whole-matrix inverse and is kept
    so that the test ids stay stable."""
    L = algebras(label)
    ctx = GradientContext(L)
    assert ctx.gram is L.killing
    want = helpers.gram_inverse(ctx)
    assert helpers.mat_mul(ctx.gram, want) == helpers.identity(L.dim)
    scale, want_rows = helpers.clear_rows(want)
    assert ctx.gram_inv_int == (want_rows, scale)
    assert linalg.inverse(L.killing) == ([[scale * c for c in row] for row in want], scale)


def test_gram_inverse_validation_sees_a_wrong_block(algebras, monkeypatch):
    """The sparse integer product with the Killing rows catches an inverse
    whose first Cartan diagonal entry is doubled."""
    L = algebras("A3")
    original = linalg.inverse
    h = L.cartan_indices[0]

    def doubled_cartan_entry(mat):
        rows, den = original(mat)
        rows[h][h] *= 2
        return rows, den

    monkeypatch.setattr(linalg, "inverse", doubled_cartan_entry)
    with pytest.raises(ValueError, match="validation failed"):
        GradientContext(L)


def test_gram_inverse_rejects_a_singular_block(algebras):
    L = algebras("A2")
    h = L.cartan_indices[0]
    killing = [[0 if h in (i, j) else c for j, c in enumerate(row)]
               for i, row in enumerate(L.killing)]
    with pytest.raises(ValueError, match="singular"):
        GradientContext(replace(L, killing=killing))


# every label and G2, and inline B3, C3, A4 and D4
PAYLOAD_TYPES = SUPPORTED_LABELS + FLAGGED_LABELS + (
    B3, "[[2,-1,0],[-1,2,-2],[0,-1,2]]", "[[2,-1,0,0],[-1,2,-1,0],[0,-1,2,-1],[0,0,-1,2]]",
    "[[2,-1,0,0],[-1,2,-1,-1],[0,-1,2,0],[0,-1,0,2]]")


@pytest.mark.parametrize("label", PAYLOAD_TYPES)
def test_payloads_match_the_route_before_the_fast_paths(bundles, reference_poly, label):
    """For every invariant and family member, to_payload writes the bytes of
    the Fraction route, and from_payload reads them back to the polynomial
    that the to_rat route reads."""
    B = bundles(label)
    for p in list(B.inv.polys) + B.family.qs:
        text = json.dumps(p.to_payload())
        assert text == json.dumps(reference_poly.payload(p))
        payload = json.loads(text)
        assert Poly.from_payload(p.n, payload) == reference_poly.from_payload(p.n, payload) == p


@settings(max_examples=100, deadline=None)
@given(poly_strategy(4, max_deg=4, max_terms=6, coeffs=mixed))
@example(Poly(4, {(1, 0, 0, 0): rat(1, 2), (0, 2, 0, 0): rat(-1, 3), (0, 0, 0, 0): rat(5)}))
@example(Poly(4, {(0, 1, 1, 0): rat(3, 4), (2, 0, 0, 0): rat(1, 6)}))
def test_payload_fast_paths_match_on_any_poly(reference_poly, p):
    """The same on polynomials that are not homogeneous or have den > 1."""
    payload = p.to_payload()
    assert payload == reference_poly.payload(p)
    assert Poly.from_payload(4, payload) == reference_poly.from_payload(4, payload) == p


@pytest.mark.parametrize("payload", [
    [[[1, 0], "2/4"], [[0, 1], "1/-2"], [[2, 0], "-3"]],
    [[[0, 2], 6], [[1, 1], "6/9"], [[2, 0], " -5/10 "]],
    [[[0, 0], "0"], [[1, 0], "0/7"]],
    [[[1, 0], rat(3, 9)], [[0, 1], "1/3"]],
    [],
])
def test_from_payload_reads_what_the_to_rat_route_reads(reference_poly, payload):
    """Unreduced strings, a negative denominator, ints, zeros and exact
    rationals."""
    p = Poly.from_payload(2, payload)
    canonical_form = reference_poly.from_payload(2, payload)
    assert (p.nums, p.den) == (canonical_form.nums, canonical_form.den)


@pytest.mark.parametrize("payload", [
    [[[1, 0], "2/4"], [[0, 1], "1/-2"], [[1, 0], "-3"]],
    [[[1, 0], "2/4"], [[0, 1], "1/-2"], [[1, 0], "2/4"]],
    [[[0, 0], 0], [[0, 0], 0]],
])
def test_from_payload_rejects_a_repeated_exponent(payload):
    """to_payload names each exponent vector once, so a payload that names
    one twice is corrupt, whatever its coefficients: a ValueError, not the
    polynomial of its last term."""
    with pytest.raises(ValueError, match="twice"):
        Poly.from_payload(2, payload)


def test_from_payload_rejects_the_malformed_exponents_of_the_reference(
        bundles, reference_poly, malformed_exponents):
    """A bool, float or string exponent, a wrong length and a negative
    exponent: both routes raise the same ValueError."""
    payload = bundles("A2").inv.polys[0].to_payload()
    malformed_exponents(payload)
    with pytest.raises(ValueError) as ours:
        Poly.from_payload(8, payload)
    with pytest.raises(ValueError) as theirs:
        reference_poly.from_payload(8, payload)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("coeff", [True, 1.5, None, [1], "1/0", "-4/0", "0/0", "x", "1/2/3",
                                   "", "1.5", "/2", "1/"])
def test_from_payload_rejects_the_malformed_coefficients_of_the_reference(reference_poly,
                                                                          coeff):
    """Each malformed coefficient raises the exception type that to_rat
    raises; a zero denominator is a ValueError, not a ZeroDivisionError."""
    payload = [[[1, 0, 0], "1/2"], [[0, 1, 0], coeff]]
    with pytest.raises((ValueError, TypeError)) as ours:
        Poly.from_payload(3, payload)
    with pytest.raises((ValueError, TypeError)) as theirs:
        reference_poly.from_payload(3, payload)
    assert ours.type is theirs.type
    if isinstance(coeff, str) and coeff.endswith("/0"):
        assert ours.type is ValueError
