import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mfhess import argshift, linalg
from mfhess.argshift import (DependentFamily, NotInvertible, chain_certificate,
                             choose_regular_y, gradient_span, is_regular_cartan,
                             load_family_cache, mv_membership, pairwise_commute,
                             save_family_cache, phi, root_values, shift_family,
                             shifted_invariants, taylor_break, zeta_chain)
from mfhess.liealgebra import cartan_from_root_values, exp_ad_nilpotent, is_regular
from mfhess.invariants import load_family, save_family
from mfhess.polyring import CompiledPolys, Poly, coefficient_rows, poisson_bracket, restrict_affine
from mfhess.rational import clear, cleared, combine, draw, over, rat, to_rat
from mfhess.rootdata import FLAGGED_LABELS, SUPPORTED_LABELS

B3 = "[[2,-1,0],[-1,2,-1],[0,-2,2]]"
C3 = "[[2,-1,0],[-1,2,-2],[0,-1,2]]"
A4 = "[[2,-1,0,0],[-1,2,-1,0],[0,-1,2,-1],[0,0,-1,2]]"


def test_choose_regular_y_deterministic(bundles):
    B = bundles("A2")
    y1 = choose_regular_y(B.L, 42)
    y2 = choose_regular_y(B.L, 42)
    assert y1 == y2
    assert is_regular_cartan(B.L, y1) and y1[1] == 1
    assert all(v for v in root_values(B.L, y1[0]))
    assert not is_regular_cartan(B.L, (B.L.zero(), 1))


def test_a2_direction_from_simple_root_values(bundles):
    B = bundles("A2")
    y = cartan_from_root_values(B.L, [1, 2])
    vals = root_values(B.L, y[0])
    assert all(v for v in vals)
    # the three positive roots take values 1, 2 and 3
    assert sorted(vals) == [y[1], 2 * y[1], 3 * y[1]]


def test_piece_degrees_and_top_coefficient(bundles):
    B = bundles("A2")
    L = B.L
    pieces = shifted_invariants(B.inv, B.y)
    for j, k, p in pieces:
        d = B.inv.degrees[j]
        assert p.degree() == d - k
        assert p.is_homogeneous()
    # I_j(t y + x): the t^d coefficient is the constant I_j(y)
    rng = random.Random("top")
    x = [rat(rng.randint(-3, 3)) for _ in range(L.dim)]
    for j, p in enumerate(B.inv.polys):
        d = B.inv.degrees[j]
        [expansion] = restrict_affine([p], cleared(x), [B.y])
        assert expansion.terms.get((d,), rat(0)) == p.evaluate(over(*B.y))
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
    assert B.family.b == B.rs.rank + B.rs.num_positive


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


def _plant_in_pieces(monkeypatch, key, replace_piece):
    """Make shifted_invariants return replace_piece(piece) for the piece key."""
    original = argshift.shifted_invariants

    def planted(inv, u):
        return [(j, k, replace_piece(p) if (j, k) == key else p)
                for j, k, p in original(inv, u)]

    monkeypatch.setattr(argshift, "shifted_invariants", planted)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_family_rejects_multiple_of_a_member_of_its_degree(bundles, monkeypatch, label):
    """A member replaced by 3 times another member of its degree leaves that
    degree's rank, and so the sum of the per-degree ranks, one short."""
    B = bundles(label)
    by_m = {}
    for e in B.family.entries:
        by_m.setdefault(e.m, []).append(e)
    first, second = next(es for es in by_m.values() if len(es) > 1)[:2]
    _plant_in_pieces(monkeypatch, (second.j, second.k), lambda p: first.poly.scale(3))
    with pytest.raises(DependentFamily, match="linearly dependent"):
        shift_family(B.L, B.inv, B.y, B.ctx, B.triple)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_family_rejects_a_member_with_a_term_of_another_degree(bundles, monkeypatch, label):
    """A coordinate added to a derived member of degree at least 2 keeps its
    degree and the family's independence, but not its homogeneity, on which
    the per-degree certificate rests."""
    B = bundles(label)
    e = next(e for e in B.family.entries if e.m >= 2 and e.k)
    x0 = Poly.coordinate(B.L.dim, 0)
    _plant_in_pieces(monkeypatch, (e.j, e.k), lambda p: p + x0)
    with pytest.raises(DependentFamily, match=f"not homogeneous of degree {e.m}"):
        shift_family(B.L, B.inv, B.y, B.ctx, B.triple)


def test_invalid_direction_rejected(bundles):
    B = bundles("A1xA1")
    bad = cleared(B.L.basis_vector(B.L.cartan_indices[0]))  # kills the second factor's root
    with pytest.raises(NotInvertible):
        shift_family(B.L, B.inv, bad, B.ctx, B.triple)


@pytest.mark.parametrize("label,pairs", [
    ("A1", 1), ("A2", 10),
    pytest.param(A4, 91, id="A4inline-91"),
    pytest.param(B3, 66, id="B3inline-66"),
    pytest.param(C3, 66, id="C3inline-66"),
])
def test_pairwise_commutativity(bundles, label, pairs):
    """The chain certificate holds; on inline B3 and C3 the per-pair
    reference sweep would take about 1.2 s together."""
    F = bundles(label).family
    assert chain_certificate(F) is None
    ok, count = pairwise_commute(F)
    assert ok and count == pairs


@pytest.mark.parametrize("label", SUPPORTED_LABELS + FLAGGED_LABELS + (A4,),
                         ids=SUPPORTED_LABELS + FLAGGED_LABELS + ("A4",))
def test_pairwise_commute_matches_reference_sweep(bundles, reference_pairwise,
                                                  reference_bracket, monkeypatch, label):
    """The chain certificate holds, and pairwise_commute returns the
    (ok, count) of the per-pair sweep without forming a product.  The labels
    sweep over the Poly-product bracket; G2 and A4 sweep over poisson_bracket
    (the Poly-product sweep takes about 35 s on each), whose agreement with
    that bracket is tested in test_polyring."""
    F = bundles(label).family
    bracket = poisson_bracket if label in FLAGGED_LABELS + (A4,) else reference_bracket
    want = reference_pairwise(F, bracket)
    assert chain_certificate(F) is None
    assert argshift._product_sweep(F) == want == (True, F.b * (F.b - 1) // 2)

    def no_product(*args):
        raise AssertionError("the product sweep ran on a certified family")

    monkeypatch.setattr(argshift, "_int_product", no_product)
    assert pairwise_commute(F) == want


@pytest.mark.parametrize("label", SUPPORTED_LABELS + FLAGGED_LABELS + (B3, C3, A4),
                         ids=SUPPORTED_LABELS + FLAGGED_LABELS + ("B3", "C3", "A4"))
def test_shifted_invariants_match_poly_route(bundles, reference_shift, label):
    """The integer Taylor pass gives the pieces of the iterated Poly
    directional derivatives, along y, f, 2f and 0."""
    B = bundles(label)
    L = B.L
    f = over(*B.triple.f)
    for u in (over(*B.y), f, [2 * c for c in f], L.zero()):
        assert shifted_invariants(B.inv, cleared(u)) == reference_shift.pieces(B.inv, u)


def _chain_identity_breaks(B, pieces, points):
    """The first (point, j, k) at which [x, grad p_k(x)] != -[f, grad p_(k-1)(x)]
    for the pieces p_k of invariant j (p_(-1) = 0), or None: differentiate
    [x + t f, grad I(x + t f)] = 0 in t.  On integers: gradients by
    CompiledPolys.int_gradients, brackets by int_bracket."""
    L, f = B.L, B.triple.f
    for i, x in enumerate(points):
        rows, den = CompiledPolys(p for _, _, p in pieces).int_gradients(B.ctx, x)
        grads = {(j, k): (row, den) for (j, k, _), row in zip(pieces, rows)}
        for j, k in grads:
            lhs, ld = L.int_bracket(x, grads[(j, k)])
            rhs, rd = L.int_bracket(f, grads[(j, k - 1)]) if k else ([0] * L.dim, 1)
            if any(a * rd != -b * ld for a, b in zip(lhs, rhs)):
                return i, j, k
    return None


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_shift_pieces_along_f_satisfy_the_chain_identity(bundles, monkeypatch, label):
    """The pieces of shifted_invariants along f satisfy
    [x, grad p_k] = -[f, grad p_(k-1)] at three drawn points, and break it
    when every binomial C(e, 1) of the Taylor pass is one too large, a
    defect that no sub-verdict of the membership check sees.  taylor_break
    accepts the true pieces along f and refuses the planted ones at their
    first derived piece."""
    B = bundles(label)
    f = B.triple.f
    rng = random.Random(f"chain:{label}")
    points = [draw(rng, B.L.dim, 5, 3) for _ in range(3)]
    pieces = shifted_invariants(B.inv, f)
    assert _chain_identity_breaks(B, pieces, points) is None
    assert taylor_break(pieces, f) is None
    monkeypatch.setattr(argshift, "comb", lambda e, a: math.comb(e, a) + (a == 1))
    planted = shifted_invariants(B.inv, f)
    assert _chain_identity_breaks(B, planted, points) is not None
    assert taylor_break(planted, f) == (0, 1)


def test_family_cache_with_malformed_exponents_is_a_miss(tmp_path, bundles,
                                                        malformed_exponents):
    B = bundles("A2")
    path = save_family_cache(str(tmp_path), "A2", 42, B.family)
    assert load_family_cache(str(tmp_path), "A2", 42, B.L, B.ctx, B.triple).qs == B.family.qs
    with open(path) as fh:
        payload = json.load(fh)
    malformed_exponents(payload["entries"][-1]["poly"])
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert load_family_cache(str(tmp_path), "A2", 42, B.L, B.ctx, B.triple) is None


@pytest.mark.parametrize("field", ["coefficient", "y", "repeated term"])
def test_family_cache_with_a_zero_denominator_is_a_miss(tmp_path, bundles, field):
    """A zero denominator in a coefficient or in y, or a term written twice
    with its own coefficient (a file that would otherwise load as the same
    family)."""
    B = bundles("A2")
    path = save_family_cache(str(tmp_path), "A2", 42, B.family)
    with open(path) as fh:
        payload = json.load(fh)
    if field == "y":
        payload["y"][0] = "1/0"
    elif field == "repeated term":
        payload["entries"][-1]["poly"].append(payload["entries"][-1]["poly"][0])
    else:
        payload["entries"][-1]["poly"][0][1] = "1/0"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert load_family_cache(str(tmp_path), "A2", 42, B.L, B.ctx, B.triple) is None


@pytest.mark.parametrize("label", [B3, C3, A4, "G2"])
def test_cache_files_match_the_fraction_reference_bytes(tmp_path, bundles, reference_poly,
                                                       label):
    """The invariants_v1 and family_v1 files hold the bytes that the Fraction
    route's to_payload gives, and load back to the same polynomials."""
    B = bundles(label)
    path = save_family(str(tmp_path), "T", B.L, B.inv)
    payload = json.loads(open(path).read())
    payload["polys"] = [reference_poly.payload(p) for p in B.inv.polys]
    assert open(path).read() == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert load_family(str(tmp_path), "T", B.L).polys == B.inv.polys
    path = save_family_cache(str(tmp_path), "T", 42, B.family)
    payload = json.loads(open(path).read())
    for entry, q in zip(payload["entries"], B.family.qs):
        entry["poly"] = reference_poly.payload(q)
    assert open(path).read() == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    loaded = load_family_cache(str(tmp_path), "T", 42, B.L, B.ctx, B.triple)
    assert loaded.qs == B.family.qs


@pytest.mark.parametrize("label", ["A2", "G2", B3])
def test_graded_dims_are_ranked_once(bundles, monkeypatch, tmp_path, label):
    """shift_family's certificate ranks the degree slices; later reads, and
    check 9, take those ranks.  A family loaded from the cache ranks on its
    first read, and agrees with the rank of the Fraction coefficient rows."""
    B = bundles(label)
    want = {}
    for e in B.family.entries:
        want.setdefault(e.m, []).append(e.poly)
    want = {m: linalg.rank(coefficient_rows(polys)) for m, polys in sorted(want.items())}
    F = shift_family(B.L, B.inv, B.y, B.ctx, B.triple)
    save_family_cache(str(tmp_path), "T", 42, F)
    calls = []
    original = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda mat: calls.append(1) or original(mat))
    assert F.graded_dims() == want and not calls
    loaded = load_family_cache(str(tmp_path), "T", 42, B.L, B.ctx, B.triple)
    assert loaded.graded_dims() == want and len(calls) == len(want)
    assert loaded.graded_dims() == want and len(calls) == len(want)


def test_phi_basics(bundles, helpers):
    B = bundles("A2")
    F = B.family
    assert phi(F, cleared(B.L.zero())) == ((0,) * F.b, 1)
    rng = random.Random("phi")
    # invariant components are constant along the exponential orbit
    x = helpers.point_from_s(B.chart, [rat(rng.randint(-2, 2)) for _ in range(F.b)])
    z = B.L.zero()
    for i in B.L.nminus_indices:
        z[i] = rat(rng.randint(-2, 2))
    moved = exp_ad_nilpotent(B.L, cleared(z), x)
    vx, vm = over(*phi(F, x)), over(*phi(F, moved))
    for pos in F.I_positions:
        assert vx[pos] == vm[pos]
    # distinct sampled slice points give distinct value tuples
    pts = [helpers.point_from_s(B.chart, [rat(rng.randint(-3, 3), rng.randint(1, 2))
                                          for _ in range(F.b)]) for _ in range(6)]
    tuples = [phi(F, p) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] != pts[j]:
                assert tuples[i] != tuples[j]


def test_strong_regularity(bundles, helpers):
    B = bundles("A2")
    F = B.family
    rng = random.Random("sreg")
    for _ in range(5):
        x = helpers.point_from_s(B.chart, [rat(rng.randint(-3, 3), rng.randint(1, 2))
                                           for _ in range(F.b)])
        assert helpers.is_strongly_regular(F, over(*x))
        assert is_regular(B.L, x)   # strong regularity implies regularity
    assert not helpers.is_strongly_regular(F, B.L.zero())


def test_gradient_span_bounds(bundles):
    B = bundles("A2")
    F = B.family
    dim, _ = gradient_span(B.ctx, CompiledPolys([Poly.const(B.L.dim, 3)]), [B.triple.e])
    assert dim == 0
    rng = random.Random("bound")
    for _ in range(5):
        x = [rat(rng.randint(-3, 3)) for _ in range(B.L.dim)]
        dim, _ = gradient_span(B.ctx, F.compiled, [cleared(x)])
        assert dim <= F.b


def test_span_at_nilpotent_points(bundles):
    for label in ("A1", "A2", "B2"):
        B = bundles(label)
        de, _ = gradient_span(B.ctx, B.family.compiled, [B.triple.e])
        de1, _ = gradient_span(B.ctx, B.family.compiled, [B.triple.e1])
        assert de == de1 == B.family.b


D4 = "[[2,-1,0,0],[-1,2,-1,-1],[0,-1,2,0],[0,-1,0,2]]"
SPAN_TYPES = SUPPORTED_LABELS + FLAGGED_LABELS + (B3, C3, A4, D4)


@pytest.mark.parametrize("label", SPAN_TYPES,
                         ids=SUPPORTED_LABELS + FLAGGED_LABELS + ("B3", "C3", "A4", "D4"))
def test_gradient_span_matches_fraction_reference(bundles, reference_gradients, label):
    """gradient_span's dimension and span equal those of the Fraction
    gradients of the Poly partials: on the line w + t f of
    check 5, on w alone, and at e and e1."""
    B = bundles(label)
    tri = B.triple
    line = [combine(tri.w, tri.f, t) for t in range(B.rs.coxeter_number)]
    nilpotent = [tri.e, tri.e1]
    grads = dict(zip(line + nilpotent, reference_gradients(
        B.ctx, B.inv.polys, [over(*x) for x in line + nilpotent])))
    for points in (line, line[:1], nilpotent):
        dim, rows = gradient_span(B.ctx, B.inv.compiled, points)
        want = [clear(g)[0] for x in points for g in grads[x]]
        assert dim == linalg.rank(want) and linalg.same_span(rows, want)


def test_shift_along_f_spans_lower_borel(bundles):
    B = bundles("A2")
    members = CompiledPolys(p for _, _, p in shifted_invariants(B.inv, B.triple.f))
    dim, rows = gradient_span(B.ctx, members, [B.triple.w])
    bminus = [B.L.basis_vector(i) for i in B.L.bminus_indices]
    assert dim == B.family.b and linalg.same_span(rows, bminus)


def rational_chains(F):
    chains, den = zeta_chain(F)
    assert den > 0
    return [[over(v, den) for v in chain] for chain in chains]


def test_zeta_chain_structure(bundles, reference_zeta):
    B = bundles("A2")
    chains = rational_chains(B.family)
    assert len(chains) == len(B.inv.degrees)
    for j, d in enumerate(B.inv.degrees):
        assert len(chains[j]) == d
        v0 = chains[j][0]
        assert B.L.supported_in(v0, B.L.cartan_indices)
        # forward map reproduces the chain and ends in zero
        y = over(*B.y)
        for i in range(d - 1):
            assert reference_zeta.apply(B.L, B.triple, y, chains[j][i]) == chains[j][i + 1]
        assert reference_zeta.apply(B.L, B.triple, y, chains[j][d - 1]) == [0] * B.L.dim


@pytest.mark.parametrize("label", SUPPORTED_LABELS + FLAGGED_LABELS + (B3,),
                         ids=SUPPORTED_LABELS + FLAGGED_LABELS + ("B3",))
def test_zeta_chain_matches_gradient_polynomial_expansion(bundles, reference_gradients,
                                                          reference_shift, label):
    """Chains against the t-expansion of the gradient of each invariant along
    e + t y: its t^k coefficient is the gradient at e of the piece
    (1/k!) d_y^k I_j, by Poly directional derivatives and partials, and v_i
    is the coefficient of t^(d - 1 - i)."""
    B = bundles(label)
    chains = rational_chains(B.family)
    pieces = reference_shift.pieces(B.inv, over(*B.y))
    [grads] = reference_gradients(B.ctx, [p for _, _, p in pieces], [over(*B.triple.e)])
    coeff = {(j, k): g for (j, k, _), g in zip(pieces, grads)}
    for j, d in enumerate(B.inv.degrees):
        assert chains[j] == [coeff[(j, d - 1 - i)] for i in range(d)]


def test_zeta_chain_a1_length(bundles):
    B = bundles("A1")
    chains, _ = zeta_chain(B.family)
    assert len(chains[0]) == 2 == B.inv.degrees[0]


def test_zeta_requires_regular_direction(bundles, reference_zeta):
    B = bundles("A1xA1")
    bad = B.L.basis_vector(B.L.cartan_indices[0])
    with pytest.raises(NotInvertible):
        zeta_chain(replace(B.family, y=cleared(bad)))
    with pytest.raises(NotInvertible):
        reference_zeta.apply(B.L, B.triple, B.L.zero(), B.L.basis_vector(B.L.cartan_indices[0]))


def _zeta_outcome(route, F):
    try:
        return route(F)
    except (ValueError, NotInvertible) as exc:
        return type(exc).__name__, str(exc)


def _zeta_defects(B):
    """B's family, then the family with one defect planted: a Cartan power on
    an invariant before the shift (zeta(v_0) != v_1), a Cartan cube on the
    underived member of invariant 0 (a high-order term), a root coordinate's
    power on that member (its top vector leaves the kernel of ad e), a
    root coordinate on the degree-1 member that carries its v_0 ([y, v_0] !=
    0), and a singular direction."""
    F, L, n = B.family, B.L, B.L.dim
    h = Poly.coordinate(n, L.cartan_indices[0])
    polys = list(B.inv.polys)
    polys[-1] = polys[-1] + h ** B.inv.degrees[-1]
    top = next(i for i, q in enumerate(F.entries) if (q.j, q.k) == (0, 0))
    yield F
    yield shift_family(L, replace(B.inv, polys=polys), B.y, B.ctx, B.triple)
    for i, extra in ((top, h ** 3), (top, Poly.coordinate(n, L.pos_indices[0]) ** F.entries[top].m),
                     (0, Poly.coordinate(n, L.neg_indices[0]))):
        yield replace(F, entries=[replace(q, poly=q.poly + extra) if k == i else q
                                  for k, q in enumerate(F.entries)])
    yield replace(F, y=cleared(L.basis_vector(L.cartan_indices[0])))


@pytest.mark.parametrize("label", SUPPORTED_LABELS + FLAGGED_LABELS + (B3,),
                         ids=SUPPORTED_LABELS + FLAGGED_LABELS + ("B3",))
def test_zeta_chain_on_integers_matches_the_rational_route(bundles, reference_zeta, label):
    """zeta_chain's integer relations give the chains, or the first failed
    relation's message, of the Fraction route on the family and on planted
    defects."""
    B = bundles(label)
    outcomes = []
    for F in _zeta_defects(B):
        got = _zeta_outcome(zeta_chain, F)
        if isinstance(got, tuple) and isinstance(got[1], int):
            got = [[over(v, got[1]) for v in chain] for chain in got[0]]
        want = _zeta_outcome(reference_zeta.chain, F)
        assert got == want
        outcomes.append(want)
    assert isinstance(outcomes[0], list) and all(isinstance(o, tuple) for o in outcomes[1:])


def test_membership_search(bundles):
    B = bundles("A2")

    def member(u):
        members = CompiledPolys(p for _, _, p in shifted_invariants(B.inv, u))
        return mv_membership(B.ctx, B.triple, members, 3, 42, 5)

    ok, wit = member(B.triple.f)
    assert ok and wit == B.triple.w
    ok2, _ = member(([2 * c for c in B.triple.f[0]], B.triple.f[1]))
    assert ok2  # scaling preserves certification
    ok3, wit3 = member(B.y)
    assert ok3
    # the family is the shift along y, in another order
    assert mv_membership(B.ctx, B.triple, B.family.compiled, 3, 42, 5) == (ok3, wit3)
    ok0, wit0 = member((B.L.zero(), 1))
    assert not ok0 and wit0 is None


@pytest.mark.parametrize("label", SUPPORTED_LABELS + FLAGGED_LABELS + (B3,),
                         ids=SUPPORTED_LABELS + FLAGGED_LABELS + ("B3",))
def test_lazy_membership_search_matches_the_eager_route(bundles, reference_membership,
                                                        monkeypatch, label):
    """mv_membership draws each random candidate only once every earlier
    candidate has missed; its (ok, witness) equals the eager route's along
    f, 2f, y and 0, and with a triple whose fixed candidates are all zero,
    where a random candidate certifies."""
    B = bundles(label)
    draws = []
    real = argshift.draw
    monkeypatch.setattr(argshift, "draw", lambda *args: draws.append(1) or real(*args))
    zero = (tuple(B.L.zero()), 1)
    blind = replace(B.triple, w=zero, e=zero, e1=zero, f=zero)

    def along(u):
        return CompiledPolys(p for _, _, p in shifted_invariants(B.inv, u))

    twice_f = ([2 * c for c in B.triple.f[0]], B.triple.f[1])
    cases = [(B.triple, along(u)) for u in (B.triple.f, twice_f, B.y, zero)]
    cases.append((blind, B.family.compiled))
    outcomes = []
    for triple, members in cases:
        draws.clear()
        ok, wit = mv_membership(B.ctx, triple, members, 8, 2024, 5)
        outcomes.append((ok, len(draws)))
        ref_ok, ref_wit = reference_membership(B.ctx, triple, members, 8, 2024, 5)
        assert (ok, wit) == (ref_ok, ref_wit and cleared(ref_wit))
    assert [ok for ok, _ in outcomes] == [True, True, True, False, True]
    assert outcomes[0] == (True, 0) and outcomes[3] == (False, 8)
    assert 1 <= outcomes[4][1] <= 8 and any(wit[0])


wide = st.one_of(st.just(0), st.integers(-4, 4),
                 st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_gradient_rows_match_fraction_reference(bundles, reference_gradients, label):
    """gradient_rows over its denominator equals the Poly-partial gradients,
    and the rank of the integer rows equals the rank of the Fraction rows, at
    special points (zero, e, w, e1, a root vector) and at points with
    denominators up to 10^6."""
    B = bundles(label)
    L, F = B.L, B.family
    specials = [L.zero(), *(over(*v) for v in (B.triple.e, B.triple.w, B.triple.e1)),
                L.basis_vector(L.pos_indices[0])]

    @settings(max_examples=8 if label == "G2" else 20, deadline=None)
    @given(st.one_of(st.sampled_from(specials),
                     st.lists(wide, min_size=L.dim, max_size=L.dim)))
    def check(x):
        x = [to_rat(c) for c in x]
        rows, den = F.gradient_rows(cleared(x))
        [ref] = reference_gradients(F.ctx, F.qs, [x])
        assert den > 0 and [over(row, den) for row in rows] == ref
        assert linalg.rank(rows) == linalg.rank([clear(row)[0] for row in ref])

    check()
