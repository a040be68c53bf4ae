import hashlib
import json
import math
import random
from dataclasses import replace

import pytest

from mfhess import linalg
from mfhess.hessenberg import (NotTriangular, _unitriangular_violation, build_chart,
                               frame_rows, hess_section, point_in_hess, poincare_series,
                               restrict_to_hess, slice_sample)
from mfhess.liealgebra import DimensionMismatch, exp_ad_nilpotent
from mfhess.polyring import CompiledPolys, Poly, restrict_affine
from mfhess.argshift import phi
from mfhess.rational import canonical, clear, cleared, over, rat, rat_str, R0, R1
from mfhess.rootdata import FLAGGED_LABELS, SUPPORTED_LABELS
from mfhess.symplectic import HessVisit


def rand_svals(rng, b, bound=4):
    return [rat(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(b)]


def rational_zvecs(chart):
    """The chart's gradient frame z_beta as rational vectors."""
    rows, den = chart.zvecs
    return [over(row, den) for row in rows]


def canonical_frame(chart):
    """The chart's dual frame as canonical cleared vectors."""
    rows, den = chart.frame
    return [canonical(row, den) for row in rows]


def rational_frame(chart):
    """The chart's dual frame as rational vectors."""
    rows, den = chart.frame
    return [over(row, den) for row in rows]


def test_restriction_of_f_functional_is_one(bundles, helpers):
    for label in ("A1", "A2", "B2"):
        B = bundles(label)
        lf = helpers.linear_functional(B.ctx, over(*B.triple.f))
        assert restrict_to_hess(B.L, B.triple, [lf]) == [Poly.const(B.family.b, 1)]


def test_restriction_of_constant(bundles):
    B = bundles("A2")
    p = Poly.const(B.L.dim, rat(5, 3))
    assert restrict_to_hess(B.L, B.triple, [p]) == [Poly.const(B.family.b, rat(5, 3))]


def test_restriction_of_upper_borel_linear_functionals(bundles, helpers):
    B = bundles("A2")
    # in the chart frame the functional of a frame vector is its coordinate
    lzs = [helpers.linear_functional(B.ctx, z) for z in rational_zvecs(B.chart)]
    assert restrict_to_hess(B.L, B.triple, lzs, canonical_frame(B.chart)) == \
        [Poly.coordinate(B.family.b, beta) for beta in range(B.family.b)]
    # with the default frame a linear functional restricts to degree <= 1
    lz = helpers.linear_functional(B.ctx, B.L.basis_vector(B.L.pos_indices[0]))
    [r] = restrict_to_hess(B.L, B.triple, [lz])
    assert r.degree() <= 1


def test_chart_frame_properties(bundles, helpers):
    for label in ("A1", "A2", "A1xA1", "B2"):
        B = bundles(label)
        chart = B.chart
        assert linalg.rank(chart.zvecs[0]) == B.family.b
        for e, z in zip(B.family.entries, chart.zvecs[0]):
            assert B.L.supported_in(z, B.L.layer_indices(e.m - 1))
        # dual pairing
        for i, z in enumerate(rational_zvecs(chart)):
            for j, w in enumerate(rational_frame(chart)):
                assert helpers.killing_pair(B.L, z, w) == (R1 if i == j else R0)


B3 = "[[2,-1,0],[-1,2,-1],[0,-2,2]]"


@pytest.mark.parametrize("label", ["A1", "A2", "A1xA1", "B2", "C2", "A3", "G2", B3,
                                   "[[2,-1,0],[-1,2,-2],[0,-1,2]]",
                                   "[[2,-1,0,0],[-1,2,-1,0],[0,-1,2,-1],[0,0,-1,2]]",
                                   "[[2,-1,0,0],[-1,2,-1,-1],[0,-1,2,0],[0,-1,0,2]]"])
def test_integer_pairing_gives_the_rational_frame(bundles, reference_frame, label):
    """The frame from the integer pairing of the gradient rows with the lower
    Borel basis equals the frame of the rational pairing, as canonical
    points."""
    B = bundles(label)
    assert canonical_frame(B.chart) == [cleared(v) for v in reference_frame(B.family)]


@pytest.mark.parametrize("label", ["A2", "B2", "G2", B3])
def test_restrict_affine_matches_reference_on_chart_frames(bundles, reference_compose,
                                                           affine_subs, label):
    """On Hess in the chart's dual frame and in the Chevalley frame of the
    lower Borel, where e1's coordinates fold in as constants, the shared
    expansion gives the Poly-product substitution of every member."""
    B = bundles(label)
    qs = B.family.qs
    chevalley = [B.L.basis_vector(i) for i in B.L.bminus_indices]
    e1 = over(*B.triple.e1)
    for frame in (rational_frame(B.chart), chevalley):
        assert (restrict_affine(qs, B.triple.e1, [cleared(v) for v in frame])
                == [reference_compose(q, affine_subs(e1, frame)) for q in qs])


def test_point_in_hess_rejects_wrong_length(bundles):
    B = bundles("A2")
    e1 = over(*B.triple.e1)
    assert point_in_hess(B.L, B.triple, cleared(e1))
    for v in (e1[:-1], e1 + [rat(5)]):
        with pytest.raises(DimensionMismatch):
            point_in_hess(B.L, B.triple, cleared(v))
    off = list(e1)
    off[B.L.n_indices[-1]] = rat(1, 7)
    assert not point_in_hess(B.L, B.triple, cleared(off))


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


def _with_planted_squares(B, pos, betas, helpers):
    """B's family with (l_z - l_z(e1))^2 added to member pos for z the frame
    vector beta, for each beta in betas: the gradient at e1, hence the
    frame, is unchanged, and the restriction of member pos gains s_beta^2."""
    n = B.L.dim
    poly = B.family.entries[pos].poly
    for beta in betas:
        z = rational_zvecs(B.chart)[beta]
        lz = (helpers.linear_functional(B.ctx, z)
              - Poly.const(n, helpers.killing_pair(B.L, z, over(*B.triple.e1))))
        poly = poly + lz * lz
    F = B.family
    entries = [replace(e, poly=poly) if idx == pos else e for idx, e in enumerate(F.entries)]
    return replace(F, entries=entries)


@pytest.mark.parametrize("pos,betas,message", [
    (0, (0,), "diagonal derivative of restricted generator 1 is not 1"),
    (2, (2,), "diagonal derivative of restricted generator 3 is not 1"),
    (0, (3,), "restricted generator 1 depends on later coordinate 4"),
    (1, (2,), "restricted generator 2 depends on later coordinate 3"),
    (0, (4, 2), "restricted generator 1 depends on later coordinate 3"),
    (0, (2, 4), "restricted generator 1 depends on later coordinate 3"),
    (1, (4, 1), "diagonal derivative of restricted generator 2 is not 1"),
])
def test_build_chart_rejects_non_triangular_restriction(bundles, helpers, pos, betas,
                                                       message):
    B = bundles("A2")
    bad = _with_planted_squares(B, pos, betas, helpers)
    with pytest.raises(NotTriangular) as err:
        build_chart(bad)
    assert str(err.value) == message


def _with_poly_of(F, pos, source):
    """F with member pos given the polynomial of member source."""
    poly = F.entries[source].poly
    return replace(F, entries=[replace(e, poly=poly) if idx == pos else e
                               for idx, e in enumerate(F.entries)])


@pytest.mark.parametrize("label", ["A2", "B2", "G2", B3])
def test_build_chart_rejects_dependent_frame(bundles, label):
    """Two equal members of one degree: their gradients at e1 lie in their
    layer, so the layer test passes and the basis test refuses the frame."""
    F = bundles(label).family
    i, j = next((i, j) for i, a in enumerate(F.entries)
                for j, b in enumerate(F.entries) if i < j and a.m == b.m)
    with pytest.raises(NotTriangular) as err:
        build_chart(_with_poly_of(F, j, i))
    assert str(err.value) == "gradient frame at e1 is not a basis of the upper Borel"


@pytest.mark.parametrize("label", ["A2", "B2", "G2", B3])
def test_build_chart_rejects_member_off_its_layer(bundles, label):
    """A member given the polynomial of a member of a higher layer: its
    gradient at e1 leaves its layer, and the layer test names it."""
    F = bundles(label).family
    i, j = next((i, j) for i, a in enumerate(F.entries)
                for j, b in enumerate(F.entries) if a.m < b.m)
    e = F.entries[i]
    with pytest.raises(NotTriangular) as err:
        build_chart(_with_poly_of(F, i, j))
    assert str(err.value) == f"frame vector for position {e.beta} is not in layer {e.m - 1}"


def test_unit_diagonal_is_read_as_numerator_equal_to_denominator():
    """A diagonal coefficient is 1 exactly when its numerator equals the
    polynomial's denominator; 2 s_1, or s_1 / 2, is not a unit diagonal."""
    s2 = Poly.coordinate(2, 1)
    ok = Poly(2, {(1, 0): rat(1), (0, 0): rat(1, 2)})
    assert ok.den == 2 and _unitriangular_violation([ok, s2]) is None
    for bad in (Poly(2, {(1, 0): rat(2)}), Poly(2, {(1, 0): rat(1, 2), (0, 0): rat(1)})):
        assert _unitriangular_violation([bad, s2]) == \
            "diagonal derivative of restricted generator 1 is not 1"


# sha256 of the compact JSON of [p.to_payload() for p in chart.restricted],
# recorded with the Poly.compose restriction (family built at seed 42)
RESTRICTED_DIGESTS = {
    "A1": "416336a3d75ef7d0ed9d002e568b38fca1bdc7c9caa45508abe1ad149b20067f",
    "A2": "d5652e4ad4b76ee6bdedbbfdbf3d8a5430a756f2555743398a040d9426112c33",
    "A3": "1e45f178869c70fa1cf2f69e25c56610256faf3b6956cbebf49ede2743841dd7",
    "B2": "cf28cec6442ae0253dc0cc95f331dc140d7fa8dbac5dfdff65457e7fc42ce17f",
    "C2": "e241f280aa8edfefaf7dd84a2dff713bc6e002908c9d223a04ac9dfbaa6693d7",
    "A1xA1": "2b41ab81c84d84df127c0db128392a97670e1d2b9c806285190b111c6a68388e",
    "G2": "bf0ca7b3156df960c3e14eb7933b7826011cc3a901183f50041fe0447204fb7b",
    "B3": "3396d3189396bfb465eb66d3647e06c7f61706039300cc594349dbe7b84ec263",
    "C3": "f7037f69563215e8b204ac11e566bcd271807cc99341f595accc9a62cd254b27",
    "A4": "c5cc042f0dd7a06c16c1c0384664b05e94005220a5f8009a105f2887c6c1dec9",
}
INLINE_TYPES = {
    "B3": "[[2,-1,0],[-1,2,-1],[0,-2,2]]",
    "C3": "[[2,-1,0],[-1,2,-2],[0,-1,2]]",
    "A4": "[[2,-1,0,0],[-1,2,-1,0],[0,-1,2,-1],[0,0,-1,2]]",
}


@pytest.mark.parametrize("label", sorted(RESTRICTED_DIGESTS))
def test_restricted_generators_are_pinned(bundles, label):
    B = bundles(INLINE_TYPES.get(label, label))
    payload = [p.to_payload() for p in B.chart.restricted]
    digest = hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()
    assert digest == RESTRICTED_DIGESTS[label]


# sha256 of the compact JSON of the canonical frame vectors [nums, den],
# recorded with the frame held as canonical points
FRAME_DIGESTS = {
    "A1": "c5fb289e71e67aee63b349aac8db986e9bf0ab2e57677b0251380e822e07f252",
    "A1xA1": "6b3cae0698eb577a95f3d24df9601188223603cdf6b1c6943e8537f172e68ca6",
    "A2": "444f55624f8c98e9c18ddef4a8ea7a8115113a4937f4a4cfe045e711056274d0",
    "A3": "d6b3db87f57032fee87c9a28292342b832fa2fd384790f6e309f50f10f2f42aa",
    "B2": "9d80b55eb02e48ad28793ee5e4226406c3988d4e989a0506a6f1ce1b81b91c50",
    "B3": "ebdace9d994a1978a3d98c469e6553e9d7f8ecd64942da73ab31af66f7c5c9be",
    "C2": "d115d0224cda845f539949a0a63ed64f06d059408c2b9c0a6d25549e0d1f5acf",
    "C3": "4b5b4efefcbf75fcfbc99d5c054c3f9b6177e31184b5b831ec48b69726e28ea9",
    "G2": "9c3f714f759ae60b254fc2529d2e32f270d05500084b7ac725e983f8ae5315f2",
    "A4": "bd710f94e81bb010fe9dcbef6e2fdc39b30448dc74d522e4a331496c47e0cccb",
}


@pytest.mark.parametrize("label", sorted(FRAME_DIGESTS))
def test_frame_is_pinned_over_the_lcm_of_its_denominators(bundles, label):
    """The chart holds its dual frame once, as integer rows over the LCM of
    the frame vectors' reduced denominators: no larger scale, which would
    make restrict_affine multiply larger ints."""
    B = bundles(INLINE_TYPES.get(label, label))
    vecs = canonical_frame(B.chart)
    payload = [[list(nums), den] for nums, den in vecs]
    digest = hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()
    assert digest == FRAME_DIGESTS[label]
    assert B.chart.frame[1] == math.lcm(*(den for _, den in vecs))


def test_leading_term_against_interpolation(bundles, helpers):
    """Frame vectors against an interpolated first derivative along the slice."""
    nodes = [0, 1, 2, 3, 4]   # members have degree at most 4 on these types
    rows, den = linalg.inverse([[t ** k for k in range(len(nodes))] for t in nodes])
    vinv = [over(row, den) for row in rows]
    for label in ("A2", "A1", "A1xA1", "B2", "C2"):
        B = bundles(label)
        L = B.L
        e1 = over(*B.triple.e1)
        for e, z in zip(B.family.entries, rational_zvecs(B.chart)):
            for i in L.bminus_indices:
                zdir = L.basis_vector(i)
                vals = []
                for t in nodes:
                    pt = helpers.vec_add(e1, helpers.vec_scale(zdir, rat(t)))
                    vals.append([e.poly.evaluate(pt)])
                coeffs = helpers.mat_mul(vinv, vals)
                assert coeffs[1][0] == helpers.killing_pair(L, z, zdir), (label, e.beta, i)


def test_section_round_trips(bundles, helpers):
    for label in ("A1", "A2", "A1xA1", "B2"):
        B = bundles(label)
        chart, F = B.chart, B.family
        rng = random.Random(f"rt:{label}")
        for _ in range(20):
            v = helpers.point_from_s(chart, rand_svals(rng, F.b))
            assert point_in_hess(B.L, B.triple, v)
            assert hess_section(chart, phi(F, v)) == v
            c = cleared(rand_svals(rng, F.b))
            w = hess_section(chart, c)
            assert phi(F, w) == c and point_in_hess(B.L, B.triple, w)
        e1 = B.triple.e1
        assert hess_section(chart, phi(F, e1)) == e1


@pytest.mark.parametrize("label", ["A1", "A1xA1", "A2", "B2", "C2", "A3", "G2", B3])
def test_section_on_integers_matches_the_rational_steps(bundles, reference_section, helpers,
                                                       label):
    """hess_section against its rational-step reference, on random values
    (denominators that do and do not divide the common one), on the values
    of random points of Hess, on zeros and at e1."""
    B = bundles(label)
    chart, F = B.chart, B.family
    rng = random.Random(f"section:{label}")
    inputs = [[rat(0)] * F.b, over(*phi(F, B.triple.e1))]
    for _ in range(6):
        inputs.append(rand_svals(rng, F.b, bound=9))
        inputs.append(over(*phi(F, helpers.point_from_s(chart, rand_svals(rng, F.b)))))
    for cvals in inputs:
        assert hess_section(chart, cleared(cvals)) == reference_section(chart, cvals)


def test_point_from_s_matches_dense_sum(bundles, helpers):
    """point_from_cleared is the dense rational sum e1 + sum_g s_g frame_g,
    cleared to canonical form."""
    for label in ("A1", "A2", "A1xA1", "B2"):
        B = bundles(label)
        chart = B.chart
        rng = random.Random(f"pts:{label}")
        for _ in range(10):
            svals = rand_svals(rng, B.family.b)
            want = over(*B.triple.e1)
            for s, vec in zip(svals, rational_frame(chart)):
                want = helpers.vec_add(want, helpers.vec_scale(vec, s))
            assert chart.point_from_cleared(*clear(svals)) == cleared(want)


def test_section_input_validation(bundles):
    B = bundles("A2")
    with pytest.raises(ValueError):
        hess_section(B.chart, cleared([rat(1)] * (B.family.b + 1)))


def test_orbit_slice_membership_and_exponential(bundles, helpers):
    B = bundles("A2")
    L = B.L
    rng = random.Random("slice")
    v0 = helpers.point_from_s(B.chart, rand_svals(rng, B.family.b, 3))
    values = B.inv.compiled.values(v0)
    for v in slice_sample(L, v0, 4, rng):
        assert point_in_hess(L, B.triple, v)
        assert B.inv.compiled.values(v) == values
        assert HessVisit(B.family, v).slice.dim == L.n


def test_slice_partition_of_sampled_points(bundles, helpers):
    B = bundles("A2")
    rng = random.Random("partition")
    pts = [helpers.point_from_s(B.chart, rand_svals(rng, B.family.b, 2)) for _ in range(5)]
    for p in pts:
        values = B.inv.compiled.values(p)
        for q in pts:
            same_values = cleared([f.evaluate(over(*q)) for f in B.inv.polys]) == values
            assert (B.inv.compiled.values(q) == values) == same_values


def test_exponential_preserves_slice_plane(bundles):
    B = bundles("B2")
    L = B.L
    rng = random.Random("plane")
    v0 = B.triple.e1
    z = L.zero()
    for i in L.nminus_indices:
        z[i] = rat(rng.randint(-2, 2))
    v = exp_ad_nilpotent(L, cleared(z), v0)
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


@pytest.mark.parametrize("label", SUPPORTED_LABELS + FLAGGED_LABELS)
def test_poincare_series_on_ints_matches_the_fraction_series(bundles, reference_poincare,
                                                             label):
    """Check 11's series, multiplied out on ints, equals the Fraction series
    through order 2h, and its head prints as the Fraction head does."""
    rs = bundles(label).rs
    order = 2 * rs.coxeter_number
    ser = poincare_series(rs, order)
    ref = reference_poincare(rs, order)
    assert ser == ref and all(type(c) is int for c in ser)
    assert [rat_str(c) for c in ser[:5]] == [rat_str(c) for c in ref[:5]]


def test_poincare_series_a2_order_10(bundles):
    ser = poincare_series(bundles("A2").rs, 10)
    assert len(ser) == 11


def test_poincare_rejects_bad_order(bundles):
    with pytest.raises(ValueError):
        poincare_series(bundles("A1").rs, 0)


# every label and G2, and inline B3, C3, A4 and D4
FRAME_TYPES = SUPPORTED_LABELS + FLAGGED_LABELS + tuple(INLINE_TYPES.values()) + (
    "[[2,-1,0,0],[-1,2,-1,-1],[0,-1,2,0],[0,-1,0,2]]",)


@pytest.mark.parametrize("label", FRAME_TYPES)
def test_frame_rows_are_the_whole_family_gradients_at_e1(bundles, helpers, label):
    """build_chart reads (rows, den) at e1 from the family terms that reach
    e1 alone; they equal the whole family's compiled gradients there, and
    the chart's zvecs are those rows.  The trimmed form keeps the whole
    family's scale and top and holds fewer terms; at other points with
    zero coordinates (e, f, w and a Hess point) it agrees too."""
    B = bundles(label)
    F, tri = B.family, B.triple
    whole = CompiledPolys(F.qs)
    rows, den = frame_rows(F)
    assert (rows, den) == whole.int_gradients(F.ctx, tri.e1)
    assert B.chart.zvecs == (rows, den)
    hess = helpers.point_from_s(B.chart, [rat(k % 3 - 1, 2) for k in range(F.b)])
    for x in (tri.e1, tri.e, tri.f, tri.w, hess):
        trimmed = CompiledPolys(F.qs, grad_at=x[0])
        assert (trimmed.scale, trimmed.top) == (whole.scale, whole.top)
        assert trimmed.int_gradients(F.ctx, x) == whole.int_gradients(F.ctx, x)
    trimmed = CompiledPolys(F.qs, grad_at=tri.e1[0])
    assert sum(map(len, trimmed.polys)) < sum(map(len, whole.polys))
