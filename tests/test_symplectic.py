import functools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mfhess import linalg, verifier
from mfhess.liealgebra import (chevalley_algebra, exp_ad_nilpotent, is_regular,
                               principal_triple)
from mfhess.argshift import phi
from mfhess.polyring import Poly
from mfhess.rootdata import (FLAGGED_LABELS, SUPPORTED_LABELS, CartanMatrix,
                             build_root_system, cartan_matrix_for_label)
from mfhess.symplectic import (HessVisit, NotStronglyRegular, TransversalityResult,
                               isotropy_witness, omega, polarization_report,
                               transversality_check, zx_frame)
from mfhess.verifier import (SuiteConfig, SuiteContext, build_context,
                             check_hamiltonian_frame, check_polarization,
                             check_slice_lagrangian, check_strong_regularity,
                             check_transversality, sample_points)
from mfhess.rational import clear, cleared, over, rat


def rand_point(rng, n, bound=3):
    return [rat(rng.randint(-bound, bound), rng.randint(1, 2)) for _ in range(n)]


def hess_point(B, rng, bound=3):
    """A cleared point of Hess with random chart coordinates."""
    svals = [rat(rng.randint(-bound, bound), rng.randint(1, 2))
             for _ in range(B.family.b)]
    return B.chart.point_from_cleared(*clear(svals))


def test_omega_alternating_and_well_defined(helpers, bundles):
    B = bundles("A2")
    L = B.L
    rng = random.Random("omega")
    x = hess_point(B, rng)
    z1, z2 = rand_point(rng, L.dim), rand_point(rng, L.dim)
    c1, c2 = cleared(z1), cleared(z2)
    assert omega(L, x, c1, c1) == (0, 1)
    num, den = omega(L, x, c1, c2)
    assert omega(L, x, c2, c1) == (-num, den) and den > 0
    kernel, kden = linalg.kernel(L.int_ad(x)[0], L.dim)
    for k in kernel:
        k = over(k, kden)
        assert omega(L, x, cleared(helpers.vec_add(z1, k)), c2) == (num, den)
        assert omega(L, x, c1, cleared(helpers.vec_add(z2, k))) == (num, den)


def test_omega_vanishes_on_lower_nilradical_pairs(bundles):
    B = bundles("B2")
    L = B.L
    rng = random.Random("nil")
    v = hess_point(B, rng)
    for i in L.nminus_indices:
        for j in L.nminus_indices:
            assert omega(L, v, cleared(L.basis_vector(i)), cleared(L.basis_vector(j))) == (0, 1)


def test_orbit_frame_dimension(bundles):
    B = bundles("A2")
    L = B.L
    rng = random.Random("frame")
    x = hess_point(B, rng)
    assert L.dim - L.centralizer_dim(x) == 2 * L.n
    assert is_regular(L, x)
    # a singular point has a smaller orbit
    sing = cleared(L.basis_vector(L.pos_indices[0]))
    assert not is_regular(L, sing)
    assert L.dim - L.centralizer_dim(sing) < 2 * L.n


def test_zx_frame_lagrangian(bundles, helpers):
    for label in ("A1", "A2", "B2"):
        B = bundles(label)
        L = B.L
        rng = random.Random(f"zx:{label}")
        for _ in range(4):
            x = hess_point(B, rng)
            fr = zx_frame(B.family, x)
            assert fr.dim == L.n
            assert isotropy_witness(L, fr) is None
            assert ([over(t, fr.tden) for t in fr.tangents]
                    == [helpers.bracket(L, over(*x), over(g, fr.pden)) for g in fr.preimages])
            # Hamiltonian vectors of the underived invariants vanish
            rows, den = B.family.gradient_rows(x)
            for pos in B.family.I_positions:
                assert not any(L.int_bracket((rows[pos], den), x)[0])
            assert HessVisit(B.family, x).casimirs_commute
            # a derived member in an invariant's place does not commute
            F = B.family
            entries = list(F.entries)
            entries[F.I_positions[0]] = replace(entries[F.I_positions[0]],
                                                poly=entries[F.N_positions[0]].poly)
            assert not HessVisit(replace(F, entries=entries), x).casimirs_commute


def test_zx_frame_requires_strong_regularity(bundles):
    B = bundles("A2")
    with pytest.raises(NotStronglyRegular):
        zx_frame(B.family, cleared(B.L.zero()))


def test_hess_lagrangian_check(bundles, helpers):
    B = bundles("A2")
    rng = random.Random("lag")
    for _ in range(5):
        v = hess_point(B, rng)
        visit = HessVisit(B.family, v)
        sl = visit.slice
        assert sl.dim == B.L.n and visit.slice_isotropic
        assert ([over(t, sl.tden) for t in sl.tangents]
                == [helpers.bracket(B.L, over(*v), over(z, sl.pden)) for z in sl.preimages])


def test_transversality(bundles):
    for label in ("A2", "B2"):
        B = bundles(label)
        L = B.L
        rng = random.Random(f"trans:{label}")
        for _ in range(4):
            x = hess_point(B, rng)
            res = transversality_check(B.family, B.chart, x)
            assert res.passed
            assert res.zx_dim == res.slice_dim == L.n
            assert res.combined_dim == res.orbit_dim == 2 * L.n
            assert res.pairing_det[0] != 0 and res.pairing_det[1] > 0
            assert res.jacobian_rank == L.n


def test_transversality_requires_slice_point(bundles):
    B = bundles("A2")
    with pytest.raises(ValueError):
        transversality_check(B.family, B.chart, B.triple.w)


def test_transversality_builds_one_gradient_matrix(bundles, gradient_rows_calls):
    B = bundles("A2")
    x = hess_point(B, random.Random("visit"))
    res = transversality_check(B.family, B.chart, x)
    assert res.passed
    assert len(gradient_rows_calls) == 1


def test_polarization_builds_one_gradient_matrix_per_point(bundles, gradient_rows_calls):
    B = bundles("A2")
    for count in (1, 3):
        gradient_rows_calls.clear()
        rep = polarization_report(B.family, B.chart, B.inv, B.triple.e1, count, seed=11)
        assert rep == [True] * count
        assert len(gradient_rows_calls) == count


CERT_LABELS = SUPPORTED_LABELS + FLAGGED_LABELS + ("[[2,-1,0],[-1,2,-1],[0,-2,2]]",)
CERT_IDS = SUPPORTED_LABELS + FLAGGED_LABELS + ("B3",)


def _eliminated(B, shapes) -> tuple:
    """Whether ad x (dim x dim) and the Jacobian (b x n) were ranked."""
    return ((B.L.dim, B.L.dim) in shapes, (B.family.b, B.L.n) in shapes)


def _visit_parts(F, x) -> tuple:
    """A fresh visit's transversality, Hamiltonian frame and slice, read in
    that order: what reference_transversality_check returns."""
    visit = HessVisit(F, x)
    return visit.transversality, visit.frame, visit.slice


@pytest.mark.parametrize("label", CERT_LABELS, ids=CERT_IDS)
def test_transversality_certificates_match_eliminations(bundles, reference_transversality,
                                                        rank_shapes, label):
    """At sampled Hess points every field of the result, and the visit's
    Hamiltonian frame and slice, equal the route that ranks ad x and the
    Jacobian, and neither is ranked."""
    B = bundles(label)
    rng = random.Random(f"certificate:{label}")
    for _ in range(3):
        x = hess_point(B, rng)
        rank_shapes.clear()
        res = transversality_check(B.family, B.chart, x)
        assert res.passed and _eliminated(B, rank_shapes) == (False, False)
        want = reference_transversality(B.family, B.chart, x)
        assert res == want[0] and _visit_parts(B.family, x) == want


def _planted_family(B, defect):
    """x0*x1 added to an underived member, a derived member replaced by
    twice another member, or a coordinate function as a derived member."""
    F = B.family
    n = B.L.dim
    if defect == "invariant term":
        pos = F.I_positions[0]
        poly = F.entries[pos].poly + Poly.coordinate(n, 0) * Poly.coordinate(n, 1)
    elif defect == "dependent":
        pos = F.N_positions[0]
        poly = F.entries[next(i for i in range(F.b) if i != pos)].poly.scale(2)
    else:
        pos = F.N_positions[0]
        poly = Poly.coordinate(n, B.L.pos_indices[0])
    return replace(F, entries=[replace(e, poly=poly) if i == pos else e
                               for i, e in enumerate(F.entries)])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("defect", ["invariant term", "dependent", "coordinate"])
@pytest.mark.parametrize("label", CERT_LABELS, ids=CERT_IDS)
def test_failed_certificates_fall_back_to_eliminations(bundles, reference_transversality,
                                                       rank_shapes, monkeypatch, label,
                                                       defect):
    """A planted defect breaks a certificate: an underived member that no
    longer commutes with x or a zero pairing determinant makes
    transversality rank ad x and the Jacobian, a dependent member raises
    NotStronglyRegular.  Each result or exception, and a visit's Hamiltonian
    frame and slice, equal the reference route's, and checks 12 to 15 and
    polarization give what they give with every pairing certificate failed,
    transversality and the Hamiltonian frame on the reference route."""
    B = bundles(label)
    bad = _planted_family(B, defect)
    rng = random.Random(f"fallback:{label}")
    forced = []
    for _ in range(3):
        x = hess_point(B, rng)
        rank_shapes.clear()
        got = _outcome(transversality_check, bad, B.chart, x)
        if isinstance(got, TransversalityResult):
            forced.append(_eliminated(B, rank_shapes))
        want = _outcome(reference_transversality, bad, B.chart, x)
        assert _outcome(_visit_parts, bad, x) == want
        assert got == (want[0] if isinstance(got, TransversalityResult) else want)
    if defect == "dependent":
        assert forced == []
    else:
        assert forced == [(True, True)] * 3
    sc = SuiteContext(label=label, rs=B.rs, L=B.L, ctx=B.ctx, triple=B.triple, inv=B.inv,
                      y=B.y, family=bad, chart=B.chart)
    for name in ("HESS_POINTS", "TRANSVERSALITY_POINTS", "SLICE_POINTS"):
        monkeypatch.setattr(verifier, name, 3)
    cfg = SuiteConfig(algebra=label, seed=5)
    checks = (check_strong_regularity, check_hamiltonian_frame, check_slice_lagrangian,
              check_transversality, check_polarization)
    run = verifier.SuiteRun(sc, cfg)
    outs = [_outcome(check, sc, cfg, run) for check in checks]
    for name, part in (("transversality", 0), ("frame", 1)):
        monkeypatch.setattr(HessVisit, name, property(
            lambda v, part=part: reference_transversality(v.F, B.chart, v.x)[part]))
    monkeypatch.setattr(HessVisit, "certified", property(lambda v: False))
    run = verifier.SuiteRun(sc, cfg)
    assert outs == [_outcome(check, sc, cfg, run) for check in checks]


# each condition of the pairing certificate, as the HessVisit attribute that
# holds it, and a value that fails it
CONDITIONS = {"det": ("pairing_det", (0, 1)), "isotropy": ("slice_isotropic", False),
              "casimirs": ("casimirs_commute", False), "underived rank": ("underived_rank", -1)}


def _fail_condition(monkeypatch, condition):
    """Make one condition of the pairing certificate fail at HessVisit and
    leave every other reader as it is: the first read of the condition on
    each visit, which HessVisit.certified makes, gives the failing value,
    and every later read the value the visit computes."""
    name, failed = CONDITIONS[condition]
    compute = HessVisit.__dict__[name].func
    seen = []

    def read(visit):
        if any(v is visit for v in seen):
            return compute(visit)
        seen.append(visit)
        return failed

    monkeypatch.setattr(HessVisit, name, property(read))


@pytest.mark.parametrize("condition", ["det", "isotropy", "casimirs", "underived rank"])
@pytest.mark.parametrize("label", ["A2", "B2"])
def test_each_failed_condition_falls_back_to_eliminations(bundles, reference_transversality,
                                                          rank_shapes, monkeypatch, label,
                                                          condition):
    """One certificate condition failed at a time sends transversality and
    checks 12 and 13 to the eliminations, which rank the b x dim gradient
    matrix, and gives the reference result: the eliminating transversality,
    Hamiltonian frame and slice, and the checks' outputs with every
    certificate failed."""
    B = bundles(label)
    rng = random.Random(f"condition:{label}")
    points = [hess_point(B, rng) for _ in range(2)]
    want = [reference_transversality(B.family, B.chart, x) for x in points]
    sc = SuiteContext(label=label, rs=B.rs, L=B.L, ctx=B.ctx, triple=B.triple, inv=B.inv,
                      y=B.y, family=B.family, chart=B.chart)
    monkeypatch.setattr(verifier, "HESS_POINTS", 3)
    cfg = SuiteConfig(algebra=label, seed=5)
    checks = (check_strong_regularity, check_hamiltonian_frame)
    with monkeypatch.context() as forced:
        forced.setattr(HessVisit, "certified", property(lambda v: False))
        run = verifier.SuiteRun(sc, cfg)
        eliminated = [check(sc, cfg, run) for check in checks]
    _fail_condition(monkeypatch, condition)
    gradients = (B.family.b, B.L.dim)
    for x, ref in zip(points, want):
        rank_shapes.clear()
        res = transversality_check(B.family, B.chart, x)
        assert gradients in rank_shapes and _eliminated(B, rank_shapes) == (True, True)
        assert res == ref[0] and res.passed
        assert _visit_parts(B.family, x) == ref
    rank_shapes.clear()
    run = verifier.SuiteRun(sc, cfg)
    assert [check(sc, cfg, run) for check in checks] == eliminated
    assert rank_shapes.count(gradients) == 3
    assert not any(run.hess_visit(i).certified for i in range(3))


def test_slice_dim_is_n_where_certified_else_the_slice_rank(bundles):
    """slice_dim is n at a certified visit, which keeps no slice, and the
    rank of the slice elsewhere: 0 at the origin, whose vanishing slice is
    isotropic."""
    B = bundles("A2")
    visit = HessVisit(B.family, hess_point(B, random.Random("slice dim")))
    assert visit.slice_dim == B.L.n and visit.certified and "slice" not in vars(visit)
    origin = HessVisit(B.family, cleared(B.L.zero()))
    assert origin.slice_dim == 0 and origin.slice_isotropic and not origin.certified


def test_repeated_underived_member_is_never_certified(bundles):
    """l + 1 underived members of rank l: the certificate needs exactly l,
    and the b + 1 gradients are dependent."""
    B = bundles("A2")
    F = B.family
    bad = replace(F, entries=F.entries + [F.entries[F.I_positions[0]]])
    visit = HessVisit(bad, hess_point(B, random.Random("repeat")))
    assert visit.underived_rank == B.L.rank
    assert not visit.certified and not visit.strongly_regular
    with pytest.raises(NotStronglyRegular):
        visit.frame


@functools.cache
def _context_2024(label):
    return build_context(SuiteConfig(algebra=label, seed=2024, enable_g2=True))


def _hess_points_2024(sc) -> list:
    return [sc.triple.e1] + sample_points(sc, 2024, 8)


@pytest.mark.parametrize("label", ["A1", "A2", "A1xA1", "B2", "C2", "A3", "G2"])
def test_pairing_determinant_is_constant_on_hess(label):
    """The reduced pairing determinant at each of 8 sampled Hess points is
    its value at e1, which is nonzero: the premise of certifying all of Hess
    from one determinant."""
    sc = _context_2024(label)
    dets = [HessVisit(sc.family, x).pairing_det for x in _hess_points_2024(sc)]
    assert dets[0][0] and dets == [dets[0]] * 9
    assert dets[0] == {"A2": (625, 10368), "C2": (-52, 9375)}.get(label, dets[0])


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_planted_coordinate_has_zero_pairing_determinant_on_hess(label):
    """A coordinate function in any derived member's place gives the
    determinant (0, 1) at e1 and at every sampled Hess point."""
    sc = _context_2024(label)
    F, L = sc.family, sc.L
    coordinate = Poly.coordinate(L.dim, L.pos_indices[0])
    points = _hess_points_2024(sc)
    for pos in F.N_positions:
        bad = replace(F, entries=[replace(e, poly=coordinate) if i == pos else e
                                  for i, e in enumerate(F.entries)])
        assert [HessVisit(bad, x).pairing_det for x in points] == [(0, 1)] * 9, pos


def test_polarization_requires_hess_base_point(bundles):
    B = bundles("A2")
    with pytest.raises(ValueError):
        polarization_report(B.family, B.chart, B.inv, cleared(B.L.zero()), 3, seed=11)


def test_polarization_report_nilpotent_slice(bundles):
    B = bundles("A1")
    rep = polarization_report(B.family, B.chart, B.inv, B.triple.e1, 5, seed=11)
    assert rep == [True] * 5
    # e1 is nilpotent: every invariant vanishes on its slice
    assert B.inv.compiled.values(B.triple.e1) == ((0,) * len(B.inv.polys), 1)


def test_polarization_report_semisimple_slice(bundles):
    B = bundles("A2")
    # a slice through a point with generic invariant values
    v0 = B.chart.point_from_cleared(*clear([rat(1), rat(2), rat(-1), rat(1, 2), rat(3)]))
    rep = polarization_report(B.family, B.chart, B.inv, v0, 4, seed=12)
    assert rep == [True] * 4
    assert any(B.inv.compiled.values(v0)[0])


def test_invariant_values_conserved_along_exponential(bundles):
    B = bundles("A2")
    L = B.L
    rng = random.Random("cons")
    x = hess_point(B, rng)
    z = L.zero()
    for i in L.nminus_indices:
        z[i] = rat(rng.randint(-2, 2), rng.randint(1, 2))
    moved = exp_ad_nilpotent(L, cleared(z), x)
    vx, vm = over(*phi(B.family, x)), over(*phi(B.family, moved))
    for pos in B.family.I_positions:
        assert vx[pos] == vm[pos]


@functools.cache
def _bare_algebra(label):
    """Only the algebra and its principal triple: no invariant solve."""
    rs = build_root_system(CartanMatrix.from_rows(cartan_matrix_for_label(label)))
    L = chevalley_algebra(rs)
    return L, principal_triple(L)


coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@pytest.mark.parametrize("at", ["random", "zero", "e"])
@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_ad_matrix_reads_tangents_and_orbit_form(helpers, label, at, data):
    L, triple = _bare_algebra(label)
    vec = st.lists(coord, min_size=L.dim, max_size=L.dim)
    x = {"random": lambda: data.draw(vec), "zero": L.zero,
         "e": lambda: over(*triple.e)}[at]()
    z1, z2 = data.draw(vec), data.draw(vec)
    value = helpers.killing_pair(L, helpers.bracket(L, x, z2), z1)
    assert (value.numerator, value.denominator) == omega(L, cleared(x), cleared(z1), cleared(z2))


def test_claims_read_in_any_order_after_certification(bundles):
    """A certified visit drops its brackets, ad x and slice; a later read of
    any claim or part builds them again and gives the fresh visit's value."""
    B = bundles("A2")
    x = hess_point(B, random.Random("order"))
    visit = HessVisit(B.family, x)
    assert visit.certified
    assert visit.transversality == HessVisit(B.family, x).transversality
    assert visit.slice.dim == B.L.n and visit._adx == B.L.int_ad(x)
    assert visit._jacobian(B.family.N_positions) == HessVisit(B.family, x)._jacobian(
        B.family.N_positions)
