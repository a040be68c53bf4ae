import functools
import importlib.util
import math
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import pytest

from mfhess import argshift, cli, liealgebra, linalg, verifier
from mfhess.argshift import mv_membership, shift_family
from mfhess.cli import main
from mfhess.hessenberg import point_in_hess, slice_sample
from mfhess.liealgebra import DecompositionFailure, LieAlgebra
from mfhess.polyring import CompiledPolys, Poly
from mfhess.rational import canonical, cleared, over, rat, rat_str, to_rat
from mfhess.rootdata import FLAGGED_LABELS, SUPPORTED_LABELS
from mfhess.symplectic import HessVisit, NotStronglyRegular, transversality_check
from mfhess.verifier import (RegionExhausted, SuiteConfig, SuiteRun, _sample_regular,
                             build_context,
                             check_algebra_soundness, check_chart_section,
                             check_commutativity, check_degree_duality, check_gradient_rank,
                             check_graded_dimensions, check_hamiltonian_frame,
                             check_leading_term, check_membership, check_omega_well_defined,
                             check_poincare, check_polarization,
                             check_principal_decomposition, check_principal_shift_span,
                             check_shifted_gradient_span, check_slice_infinitesimal,
                             check_span_and_chain,
                             check_slice_lagrangian, check_strong_regularity,
                             check_trace_oracle, check_transversality, run_suite,
                             sample_points)
from test_liealgebra import _planted

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def a1_report():
    return run_suite(SuiteConfig(algebra="A1", seed=7, determinism_trials=2))


def test_suite_passes_a1(a1_report):
    counts = a1_report.counts
    assert counts["fail"] == 0
    assert counts["pass"] >= 20
    assert not a1_report.failed


def test_reports_are_byte_identical():
    cfg = SuiteConfig(algebra="A1", seed=99)
    r1 = run_suite(cfg).to_json()
    r2 = run_suite(SuiteConfig(algebra="A1", seed=99)).to_json()
    assert r1 == r2


def test_report_schema(a1_report):
    data = json.loads(a1_report.to_json())
    assert data["schema"] == "report_v4"
    assert set(data) == {"schema", "config", "convention", "summary", "checks"}
    assert data["convention"]["hash"]
    for check in data["checks"]:
        assert set(check) == {"id", "claim", "status", "criterion", "witness"}
        assert check["status"] in ("pass", "fail", "inconclusive", "skipped")
    crits = [c["criterion"] for c in data["checks"] if c["criterion"]]
    assert sorted(crits) == list(range(1, 18))


def test_an_inexact_norm_ratio_fails_the_algebra_stage(monkeypatch):
    """A resolver norm that makes one division inexact (3 for B2's highest
    root, whose norm is 4) ends as a build.algebra fail record at stage
    algebra, as a non-integer structure constant does."""
    init = liealgebra._ConstantResolver.__init__

    def planted(self, rs):
        init(self, rs)
        self.norm[max(self.pos)] = 3

    monkeypatch.setattr(liealgebra._ConstantResolver, "__init__", planted)
    build = run_suite(SuiteConfig(algebra="B2", seed=2024)).checks[0]
    assert (build.check_id, build.status, build.witness["stage"]) == \
        ("build.algebra", "fail", "algebra")
    assert build.witness["error"].startswith("ConstructionFailure: non-integer structure")


def test_unsupported_type_recorded():
    rep = run_suite(SuiteConfig(algebra="E8", seed=1))
    assert rep.failed
    by_id = {c.check_id: c for c in rep.checks}
    assert by_id["build.algebra"].status == "fail"
    assert by_id["build.algebra"].witness["stage"] == "resolve"
    skipped = [c for c in rep.checks if c.status == "skipped" and c.criterion]
    assert len(skipped) >= 16


def test_g2_gated_behind_flag():
    rep = run_suite(SuiteConfig(algebra="G2", seed=1))
    assert rep.failed and rep.checks[0].check_id == "build.algebra"


def test_config_validation(capsys):
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(algebra="A1", determinism_trials=0))
    assert main(["verify", "--type", "A1", "--determinism-trials", "0"]) == 2
    assert "error:" in capsys.readouterr().err


SAMPLED = {"REGULAR_POINTS": 2, "ROUNDTRIP_POINTS": 3, "HESS_POINTS": 4,
           "LAGRANGIAN_POINTS": 5, "TRANSVERSALITY_POINTS": 6, "SLICE_POINTS": 7}


@pytest.mark.parametrize("patched", [False, True], ids=["defaults", "patched"])
def test_sample_counts_are_constants_of_their_checks(monkeypatch, patched):
    """SuiteConfig and the report's config block hold five fields, and on A2
    each sampled check's witness counts what its verifier constant says,
    at the defaults and with every constant changed."""
    names = ["algebra", "seed", "determinism_trials", "enable_g2", "cache_dir"]
    assert [f.name for f in fields(SuiteConfig)] == names
    if patched:
        for name, count in SAMPLED.items():
            monkeypatch.setattr(verifier, name, count)
    rep = run_suite(SuiteConfig(algebra="A2", seed=5))
    assert sorted(rep.as_dict()["config"]) == sorted(names)
    assert not rep.failed
    witness = {c.check_id: c.witness for c in rep.checks}
    assert witness["invariants.gradient_rank_criterion"]["regular_points"] \
        == verifier.REGULAR_POINTS
    assert witness["chart.unitriangular_and_section"]["round_trips"] \
        == 2 * verifier.ROUNDTRIP_POINTS
    assert witness["chart.poincare_series"]["order"] == 2 * 3   # the Coxeter number of A2
    for check_id, count in (("hess.strong_regularity", verifier.HESS_POINTS),
                            ("symplectic.hamiltonian_frame", verifier.HESS_POINTS),
                            ("symplectic.slice_lagrangian", verifier.LAGRANGIAN_POINTS),
                            ("symplectic.transversality", verifier.TRANSVERSALITY_POINTS),
                            ("hess.slice_infinitesimal", verifier.SLICE_POINTS + 1)):
        assert witness[check_id]["points"] == count, check_id


def test_verify_takes_no_sample_count_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) == {
        "--help", "--type", "--seed", "--cache-dir", "--g2", "--format", "--out",
        "--determinism-trials"}
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--type", "A1", "--hess-points", "3"])
    assert exc.value.code == 2


BAD_INLINE_TYPES = ["[[2,-1],", "[[2,-1.5],[-1,2]]", "[[2,1],[1,2]]", "[]"]


@pytest.mark.parametrize("spec", BAD_INLINE_TYPES,
                         ids=["malformed-json", "non-integer", "not-cartan", "empty"])
def test_bad_inline_type_rejected(spec, capsys):
    rep = run_suite(SuiteConfig(algebra=spec, seed=1))
    assert rep.checks[0].check_id == "build.algebra"
    assert rep.checks[0].status == "fail"
    assert rep.counts["pass"] == 0
    assert main(["section", "--type", spec, "--values", "1,2"]) == 2
    assert main(["invariants", "--type", spec]) == 2
    assert "invalid inline Cartan matrix" in capsys.readouterr().err


def test_custom_cartan_matrix():
    sc = build_context(SuiteConfig(algebra="[[2,-1],[-1,2]]", seed=3))
    assert sc.label == "custom"
    assert sc.L.dim == 8


def test_suite_passes_c2():
    rep = run_suite(SuiteConfig(algebra="C2", seed=11))
    assert not rep.failed


def test_suite_passes_mixed_length_product():
    # two factors with different root-length normalizations
    rep = run_suite(SuiteConfig(algebra="[[2,0,0],[0,2,-1],[0,-2,2]]", seed=17))
    assert not rep.failed


@pytest.fixture(scope="module")
def a2_context():
    return build_context(SuiteConfig(algebra="A2", seed=5))


def test_sampling_regions(a2_context):
    """sample_points draws distinct, repeatable points of Hess; the slice
    that check 16 draws through one of them with slice_sample keeps the
    invariant values."""
    sc = a2_context
    assert sample_points(sc, 5, 0) == []
    hess = sample_points(sc, 5, 3)
    assert len(set(map(tuple, hess))) == 3
    for v in hess:
        assert point_in_hess(sc.L, sc.triple, v)
    v0 = hess[0]
    slc = slice_sample(sc.L, v0, 3, random.Random("5:sample:slice"))
    vals = [p.evaluate(over(*v0)) for p in sc.inv.polys]
    for v in slc:
        assert [p.evaluate(over(*v)) for p in sc.inv.polys] == vals
    # determinism
    assert sample_points(sc, 5, 3) == hess


def test_sampling_exhaustion(a2_context):
    with pytest.raises(RegionExhausted):
        _sample_regular(a2_context, 5, 1, bound=0, max_tries=5)


def test_hess_sampling_rejects_point_off_slice(monkeypatch):
    sc = build_context(SuiteConfig(algebra="A1", seed=5))
    monkeypatch.setattr(sc.chart, "point_from_cleared", lambda *s: sc.triple.w)
    with pytest.raises(RegionExhausted):
        sample_points(sc, 5, 1)


def test_cache_round_trip_through_context(tmp_path):
    cfg = SuiteConfig(algebra="A2", seed=5, cache_dir=str(tmp_path))
    sc1 = build_context(cfg)
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 2  # invariant generators and the shifted family
    sc2 = build_context(cfg)
    assert [p.terms for p in sc1.inv.polys] == [p.terms for p in sc2.inv.polys]
    assert sc1.family.to_payload() == sc2.family.to_payload()


def _drop_polys(text):
    return json.dumps({k: v for k, v in json.loads(text).items() if k != "polys"})


def test_corrupt_cache_is_a_miss_and_rewritten(tmp_path):
    cfg = SuiteConfig(algebra="A2", seed=5, cache_dir=str(tmp_path))
    sc1 = build_context(cfg)
    paths = sorted(tmp_path.iterdir())
    good = [p.read_text() for p in paths]
    corruptions = {
        "truncated write": lambda name, text: text[:40],
        "family schema only": lambda name, text: (
            '{"schema": "family_v1"}' if name.startswith("family_") else text),
        "invariants without polys": lambda name, text: (
            _drop_polys(text) if name.startswith("invariants_") else text),
    }
    for name, corrupt in corruptions.items():
        for p, text in zip(paths, good):
            p.write_text(corrupt(p.name, text))
        assert [p.read_text() for p in paths] != good, name
        sc2 = build_context(cfg)
        assert sorted(tmp_path.iterdir()) == paths, name
        assert [p.read_text() for p in paths] == good, name
        assert sc1.family.to_payload() == sc2.family.to_payload(), name


@pytest.mark.parametrize("cached", [False, True])
def test_compiled_forms_are_built_on_first_read(tmp_path, cached):
    """No build stage compiles the invariants, the family or the restricted
    generators, cold or warm; the first read compiles each once and keeps
    it."""
    cfg = SuiteConfig(algebra="A2", seed=5, cache_dir=str(tmp_path) if cached else None)
    if cached:
        cold = build_context(cfg)
        assert "compiled" not in vars(cold.family)
    sc = build_context(cfg)
    assert "compiled" not in vars(sc.inv) and "compiled" not in vars(sc.chart)
    assert "compiled" not in vars(sc.family)
    family = sc.family.compiled
    assert family is sc.family.compiled
    e1 = sc.triple.e1
    assert sc.family.gradient_rows(e1) == family.int_gradients(sc.ctx, e1)
    compiled = sc.inv.compiled
    assert compiled is sc.inv.compiled
    x = [rat(k + 1, 3) for k in range(sc.L.dim)]
    assert compiled.values(cleared(x)) == cleared([p.evaluate(x) for p in sc.inv.polys])
    section = sc.chart.compiled
    assert section is sc.chart.compiled
    assert len(section) == len(sc.chart.restricted)
    s = [rat(k - 2) for k in range(sc.chart.b)]
    assert ([over(*c.values(cleared(s)))[0] for c in section]
            == [rp.evaluate(s) for rp in sc.chart.restricted])


@pytest.mark.parametrize("algebra", ["A2", "G2", "[[2,-1,0],[-1,2,-1],[0,-2,2]]"],
                         ids=["A2", "G2", "B3"])
def test_warm_build_gives_the_cold_chart(tmp_path, monkeypatch, algebra):
    """A warm build, its family read from the cache, gives the chart of the
    cold build: the same frame, zvecs and restricted generators."""
    cfg = SuiteConfig(algebra=algebra, seed=5, enable_g2=True, cache_dir=str(tmp_path))
    cold = build_context(cfg)

    def cache_miss(*args):
        raise AssertionError("the warm build shifted the invariants again")

    monkeypatch.setattr(verifier, "shift_family", cache_miss)
    warm = build_context(cfg)
    assert warm.family.qs == cold.family.qs
    for name in ("frame", "zvecs", "restricted"):
        assert getattr(warm.chart, name) == getattr(cold.chart, name), name


def test_tampered_invariants_cache_is_a_miss_and_rewritten(tmp_path):
    cfg = SuiteConfig(algebra="A2", seed=5, cache_dir=str(tmp_path))
    sc1 = build_context(cfg)
    path = next(tmp_path.glob("invariants_*.json"))
    good = path.read_text()
    data = json.loads(good)
    poly = Poly.from_payload(sc1.L.dim, data["polys"][0]) + _x0x1(sc1)
    data["polys"][0] = poly.to_payload()
    path.write_text(json.dumps(data))
    sc2 = build_context(cfg)
    assert sc2.inv.polys == sc1.inv.polys
    assert path.read_text() == good


def _first_poly(name, data):
    return data["polys"][0] if name.startswith("invariants_") else data["entries"][0]["poly"]


def _zero_denominator(name, text):
    """A cache file with its first coefficient string made "1/0"."""
    data = json.loads(text)
    _first_poly(name, data)[0][1] = "1/0"
    return json.dumps(data)


def _repeated_term(name, text):
    """A cache file whose first polynomial names its first term twice."""
    data = json.loads(text)
    poly = _first_poly(name, data)
    poly.append(poly[0])
    return json.dumps(data)


def test_zero_denominator_in_a_cache_is_a_miss_and_rewritten(tmp_path):
    """A "1/0" coefficient or a repeated term in either cache file is a
    miss: the build and mfhess invariants succeed and rewrite the file."""
    cfg = SuiteConfig(algebra="A2", seed=5, cache_dir=str(tmp_path))
    build_context(cfg)
    paths = sorted(tmp_path.iterdir())
    good = [p.read_text() for p in paths]
    for corrupt in (_zero_denominator, _repeated_term):
        for path, text in zip(paths, good):
            path.write_text(corrupt(path.name, text))
            rep = run_suite(cfg)
            assert rep.checks[0].status != "fail", path.name
            assert [p.read_text() for p in paths] == good, path.name
            path.write_text(corrupt(path.name, text))
            assert main(["invariants", "--type", "A2", "--seed", "5",
                         "--cache-dir", str(tmp_path)]) == 0, path.name
            assert [p.read_text() for p in paths] == good, path.name


def _with_member(sc, pos, poly):
    """A copy of the context whose family has poly at 0-based position pos."""
    F = sc.family
    entries = [replace(e, poly=poly) if idx == pos else e
               for idx, e in enumerate(F.entries)]
    return replace(sc, family=replace(F, entries=entries))


def _x0x1(sc):
    n = sc.L.dim
    return Poly.coordinate(n, 0) * Poly.coordinate(n, 1)


def _add_x0x1_to_entry_2(sc, entries):
    poly = Poly.from_payload(sc.L.dim, entries[2]["poly"]) + _x0x1(sc)
    entries[2]["poly"] = poly.to_payload()


def _tampered_family_cache(cache_dir, edit=_add_x0x1_to_entry_2):
    """The A2 seed-5 config whose cache dir holds a family file whose entry
    payloads edit(sc, entries) changed, by default x0*x1 added to entry 2."""
    cfg = SuiteConfig(algebra="A2", seed=5, cache_dir=str(cache_dir))
    sc = build_context(cfg)
    path = next(cache_dir.glob("family_*.json"))
    data = json.loads(path.read_text())
    edit(sc, data["entries"])
    path.write_text(json.dumps(data))
    return cfg


def test_tampered_family_cache_is_a_build_failure(tmp_path):
    cfg = _tampered_family_cache(tmp_path)
    rep = run_suite(cfg)
    build = rep.checks[0]
    assert (build.check_id, build.status) == ("build.algebra", "fail")
    assert build.witness["error"].startswith("NotTriangular: ")
    assert build.witness["stage"] == "chart"
    assert all(c.status == "skipped" for c in rep.checks[1:])
    assert main(["verify", "--type", "A2", "--seed", "5", "--cache-dir", str(tmp_path)]) == 1


def test_dependent_frame_in_family_cache_is_a_build_failure(tmp_path):
    """A cached family whose two members of one degree are equal: both
    gradients at e1 lie in their layer, so the chart's basis test is what
    refuses the frame, as a build fail record at stage chart."""
    def copy_member(sc, entries):
        i, j = next((i, j) for i in range(len(entries)) for j in range(i + 1, len(entries))
                    if entries[i]["m"] == entries[j]["m"])
        entries[j]["poly"] = entries[i]["poly"]

    rep = run_suite(_tampered_family_cache(tmp_path, copy_member))
    build = rep.checks[0]
    assert (build.check_id, build.status) == ("build.algebra", "fail")
    assert build.witness == {
        "error": "NotTriangular: gradient frame at e1 is not a basis of the upper Borel",
        "stage": "chart"}
    assert all(c.status == "skipped" for c in rep.checks[1:])


def test_commutativity_fails_on_planted_term(a2_context, reference_bracket):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    assert check_commutativity(sc, cfg, SuiteRun(sc, cfg))["ok"]
    pos = sc.family.N_positions[0]
    bad = _with_member(sc, pos, sc.family.entries[pos].poly + _x0x1(sc))
    out = check_commutativity(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False
    i, j = out["witness"]["pair"]
    assert pos + 1 in (i, j)
    qs = bad.family.qs
    ref = reference_bracket(sc.ctx, qs[i - 1], qs[j - 1])
    assert out["witness"]["bracket_terms"] == len(ref.terms) > 0


def test_commutativity_fails_on_planted_invariant_term(a2_context, reference_pairwise):
    """x0*x1 added to an underived invariant: its Hamiltonian rows no longer
    vanish, so its pairs are multiplied out, and the witness is the first
    nonzero pair of the per-pair sweep."""
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    pos = sc.family.I_positions[-1]
    bad = _with_member(sc, pos, sc.family.entries[pos].poly + _x0x1(sc))
    out = check_commutativity(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False
    ok, (i, j, br) = reference_pairwise(bad.family)
    assert not ok and pos in (i, j)
    assert out["witness"]["pair"] == [i + 1, j + 1]
    assert out["witness"]["bracket_terms"] == len(br.terms) > 0


def _planted_family(sc, where, monkeypatch):
    """sc's family with one planted defect: x0*x1 added to a derived member
    or to an invariant, every binomial C(e, 1) of the Taylor pass along y
    one too large, or the first term of the first k = 1 member dropped."""
    F = sc.family
    if where == "binomial":
        with monkeypatch.context() as m:
            m.setattr(argshift, "comb", lambda e, a: math.comb(e, a) + (a == 1))
            return shift_family(sc.L, sc.inv, sc.y, sc.ctx, sc.triple)
    if where == "dropped":
        pos = next(idx for idx, e in enumerate(F.entries) if e.k == 1)
        p = F.entries[pos].poly
        first = min(p.nums)
        poly = Poly.from_ints(p.n, {e: c for e, c in p.nums.items() if e != first}, p.den)
    else:
        pos = F.N_positions[0] if where == "derived" else F.I_positions[-1]
        poly = F.entries[pos].poly + _x0x1(sc)
    return _with_member(sc, pos, poly).family


@pytest.mark.parametrize("where, label, refused, verdict", [
    ("derived", "A2", (0, 1), (False, (0, 1))),
    ("invariant", "A2", (1, 0), (False, (0, 4))),
    ("binomial", "A2", (0, 1), (True, 10)),
    ("binomial", "B2", (0, 1), (False, (3, 4))),
    ("dropped", "A2", (0, 1), (True, 10)),
], ids=["derived", "invariant", "binomial-A2", "binomial-B2", "dropped"])
def test_pairwise_commute_matches_reference_on_planted_terms(a2_context, bundles,
                                                              reference_pairwise, monkeypatch,
                                                              where, label, refused, verdict):
    """The chain certificate refuses every planted defect, and the product
    sweep then returns the per-pair sweep's verdict: its first nonzero pair
    and exact bracket, or the pair count where the defect still commutes (a
    Cartan-linear member with a term dropped commutes with every member of
    weight zero, and the A2 family with a wrong binomial is commutative)."""
    sc = a2_context if label == "A2" else bundles(label)
    bad = _planted_family(sc, where, monkeypatch)
    assert argshift.chain_certificate(bad) == refused
    ok, info = argshift.pairwise_commute(bad)
    assert (ok, info) == reference_pairwise(bad)
    assert (ok, info if ok else info[:2]) == verdict
    assert ok or not info[2].is_zero()


def test_pointwise_checks_fail_on_dependent_member(a2_context):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    F = sc.family
    pos, other = F.N_positions[0], F.N_positions[1]
    bad = _with_member(sc, pos, F.entries[other].poly.scale(2))
    out = check_strong_regularity(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False and "point" in out["witness"]
    with pytest.raises(NotStronglyRegular):
        check_hamiltonian_frame(bad, cfg, SuiteRun(bad, cfg))
    with pytest.raises(NotStronglyRegular):
        check_transversality(bad, cfg, SuiteRun(bad, cfg))
    out = check_polarization(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False and set(out["witness"]) == {"base", "index"}


def test_pointwise_checks_fail_on_planted_derived_term(a2_context):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    pos = sc.family.N_positions[0]
    bad = _with_member(sc, pos, sc.family.entries[pos].poly + _x0x1(sc))
    out = check_hamiltonian_frame(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False
    assert len(out["witness"]["pair"]) == 2 and out["witness"]["value"] != "0"
    assert check_polarization(bad, cfg, SuiteRun(bad, cfg))["ok"] is False


def test_algebra_check_fails_on_flipped_structure_constant(a2_context):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    assert check_algebra_soundness(sc, cfg, SuiteRun(sc, cfg))["ok"]
    key = next(k for k in sorted(sc.L.table) if k[0] in sc.L.pos_indices
               and k[1] in sc.L.pos_indices)
    table = dict(sc.L.table)
    table[key] = {c: -v for c, v in table[key].items()}
    bad = replace(sc, L=replace(sc.L, table=table))
    out = check_algebra_soundness(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False
    assert out["witness"]["violations"]


@pytest.mark.parametrize("key, violation", [((1, 0), "antisymmetry fails on (0,1)"),
                                             ((2, 2), "[b2, b2] != 0")])
def test_algebra_check_sees_keys_outside_the_table_convention(a2_context, key, violation):
    """The table stores [e_a, e_b] for a < b.  A key (1, 0) or (2, 2) holding
    the row of (0, 1) is read by int_bracket and int_ad alike, and check 2
    names it."""
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    table = dict(sc.L.table)
    table[key] = dict(table[(0, 1)])
    L = replace(sc.L, table=table)
    bad = replace(sc, L=L)
    out = check_algebra_soundness(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False
    assert violation in out["witness"]["violations"]
    x = sample_points(sc, 5, 1)[0]
    rows, _ = L.int_ad(x)
    for z in [(L.basis_vector(i), 1) for i in range(L.dim)] + [x]:
        # both over the product of the denominators of x and z
        assert [sum(map(mul, row, z[0])) for row in rows] == L.int_bracket(x, z)[0]


def test_omega_and_killing_invariance_fail_on_doubled_cartan_entry(a2_context, helpers):
    """One diagonal Cartan entry of the Killing rows doubled through
    dataclasses.replace: the orbit form is no longer well defined and check 2
    reports Killing invariance."""
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    c = sc.L.cartan_indices[0]
    killing = [list(row) for row in sc.L.killing]
    killing[c][c] *= 2
    bad = replace(sc, L=replace(sc.L, killing=killing))
    h = sc.L.basis_vector(c)
    assert helpers.killing_pair(bad.L, h, h) == 2 * helpers.killing_pair(sc.L, h, h)
    out = check_omega_well_defined(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False and "point" in out["witness"]
    violations = check_algebra_soundness(bad, cfg, SuiteRun(bad, cfg))["witness"]["violations"]
    assert violations and all(v.startswith("Killing invariance fails on") for v in violations)


def test_gradient_rank_fails_on_planted_linear_term(a2_context):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    polys = list(sc.inv.polys)
    polys[0] = polys[0] + Poly.coordinate(sc.L.dim, sc.L.cartan_indices[0])
    bad = replace(sc, inv=replace(sc.inv, polys=polys))
    out = check_gradient_rank(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False
    assert out["witness"]["kind"] == "gradient outside the centralizer center"
    assert "point" in out["witness"]


def test_gradient_rank_takes_no_kernel(a2_context, monkeypatch):
    calls = []
    original = linalg.kernel

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, "kernel", counted)
    cfg = SuiteConfig(algebra="A2", seed=5)
    assert check_gradient_rank(a2_context, cfg, SuiteRun(a2_context, cfg))["ok"]
    assert calls == []


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_omega_centralizer_is_the_rational_kernel(label, monkeypatch, reference_kernel):
    cfg = SuiteConfig(algebra=label, seed=2024)
    sc = build_context(cfg)
    calls = []
    original = linalg.sparse_kernel

    def recorded(rows, ncols):
        mat = [{j: c for j, c in row.items() if c} for row in rows]   # reduced in place
        out = original(rows, ncols)
        calls.append((mat, ncols, out))
        return out

    monkeypatch.setattr(linalg, "sparse_kernel", recorded)
    assert check_omega_well_defined(sc, cfg, SuiteRun(sc, cfg))["ok"]
    assert len(calls) == 3
    for rows, ncols, (basis, den) in calls:
        assert [over(v, den) for v in basis] == reference_kernel(rows, ncols)


def test_leading_term_fails_on_planted_derived_term(a2_context):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    assert check_leading_term(sc, cfg, SuiteRun(sc, cfg)) == {"ok": True,
                                                              "witness": {"positions": 5}}
    n = sc.L.dim
    pos = sc.family.N_positions[1]
    # x_{e[0,-1]} x_{e[0,1]} moves the derivative at e1 along e[0,-1] by e1[0]
    low = sc.L.labels.index("e[0,-1]")
    term = Poly.coordinate(n, low) * Poly.coordinate(n, 0)
    bad = _with_member(sc, pos, sc.family.entries[pos].poly + term)
    assert check_leading_term(bad, cfg, SuiteRun(bad, cfg)) == {
        "ok": False, "witness": {"position": pos + 1, "direction": "e[0,-1]"}}


def test_graded_dimensions_read_the_family_ranks(a2_context, monkeypatch):
    """Check 9 takes the ranks that shift_family certified, with no rank of
    its own."""
    cfg = SuiteConfig(algebra="A2", seed=5)
    a2_context.family.graded_dims()
    monkeypatch.setattr(linalg, "rank", lambda mat: pytest.fail("check 9 ranked again"))
    assert check_graded_dimensions(a2_context, cfg, SuiteRun(a2_context, cfg))["ok"]


def test_graded_dimensions_fail_on_dropped_member(a2_context):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    assert check_graded_dimensions(sc, cfg, SuiteRun(sc, cfg))["ok"]
    F = sc.family
    bad = replace(sc, family=replace(F, entries=F.entries[:-1]))
    assert check_graded_dimensions(bad, cfg, SuiteRun(bad, cfg)) == {
        "ok": False, "witness": {"graded": {"1": 2, "2": 2}, "total": 4}}


@pytest.mark.parametrize("check", [check_gradient_rank, check_shifted_gradient_span,
                                   check_principal_shift_span],
                         ids=["criterion-4", "criterion-5", "criterion-8"])
def test_invariant_checks_fail_on_repeated_invariant(a2_context, check):
    cfg = SuiteConfig(algebra="A2", seed=5)

    def alone(sc):
        return check(sc, cfg, SuiteRun(sc, cfg))

    sc = a2_context
    assert alone(sc)["ok"]
    polys = list(sc.inv.polys)
    polys[1] = polys[0]
    bad = replace(sc, inv=replace(sc.inv, polys=polys))
    out = alone(bad)
    assert out["ok"] is False and out["witness"]


def test_chart_section_fails_on_planted_member_term(a2_context):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    assert check_chart_section(sc, cfg, SuiteRun(sc, cfg))["ok"]
    pos = sc.family.N_positions[0]
    bad = _with_member(sc, pos, sc.family.entries[pos].poly + _x0x1(sc))
    out = check_chart_section(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False
    assert out["witness"]["kind"] == "section after values"


@pytest.mark.parametrize("k", [1, 4])
def test_hamiltonian_frame_builds_one_gradient_matrix_per_point(a2_context, monkeypatch,
                                                                gradient_rows_calls, k):
    monkeypatch.setattr(verifier, "HESS_POINTS", k)
    cfg = SuiteConfig(algebra="A2", seed=5)
    assert check_hamiltonian_frame(a2_context, cfg, SuiteRun(a2_context, cfg))["ok"]
    assert len(gradient_rows_calls) == k


@pytest.mark.parametrize("k", [1, 4])
def test_strong_regularity_builds_one_gradient_matrix_per_point(a2_context, monkeypatch,
                                                                gradient_rows_calls, k):
    monkeypatch.setattr(verifier, "HESS_POINTS", k)
    cfg = SuiteConfig(algebra="A2", seed=5)
    assert check_strong_regularity(a2_context, cfg, SuiteRun(a2_context, cfg))["ok"]
    assert len(gradient_rows_calls) == k


@pytest.mark.parametrize("k", [1, 4])
def test_full_run_builds_each_hess_gradient_matrix_once(gradient_rows_calls, monkeypatch, k):
    """In a full run checks 12 and 13 share their k Hess points: check 12
    builds each point's gradient matrix and check 13 reads it."""
    per_check = {}

    def counting(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            before = len(gradient_rows_calls)
            try:
                return fn(*args)
            finally:
                per_check[fn.check_id] = len(gradient_rows_calls) - before
        return wrapper

    monkeypatch.setattr(verifier, "ALL_CHECKS", [counting(fn) for fn in verifier.ALL_CHECKS])
    monkeypatch.setattr(verifier, "HESS_POINTS", k)
    assert not run_suite(SuiteConfig(algebra="A2", seed=5)).failed
    assert per_check["hess.strong_regularity"] == k
    assert per_check["symplectic.hamiltonian_frame"] == 0


@pytest.mark.parametrize("algebra", ["A3", "G2", "[[2,-1,0],[-1,2,-1],[0,-2,2]]"],
                         ids=["A3", "G2", "B3"])
def test_one_expansion_per_shift_direction_per_run(monkeypatch, algebra):
    """A run shifts the invariants along y (the family), f (checks 8 and
    membership share it), 2f and 0: four expansions, one per direction."""
    calls = []
    original = argshift.shifted_invariants

    def counted(inv, u):
        calls.append(tuple(u))
        return original(inv, u)

    monkeypatch.setattr(argshift, "shifted_invariants", counted)
    monkeypatch.setattr(verifier, "shifted_invariants", counted)
    rep = run_suite(SuiteConfig(algebra=algebra, seed=2024, enable_g2=True))
    assert rep.counts["fail"] == 0
    assert len(calls) == len(set(calls)) == 4


# Fraction constructions in one run_suite pass at seed 2024: the sampled
# points, the Lie layer, the root data, the structure constants, the Gram
# inverse and the type-A trace oracle all run on ints
FRACTIONS_PER_PASS = 0


@pytest.mark.parametrize("label", SUPPORTED_LABELS + FLAGGED_LABELS)
def test_suite_pass_builds_few_fractions(monkeypatch, label):
    """A rational put back on the pass path (a point, a value vector, a
    series, a root norm, a structure constant) raises the count above its
    bound."""
    count = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        count.append(1)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    report = run_suite(SuiteConfig(algebra=label, seed=2024, enable_g2=True))
    monkeypatch.undo()
    assert not report.failed
    assert len(count) <= FRACTIONS_PER_PASS


# the sites that build no Fraction on a passing pass: the root data, the
# algebra, the Gram inverse, the principal triple, the shift direction and
# the chart at build, and checks 3, 5, 8, 15, polarization, membership and
# the trace oracle
BUILD_SITES = ("build_root_system", "chevalley_algebra", "GradientContext",
               "principal_triple", "choose_regular_y", "build_chart")
FRACTION_FREE_SITES = BUILD_SITES + (
    "algebra.principal_decomposition", "invariants.shifted_gradient_span",
    "family.principal_shift_span", "symplectic.transversality", "symplectic.polarization",
    "family.membership_samples", "invariants.trace_oracle_agreement")


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_fraction_free_sites_build_no_fraction(monkeypatch, label):
    """Each Fraction of a passing pass is counted against the innermost site
    running (a build stage or a check id, else the pass), so a failure
    names the site that built it."""
    sites = ["pass"]
    counts = {}
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        counts[sites[-1]] = counts.get(sites[-1], 0) + 1
        return original(cls, *args, **kwargs)

    def at(site, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sites.append(site)
            try:
                return fn(*args, **kwargs)
            finally:
                sites.pop()
        return wrapped

    for name in BUILD_SITES:
        monkeypatch.setattr(verifier, name, at(name, getattr(verifier, name)))
    monkeypatch.setattr(verifier, "ALL_CHECKS",
                        [at(fn.check_id, fn) for fn in verifier.ALL_CHECKS])
    monkeypatch.setattr(Fraction, "__new__", counted)
    report = run_suite(SuiteConfig(algebra=label, seed=2024))
    monkeypatch.undo()
    assert not report.failed
    assert {site: counts.get(site, 0) for site in FRACTION_FREE_SITES} == \
        dict.fromkeys(FRACTION_FREE_SITES, 0)


def test_no_visit_survives_a_run(a2_context, reference_witness):
    """Visits and the shift along f belong to one run: two full runs at
    different seeds give their recorded digests, and after a full run on
    the module's configuration the planted-defect tests of the pointwise
    checks still see their defects on copies of its context."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as fh:
        digests = json.load(fh)["digests"]
    for seed in ("2024", "7"):
        report = run_suite(SuiteConfig(algebra="A2", seed=int(seed)))
        assert bench.report_digest(report.as_dict()) == digests[seed]["A2"]
    assert not run_suite(SuiteConfig(algebra="A2", seed=5)).failed
    test_pointwise_checks_fail_on_dependent_member(a2_context)
    test_pointwise_checks_fail_on_planted_derived_term(a2_context)
    test_hamiltonian_frame_fails_on_planted_invariant_term(a2_context)
    for scale in (rat(1), rat(3, 7)):
        test_hamiltonian_frame_witness_value_is_exact(a2_context, reference_witness, scale)


def test_hamiltonian_frame_fails_on_planted_invariant_term(a2_context):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    pos = sc.family.I_positions[0]
    bad = _with_member(sc, pos, sc.family.entries[pos].poly + _x0x1(sc))
    out = check_hamiltonian_frame(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False
    assert out["witness"]["kind"] == "invariant with nonzero Hamiltonian vector"


def test_one_ad_matrix_per_visited_point(a2_context, monkeypatch, gradient_rows_calls):
    """Checks 12 to 15 build one ad x, b brackets and one gradient matrix
    per point of the pass's sample between them, in its HessVisits, whether
    the certificate holds or every certificate fails: checks 12 and 13 at
    their 3 points, check 14 none at its 2, check 15 at its fourth point
    alone.  Check 16 and omega_well_defined build ad x once per point they
    visit and no gradient matrix, and polarization both once per point but
    its random base, the sample's first point."""
    sc = a2_context
    b = sc.family.b
    for name, count in (("HESS_POINTS", 3), ("LAGRANGIAN_POINTS", 2),
                        ("TRANSVERSALITY_POINTS", 4), ("SLICE_POINTS", 3)):
        monkeypatch.setattr(verifier, name, count)
    cfg = SuiteConfig(algebra="A2", seed=5)
    calls, brackets = [], []
    original, bracket = LieAlgebra.int_ad, LieAlgebra.int_bracket

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    def counted_bracket(self, x, y):
        brackets.append(x)
        return bracket(self, x, y)

    monkeypatch.setattr(LieAlgebra, "int_ad", counted)
    monkeypatch.setattr(LieAlgebra, "int_bracket", counted_bracket)
    # (check, ad matrices, gradient matrices), after checks 12 and 13 in one run
    later = [(check_slice_lagrangian, 0, 0), (check_transversality, 1, 1),
             (check_slice_infinitesimal, 1 + 3, 0), (check_omega_well_defined, 3, 0),
             (check_polarization, 3 + 2, 3 + 2)]
    for forced in (False, True):
        with monkeypatch.context() as m:
            if forced:
                m.setattr(HessVisit, "certified", property(lambda v: False))
            calls.clear()
            brackets.clear()
            gradient_rows_calls.clear()
            run = SuiteRun(sc, cfg)
            assert check_strong_regularity(sc, cfg, run)["ok"]
            assert check_hamiltonian_frame(sc, cfg, run)["ok"]
            assert (len(calls), len(brackets), len(gradient_rows_calls)) == (3, 3 * b, 3), forced
            assert all(run.hess_visit(i).certified is not forced for i in range(3))
            for check, points, gradients in later:
                calls.clear()
                brackets.clear()
                gradient_rows_calls.clear()
                assert check(sc, cfg, run)["ok"]
                assert (len(calls), len(gradient_rows_calls)) == (points, gradients), \
                    (check.check_id, forced)
                if check in (check_slice_lagrangian, check_transversality):
                    assert len(brackets) == gradients * b, (check.check_id, forced)


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_certified_points_rank_only_the_underived_gradients(label, rank_shapes,
                                                            monkeypatch):
    """Where every sampled point is certified, checks 12 to 15 and
    polarization rank the l x dim underived gradients and nothing else: not
    the b gradients, a frame, the slice, the combined tangents, ad x or the
    Jacobian; checks 13 to 15 rank nothing at the visits check 12
    certified."""
    sc = build_context(SuiteConfig(algebra=label, seed=5))
    for name in ("HESS_POINTS", "LAGRANGIAN_POINTS", "TRANSVERSALITY_POINTS", "SLICE_POINTS"):
        monkeypatch.setattr(verifier, name, 3)
    cfg = SuiteConfig(algebra=label, seed=5)
    L, b = sc.L, sc.family.b
    eliminated = {(b, L.dim), (L.n, L.dim), (2 * L.n, L.dim), (L.dim, L.dim), (b, L.n)}
    assert (L.rank, L.dim) not in eliminated
    run = SuiteRun(sc, cfg)
    for check in (check_strong_regularity, check_hamiltonian_frame, check_slice_lagrangian,
                  check_transversality, check_polarization):
        rank_shapes.clear()
        assert check(sc, cfg, run)["ok"]
        assert eliminated.isdisjoint(rank_shapes), check.check_id
        new_points = check in (check_strong_regularity, check_polarization)
        assert set(rank_shapes) == ({(L.rank, L.dim)} if new_points else set()), check.check_id
    # a certified visit keeps no ad x, slice or Jacobian for the rest of the pass
    for i in range(3):
        visit = run.hess_visit(i)
        assert visit.certified and not {"_tangents", "_adx", "slice"} & set(vars(visit))


def test_one_hess_sample_per_pass(a2_context, monkeypatch, gradient_rows_calls, rank_shapes):
    """A run draws one sample of Hess, of the largest of the counts of checks
    12 to 15.  Checks 12 to 15 and polarization's random base visit
    prefixes of it through the same HessVisit objects, and omega_well_defined
    reads its first three points without a visit; checks 12
    to 15 build one gradient matrix and one ad x per sampled point between
    them; checks 14 and 15 make no gradient_rows, int_ad or rank call at the
    visits check 12 certified; and with every certificate forced to fail
    each output is the same."""
    sc = a2_context
    for name, count in (("HESS_POINTS", 3), ("LAGRANGIAN_POINTS", 2),
                        ("TRANSVERSALITY_POINTS", 4)):
        monkeypatch.setattr(verifier, name, count)
    cfg = SuiteConfig(algebra="A2", seed=5)
    draws, read, ads = [], [], []
    sample, hess_visit, int_ad = verifier.sample_points, SuiteRun.hess_visit, LieAlgebra.int_ad

    def drawn(sc, seed, count):
        draws.append((seed, count))
        return sample(sc, seed, count)

    def visited(run, i):
        read.append((i, hess_visit(run, i)))
        return read[-1][1]

    def ad(L, x):
        ads.append(x)
        return int_ad(L, x)

    monkeypatch.setattr(verifier, "sample_points", drawn)
    monkeypatch.setattr(SuiteRun, "hess_visit", visited)
    monkeypatch.setattr(LieAlgebra, "int_ad", ad)
    checks = (check_strong_regularity, check_hamiltonian_frame, check_slice_lagrangian,
              check_transversality, check_omega_well_defined, check_polarization)
    run = SuiteRun(sc, cfg)
    outs, work, objects = [], {}, {}
    for check in checks:
        del read[:], ads[:], gradient_rows_calls[:], rank_shapes[:]
        outs.append(check(sc, cfg, run))
        assert outs[-1]["ok"], check.check_id
        work[check.check_id] = (sorted({i for i, _ in read}), list(gradient_rows_calls),
                                list(ads), list(rank_shapes))
        for i, visit in read:
            assert objects.setdefault(i, visit) is visit and visit.x == run.hess_points[i]
    assert draws == [(5, 4)] and len(run.hess_points) == 4
    assert run.hess_points[:3] == sample(sc, 5, 3)
    prefixes = {check.check_id: work[check.check_id][0] for check in checks}
    assert prefixes == {"hess.strong_regularity": [0, 1, 2],
                        "symplectic.hamiltonian_frame": [0, 1, 2],
                        "symplectic.slice_lagrangian": [0, 1],
                        "symplectic.transversality": [0, 1, 2, 3],
                        "symplectic.omega_well_defined": [],
                        "symplectic.polarization": [0]}
    # omega reads the first three sampled points without a visit
    assert work["symplectic.omega_well_defined"][2] == run.hess_points[:3]
    first_four = [work[check.check_id] for check in checks[:4]]
    assert sum(len(w[1]) for w in first_four) == sum(len(w[2]) for w in first_four) == 4
    assert all(run.hess_visit(i).certified for i in range(4))
    assert work["symplectic.slice_lagrangian"][1:] == ([], [], [])
    # check 15's only work is its fourth point, which check 12 did not visit
    last = run.hess_points[3]
    assert work["symplectic.transversality"][1:] == ([last], [last], [(sc.L.rank, sc.L.dim)])
    monkeypatch.setattr(HessVisit, "certified", property(lambda v: False))
    run = SuiteRun(sc, cfg)
    assert [check(sc, cfg, run) for check in checks] == outs


def test_slice_lagrangian_fails_on_moved_base_point(helpers, a2_context):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    assert check_slice_lagrangian(sc, cfg, SuiteRun(sc, cfg))["ok"]
    highest = sc.L.basis_vector(sc.L.pos_indices[-1])
    triple = replace(sc.triple, e1=cleared(helpers.vec_add(over(*sc.triple.e1), highest)))
    bad = replace(sc, triple=triple, chart=replace(sc.chart, triple=triple))
    out = check_slice_lagrangian(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False and set(out["witness"]) == {"point"}


def test_slice_lagrangian_fails_on_vanishing_slice(a2_context, monkeypatch):
    """A sample of origins: the slice tangents vanish there, so they are
    isotropic, and check 14 fails on their dimension alone."""
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    origin = cleared(sc.L.zero())
    monkeypatch.setattr(verifier, "sample_points", lambda sc, seed, count: [origin] * count)
    out = check_slice_lagrangian(sc, cfg, SuiteRun(sc, cfg))
    assert out == {"ok": False, "witness": {"point": ["0"] * sc.L.dim}}


def test_slice_infinitesimal_fails_on_planted_cartan_square(a2_context):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    assert check_slice_infinitesimal(sc, cfg, SuiteRun(sc, cfg))["ok"]
    n = sc.L.dim
    polys = list(sc.inv.polys)
    polys[0] = polys[0] + Poly.coordinate(n, sc.L.cartan_indices[0]) ** 2
    bad = replace(sc, inv=replace(sc.inv, polys=polys))
    out = check_slice_infinitesimal(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False
    assert out["witness"]["kind"] == "invariant values changed"


def test_trace_oracle_fails_on_planted_cartan_cube(a2_context):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    assert check_trace_oracle(sc, cfg, SuiteRun(sc, cfg)) == {"ok": True,
                                                              "witness": {"degrees": [2, 3]}}
    n = sc.L.dim
    polys = list(sc.inv.polys)
    assert sc.inv.degrees[1] == 3
    polys[1] = polys[1] + Poly.coordinate(n, sc.L.cartan_indices[0]) ** 3
    bad = replace(sc, inv=replace(sc.inv, polys=polys))
    assert check_trace_oracle(bad, cfg, SuiteRun(bad, cfg)) == {"ok": False,
                                                                "witness": {"degree": 3}}


def test_span_and_chain_fails_on_planted_non_invariant_term(a2_context):
    """A family shifted from an invariant plus a Cartan cube."""
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    assert check_span_and_chain(sc, cfg, SuiteRun(sc, cfg))["witness"]["chain"] == "verified"
    n = sc.L.dim
    polys = list(sc.inv.polys)
    polys[1] = polys[1] + Poly.coordinate(n, sc.L.cartan_indices[0]) ** 3
    family = shift_family(sc.L, replace(sc.inv, polys=polys), sc.y, sc.ctx, sc.triple)
    bad = replace(sc, family=family)
    out = check_span_and_chain(bad, cfg, SuiteRun(bad, cfg))
    assert out == {"ok": False, "witness": {"dim_at_e": 5, "dim_at_e1": 5,
                                            "chain_error": "zeta(v_0) != v_1 for invariant 1"}}


def test_span_and_chain_fails_on_planted_high_degree_term(a2_context):
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    n = sc.L.dim
    cube = Poly.coordinate(n, sc.L.cartan_indices[0]) ** 3
    assert sc.inv.degrees[0] == 2
    # the cube joins the underived member of invariant 0 only
    entries = [replace(q, poly=q.poly + cube) if (q.j, q.k) == (0, 0) else q
               for q in sc.family.entries]
    bad = replace(sc, family=replace(sc.family, entries=entries))
    out = check_span_and_chain(bad, cfg, SuiteRun(bad, cfg))
    assert out == {"ok": False, "witness": {
        "dim_at_e": 5, "dim_at_e1": 5,
        "chain_error": "gradient expansion has unexpected high-order terms"}}


# -- command line ------------------------------------------------------------


def test_cli_verify_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--type", "A1", "--seed", "3", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "report_v4"
    assert data["summary"]["fail"] == 0


def test_python_m_mfhess_runs_the_cli(tmp_path):
    """python -m mfhess from a checkout, with src on the path, writes the
    same report as main()."""
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "mfhess", "verify", "--type", "A1",
                           "--format", "json", "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["schema"] == "report_v4"
    assert data["summary"]["fail"] == 0
    assert main(["verify", "--type", "A1", "--format", "json",
                 "--out", str(tmp_path / "direct.json")]) == 0
    assert (tmp_path / "direct.json").read_text() == out.read_text()


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as under mfhess verify | head -1."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["verify", "invariants"])
def test_closed_stdout_is_one_error_line_and_exit_2(monkeypatch, capsys, command):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main([command, "--type", "A1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: stdout was closed before the output was written\n"


@pytest.mark.parametrize("command", ["verify", "invariants"])
def test_python_m_mfhess_with_closed_stdout_exits_2(tmp_path, command):
    """Through a real pipe with no reader: one stderr line, no traceback,
    exit 2, also for the invariants output, which fits in the stdout buffer
    and so fails only when flushed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONUNBUFFERED", None)   # stdout buffered, as in a plain shell
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "mfhess", command, "--type", "A1"],
                              cwd=tmp_path, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: stdout was closed before the output was written\n"


def test_cli_verify_fail_exit_code(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--type", "E8", "--format", "json", "--out", str(out)])
    assert code == 1


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_cli_verify_unwritable_out_is_exit_2_before_the_run(tmp_path, monkeypatch, capsys,
                                                             where):
    """--out under a missing directory, or naming a directory, ends as exit 2
    with an error line and no traceback, before any check runs."""
    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda config: calls.append(config))
    out = tmp_path / "missing" / "r.json" if where == "missing directory" else tmp_path
    assert main(["verify", "--type", "A1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert calls == []


def test_cli_section_round_trip(capsys):
    code = main(["section", "--type", "A1", "--seed", "3", "--values", "1/2,-3"])
    assert code == 0
    line = capsys.readouterr().out.splitlines()[0]
    coords = line.split(",")
    assert len(coords) == 3  # a point of the three-dimensional algebra


def test_cli_section_wrong_arity(capsys):
    code = main(["section", "--type", "A1", "--values", "1,2,3"])
    assert code == 2


@pytest.mark.parametrize("values", ["1.5", "1/0,1"])
def test_cli_section_bad_values(values, capsys):
    assert main(["section", "--type", "A1", "--values", values]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_section_checks_values(monkeypatch, capsys):
    monkeypatch.setattr(cli, "hess_section", lambda chart, values: chart.triple.e1)
    assert main(["section", "--type", "A1", "--values", "5,7"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["section", "--values", "1,2,3,4,5"], ["invariants"]])
def test_cli_build_failure_names_stage(tmp_path, capsys, command):
    _tampered_family_cache(tmp_path)
    argv = command[:1] + ["--type", "A2", "--seed", "5", "--cache-dir", str(tmp_path)]
    assert main(argv + command[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: build failed at stage chart: NotTriangular: ")


def test_cli_invariants_cache(tmp_path, capsys):
    code = main(["invariants", "--type", "B2", "--cache-dir", str(tmp_path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["degrees"] == [2, 4]
    assert os.path.exists(data["cache_file"])


def test_cli_env_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MFHESS_CACHE", str(tmp_path))
    code = main(["invariants", "--type", "A1"])
    assert code == 0
    names = os.listdir(tmp_path)
    assert any(n.startswith("invariants_A1_") for n in names)


@pytest.mark.parametrize("scale", [rat(1), rat(3, 7)])
def test_hamiltonian_frame_witness_value_is_exact(a2_context, reference_witness, scale):
    """Check 13's witness on a planted derived term: the pair and the value
    equal the Fraction computation at the witness point."""
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    pos = sc.family.N_positions[0]
    bad = _with_member(sc, pos, sc.family.entries[pos].poly + _x0x1(sc).scale(scale))
    wit = check_hamiltonian_frame(bad, cfg, SuiteRun(bad, cfg))["witness"]
    x = [to_rat(c) for c in wit["point"]]
    assert (wit["pair"][0], wit["pair"][1], wit["value"]) == \
        reference_witness.isotropy(bad.family, x)


@pytest.mark.parametrize("scale", [rat(1), rat(-5, 3)])
def test_transversality_det_is_exact(a2_context, reference_witness, scale):
    """The pairing determinant, check 15's witness, equals the Fraction
    computation: at sampled points with a Cartan square planted in a derived
    member (the check still passes, with a changed nonzero determinant), and
    as the reported witness once a coordinate function planted as a derived
    member makes the check fail."""
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    pos = sc.family.N_positions[0]
    square = Poly.coordinate(sc.L.dim, sc.L.cartan_indices[0]) ** 2
    bad = _with_member(sc, pos, sc.family.entries[pos].poly + square.scale(scale))
    for x in sample_points(sc, 7, 3):
        res = transversality_check(bad.family, sc.chart, x)
        assert res.passed
        assert rat_str(rat(*res.pairing_det)) == reference_witness.pairing_det(bad.family,
                                                                               over(*x))
        assert res.pairing_det != transversality_check(sc.family, sc.chart, x).pairing_det
    coordinate = Poly.coordinate(sc.L.dim, sc.L.pos_indices[0]).scale(scale)
    bad = _with_member(sc, pos, coordinate)
    out = check_transversality(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False
    x = [to_rat(c) for c in out["witness"]["point"]]
    assert out["witness"]["det"] == reference_witness.pairing_det(bad.family, x)


@pytest.mark.parametrize("check, field, value, witness", [
    (check_degree_duality, "degrees", (1, 4), {"degrees": [1, 4]}),
    (check_principal_decomposition, "exponents", (1, 3), {"exponents": [1, 2]}),
    (check_poincare, "degrees", (2, 4),
     {"error": "the two series factorizations disagree"}),
])
def test_root_data_checks_fail_on_planted_root_system(a2_context, check, field, value,
                                                      witness):
    """Criteria 1, 3 and 11 on a copy of the A2 context whose root system
    reports wrong degrees or exponents: a fail with a witness."""
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    assert check(sc, cfg, SuiteRun(sc, cfg))["ok"] is True
    bad = replace(sc, rs=replace(sc.rs, **{field: value}))
    out = check(bad, cfg, SuiteRun(bad, cfg))
    assert out["ok"] is False
    assert witness.items() <= out["witness"].items()


def _check3_record(monkeypatch, sc):
    """Check 3's record on the context sc, made by the suite's own loop."""
    monkeypatch.setattr(verifier, "build_context", lambda config: sc)
    monkeypatch.setattr(verifier, "ALL_CHECKS", [check_principal_decomposition])
    _, records = verifier._suite_payload(SuiteConfig(algebra=sc.label, seed=5))
    return records[0]


@pytest.mark.parametrize("defect", ["f off the simple roots", "e doubled", "negated constant"])
@pytest.mark.parametrize("label", ["A2", "B2"])
def test_principal_decomposition_fails_on_planted_triple_and_table(monkeypatch,
                                                                   reference_principal,
                                                                   label, defect):
    """Check 3 on a copy of the context whose f gains a component at the
    negative highest root, whose e is scaled by 2, or whose algebra has
    [e_a, e_-a] of the first simple root negated (_planted "negated"): a
    fail record whose witness names the broken S-triple relation, which the
    Fraction route raises alike."""
    sc = build_context(SuiteConfig(algebra=label, seed=5))
    L, t = sc.L, sc.triple
    if defect == "f off the simple roots":
        fn = list(t.f[0])
        fn[L.neg_indices[-1]] += 1
        bad = replace(sc, triple=replace(t, f=canonical(fn, t.f[1])))
    elif defect == "e doubled":
        bad = replace(sc, triple=replace(t, e=canonical([2 * c for c in t.e[0]], t.e[1])))
    else:
        bad = replace(sc, L=_planted(L, "negated"))
    assert _check3_record(monkeypatch, sc).status == "pass"
    rec = _check3_record(monkeypatch, bad)
    assert rec.status == "fail" and rec.witness["error"].startswith("DecompositionFailure: [")
    rational = SimpleNamespace(**{k: over(*getattr(bad.triple, k)) for k in ("w", "e", "f")})
    with pytest.raises(DecompositionFailure) as err:
        reference_principal.decomposition(bad.L, rational)
    assert rec.witness["error"] == f"DecompositionFailure: {err.value}"


def test_membership_fails_when_every_direction_shifts_along_y(a2_context, monkeypatch):
    """family.membership_samples with the verifier's shifted_invariants
    shifting along y whatever direction it is given: the zero direction then
    reaches full span too, so the check fails with that witness instead of
    raising."""
    cfg = SuiteConfig(algebra="A2", seed=5)
    sc = a2_context
    assert check_membership(sc, cfg, SuiteRun(sc, cfg))["ok"] is True
    original = argshift.shifted_invariants
    monkeypatch.setattr(verifier, "shifted_invariants", lambda inv, u: original(inv, sc.y))
    assert check_membership(sc, cfg, SuiteRun(sc, cfg)) == {"ok": False,
                                         "witness": {"kind": "zero direction certified"}}


# (label, defect) -> membership's sub-verdicts (full gradient span found along
# f, 2f, y and 0) and the record's status
MEMBERSHIP_DEFECTS = {
    ("A2", "binomial"): ({"f": True, "2f": True, "y": True, "0": False}, "pass"),
    ("B2", "binomial"): ({"f": True, "2f": True, "y": True, "0": False}, "pass"),
    ("A1", "one zero piece"): ({"f": True, "2f": True, "y": True, "0": True}, "fail"),
    ("A2", "one zero piece"): ({"f": True, "2f": True, "y": True, "0": False}, "pass"),
    ("A2", "zero pieces"): ({"f": True, "2f": True, "y": True, "0": True}, "fail"),
}


@pytest.mark.parametrize("label, defect", list(MEMBERSHIP_DEFECTS))
def test_membership_sub_verdicts_on_planted_expansions(monkeypatch, label, defect):
    """Which sub-verdicts of family.membership_samples a defect planted in
    the verifier's shifted_invariants turns, and the record that results.
    The plant reaches the shifts along f, 2f and 0, not the family (the
    shift along y).  Every binomial C(e, 1) of the Taylor pass one too large
    turns none, and check 8, which reads the same expansion along f, still
    passes.  A nonzero piece k > 0 along the zero direction (the piece along
    f in its place) turns the 0 sub-verdict, and fails the record, only
    once the planted pieces reach full span: one piece does on A1 (b = 2),
    not on A2, where every piece does."""
    cfg = SuiteConfig(algebra=label, seed=5)
    sc = build_context(cfg)
    original = argshift.shifted_invariants
    zero = cleared(sc.L.zero())

    def planted(inv, u):
        if defect == "binomial":
            with monkeypatch.context() as m:
                m.setattr(argshift, "comb", lambda e, a: math.comb(e, a) + (a == 1))
                return original(inv, u)
        pieces = original(inv, u)
        if u != zero:
            return pieces
        along_f = original(inv, sc.triple.f)
        moved = [i for i, (_, k, _) in enumerate(pieces) if k][:1 if defect == "one zero piece"
                                                                  else None]
        return [along_f[i] if i in moved else piece for i, piece in enumerate(pieces)]

    fn, fd = sc.triple.f
    directions = {"f": sc.triple.f, "2f": (tuple(2 * c for c in fn), fd), "0": zero}
    changed = {name for name, u in directions.items() if planted(sc.inv, u) != original(sc.inv, u)}
    assert changed == ({"f", "2f"} if defect == "binomial" else {"0"})
    monkeypatch.setattr(verifier, "shifted_invariants", planted)
    run = SuiteRun(sc, cfg)

    def member(members):
        return mv_membership(sc.ctx, sc.triple, members, verifier.MEMBERSHIP_SAMPLES,
                             cfg.seed, verifier.COEFF_BOUND)[0]

    verdicts = {name: member(CompiledPolys(p for _, _, p in planted(sc.inv, u)))
                for name, u in directions.items()}
    verdicts["y"] = member(sc.family.compiled)
    out = check_membership(sc, cfg, run)
    status = {True: "pass", False: "fail", None: "inconclusive"}[out["ok"]]
    assert (verdicts, status) == MEMBERSHIP_DEFECTS[label, defect]
    if status == "fail":
        assert out["witness"] == {"kind": "zero direction certified"}
    assert check_principal_shift_span(sc, cfg, run)["ok"]
