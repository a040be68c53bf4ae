import json
import os

import pytest

from mfhess import cli
from mfhess.cli import main
from mfhess.hessenberg import point_in_hess
from mfhess.verifier import (RegionExhausted, SuiteConfig, _sample_regular, build_context,
                             run_suite, sample_points)


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
    assert data["schema"] == "report_v2"
    assert set(data) == {"schema", "config", "convention", "summary", "checks"}
    assert data["convention"]["hash"]
    for check in data["checks"]:
        assert set(check) == {"id", "claim", "status", "criterion", "witness"}
        assert check["status"] in ("pass", "fail", "inconclusive", "skipped")
    crits = [c["criterion"] for c in data["checks"] if c["criterion"]]
    assert sorted(crits) == list(range(1, 18))


def test_unsupported_type_recorded():
    rep = run_suite(SuiteConfig(algebra="E8", seed=1))
    assert rep.failed
    by_id = {c.check_id: c for c in rep.checks}
    assert by_id["build.algebra"].status == "fail"
    skipped = [c for c in rep.checks if c.status == "skipped" and c.criterion]
    assert len(skipped) >= 16


def test_g2_gated_behind_flag():
    rep = run_suite(SuiteConfig(algebra="G2", seed=1))
    assert rep.failed and rep.checks[0].check_id == "build.algebra"


def test_config_validation(capsys):
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(algebra="A1", hess_points=0))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(algebra="A1", output_format="xml"))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(algebra="A1", coeff_bound=0))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(algebra="A1", series_order=-1))
    for flag in ("--hess-points", "--coeff-bound"):
        assert main(["verify", "--type", "A1", flag, "0"]) == 2
        assert "error:" in capsys.readouterr().err


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
    sc = a2_context
    assert sample_points(sc, 5, "hess", 0) == []
    hess = sample_points(sc, 5, "hess", 3)
    assert len(set(map(tuple, hess))) == 3
    for v in hess:
        assert point_in_hess(sc.L, sc.triple, v)
    v0 = hess[0]
    slc = sample_points(sc, 5, "slice", 3, v0=v0)
    vals = [p.evaluate(v0) for p in sc.inv.polys]
    for v in slc:
        assert [p.evaluate(v) for p in sc.inv.polys] == vals
    # determinism
    assert sample_points(sc, 5, "hess", 3) == hess
    with pytest.raises(ValueError):
        sample_points(sc, 5, "nowhere", 1)


def test_sampling_exhaustion(a2_context):
    with pytest.raises(RegionExhausted):
        _sample_regular(a2_context, 5, 1, bound=0, max_tries=5)


def test_hess_sampling_rejects_point_off_slice(monkeypatch):
    sc = build_context(SuiteConfig(algebra="A1", seed=5))
    monkeypatch.setattr(sc.chart, "point_from_s", lambda svals: sc.triple.w)
    with pytest.raises(RegionExhausted):
        sample_points(sc, 5, "hess", 1)


def test_cache_round_trip_through_context(tmp_path):
    cfg = SuiteConfig(algebra="A2", seed=5, cache_dir=str(tmp_path))
    sc1 = build_context(cfg)
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 2  # invariant generators and the shifted family
    sc2 = build_context(cfg)
    assert [p.terms for p in sc1.inv.polys] == [p.terms for p in sc2.inv.polys]
    assert sc1.family.to_payload() == sc2.family.to_payload()


def test_corrupt_cache_is_a_miss_and_rewritten(tmp_path):
    cfg = SuiteConfig(algebra="A2", seed=5, cache_dir=str(tmp_path))
    sc1 = build_context(cfg)
    paths = sorted(tmp_path.iterdir())
    good = [p.read_text() for p in paths]
    for p in paths:
        p.write_text(p.read_text()[:40])   # a truncated write
    sc2 = build_context(cfg)
    assert sorted(tmp_path.iterdir()) == paths
    assert [p.read_text() for p in paths] == good
    assert sc1.family.to_payload() == sc2.family.to_payload()


# -- command line ------------------------------------------------------------


def test_cli_verify_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--type", "A1", "--seed", "3", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "report_v2"
    assert data["summary"]["fail"] == 0


def test_cli_verify_fail_exit_code(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--type", "E8", "--format", "json", "--out", str(out)])
    assert code == 1


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
