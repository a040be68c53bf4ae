"""scripts/bench_pairs.py refuses to summarize incorrect perfbench runs."""

import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(wall, correct=True, failed=0):
    metrics = {name: {"value": wall, "unit": "s"} for name in ("wall_s", "setup_s")}
    metrics["peak_rss_mb"] = {"value": 20.0, "unit": "MB"}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics,
            "unit_medians": {"build.X": wall / 4, "control": wall / 2}}


def _run(bench_pairs, monkeypatch, tmp_path, results):
    """main() over two pairs of one workload and a held-out pair, the runs
    answered in call order from results; returns (exit code, file)."""
    answers = iter(results)
    monkeypatch.setattr(bench_pairs, "run", lambda tree, workload, seed: next(answers))
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", "P", "--change", "C", "--parent-commit", "abc",
        "--out", str(out), "--pairs", "2", "--workloads", "suite", "--held-out-seed", "7"])
    code = bench_pairs.main()
    with open(out) as fh:
        return code, json.load(fh)


def test_correct_runs_are_summarized(bench_pairs, monkeypatch, tmp_path):
    # pair 0 runs parent then change, pair 1 change then parent
    code, data = _run(bench_pairs, monkeypatch, tmp_path,
                      [_result(2.0), _result(1.0), _result(1.1), _result(2.1),
                       _result(2.0), _result(1.0)])
    suite = data["workloads"]["suite"]
    assert code == 0
    assert suite["incorrect_runs"] == {"parent": 0, "change": 0}
    assert suite["summary"]["wall_s"]["change_lower_in_pairs"] == 2
    assert suite["summary"]["unit_medians"] == {
        "parent": {"build.X": 0.5125, "control": 1.025},
        "change": {"build.X": 0.2625, "control": 0.525}}


def _write_tree(root, units):
    """A checkout whose perfbench/run.py prints a result line and writes
    an audit record holding the given units, as perfbench/run.py does."""
    bench = root / "perfbench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(
        "import json, os, sys\n"
        "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "os.makedirs('perfbench/out', exist_ok=True)\n"
        "stem = f\"perfbench/out/{args['--workload']}-seed{args['--seed']}-trace0.json\"\n"
        "with open(stem, 'w') as fh:\n"
        f"    json.dump({{'units': {units!r}}}, fh)\n"
        "print('progress line')\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'metrics': {}}))\n")


def test_run_reads_unit_medians_from_the_audit_record(bench_pairs, tmp_path):
    units = [{"kind": "build.G2", "phase": "setup", "adjusted_s": 0.07},
             {"kind": "build.G2", "phase": "setup", "adjusted_s": 0.06},
             {"kind": "commute.pairwise", "phase": "pass", "adjusted_s": 0.05},
             {"kind": "build.G2", "phase": "pass", "adjusted_s": 0.09},
             {"kind": "commute.pairwise", "phase": "pass", "adjusted_s": 0.03},
             {"kind": "commute.pairwise", "phase": "pass", "adjusted_s": 0.04}]
    _write_tree(tmp_path, units)
    result = bench_pairs.run(str(tmp_path), "commute", 7)
    assert result["correct"] is True
    assert result["unit_medians"] == {"build.G2": 0.07, "commute.pairwise": 0.04}
    assert list(result["unit_medians"]) == ["build.G2", "commute.pairwise"]


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 3}])
def test_incorrect_run_fails_and_is_named(bench_pairs, monkeypatch, tmp_path, capsys, bad):
    # the change's run of pair 1 (run first in that pair) is incorrect
    code, data = _run(bench_pairs, monkeypatch, tmp_path,
                      [_result(2.0), _result(1.0), _result(1.1, **bad), _result(2.1),
                       _result(2.0), _result(1.0)])
    suite = data["workloads"]["suite"]
    assert code == 1
    assert suite["incorrect_runs"] == {"parent": 0, "change": 1}
    assert suite["summary"] is None
    assert len(suite["change"]) == 2
    assert "incorrect run: suite seed 2024 pair 1 change" in capsys.readouterr().err
