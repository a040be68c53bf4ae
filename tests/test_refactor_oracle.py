"""The refactor oracle: every suite report keeps the digest the benchmark
recorded in perfbench/expected.json, computed by the benchmark's own code."""

import importlib.util
import json
import os

import pytest

from mfhess import verifier

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


BENCH = _load_bench()
with open(os.path.join(ROOT, "perfbench", "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


@pytest.mark.parametrize("label", BENCH.SUITE_TYPES)
@pytest.mark.parametrize("seed", sorted(EXPECTED["digests"]))
def test_suite_report_matches_recorded_digest(seed, label):
    want = EXPECTED["digests"][seed][label]
    report = verifier.run_suite(verifier.SuiteConfig(algebra=label, seed=int(seed)))
    d = report.as_dict()
    assert BENCH.report_digest(d) == want
    assert BENCH.gate_report(d, EXPECTED["statuses"][label], want) == 0
