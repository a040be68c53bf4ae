"""The refactor oracle: every suite report keeps the digest the benchmark
recorded in perfbench/expected.json, computed by the benchmark's own code.
G2 and inline B3, C3, A4 and D4, outside the benchmark's suite workload,
and every default type and G2 at seed 42, the default of the CLI and of
scripts/run_all_types.py, keep digests recorded below with the same code."""

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


# (algebra, report_digest) of the seed-2024 report of each type: G2 and B3
# recorded before the checks of criteria 4 and 7 and the leading-term check
# were rewritten, D4 before the product-once gradient kernel and the shared
# Hess visits of checks 12 and 13, C3 and A4 (the types of the benchmark's
# build workload) before the Gram inverse was taken whole and the Killing
# rows, Gram inverse and chart frame were cleared by rational.clear_rows
WIDER_DIGESTS = {
    "G2": ("G2", "8c1f0800f04b0a604413ee899260ec43df74209b2af998e9bc94260bb589d885"),
    "B3": ("[[2,-1,0],[-1,2,-1],[0,-2,2]]",
           "8182a32f06a793098bf04df9269054177cce725f3887dd8593ae0c89bd9b4a21"),
    "D4": ("[[2,-1,0,0],[-1,2,-1,-1],[0,-1,2,0],[0,-1,0,2]]",
           "79e5570bdcc7348b9c260353bd2fdb46aa8ac8f654cd6162b2a30a27c9948b41"),
    "C3": ("[[2,-1,0],[-1,2,-2],[0,-1,2]]",
           "bb985216da6befbbe6ecf7a638d332ac72abeadde5ebaa6fa5d533f884697dd9"),
    "A4": ("[[2,-1,0,0],[-1,2,-1,0],[0,-1,2,-1],[0,0,-1,2]]",
           "4b16ecaf51096d99e9df661d485ce229f1d0a0dcdb4922864e156e28a1cf4e78"),
}


@pytest.mark.parametrize("label", sorted(WIDER_DIGESTS))
def test_wider_report_matches_recorded_digest(label):
    algebra, want = WIDER_DIGESTS[label]
    report = verifier.run_suite(verifier.SuiteConfig(algebra=algebra, seed=2024,
                                                     enable_g2=True))
    assert report.counts["fail"] == 0
    assert BENCH.report_digest(report.as_dict()) == want


# report_digest of the seed-42 report of the six default types and G2,
# recorded before checks 14 and 16 read the slice of a symplectic.HessVisit
SEED42_DIGESTS = {
    "A1": "1ab8e7dfa6f42f13b388621f7f399ad9ad9f07b0011b2e8cb180bda118a64092",
    "A1xA1": "e2bcd351e3c78c3265cd4d82bdbcc78c8d8a61f14de03e94f51056f64edb5b9b",
    "A2": "dff90d78c1190f9216a2459500ffde3fa970c4f9785a6e77c43f8508a49d2d37",
    "B2": "399486635c70d4b8ed61b4b64a6ff660ccfac8854f5164eefe341b64b1e7cefb",
    "C2": "ce36aad1e67a665103a8e2a7329411f3b0b49afbbb0067fffd7260389bf396e9",
    "A3": "cf911f663d39ae417dfceab03ab905a7b76a82abbfb74dbd7b47846e9a9de7e0",
    "G2": "265b2ad057996a1db214aee97b56f7325e40ffe01a128fdf3837597d9018eaf4",
}


@pytest.mark.parametrize("label", sorted(SEED42_DIGESTS))
def test_seed_42_report_matches_recorded_digest(label):
    report = verifier.run_suite(verifier.SuiteConfig(algebra=label, seed=42,
                                                     enable_g2=label == "G2"))
    assert report.counts["fail"] == 0
    assert BENCH.report_digest(report.as_dict()) == SEED42_DIGESTS[label]
