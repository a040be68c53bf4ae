"""The benchmark's per-layer trace must still find every function it wraps."""

import importlib.util
import json
import os

from mfhess import verifier

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_trace_registers_every_layer_metric():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    # bench.* come from the harness and verifier.run_suite.* from the run itself
    wanted = [n for n in names if not n.startswith(("bench.", "verifier.run_suite."))]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        missing = [n for n in wanted if n not in tracer.totals]
    finally:
        tracer.uninstall()
    tracer.assert_clean([verifier.ALL_CHECKS])
    assert wanted and missing == []
