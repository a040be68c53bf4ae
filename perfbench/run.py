#!/usr/bin/env python3
"""mfhess benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload suite --seed 2024 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.

Workloads (each in the single-threaded process that runs this script):

* ``suite``   -- ``verifier.run_suite`` with CLI defaults on A1, A1xA1, A2, B2,
  C2 and A3: what ``mfhess verify`` does.  One operation is one check record.
* ``commute`` -- ``verifier.build_context`` for G2, ``argshift.pairwise_commute``
  over its 28 pairs, then a negative control: the 14 coordinate functions
  bracketed with the last derived generator, 12 of which must be nonzero.
* ``build``   -- ``verifier.build_context`` on inline B3, C3 and A4 Cartan
  matrices, cold into a fresh cache directory and then warm from it; the
  cold and warm families and invariants must serialize identically.

Times are speed-adjusted (see ``SpeedProbe``): each timed unit, one public
call, is scaled to the host speed recorded as ``ref_nominal_s`` in
``expected.json``.  Passes repeat until ``--seconds`` have elapsed (at least
one).  ``wall_s`` sums, over the unit kinds of one pass, the median adjusted
time of each kind; ``setup_s`` does the same over the ``build_context``
kinds, each timed several times per run; ``peak_rss_mb`` is the process's
peak resident memory.  Raw unit times, probe timings and run metadata go to
``perfbench/out/``; the last stdout line is the JSON result.

``--trace 1`` runs one untraced pass and one pass with every layer's public
functions wrapped (``tracing.py``) and prints the per-layer metrics, scaled
by the speed factor of the unit they ran in (probe time, about 2%, is not
subtracted from spans).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

WORKLOADS = ("suite", "commute", "build")
SUITE_TYPES = ("A1", "A1xA1", "A2", "B2", "C2", "A3")
BUILD_TYPES = {
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
}
COMMUTE_TYPE = "G2"
COMMUTE_DIM = 14
CONTROL_NONZERO = 12
SETUP_REPS = 5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- speed reference -----------------------------------------------------------
#
# Host speed on a shared machine flips between regimes about 2x apart within
# fractions of a second, so a reference timed only before and after a
# 30-second call says little about the call.  Instead a fixed stdlib loop
# (no mfhess code, so no change to the package can alter its cost) is timed
# from a SIGALRM handler every PROBE_PERIOD_S while the workload runs.  A
# unit's work time (its wall time minus the probes inside it) is scaled by
# the mean of ref_nominal / probe over the probes inside it, which
# integrates the host speed over the unit.


PROBE_PERIOD_S = 0.05


def probe_once() -> float:
    """Wall time of a fixed Fraction loop, about 1 ms."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 2)
    return perf_counter() - t0


class SpeedProbe:
    """Times ``probe_once`` from a timer signal; samples are (start, duration)."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a signal that lands inside the probe is dropped
            return
        self._busy, enabled = True, gc.isenabled()
        gc.disable()
        try:
            start, duration = perf_counter(), probe_once()
            self.starts.append(start)
            self.durations.append(duration)
        finally:
            self._busy = False
            if enabled:
                gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, t0, t1) -> tuple:
        """Probe durations that describe [t0, t1], and the probe time inside it.

        A unit shorter than three probe periods also uses the probes just
        before it, so that no speed estimate rests on one probe.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        early = bisect.bisect_left(self.starts, min(t0, t1 - 3 * PROBE_PERIOD_S))
        return self.durations[early:hi], sum(self.durations[lo:hi])


class Clock:
    """Times units and scales each by the host speed measured during it."""

    def __init__(self, ref_nominal: float, probe: SpeedProbe):
        self.ref_nominal = ref_nominal
        self.probe = probe
        self.units = []
        self.tracer = None
        self.phase = "setup"

    def time(self, kind, fn, *args):
        gc.collect()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            refs, probe_s = self.probe.window(t0, t1)
            factor = statistics.mean(self.ref_nominal / d for d in refs)
            work = (t1 - t0) - probe_s
            if self.tracer is not None:
                self.tracer.flush(factor)
            self.units.append({"kind": kind, "phase": self.phase, "raw_s": t1 - t0,
                               "probes": len(refs), "probe_s": probe_s,
                               "ref_mean_s": statistics.mean(refs),
                               "adjusted_s": work * factor})

    def _sum_of_medians(self, kinds, phases, field) -> float:
        return sum(statistics.median(u[field] for u in self.units
                                     if u["kind"] == k and u["phase"] in phases)
                   for k in kinds)

    def wall(self, phase="pass", field="adjusted_s") -> float:
        """One pass: the median of each unit kind run in ``phase``, summed.
        Set-up samples of the same kind are pooled in."""
        kinds = dict.fromkeys(u["kind"] for u in self.units if u["phase"] == phase)
        return self._sum_of_medians(kinds, (phase, "setup"), field)

    def setup(self) -> float:
        """The median of each ``build_context`` kind, summed."""
        kinds = dict.fromkeys(u["kind"] for u in self.units if u["kind"].startswith("build."))
        return self._sum_of_medians(kinds, ("setup", "pass"), "adjusted_s")


# -- correctness gate ------------------------------------------------------------


def report_digest(report_dict: dict) -> str:
    """sha256 of the convention and checks; the config block is excluded."""
    blob = json.dumps({"convention": report_dict["convention"],
                       "checks": report_dict["checks"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def gate_report(report_dict: dict, expected_statuses: list, expected_digest) -> int:
    """Number of failed operations (check records) in one suite report."""
    got = [[c["id"], c["status"]] for c in report_dict["checks"]]
    failed = sum(1 for a, b in zip(got, expected_statuses) if a != b)
    failed += abs(len(got) - len(expected_statuses))
    if not failed and expected_digest is not None \
            and report_digest(report_dict) != expected_digest:
        failed = 1
    return min(failed, len(expected_statuses))


def gate_self_test(expected_statuses: list) -> None:
    """Stop the run if the gate accepts a tampered or flipped report."""
    report = {"convention": {"hash": "self-test"},
              "checks": [{"id": i, "status": st, "witness": {}}
                         for i, st in expected_statuses]}
    good = report_digest(report)
    tampered = json.loads(json.dumps(report))
    tampered["checks"][0]["witness"]["tampered"] = True
    flipped = json.loads(json.dumps(report))
    flipped["checks"][0]["status"] = "fail"
    if gate_report(report, expected_statuses, good) != 0 \
            or gate_report(tampered, expected_statuses, good) == 0 \
            or gate_report(flipped, expected_statuses, None) == 0:
        raise BenchError("self-test: the gate accepted a tampered report")


# -- workloads -------------------------------------------------------------------


class Run:
    def __init__(self, seed: int, expected: dict, probe: SpeedProbe):
        from mfhess import verifier
        self.verifier = verifier
        self.seed = seed
        self.expected = expected
        self.clock = Clock(expected["ref_nominal_s"], probe)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = []

    def config(self, algebra, **kw):
        return self.verifier.SuiteConfig(algebra=algebra, seed=self.seed, **kw)

    def unit(self, kind, ops, fn, *args):
        """Time one call; an exception fails all of its operations."""
        self.attempted += ops
        try:
            return self.clock.time(kind, fn, *args)
        except Exception as exc:  # counted, reported, and the run goes on
            self.fail(kind, ops, f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, kind, k, why):
        if k:
            self.failed += k
            self.failures.append({"unit": kind, "failed": k, "why": why[:300]})

    # suite ---------------------------------------------------------------------

    def suite_setup(self):
        for _ in range(SETUP_REPS):
            for t in SUITE_TYPES:
                self.unit("build." + t, 1, self.verifier.build_context, self.config(t))

    def suite_pass(self):
        for t in SUITE_TYPES:
            statuses = self.expected["statuses"][t]
            report = self.unit("suite." + t, len(statuses), self.verifier.run_suite,
                               self.config(t))
            if report is None:
                self.digests.append(None)
                continue
            d = report.as_dict()
            want = self.expected["digests"].get(str(self.seed), {}).get(t)
            self.fail("suite." + t, gate_report(d, statuses, want),
                      "check statuses or report digest differ from the recorded ones")
            self.digests.append(report_digest(d))

    # commute -------------------------------------------------------------------

    def commute_setup(self):
        for _ in range(SETUP_REPS):
            self.unit("build." + COMMUTE_TYPE, 1, self.verifier.build_context,
                      self.config(COMMUTE_TYPE, enable_g2=True))

    def commute_pass(self):
        from mfhess import argshift
        sc = self.unit("build." + COMMUTE_TYPE, 1, self.verifier.build_context,
                       self.config(COMMUTE_TYPE, enable_g2=True))
        npairs = self.expected["commute_pairs"]
        if sc is None:
            self.attempted += npairs + COMMUTE_DIM
            self.fail("commute", npairs + COMMUTE_DIM, "no context to bracket")
            self.digests.append(None)
            return
        res = self.unit("commute.pairwise", npairs, argshift.pairwise_commute, sc.family)
        verdict = None if res is None else (res[0], res[1] if res[0] else res[1][:2])
        if res is not None and verdict != (True, npairs):
            passed = 0
            if not res[0]:  # pairs before the first nonzero one, in sweep order
                i, j = verdict[1]
                passed = i * len(sc.family.qs) - i * (i + 1) // 2 + j - i - 1
            self.fail("commute.pairwise", npairs - passed,
                      f"pairwise_commute returned {verdict!r}")
        n = sc.L.dim
        mask = self.unit("commute.control", n, _control_brackets, sc)
        if mask is not None:
            want = [k not in sc.L.cartan_indices for k in range(n)]
            bad = sum(1 for a, b in zip(mask, want) if a != b)
            if sum(mask) != CONTROL_NONZERO:
                bad = max(bad, 1)
            self.fail("commute.control", bad,
                      f"{sum(mask)} of {n} control brackets nonzero, expected {CONTROL_NONZERO}")
        self.digests.append(repr((verdict, mask)))

    # build ---------------------------------------------------------------------

    def build_setup(self):
        pass  # every pass is a set of cold and warm builds

    def build_pass(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        for name, rows in BUILD_TYPES.items():
            cache = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
            try:
                cfg = self.config(json.dumps(rows), cache_dir=cache)
                cold = self.unit(f"build.{name}.cold", 1, self.verifier.build_context, cfg)
                warm = self.unit(f"build.{name}.warm", 1, self.verifier.build_context, cfg)
                same = None
                if cold is not None and warm is not None:
                    same = self.unit(f"verdict.{name}", 0, _same_build, cold, warm)
                    self.fail(f"verdict.{name}", 0 if same else 1,
                              "cold and warm builds differ")
            finally:
                shutil.rmtree(cache, ignore_errors=True)
            self.digests.append(same)


def _control_brackets(sc) -> list:
    from mfhess.polyring import Poly, poisson_bracket
    F = sc.family
    g = F.qs[F.N_positions[-1]]
    return [not poisson_bracket(F.ctx, Poly.coordinate(sc.L.dim, k), g).is_zero()
            for k in range(sc.L.dim)]


def _build_payload(sc) -> dict:
    return {"family": sc.family.to_payload(),
            "invariants": [p.to_payload() for p in sc.inv.polys]}


def _same_build(cold, warm):
    """sha256 of the family and invariants when cold and warm agree, else None.

    The invariants are compared too: a warm build may take its family from
    the family cache, which would hide a wrong invariants cache."""
    a = _build_payload(cold)
    if a != _build_payload(warm):
        return None
    return hashlib.sha256(json.dumps(a, sort_keys=True).encode()).hexdigest()


# -- environment -------------------------------------------------------------------


def import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "mfhess")):
        raise BenchError(f"package source not found under {src}")
    sys.path.insert(0, src)
    import mfhess
    if not os.path.abspath(mfhess.__file__).startswith(os.path.join(src, "")):
        raise BenchError("mfhess was imported from outside this checkout")
    return mfhess


def load_spec() -> tuple:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME_RE.fullmatch(m["name"]):
            raise BenchError(f"self-test: bad metric name {m['name']!r}")
    return spec, expected


def run_metadata(seed: int) -> dict:
    from mfhess import rational
    src = os.path.join(ROOT, "src", "mfhess")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"backend": rational.BACKEND, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed, "git_commit": _git_commit(),
            "source_sha256": h.hexdigest()}


def _git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# -- entry point -----------------------------------------------------------------


def measure(run: Run, workload: str, seconds: float) -> dict:
    getattr(run, workload + "_setup")()
    run.clock.phase = "pass"
    t0 = perf_counter()
    while True:
        getattr(run, workload + "_pass")()
        if perf_counter() - t0 >= seconds:
            break
    return {
        "wall_s": run.clock.wall(),
        "setup_s": run.clock.setup(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(run: Run, workload: str) -> tuple:
    import tracing
    from mfhess import verifier
    clock = run.clock
    clock.phase = "pass"
    getattr(run, workload + "_pass")()
    untraced_digests = list(run.digests)
    tracer = tracing.Tracer()
    tracer.register(*(f"verifier.run_suite.{t}.s" for t in SUITE_TYPES))
    tracing.install(tracer)
    clock.tracer, clock.phase = tracer, "traced"
    try:
        getattr(run, workload + "_pass")()
    finally:
        clock.tracer = None
        tracer.uninstall()
    tracer.assert_clean([verifier.ALL_CHECKS])
    if run.digests[len(untraced_digests):] != untraced_digests:
        run.fail("trace", 1, "traced outputs differ from untraced outputs")
    metrics = dict(tracer.totals)
    metrics["bench.raw_wall_s"] = clock.wall("pass", "raw_s")
    metrics["bench.ref_loop_s"] = statistics.median(clock.probe.durations)
    metrics["bench.trace_overhead"] = clock.wall("traced") - clock.wall("pass")
    return metrics, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec, expected = load_spec()
        import_package()
    except (BenchError, OSError, ImportError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    meta = run_metadata(args.seed)
    try:
        gate_self_test(expected["statuses"][SUITE_TYPES[0]])
        with SpeedProbe() as probe:
            run = Run(args.seed, expected, probe)
            if args.trace:
                values, tracer = measure_traced(run, args.workload)
                listed = spec["per_layer"]
            else:
                values, tracer = measure(run, args.workload, args.seconds), None
                listed = spec["end_to_end"]
        missing = [m["name"] for m in listed if m["name"] not in values]
        if missing:
            raise BenchError(f"self-test: metrics not produced: {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    write_audit(args, meta, run, result, tracer)
    print(json.dumps({"meta": meta, "ref_nominal_s": run.clock.ref_nominal,
                      "failures": run.failures}))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    # the failure share is the result's failed/attempted, not a bounded metric
    print(f"{'fail_share':48s} {run.failed / max(run.attempted, 1):14.6g} ratio")
    print(json.dumps(result))
    return 0


def write_audit(args, meta, run, result, tracer) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    audit = {"meta": meta, "workload": args.workload, "seconds": args.seconds,
             "ref_nominal_s": run.clock.ref_nominal, "units": run.clock.units,
             "raw_wall_s": run.clock.wall("pass", "raw_s"), "failures": run.failures,
             "probes": {"period_s": PROBE_PERIOD_S, "start": run.clock.probe.starts,
                        "duration": run.clock.probe.durations},
             "result": result}
    if tracer is not None:
        audit["self_s"] = tracer.self_times()
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    with open(stem + ".json", "w") as fh:
        json.dump(audit, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
