#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and write one BENCH file.

Usage:
    python scripts/bench_pairs.py --parent DIR --change DIR --parent-commit SHA \
        --out BENCH_N.json [--pairs 10] [--seed 2024] [--held-out-seed 7] \
        [--workloads build suite commute] [--host TEXT]

DIR is a checkout of the repository (for example `git archive` of a commit,
unpacked).  Each run is `python3 perfbench/run.py --workload W --seed S` in
that directory, and its last stdout line is the JSON result.  Pair i runs the
parent first when i is even and the change first when i is odd, so a drift
of the host's speed does not favour one side.  The summary gives, for every
end-to-end metric, the median and the quartiles of each side
(statistics.quantiles, n=4) and the number of pairs in which the change is
lower.  With --held-out-seed, one more pair of the first workload runs at that
seed.

After each run the script reads the audit record that perfbench/run.py
writes in that checkout (perfbench/out/<workload>-seed<S>-trace0.json) and
stores the median adjusted_s of each unit kind with the run's result, under
"unit_medians"; the summary gives each side's median of those per unit kind.
A unit kind can move while wall_s, a sum over all kinds, hides it.

A run is incorrect when its result has `correct: false` or `failed > 0`
(perfbench/run.py still exits 0 then).  Each workload records the number of
incorrect runs per side, and a workload with any incorrect run gets no
summary.  The file is written with every run either way, and the script then
exits 1, naming each incorrect run on stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def unit_medians(audit_path: str) -> dict:
    """The median adjusted_s of each unit kind in a perfbench audit record,
    set-up and pass units pooled, in order of first appearance."""
    with open(audit_path) as fh:
        units = json.load(fh)["units"]
    kinds = dict.fromkeys(u["kind"] for u in units)
    return {k: statistics.median(u["adjusted_s"] for u in units if u["kind"] == k)
            for k in kinds}


def run(tree: str, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{tree} {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["unit_medians"] = unit_medians(
        os.path.join(tree, "perfbench", "out", f"{workload}-seed{seed}-trace0.json"))
    return result


def pair(args, workload: str, seed: int, change_first: bool) -> tuple:
    order = ("change", "parent") if change_first else ("parent", "change")
    out = {}
    for side in order:
        out[side] = run(getattr(args, side), workload, seed)
        print(f"{workload} seed {seed} {side}: "
              f"{out[side]['metrics']['wall_s']['value']:.4f} s", file=sys.stderr)
    return out["parent"], out["change"]


def incorrect(result: dict) -> bool:
    return result.get("correct") is not True or result.get("failed", 0) > 0


def summary(parents: list, changes: list) -> dict:
    out = {}
    for name in METRICS:
        p = [r["metrics"][name]["value"] for r in parents]
        c = [r["metrics"][name]["value"] for r in changes]
        out[name] = {
            side: {"median": round(statistics.median(v), 4),
                   "quartiles": [round(q, 4) for q in statistics.quantiles(v, n=4)[::2]]}
            for side, v in (("parent", p), ("change", c))}
        out[name]["change_lower_in_pairs"] = sum(b < a for a, b in zip(p, c))
    out["unit_medians"] = {"parent": kind_medians(parents), "change": kind_medians(changes)}
    return out


def kind_medians(runs: list) -> dict:
    """The median over runs of each unit kind's median."""
    per_kind: dict = {}
    for r in runs:
        for kind, v in r["unit_medians"].items():
            per_kind.setdefault(kind, []).append(v)
    return {kind: round(statistics.median(v), 4) for kind, v in per_kind.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--held-out-seed", type=int)
    ap.add_argument("--workloads", nargs="+", default=["build", "suite", "commute"])
    ap.add_argument("--host", default="")
    args = ap.parse_args()

    workloads = {}
    bad = []
    for workload in args.workloads:
        parents, changes = [], []
        for i in range(args.pairs):
            p, c = pair(args, workload, args.seed, change_first=bool(i % 2))
            parents.append(p)
            changes.append(c)
            bad += [f"{workload} seed {args.seed} pair {i} {side}"
                    for side, r in (("parent", p), ("change", c)) if incorrect(r)]
        counts = {"parent": sum(map(incorrect, parents)), "change": sum(map(incorrect, changes))}
        workloads[workload] = {
            "pairs": args.pairs, "incorrect_runs": counts,
            "summary": None if any(counts.values()) else summary(parents, changes),
            "parent": parents, "change": changes}
    result = {
        "description": "perfbench/run.py result lines, parent commit and change, "
                       "alternating pairs (odd pairs run the change first); "
                       f"seed {args.seed}, default --seconds 20, untraced",
        "command": f"python3 perfbench/run.py --workload <workload> --seed {args.seed}",
        "host": args.host,
        "parent_commit": args.parent_commit,
        "workloads": workloads,
    }
    if args.held_out_seed is not None:
        workload = args.workloads[0]
        p, c = pair(args, workload, args.held_out_seed, change_first=False)
        result["held_out"] = {"seed": args.held_out_seed, "workload": workload,
                              "parent": p, "change": c}
        bad += [f"{workload} seed {args.held_out_seed} held-out {side}"
                for side, r in (("parent", p), ("change", c)) if incorrect(r)]
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for name in bad:
        print(f"incorrect run: {name}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
