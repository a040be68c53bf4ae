#!/usr/bin/env python3
"""Run the full check suite over every supported type and write JSON reports.

Usage:
    python scripts/run_all_types.py [--seed N] [--out-dir reports] [--g2]
"""

import argparse
import os
import sys
import time

from mfhess.verifier import SuiteConfig, run_suite

DEFAULT_TYPES = ["A1", "A2", "A1xA1", "B2", "C2", "A3"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--g2", action="store_true", help="include the G2 run")
    ap.add_argument("--determinism-trials", type=int, default=2)
    args = ap.parse_args()

    labels = DEFAULT_TYPES + (["G2"] if args.g2 else [])
    os.makedirs(args.out_dir, exist_ok=True)
    any_failed = False
    for label in labels:
        t0 = time.time()
        cfg = SuiteConfig(algebra=label, seed=args.seed, enable_g2=args.g2,
                          determinism_trials=args.determinism_trials)
        report = run_suite(cfg)
        path = os.path.join(args.out_dir, f"report_{label}_{args.seed}.json")
        with open(path, "w") as fh:
            fh.write(report.to_json())
        counts = report.counts
        status = "FAIL" if report.failed else "ok"
        any_failed = any_failed or report.failed
        print(f"{label:6s} {status:4s} pass={counts['pass']:2d} "
              f"fail={counts['fail']} skipped={counts['skipped']} "
              f"({time.time() - t0:5.2f}s) -> {path}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
