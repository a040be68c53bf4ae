#!/usr/bin/env python3
"""Write perfbench/expected.json: the gate's reference values.

    python3 perfbench/record_expected.py

Records, at the current commit, the check statuses of every suite type, the
report digests for the recorded seeds, the number of G2 family pairs, and
``ref_nominal_s``, the median of many speed-probe timings on this host.
Re-run only when the reference loop or a deliberate report change requires
it, and say so in the change description.
"""

import json
import os
import statistics
import sys

import run

DIGEST_SEEDS = (2024, 7)
REF_SAMPLES = 2000


def main() -> int:
    run.import_package()
    from mfhess import verifier
    statuses, digests = {}, {}
    for seed in DIGEST_SEEDS:
        digests[str(seed)] = {}
        for t in run.SUITE_TYPES:
            d = verifier.run_suite(verifier.SuiteConfig(algebra=t, seed=seed)).as_dict()
            got = [[c["id"], c["status"]] for c in d["checks"]]
            if statuses.setdefault(t, got) != got:
                raise SystemExit(f"{t}: statuses differ between seeds")
            digests[str(seed)][t] = run.report_digest(d)
            print(seed, t, digests[str(seed)][t][:16], flush=True)
    sc = verifier.build_context(verifier.SuiteConfig(algebra=run.COMMUTE_TYPE,
                                                     enable_g2=True))
    b = len(sc.family.qs)
    ref = statistics.median(run.probe_once() for _ in range(REF_SAMPLES))
    out = {"ref_nominal_s": round(ref, 9), "digests": digests, "statuses": statuses,
           "commute_pairs": b * (b - 1) // 2}
    with open(os.path.join(run.HERE, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
