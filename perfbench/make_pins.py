"""Write perfbench/pins.json: every op's expected exit code and report digest.

    python3 perfbench/make_pins.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Each workload runs once under two seeds; the digests must agree
(the seed only moves the randomized pre-check points, never a verdict), or
nothing is written.  Ops listed in KNOWN_DEFECTS are pinned to the verdict
the paper states instead of today's output, and checked by verdict alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, check_checkout, run_worker
from workloads import WORKLOADS, op_key

PIN_SEEDS = (0, 1)

# Criterion 7 asserts Z(lambda) = i^|mu| Z(rho) chi_mu for every bent family;
# D at lambda = [3,2] (lambda_n > 1) fails it at the reference commit.  The
# pin keeps the paper's verdict and records today's outcome, so the op
# counts as failed until the program states the D-family theorem correctly,
# and a fix may change its chi.
KNOWN_DEFECTS = {
    ("products", "verify character --family D --lambda 3,2"): {
        "exit": 0, "verdict": "pass",
        "known_defect": {"exit": 2, "verdict": "fail",
                         "why": "criterion 7, D family with lambda_n > 1"},
    },
}


def main() -> int:
    root = Path.cwd()
    check_checkout(root)
    pins = {}
    for workload, ops in WORKLOADS.items():
        runs = [[records[0] for records in run_worker(root, workload, seed, 0, False)["samples"]]
                for seed in PIN_SEEDS]
        pins[workload] = {}
        for op, *records in zip(ops, *runs, strict=True):
            key = op_key(op)
            pinned = {(r["exit"], r["digest"]) for r in records}
            if len(pinned) != 1:
                print(f"{key}: output depends on the seed: {pinned}", file=sys.stderr)
                return 1
            exit_code, digest = pinned.pop()
            pins[workload][key] = {"exit": exit_code, "digest": digest}
            defect = KNOWN_DEFECTS.get((workload, key))
            if defect:
                known = defect["known_defect"]
                if (exit_code, records[0]["verdict"]) != (known["exit"], known["verdict"]):
                    print(f"{key}: known defect no longer shows", file=sys.stderr)
                    return 1
                pins[workload][key] = defect
    with open(HERE / "pins.json", "w") as out:
        json.dump(pins, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
