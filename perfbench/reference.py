"""Regenerate reference_counts.json: the counts that no independent
computation gives (instance counts, candidates, findings on the planted
defects), from one round of every workload under two seeds.

    python3 perfbench/reference.py

Renaming is an isomorphism, so the two seeds must agree; the file is
written only if they do.  Regenerate it only when a change to the program
is meant to change the amount of work, and say so with the change.
"""

import json
import random
import sys

import run

SEEDS = (1, 2)


def counts(workload, seed):
    wl = run.WORKLOADS[workload]
    prep = wl.prepare(random.Random(seed))
    sc = run.Modules()
    got, failed = run.run_round(wl.ops(sc, prep, wl.load(sc, prep)), None)
    if failed:
        sys.exit(f"{workload}: {failed} operations failed under seed {seed}")
    return got


def main():
    sys.path.insert(0, run.SRC)
    out = {}
    for workload in run.WORKLOADS:
        first, second = (counts(workload, s) for s in SEEDS)
        if first != second:
            sys.exit(f"{workload}: counts differ between seeds {SEEDS}")
        out[workload] = {label: c for label, c in first.items() if c}
        print(f"{workload}: {len(out[workload])} operations with counts", file=sys.stderr)
    with open(run.REFERENCE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
