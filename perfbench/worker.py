"""One pass of a benchmark workload in a fresh interpreter.

Prints the pass's figures as one JSON line.  ``run.py`` starts this once per
pass, because the library's caches (``roots.hom_table`` and the survey
cache in ``orbits``) would otherwise carry results from one pass to the next.

    python3 perfbench/worker.py --workload reduced-sweep --seed 1 [--trace 1]
"""

import argparse
import json

import workloads


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report only its time")
    args = ap.parse_args()
    res = workloads.run_pass(args.workload, args.seed, size=args.size,
                             traced=bool(args.trace), setup_only=args.setup_only)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
