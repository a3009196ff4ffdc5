#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, for about ``--seconds``.

    python3 perfbench/run.py --workload nullcone-e8 --seed 1 --seconds 15 --trace 0

Runs whole passes of the workload, each in a fresh interpreter (see
``worker.py``), until ``--seconds`` have passed, and at least one.  Then,
untraced, it runs set-up-only passes until it has five set-up samples.  The
last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``, each the
  median over the passes of the run (for the median latency, over each
  input's median latency);
* ``--trace 1``: the per-layer metrics, from traced passes.  Untraced passes
  are interleaved with them; their work counters must equal the traced
  ones, and the difference of the two median wall times is reported as the
  tracing overhead.

``correct`` is false when any output check failed.  The run exits non-zero
without a result when the library is missing or a pass crashes.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_SETUP_SAMPLES = 5


class PassFailed(Exception):
    pass


def run_worker(workload, seed, size, trace, deadline, setup_only=False):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"a {workload} pass did not finish within the run limit")
    if proc.returncode != 0:
        raise PassFailed(f"a {workload} pass exited with code {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(passes, setups):
    attempted = sum(p["attempted"] for p in passes)
    decided = sum(p["attempted"] - p["failed"] - p["undecided"] for p in passes)
    # every pass of a run has the same seed, so the same input order: an
    # input's latency is its median over the passes
    latencies = [statistics.median(col)
                 for col in zip(*(p["latencies_s"] for p in passes))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "query_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "decided_frac": decided / attempted,
    }


def per_layer(traced, untraced):
    """Span times are medians over the traced passes; counters repeat
    exactly, so they come from the first one."""
    out = dict(traced[0]["layers"])
    for name in out:
        if name.endswith(".s"):
            out[name] = statistics.median(p["layers"][name] for p in traced)
    out.update(traced[0]["counters"])
    wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - statistics.median(p["wall_s"] for p in untraced)
    return out


def counter_mismatches(passes):
    """Counters that differ between passes; survey counters exist only in
    traced passes and are compared among those."""
    bad = set()
    for p in passes[1:]:
        for name, value in p["counters"].items():
            for q in passes:
                if name in q["counters"] and q["counters"][name] != value:
                    bad.add(name)
    return sorted(bad)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long version for the benchmark's tests")
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "qsing", "__init__.py")):
        sys.exit("perfbench: no qsing sources under src/; run from a checkout "
                 "of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    try:
        while True:
            # a traced run alternates untraced and traced passes
            trace = args.trace and len(passes) % 2
            passes.append(run_worker(args.workload, args.seed, args.size, trace,
                                     deadline))
            passes[-1]["traced"] = bool(trace)
            done = time.monotonic() - start >= args.seconds
            if done and (not args.trace or len(passes) >= 2):
                break
        setups = [p["setup_s"] for p in passes if not p["traced"]]
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_worker(args.workload, args.seed, args.size, 0,
                                     deadline, setup_only=True)["setup_s"])
    except PassFailed as exc:
        sys.exit(f"perfbench: {exc}")

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mismatched = counter_mismatches(passes)
    if mismatched:
        print("work counters differ between passes: " + ", ".join(mismatched),
              file=sys.stderr)
    if args.trace:
        values, wanted = per_layer(traced, untraced), bench["per_layer"]
    else:
        values, wanted = end_to_end(untraced, setups), bench["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print("unadjusted medians: setup_s %.4f, wall_s %.4f" % (
        statistics.median(p["raw"]["setup_s"] for p in passes),
        statistics.median(p["raw"]["wall_s"] for p in passes)))
    print(json.dumps({"correct": failed == 0 and not mismatched,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
