#!/usr/bin/env python3
"""Run the benchmark on a parent and a change checkout in alternating pairs
and write the runs and their summary as BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --label context_build \\
        --pairs nullcone-e8=10 --pairs certify-grid=10 \\
        --pairs reduced-sweep=3 --pairs bfunction-census=3 \\
        --first-seed 701 --traced-seed 31 --note "what the change does"

PARENT and CHANGE are two checkouts of the repository side by side (for
example ``git archive <commit> | tar -x -C DIR``).  Each run is
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
inside one checkout, with T the ``run_seconds`` of the change's
BENCHMARK.json, so both sides run equally long.  Before every run each
``__pycache__`` under that checkout is removed and the run gets
``PYTHONDONTWRITEBYTECODE=1``, so both sides compile the package from
source in every pass; otherwise a side that ran earlier, or whose sources
are older, reads cached bytecode and its ``setup_s`` and ``peak_rss_mb``
are not comparable.

Pair i of a workload runs both sides at seed first-seed + i; the parent
runs first in the even pairs and the change first in the odd ones.  With
``--traced-seed``, each workload then gets one traced run (``--trace 1``)
per side at that seed, the parent first.  The record is rewritten after
every run, so an interrupted session leaves the runs it made.  For each
end-to-end metric the summary gives both sides' medians and quartiles, the
number of pairs the change won (ties count for neither side) and
``gain_rule_met``: whether a gain could be claimed, that is a win in at
least nine tenths of the pairs and a change median better than the
parent's by more than the parent's interquartile range.  It also gives
``within_bound``: whether the change's median is worse than the parent's by
no more than the metric's ``bound`` in BENCHMARK.json, a fraction of the
parent's median.  For a workload traced on both sides it gives
``traced_counters_equal``: whether every per-layer metric whose unit is not
``s`` (work counters and ratios; ``trace.*`` aside) is equal in the two
traced runs, ``traced_counters_differ``, the names of those that are
not, and ``traced_spans``, every per-layer span time (the metrics named
``*.s``) of both traced runs as [parent, change].  The table printed at
the end reads all of these; of the spans it prints the three whose two
values differ most.

The record names the code each side measured: ``sources`` holds, per side,
the sha256 of the package sources ``src/qsing/*.py`` (``source_digest``),
read from the files alone, so a ``git archive`` checkout with no history
gets one too.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

RUN_PY = os.path.join("perfbench", "run.py")


def clear_bytecode(root):
    for dirpath, dirnames, _ in os.walk(root):
        if "__pycache__" in dirnames:
            shutil.rmtree(os.path.join(dirpath, "__pycache__"))
            dirnames.remove("__pycache__")


def source_digest(root):
    """The sha256 of the package sources ``src/qsing/*.py`` under ``root``:
    each file's name and byte length, then its bytes, in file-name order."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "qsing", "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(f"{os.path.basename(path)}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def run_once(root, workload, seed, seconds, trace):
    """The result object that run.py prints last, from a run in ``root``."""
    clear_bytecode(root)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {workload} seed {seed} failed in {root}:\n"
                 + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def traced_pairs(traced):
    """Per workload traced on both sides, the (parent, change) metrics of
    the two traced runs (the last run of each side counts)."""
    by_workload = {}
    for r in traced:
        by_workload.setdefault(r["workload"], {})[r["side"]] = r["output"]["metrics"]
    return {w: (sides["parent"], sides["change"])
            for w, sides in by_workload.items() if len(sides) == 2}


def compare_traced(traced):
    """Per workload traced on both sides, the names of the per-layer
    metrics whose unit is not "s", ``trace.*`` aside, that differ between
    the two traced runs."""
    out = {}
    for workload, (par, chg) in traced_pairs(traced).items():
        names = [k for k, m in {**par, **chg}.items()
                 if m["unit"] != "s" and not k.startswith("trace.")]
        out[workload] = [k for k in names
                         if k not in par or k not in chg
                         or par[k]["value"] != chg[k]["value"]]
    return out


def traced_spans(traced):
    """Per workload traced on both sides, every per-layer span time (the
    metrics named ``*.s``) as [parent, change], None on a side without it."""
    out = {}
    for workload, (par, chg) in traced_pairs(traced).items():
        out[workload] = {k: [par[k]["value"] if k in par else None,
                             chg[k]["value"] if k in chg else None]
                         for k in {**par, **chg} if k.endswith(".s")}
    return out


def widest_spans(spans, count=3):
    """The ``count`` spans of a ``traced_spans`` entry whose two values
    differ most, largest difference first; a span missing on one side
    counts as 0 there."""
    return sorted(spans.items(), reverse=True,
                  key=lambda item: abs((item[1][1] or 0) - (item[1][0] or 0)))[:count]


def summarize(runs, metrics, traced=()):
    """Per workload and end-to-end metric, given as (name, better, bound):
    medians, quartiles, wins, whether the gain rule holds and whether the
    change stays within the bound.  A seed run on one side only is skipped.
    A workload with a traced run on each side also gets whether their work
    counters are equal, the names of those that differ, and every span
    time of both runs."""
    differ, spans = compare_traced(traced), traced_spans(traced)
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["output"]
        pairs = [p for p in by_seed.values() if len(p) == 2]
        if not pairs:
            continue
        entry = {}
        for name, better, bound in metrics:
            par = [p["parent"]["metrics"][name]["value"] for p in pairs]
            chg = [p["change"]["metrics"][name]["value"] for p in pairs]
            sign = 1 if better == "lower" else -1
            lo, hi = quartiles(par)
            wins = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
            gap = sign * (statistics.median(par) - statistics.median(chg))
            allowed = bound * abs(statistics.median(par))
            entry[name] = {
                "parent_median": statistics.median(par),
                "parent_quartiles": [lo, hi],
                "change_median": statistics.median(chg),
                "change_quartiles": quartiles(chg),
                "pairs": len(pairs),
                "change_better_in": wins,
                "gain_rule_met": wins >= 0.9 * len(pairs) and gap > hi - lo,
                "within_bound": -gap <= allowed,
            }
        entry["all_correct"] = all(o["correct"] and o["failed"] == 0
                                   for p in pairs for o in p.values())
        if workload in differ:
            entry["traced_counters_equal"] = not differ[workload]
            entry["traced_counters_differ"] = differ[workload]
            entry["traced_spans"] = spans[workload]
        summary[workload] = entry
    return summary


def print_table(summary):
    print(f"{'workload':<18}{'metric':<14}{'parent':>12}{'change':>12}"
          f"{'parent IQR':>24}{'wins':>8}  {'gain rule':<11}bound")
    for workload, entry in summary.items():
        for name, s in entry.items():
            if name == "traced_spans" or not isinstance(s, dict):  # all_correct, traced_*
                continue
            lo, hi = s["parent_quartiles"]
            print(f"{workload:<18}{name:<14}{s['parent_median']:>12.5g}"
                  f"{s['change_median']:>12.5g}{f'{lo:.5g}-{hi:.5g}':>24}"
                  f"{s['change_better_in']:>5}/{s['pairs']:<2}  "
                  f"{'met' if s['gain_rule_met'] else 'not met':<11}"
                  f"{'within' if s['within_bound'] else 'OUTSIDE'}")
        print(f"{workload:<18}all runs correct: {entry['all_correct']}")
        if "traced_counters_equal" in entry:
            differ = entry["traced_counters_differ"]
            print(f"{workload:<18}traced counters equal: "
                  f"{entry['traced_counters_equal']}"
                  + (f" (differ: {', '.join(differ)})" if differ else ""))
            for name, (par, chg) in widest_spans(entry["traced_spans"]):
                print(f"{workload:<18}traced span {name}: "
                      f"{'-' if par is None else f'{par:.5g}'} -> "
                      f"{'-' if chg is None else f'{chg:.5g}'} s")


def host():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return (f"{os.cpu_count()} vCPU {model}, {platform.system()}, "
            f"{platform.python_implementation()} {platform.python_version()}")


def parse_pairs(text):
    workload, _, count = text.partition("=")
    if not workload or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS, got {text!r}")
    return workload, int(count)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--label", required=True, help="the record is BENCH_<label>.json")
    ap.add_argument("--pairs", type=parse_pairs, action="append", required=True,
                    metavar="WORKLOAD=PAIRS", help="repeat for each workload")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--traced-seed", type=int,
                    help="also make one traced run per workload and side")
    ap.add_argument("--note", default="", help="what the change does")
    ap.add_argument("--claim", help="the metric and workload the change claims")
    args = ap.parse_args()

    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = {w["name"] for w in bench["workloads"]}
    for workload, _ in args.pairs:
        if workload not in names:
            ap.error(f"unknown workload {workload!r}")
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    seconds = bench["run_seconds"]
    out = f"BENCH_{args.label}.json"

    record = {
        "label": args.label,
        "change": args.note,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace <0|1>",
        "protocol": "parent and change checked out side by side, every "
                    "__pycache__ removed from the side about to run and "
                    "PYTHONDONTWRITEBYTECODE=1 before each run; pair i runs "
                    "both sides at one seed, the parent first in even pairs; "
                    + ", ".join(f"{w} {k} pairs" for w, k in args.pairs)
                    + (f"; one traced run per side per workload at seed "
                       f"{args.traced_seed}, parent first"
                       if args.traced_seed is not None else ""),
        "host": host(),
        "sources": {"parent": source_digest(parent), "change": source_digest(change)},
        "claim": args.claim,
        "summary": {},
        "runs": [],
        "traced": [],
    }
    sides = {"parent": parent, "change": change}

    def record_run(kind, workload, seed, side):
        output = run_once(sides[side], workload, seed, seconds, int(kind == "traced"))
        record[kind].append({"workload": workload, "seed": seed, "side": side,
                             "output": output})
        record["summary"] = summarize(record["runs"], metrics, record["traced"])
        with open(out, "w") as fh:
            json.dump(record, fh, indent=1)
        print(f"{kind} {workload} seed {seed} {side}: "
              + ", ".join(f"{k} {v['value']:.5g}" for k, v in
                          list(output["metrics"].items())[:5]), flush=True)

    for workload, count in args.pairs:
        for i in range(count):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                record_run("runs", workload, args.first_seed + i, side)
    if args.traced_seed is not None:
        for workload, _ in args.pairs:
            for side in ("parent", "change"):
                record_run("traced", workload, args.traced_seed, side)
    print_table(record["summary"])


if __name__ == "__main__":
    main()
