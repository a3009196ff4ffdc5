#!/usr/bin/env python3
"""Run the three built-in worked examples end to end and print the reports.

Usage: python scripts/run_paper_examples.py [--n N] [--m M]
"""

import argparse
import sys
import time

from qsing.brackets import render_family
from qsing.bsato import rational_singularities_verdict, verify_certificate
from qsing.decomp import generic_decomposition, perp_simples
from qsing.orbits import components, is_set_theoretic_ci, make_spec, \
    reducedness_report
from qsing.presets import preset


def fmt(v):
    return "(" + ",".join(map(str, v[:-1])) + ";" + str(v[-1]) + ")"


def show_decomposition(q, alpha):
    t = generic_decomposition(q, alpha)
    perp = perp_simples(q, t)
    print(f"  alpha = {fmt(alpha)}")
    print("  generic representation:",
          " + ".join(f"{fmt(r)}^{mult}" for r, mult in t.parts))
    print("  perpendicular simples:", ", ".join(fmt(s) for s in perp.simples))
    return t, perp


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--m", type=int, default=2)
    args = ap.parse_args()

    print("== E6 nullcone example (e6-ex1) ==")
    q, alpha, _, _ = preset("e6-ex1", n=args.n, m=args.m)
    t0 = time.time()
    show_decomposition(q, alpha)
    v = rational_singularities_verdict(make_spec(q, alpha))
    print("  b(s) =", render_family(v.family))
    print("  verdict:", v.kind)
    if v.certificate is not None:
        ok, msg = verify_certificate(v.family, v.certificate)
        print("  certificate checker:", "accepted" if ok else f"REJECTED: {msg}")
    print(f"  [{time.time() - t0:.1f}s]")

    print("== E8 non-reduced nullcone example (e8-notred) ==")
    q, alpha, _, _ = preset("e8-notred")
    t0 = time.time()
    t, perp = show_decomposition(q, alpha)
    spec = make_spec(q, alpha)
    comps = components(spec)
    print(f"  {len(comps)} components, codims",
          sorted({c.codim for c in comps}),
          "| set-theoretic CI:", is_set_theoretic_ci(spec, comps))
    red = reducedness_report(spec, comps)
    print("  reducedness:", red.verdict)
    if red.witness is not None:
        print("  witness:",
              " + ".join(f"{fmt(r)}^{mult}" for r, mult in red.witness.parts))
    print(f"  [{time.time() - t0:.1f}s]")

    print("== E8 positive-root example (e8-pos) ==")
    q, alpha, sel, _ = preset("e8-pos", n=1)
    t0 = time.time()
    v = rational_singularities_verdict(make_spec(q, alpha, sel))
    print("  b(s) =", render_family(v.family))
    print("  verdict:", v.kind, "| reason:", v.reason)
    if v.witness is not None:
        print("  bad common zero of the generators b_c:", tuple(str(x) for x in v.witness))
    print(f"  [{time.time() - t0:.1f}s]")


if __name__ == "__main__":
    sys.exit(main())
