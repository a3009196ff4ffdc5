#!/usr/bin/env python3
"""Survey codimension-1 orbit closures on small Dynkin quivers and tabulate
the roots of their b-functions.

For every dimension vector up to a total-dimension bound, every fundamental
semi-invariant whose zero set is a single codimension-1 orbit closure is
located, its one-variable b-function computed, and the root statistics
printed (largest root, multiplicities, integrality).

Usage: python scripts/survey_codim1_roots.py [--max-total 16] [--quiver A3]
"""

import argparse
import itertools
import sys
import time
from collections import Counter
from fractions import Fraction

from qsing.brackets import compute_bfunction
from qsing.bsato import single_variable_roots
from qsing.decomp import class_hom, class_self_ext, generic_decomposition, \
    perp_simples
from qsing.orbits import enumerate_classes
from qsing.quiver import Quiver
from qsing.roots import hom_table

QUIVERS = {
    "A3": Quiver(3, ((1, 2), (2, 3))),
    "A4": Quiver(4, ((1, 2), (2, 3), (3, 4))),
    "D4": Quiver(4, ((1, 4), (2, 4), (3, 4))),
    "D5": Quiver(5, ((1, 5), (2, 5), (5, 3), (3, 4))),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-total", type=int, default=16)
    ap.add_argument("--quiver", choices=sorted(QUIVERS), action="append")
    args = ap.parse_args()
    names = args.quiver or ["A3", "A4", "D4"]

    for name in names:
        q = QUIVERS[name]
        table = hom_table(q)
        t0 = time.time()
        instances = 0
        top_roots = Counter()
        denominators = Counter()
        for alpha in itertools.product(range(args.max_total + 1), repeat=q.n):
            s = sum(alpha)
            if s == 0 or s > args.max_total:
                continue
            t = generic_decomposition(q, alpha)
            perp = perp_simples(q, t)
            if not perp.r:
                continue
            # the codimension-1 classes of alpha, shared by every simple
            codim1 = [c for c in enumerate_classes(q, alpha, max_self_ext=1)
                      if class_self_ext(table, c) == 1]
            for j in range(perp.r):
                sj = perp.simples[j]
                hits = [c for c in codim1 if class_hom(table, c, sj) > 0]
                if len(hits) != 1:
                    continue
                instances += 1
                fam = compute_bfunction(q, alpha, [sj])
                roots = single_variable_roots(fam)
                top_roots[roots[0]] += 1
                for r, _mult in roots:
                    denominators[r.denominator] += 1
        print(f"{name}: {instances} codim-1 orbit-closure instances "
              f"({time.time() - t0:.1f}s)")
        print("  largest root (root, multiplicity) distribution:",
              dict(sorted(top_roots.items())))
        print("  root denominator distribution:", dict(sorted(denominators.items())))
        if top_roots and set(top_roots) == {(Fraction(-1), 1)}:
            print("  => every instance has largest root -1 with multiplicity 1")


if __name__ == "__main__":
    sys.exit(main())
