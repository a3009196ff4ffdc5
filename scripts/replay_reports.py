#!/usr/bin/env python3
"""Replay ``reducedness_report`` on a fixed set of zero sets and print one
sha256 digest per group of them, and one over all.

A digest covers, per zero set, its quiver, alpha and selection, the verdict,
its reason and witness, and per component its class, codimension, Hom
profile against the selected simples, ``gradient_a`` and
``jacobian_minor``.  A change that keeps every digest keeps every one of
those outputs.  The groups:

- every nonempty selection of every alpha with 0 < |alpha| <= bound on A3
  (bound 6) and D4 (bound 5) in two orientations each, D5 (4), E6 (3) and
  E8 (2);
- the 18 inputs of the ``nullcone-e8`` benchmark workload, ``e8-notred``
  and ``e6-ex1`` for n, m <= 3, with every simple selected.

Usage: python scripts/replay_reports.py
"""

import hashlib
import itertools
import json
from functools import partial

from qsing.decomp import generic_decomposition, perp_simples
from qsing.orbits import components, make_spec, reducedness_report
from qsing.presets import E6_QUIVER, E8_QUIVER, preset
from qsing.quiver import Quiver

D5 = Quiver(5, ((1, 5), (2, 5), (5, 3), (3, 4)))
BOXES = {  # name -> (quiver, bound on |alpha|)
    "a3": (Quiver(3, ((1, 2), (2, 3))), 6),
    "a3-sink": (Quiver(3, ((1, 2), (3, 2))), 6),
    "d4": (Quiver(4, ((1, 4), (2, 4), (3, 4))), 5),
    "d4-source": (Quiver(4, ((4, 1), (4, 2), (4, 3))), 5),
    "d5": (D5, 4),
    "e6": (E6_QUIVER, 3),
    "e8": (E8_QUIVER, 2),
}
NULLCONE_E8 = [  # the inputs of the nullcone-e8 benchmark workload
    (1, 1, 5, 3, 3, 2, 1, 3), (1, 2, 5, 2, 2, 2, 1, 3), (1, 2, 6, 4, 1, 1, 1, 3),
    (1, 2, 6, 4, 2, 1, 1, 2), (1, 3, 6, 3, 2, 2, 1, 2), (1, 3, 7, 2, 1, 2, 1, 3),
    (1, 4, 5, 3, 3, 1, 1, 1), (1, 4, 5, 4, 2, 1, 1, 1), (1, 4, 6, 2, 3, 2, 1, 1),
    (1, 4, 6, 3, 2, 1, 1, 1), (1, 4, 7, 2, 1, 1, 1, 3), (2, 2, 4, 4, 1, 2, 1, 3),
    (2, 2, 5, 4, 1, 1, 1, 3), (2, 2, 5, 4, 1, 2, 1, 2), (2, 2, 5, 4, 3, 1, 1, 1),
    (2, 2, 6, 2, 2, 2, 1, 2), (2, 2, 6, 4, 1, 1, 1, 3), (2, 2, 6, 4, 1, 2, 1, 2),
]


def box(q, bound):
    """The spec of every nonempty selection of every alpha with 0 < |alpha|
    <= bound."""
    for alpha in itertools.product(range(bound + 1), repeat=q.n):
        if not 0 < sum(alpha) <= bound:
            continue
        r = perp_simples(q, generic_decomposition(q, alpha)).r
        for size in range(1, r + 1):
            for sel in itertools.combinations(range(1, r + 1), size):
                yield make_spec(q, alpha, sel)


def examples():
    yield from (make_spec(E8_QUIVER, a) for a in NULLCONE_E8)
    q, alpha, _, _ = preset("e8-notred")
    yield make_spec(q, alpha)
    for n, m in itertools.product(range(1, 4), repeat=2):
        q, alpha, _, _ = preset("e6-ex1", n=n, m=m)
        yield make_spec(q, alpha)


GROUPS = {name: partial(box, q, bound) for name, (q, bound) in BOXES.items()}
GROUPS["examples"] = examples


def record(spec):
    """The replayed outputs of one zero set, as JSON-ready lists."""
    comps = components(spec)
    rep = reducedness_report(spec, comps)
    return [spec.quiver.arrows, spec.alpha, spec.selected, rep.verdict, rep.reason,
            rep.witness.parts if rep.witness is not None else None,
            [[c.rep_class.parts, c.codim, c.hom_to_simples, c.gradient_a, c.jacobian_minor]
             for c in comps]]


def digest(specs):
    """(number of zero sets, sha256 hex digest of their records)."""
    h, count = hashlib.sha256(), 0
    for spec in specs:
        h.update(json.dumps(record(spec)).encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def main():
    total, h = 0, hashlib.sha256()
    for name, group in GROUPS.items():
        count, hexdigest = digest(group())
        print(f"{name:10} {count:5} zero sets  {hexdigest}")
        total += count
        h.update(hexdigest.encode())
    print(f"{'all':10} {total:5} zero sets  {h.hexdigest()}")


if __name__ == "__main__":
    main()
