"""Exact rational linear feasibility by Fourier-Motzkin elimination, with
certificate extraction.

Systems are lists of constraints  sum c_i x_i  (rel)  rhs  with rel in
{"<=", "<", "="} and int or Fraction (any exact rational) data.
Elimination runs on plain Python integers: each input row is multiplied
once by the lcm of its denominators, and each derived row
b*upper + a*lower is divided by the gcd of its coefficients, right-hand
side and provenance.  Both factors are positive, so by induction every row
is a positive multiple of the row that elimination on Fractions builds: the
same inequality, in the same order, giving the same bound rest/c on its
variable.  Feasibility and the back-substituted point (the one place that
divides, in Fractions) are therefore exactly those of the Fraction
computation.

Every row carries its provenance, integer multipliers over the input rows,
so infeasibility yields an explicit Farkas certificate (a positive multiple
of the Fraction one) and feasibility yields a point.  Dimensions here are
tiny (r <= 5), where FM is exact and fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class FMResult:
    feasible: bool
    point: list | None = None  # Fraction point when feasible
    farkas: list | None = None  # int multipliers over input rows when infeasible


def _int_row(values):
    """values times the lcm of their denominators, as ints, with the lcm."""
    if all(type(x) is int for x in values):
        return list(values), 1
    values = [Fraction(x) for x in values]
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def solve(constraints, nvars) -> FMResult:
    """Decide { x in Q^nvars : constraints }.  A row whose length is not
    nvars, or whose relation is not "<=", "<" or "=", raises ValueError.

    Feasible: a point of Fractions, found by back-substitution through the
    elimination levels.  Infeasible: integer Farkas multipliers m over the
    input rows, m_i >= 0 on inequality rows, with sum m_i * row_i equal to
    (0 rel c) for a constant c violating the relation (c < 0, or c <= 0 if
    a strict row has positive weight).  The multipliers are a positive
    multiple of those elimination on Fractions gives.
    """
    rows = []  # (int coeffs, strict, int rhs, int provenance)
    ncons = len(constraints)
    for k, (coeffs, rel, rhs) in enumerate(constraints):
        if len(coeffs) != nvars:
            raise ValueError(f"row {k} has {len(coeffs)} coefficients "
                             f"for {nvars} variables")
        if rel not in ("<=", "<", "="):
            raise ValueError(f"row {k} has relation {rel!r}, not <=, < or =")
        row, scale = _int_row([*coeffs, rhs])
        coeffs, rhs = row[:-1], row[-1]
        prov = [0] * ncons
        prov[k] = scale
        rows.append((coeffs, rel == "<", rhs, prov))
        if rel == "=":
            rows.append(([-c for c in coeffs], False, -rhs, [-p for p in prov]))

    levels = []  # per eliminated variable: rows at that level
    cur = rows
    for v in range(nvars):
        levels.append(cur)
        lower, upper, new = [], [], []
        for row in cur:
            c = row[0][v]
            (upper if c > 0 else lower if c < 0 else new).append(row)
        for lc, lstrict, lrhs, lprov in lower:
            b = -lc[v]
            for uc, ustrict, urhs, uprov in upper:
                a = uc[v]
                # b*upper + a*lower eliminates v
                coeffs = [b * u + a * l for u, l in zip(uc, lc)]
                rhs = b * urhs + a * lrhs
                prov = [b * u + a * l for u, l in zip(uprov, lprov)]
                g = math.gcd(*coeffs, rhs, *prov)
                if g > 1:
                    coeffs = [x // g for x in coeffs]
                    rhs //= g
                    prov = [x // g for x in prov]
                new.append((coeffs, lstrict or ustrict, rhs, prov))
        cur = new

    # ground facts: all coefficients zero
    for coeffs, strict, rhs, prov in cur:
        assert not any(coeffs)
        if rhs < 0 or (strict and rhs == 0):
            return FMResult(False, farkas=prov)

    # back-substitute a feasible point
    point = [Fraction(0)] * nvars
    for v in range(nvars - 1, -1, -1):
        lo, hi, lo_strict, hi_strict = None, None, False, False
        for coeffs, strict, rhs, _ in levels[v]:
            c = coeffs[v]
            if c == 0:
                continue
            rest = rhs - sum(coeffs[i] * point[i]
                             for i in range(v + 1, nvars))
            bound = Fraction(rest, c)
            if c > 0:
                if hi is None or bound < hi or (bound == hi and strict):
                    hi, hi_strict = bound, strict
            else:
                if lo is None or bound > lo or (bound == lo and strict):
                    lo, lo_strict = bound, strict
        if lo is None and hi is None:
            point[v] = Fraction(0)
        elif lo is None:
            point[v] = hi - 1 if hi_strict else hi
        elif hi is None:
            point[v] = lo + 1 if lo_strict else lo
        else:
            point[v] = (lo + hi) / 2 if (lo_strict or hi_strict) else lo
    return FMResult(True, point=point)


def cone_membership(target, generators, lines=()):
    """Is target in cone(generators) + span(lines)?  Returns (nonneg
    lambdas, line coefficients) or None.  All vectors are rational tuples.
    """
    k, l = len(generators), len(lines)
    nvars = k + 2 * l  # lambdas >= 0, lines split into +/- parts
    cons = []
    for d, t in enumerate(target):
        coeffs = [g[d] for g in generators]
        for ln in lines:
            coeffs += [ln[d], -ln[d]]
        cons.append((coeffs, "=", t))
    for i in range(nvars):
        coeffs = [0] * nvars
        coeffs[i] = -1
        cons.append((coeffs, "<=", 0))
    res = solve(cons, nvars)
    if not res.feasible:
        return None
    lambdas = res.point[:k]
    mus = [res.point[k + 2 * j] - res.point[k + 2 * j + 1] for j in range(l)]
    return lambdas, mus


def separating_functional(target, generators, orthogonal_to=()):
    """A rational vector y with y.g <= 0 for all generators, y.e = 0 for the
    orthogonal set, and y.target > 0 -- a Farkas witness that target is not
    in cone(generators) + span(orthogonal_to).  None if no such y exists."""
    cons = [(list(g), "<=", 0) for g in generators]
    cons += [(list(o), "=", 0) for o in orthogonal_to]
    cons.append(([-t for t in target], "<", 0))
    res = solve(cons, len(target))
    return res.point if res.feasible else None
