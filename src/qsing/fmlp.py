"""Exact rational linear feasibility by Fourier-Motzkin elimination.

Systems are lists of constraints  sum c_i x_i  (rel)  rhs  with rel in
{"<=", "<", "="} and int or Fraction (any exact rational) data.
Elimination runs on plain Python integers: each input row is multiplied
once by the lcm of its denominators, and each derived row
b*upper + a*lower is divided by the gcd of its coefficients and
right-hand side.  Both factors are positive, so by induction every row
is a positive multiple of the row that elimination on Fractions builds: the
same inequality, in the same order, giving the same bound rest/c on its
variable.  Back-substitution compares those bounds as integer pairs and
divides, in Fractions, only for the bounds it picks.  Feasibility and the
point are therefore exactly those of the Fraction computation.
Dimensions here are tiny (r <= 5), where FM is exact and fast.
"""

import math
from fractions import Fraction


def _rational(x):
    """x as an exact rational: itself when an int, an int when a string of
    an optional minus sign and ASCII digits (the strings a certificate
    holds most), else Fraction(x), which parses or rejects the rest.  A
    bool or a float raises ValueError: a JSON true is not the number 1, and
    a JSON 0.1 is a binary float, not the rational 1/10 it was written as."""
    if type(x) is int:
        return x
    if type(x) is str:
        digits = x[1:] if x[:1] == "-" else x
        if digits.isdigit() and digits.isascii():
            return int(x)
    elif type(x) is bool or type(x) is float:
        raise ValueError(f"{x!r} is not a rational")
    return Fraction(x)


def int_row(values):
    """values (anything Fraction takes) times the lcm of their denominators,
    as ints, with the lcm."""
    if all(type(x) is int for x in values):
        return list(values), 1
    values = [_rational(x) for x in values]
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def solve(constraints, nvars):
    """A point of { x in Q^nvars : constraints } as a list of Fractions,
    found by back-substitution through the elimination levels, or None
    when the system is infeasible.  A row whose length is not nvars, or
    whose relation is not "<=", "<" or "=", raises ValueError.
    """
    # a row is one int list, coefficients then rhs, with its strictness
    # beside it: each combination below is one list
    rows = []
    for k, (coeffs, rel, rhs) in enumerate(constraints):
        if len(coeffs) != nvars:
            raise ValueError(f"row {k} has {len(coeffs)} coefficients "
                             f"for {nvars} variables")
        if rel not in ("<=", "<", "="):
            raise ValueError(f"row {k} has relation {rel!r}, not <=, < or =")
        row = int_row([*coeffs, rhs])[0]
        rows.append((row, rel == "<"))
        if rel == "=":
            rows.append(([-x for x in row], False))

    levels = []  # per eliminated variable: rows at that level
    cur = rows
    for v in range(nvars):
        levels.append(cur)
        lower, upper, new = [], [], []
        for row in cur:
            c = row[0][v]
            (upper if c > 0 else lower if c < 0 else new).append(row)
        for low, lstrict in lower:
            b = -low[v]
            for up, ustrict in upper:
                a = up[v]
                # b*upper + a*lower eliminates v
                row = [b * u + a * l for u, l in zip(up, low)]
                g = math.gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                new.append((row, lstrict or ustrict))
        cur = new

    # ground facts: all coefficients zero
    for row, strict in cur:
        assert not any(row[:nvars])
        rhs = row[nvars]
        if rhs < 0 or (strict and rhs == 0):
            return None

    # back-substitute a feasible point.  At each level the later
    # coordinates are nums/den, and a row's bound rest/c on its variable is
    # kept as (n, m, strict), meaning n/(m*den) with m > 0: bounds compare
    # by cross-multiplying, and only the two kept become Fractions
    point = [Fraction(0)] * nvars
    for v in range(nvars - 1, -1, -1):
        nums, den = int_row(point[v + 1:])
        best = {}  # side 1: the least upper bound, -1: the greatest lower one
        for row, strict in levels[v]:
            if row[v]:
                side = 1 if row[v] > 0 else -1
                n = side * (row[nvars] * den - sum(
                    a * x for a, x in zip(row[v + 1:nvars], nums)))
                m, old = side * row[v], best.get(side)
                cmp = -1 if old is None else side * (n * old[1] - old[0] * m)
                if cmp < 0 or (cmp == 0 and strict):
                    best[side] = (n, m, strict)
        (lo, lo_strict), (hi, hi_strict) = [
            (Fraction(b[0], b[1] * den), b[2]) if b else (None, False)
            for b in (best.get(-1), best.get(1))]
        if lo is None and hi is None:
            point[v] = Fraction(0)
        elif lo is None:
            point[v] = hi - 1 if hi_strict else hi
        elif hi is None:
            point[v] = lo + 1 if lo_strict else lo
        else:
            point[v] = (lo + hi) / 2 if (lo_strict or hi_strict) else lo
    return point


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
    point = solve(cons, nvars)
    if point is None:
        return None
    lambdas = point[:k]
    mus = [point[k + 2 * j] - point[k + 2 * j + 1] for j in range(l)]
    return lambdas, mus


def separating_functional(target, generators, orthogonal_to=()):
    """A rational vector y with y.g <= 0 for all generators, y.e = 0 for the
    orthogonal set, and y.target > 0 -- a Farkas witness that target is not
    in cone(generators) + span(orthogonal_to).  None if no such y exists."""
    cons = [(list(g), "<=", 0) for g in generators]
    cons += [(list(o), "=", 0) for o in orthogonal_to]
    cons.append(([-t for t in target], "<", 0))
    return solve(cons, len(target))
