"""Exact rational linear feasibility by Fourier-Motzkin elimination.

Systems are lists of constraints  sum c_i x_i  (rel)  rhs  with rel in
{"<=", "<", "="} and int or Fraction (any exact rational) data.
Elimination runs on plain Python integers: each input row is multiplied
once by the lcm of its denominators, and each derived row is divided by
the gcd of its coefficients and right-hand side.  A row keeps its
relation, so an equality stays one row.  At x_v, when some "=" row has a
nonzero coefficient there, the first such row is solved for x_v and
substituted into every other row with one (Dantzig-Eaves; Schrijver,
Theory of Linear and Integer Programming, 12.2); otherwise each row
bounding x_v from below is paired with each bounding it from above.

Both steps are exact projections: the rows at level v cut out the
projection of the solution set onto x_v..x_{n-1}, whichever step built
them, and so the same set as elimination with each equality doubled into
two "<=" rows, as in the Fraction oracle of the tests.  Back-substitution
fixes x_{n-1}, then x_{n-2}, and so on; once the later coordinates are
fixed, the rows at level v leave x_v an interval of that projection, and
the point picks from the interval's endpoints and their openness alone.
So the point, and feasibility, are those of the doubled Fraction
elimination, whatever rows realize the interval.  Back-substitution runs
on ints over one common denominator, and only the returned coordinates
become Fractions.  Dimensions here are tiny (r <= 5), where FM is exact
and fast.
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


def _combine(p, x, q, y):
    """The int row p*x + q*y divided by the gcd of its entries."""
    row = [p * a + q * b for a, b in zip(x, y)]
    g = math.gcd(*row)
    return [a // g for a in row] if g > 1 else row


def solve(constraints, nvars):
    """A point of { x in Q^nvars : constraints } as a list of Fractions,
    found by back-substitution through the elimination levels, or None
    when the system is infeasible.  A row whose length is not nvars, or
    whose relation is not "<=", "<" or "=", raises ValueError.

    A row keeps its relation through elimination.  At x_v, the first "="
    row with a nonzero coefficient there is substituted into every other
    row with one; only when no "=" row has x_v are the "<=" and "<" rows
    bounding x_v from below paired with those bounding it from above.  A
    ground fact rhs (rel) 0 must hold, so a "=" one needs rhs = 0.  In
    back-substitution a "=" row bounds x_v from both sides.
    """
    # a row is one int list, coefficients then rhs, with its relation
    # beside it: each combination below is one list
    rows = []
    for k, (coeffs, rel, rhs) in enumerate(constraints):
        if len(coeffs) != nvars:
            raise ValueError(f"row {k} has {len(coeffs)} coefficients "
                             f"for {nvars} variables")
        if rel not in ("<=", "<", "="):
            raise ValueError(f"row {k} has relation {rel!r}, not <=, < or =")
        rows.append((int_row([*coeffs, rhs])[0], rel))

    levels = []  # per eliminated variable: rows at that level
    cur = rows
    for v in range(nvars):
        levels.append(cur)
        new = [r for r in cur if not r[0][v]]
        eq = next((r for r in cur if r[1] == "=" and r[0][v]), None)
        if eq is not None:
            e, a = eq[0], eq[0][v]
            for r in cur:
                if r[0][v] and r is not eq:
                    # |a|*row - sign(a)*row[v]*e: x_v solved from e
                    b = r[0][v]
                    new.append((_combine(abs(a), r[0], -b if a > 0 else b, e),
                                r[1]))
        else:
            upper = [r for r in cur if r[0][v] > 0]
            for low, lrel in cur:
                if low[v] < 0:
                    for up, urel in upper:
                        # b*upper + a*lower eliminates v
                        new.append((_combine(-low[v], up, up[v], low),
                                    "<" if "<" in (lrel, urel) else "<="))
        cur = new

    # ground facts: all coefficients zero
    for row, rel in cur:
        assert not any(row[:nvars])
        rhs = row[nvars]
        if rhs < 0 or (rhs == 0 and rel == "<") or (rhs and rel == "="):
            return None

    # back-substitute a feasible point.  The coordinates found so far are
    # nums/den, den the lcm of their denominators.  A row's bound rest/c on
    # x_v is kept as (n, m, strict), meaning n/(m*den) with m > 0: bounds
    # compare by cross-multiplying, and only the returned point becomes
    # Fractions
    nums, den = [0] * nvars, 1
    for v in range(nvars - 1, -1, -1):
        best = {}  # side 1: the least upper bound, -1: the greatest lower one
        later = nums[v + 1:]
        for row, rel in levels[v]:
            c = row[v]
            if c:
                s = 1 if c > 0 else -1
                n = s * (row[nvars] * den - sum(
                    a * x for a, x in zip(row[v + 1:nvars], later)))
                m, strict = s * c, rel == "<"
                for side in (1, -1) if rel == "=" else (s,):
                    old = best.get(side)
                    cmp = -1 if old is None else side * (n * old[1] - old[0] * m)
                    if cmp < 0 or (cmp == 0 and strict):
                        best[side] = (n, m, strict)
        lo, hi = best.get(-1), best.get(1)
        if lo is None and hi is None:
            continue
        if lo is None:  # hi, or hi - 1 when strict
            num, d = hi[0] - (hi[1] * den if hi[2] else 0), hi[1] * den
        elif hi is None:  # lo, or lo + 1 when strict
            num, d = lo[0] + (lo[1] * den if lo[2] else 0), lo[1] * den
        elif lo[2] or hi[2]:  # the midpoint
            num, d = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1] * den
        else:  # lo
            num, d = lo[0], lo[1] * den
        g = math.gcd(num, d)
        num, d = num // g, d // g
        scale = d // math.gcd(den, d)
        if scale > 1:
            nums = [x * scale for x in nums]
            den *= scale
        nums[v] = num * (den // d)
    return [Fraction(x, den) for x in nums]


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
