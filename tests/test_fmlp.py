import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsing.fmlp import cone_membership, int_row, separating_functional, solve


def reference_solve(constraints, nvars):
    """Fourier-Motzkin elimination on Fraction rows, without any scaling:
    the oracle for `solve`.  Returns (feasible, point or Farkas vector)."""
    rows = []
    for k, (coeffs, rel, rhs) in enumerate(constraints):
        coeffs, rhs = [Fraction(c) for c in coeffs], Fraction(rhs)
        prov = [Fraction(int(i == k)) for i in range(len(constraints))]
        if rel == "=":
            rows.append((coeffs, "<=", rhs, prov))
            rows.append(([-c for c in coeffs], "<=", -rhs, [-p for p in prov]))
        else:
            rows.append((coeffs, rel, rhs, prov))
    levels, cur = [], rows
    for v in range(nvars):
        levels.append(cur)
        lower = [r for r in cur if r[0][v] < 0]
        upper = [r for r in cur if r[0][v] > 0]
        new = [r for r in cur if r[0][v] == 0]
        for lc, lrel, lrhs, lprov in lower:
            for uc, urel, urhs, uprov in upper:
                a, b = uc[v], -lc[v]
                new.append(([b * u + a * l for u, l in zip(uc, lc)],
                            "<" if "<" in (lrel, urel) else "<=",
                            b * urhs + a * lrhs,
                            [b * u + a * l for u, l in zip(uprov, lprov)]))
        cur = new
    for _, rel, rhs, prov in cur:
        if (rhs < 0) if rel == "<=" else (rhs <= 0):
            return False, prov
    point = [Fraction(0)] * nvars
    for v in range(nvars - 1, -1, -1):
        lo, hi, lo_strict, hi_strict = None, None, False, False
        for coeffs, rel, rhs, _ in levels[v]:
            c = coeffs[v]
            if c == 0:
                continue
            bound = (rhs - sum(coeffs[i] * point[i]
                               for i in range(v + 1, nvars))) / c
            if c > 0:
                if hi is None or bound < hi or (bound == hi and rel == "<"):
                    hi, hi_strict = bound, rel == "<"
            elif lo is None or bound > lo or (bound == lo and rel == "<"):
                lo, lo_strict = bound, rel == "<"
        if lo is None and hi is None:
            point[v] = Fraction(0)
        elif lo is None:
            point[v] = hi - 1 if hi_strict else hi
        elif hi is None:
            point[v] = lo + 1 if lo_strict else lo
        else:
            point[v] = (lo + hi) / 2 if (lo_strict or hi_strict) else lo
    return True, point


def assert_farkas(constraints, m):
    """m certifies infeasibility: nonnegative on inequality rows, zero
    combined coefficients, and a combined constant violating the relation
    (c < 0, or c <= 0 when a strict row carries weight)."""
    assert len(m) == len(constraints)
    for (_, rel, _), mi in zip(constraints, m):
        assert rel == "=" or mi >= 0
    nvars = len(constraints[0][0])
    for j in range(nvars):
        assert sum(mi * Fraction(con[0][j])
                   for mi, con in zip(m, constraints)) == 0
    c = sum(mi * Fraction(con[2]) for mi, con in zip(m, constraints))
    strict = any(mi > 0 for (_, rel, _), mi in zip(constraints, m)
                 if rel == "<")
    assert c < 0 or (strict and c == 0)


def test_feasible_point_satisfies_system():
    cons = [([1, 1], "<=", 4), ([-1, 0], "<=", 0), ([0, -1], "<=", 0),
            ([1, -1], "<", 2)]
    res = solve(cons, 2)
    assert res.feasible
    x = res.point
    assert x[0] + x[1] <= 4 and x[0] >= 0 and x[1] >= 0 and x[0] - x[1] < 2


def test_infeasible_gives_farkas():
    cons = [([1], "<=", 0), ([-1], "<", -1)]  # x <= 0 and x > 1
    res = solve(cons, 1)
    assert not res.feasible
    y = res.farkas
    assert all(v >= 0 for v in y)
    # the combination has zero coefficients and a violated constant
    total_coeff = y[0] * 1 + y[1] * (-1)
    total_rhs = y[0] * 0 + y[1] * (-1)
    assert total_coeff == 0 and total_rhs < 0


def test_equality_handling():
    res = solve([([2, 1], "=", 5), ([-1, 0], "<=", 0), ([0, -1], "<=", 0)], 2)
    assert res.feasible
    assert 2 * res.point[0] + res.point[1] == 5


def test_cone_membership_basic():
    got = cone_membership((1, 1, 1), [(0, 1, 1), (1, 1, 0)])
    assert got is None
    lam, mus = cone_membership((1, 2, 1), [(0, 1, 1), (1, 1, 0)])
    assert lam == [1, 1] and mus == []


def test_cone_membership_with_lines():
    gens, lines = [(0, 1, 1), (1, 1, 0)], [(1, 0, 0)]
    got = cone_membership((1, 1, 1), gens, lines=lines)
    assert got is not None
    lam, mus = got
    assert len(lam) == len(gens) and len(mus) == len(lines)
    assert all(x >= 0 for x in lam)
    total = [sum(c * v[d] for c, v in zip([*lam, *mus], gens + lines))
             for d in range(3)]
    assert total == [1, 1, 1]


def test_separating_functional_certifies():
    gens = [(0, 1, 1), (1, 1, 0)]
    y = separating_functional((1, 1, 1), gens)
    assert y is not None
    assert all(sum(a * b for a, b in zip(y, g)) <= 0 for g in gens)
    assert sum(y) > 0
    # no separating functional when the target is inside
    assert separating_functional((1, 2, 1), gens) is None


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_membership_and_separation_are_exclusive(gens):
    gens = [g for g in gens if any(g)]
    if not gens:
        return
    target = (1, 1)
    member = cone_membership(target, gens)
    sep = separating_functional(target, gens)
    assert (member is None) != (sep is None)
    if member is not None:
        lam, _ = member
        combo = [sum(l * g[d] for l, g in zip(lam, gens)) for d in range(2)]
        assert combo == [1, 1] and all(l >= 0 for l in lam)


RATIONALS = st.one_of(st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def systems(draw):
    nvars = draw(st.integers(1, 4))
    row = st.tuples(st.lists(RATIONALS, min_size=nvars, max_size=nvars),
                    st.sampled_from(("<=", "<", "=")), RATIONALS)
    return draw(st.lists(row, min_size=1, max_size=5)), nvars


@given(systems())
@settings(max_examples=400, deadline=None)
def test_solve_matches_fraction_oracle(system):
    """Integer rows give the oracle's verdict and point exactly; on
    infeasible systems the integer Farkas vector is a valid certificate and
    a positive multiple of the oracle's."""
    constraints, nvars = system
    feasible, ref = reference_solve(constraints, nvars)
    res = solve(constraints, nvars)
    assert res.feasible == feasible
    if feasible:
        assert res.point == ref
        assert all(type(x) is Fraction for x in res.point)
        return
    assert all(type(x) is int for x in res.farkas)
    assert_farkas(constraints, res.farkas)
    ratios = {Fraction(a) / b for a, b in zip(res.farkas, ref) if b}
    assert len(ratios) == 1 and ratios.pop() > 0
    assert [a == 0 for a in res.farkas] == [b == 0 for b in ref]


def test_oracle_differential_sees_both_verdicts():
    """The system strategy is not one-sided: a fixed draw of it holds both
    feasible and infeasible systems."""
    verdicts = set()

    @given(systems())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def collect(system):
        verdicts.add(reference_solve(*system)[0])

    collect()
    assert verdicts == {True, False}


def test_fractional_rows_scale_to_integers():
    # 1/2 x <= 1/3 and -x < -2/3 (x > 2/3): infeasible; the row scales are
    # 6 and 3, so the Farkas vector is integral
    cons = [([Fraction(1, 2)], "<=", Fraction(1, 3)),
            ([-1], "<", Fraction(-2, 3))]
    res = solve(cons, 1)
    assert not res.feasible
    assert all(type(x) is int for x in res.farkas)
    assert_farkas(cons, res.farkas)
    # 1/3 < x <= 2/3: the midpoint, since the lower bound is strict
    res = solve([([Fraction(1, 2)], "<=", Fraction(1, 3)),
                 ([-1], "<", Fraction(-1, 3))], 1)
    assert res.feasible and res.point == [Fraction(1, 2)]


def test_malformed_rows_raise_value_error():
    # an unknown relation used to be read as "<=" under python -O, which
    # made this system feasible at x = 0; a short row was truncated
    with pytest.raises(ValueError, match="relation '>='"):
        solve([([1], ">=", 1), ([1], "<=", 0)], 1)
    with pytest.raises(ValueError, match="1 coefficients for 2 variables"):
        solve([([1, 0], "<=", 1), ([1], "<=", 0)], 2)
    with pytest.raises(ValueError, match="3 coefficients for 2 variables"):
        solve([([1, 0, 5], "<", 1)], 2)


def fraction_int_row(values):
    """int_row as written on Fractions alone: every value through
    Fraction, then scaled by the lcm of the denominators."""
    values = [Fraction(x) for x in values]
    scale = 1
    for x in values:
        scale = scale * x.denominator // math.gcd(scale, x.denominator)
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _outcome(f, values):
    try:
        return f(values)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# strings a certificate may hold, well-formed or not: int() reads some
# that Fraction does not, and the reverse
ODD_STRINGS = ["0", "-0", "007", "-12", "+3", " 4", "5 ", "1_000", "\u0663",
               "\u00b2", "1.5", "1e2", "-", "--1", "", "x", "1/0", "3/-4",
               "-6/4", " -1/2 "]


@given(st.lists(st.one_of(
    st.integers(-50, 50),
    st.fractions(max_denominator=12).filter(lambda f: abs(f) < 50),
    st.integers(-50, 50).map(str),
    st.fractions(max_denominator=12).map(str),
    st.sampled_from(ODD_STRINGS)), max_size=5))
@settings(max_examples=400, deadline=None)
def test_int_row_matches_the_fraction_parse(values):
    """int_row reads integer strings as ints, and everything else through
    Fraction, so every row gives the Fraction parse's ints and scale, or
    its error, exactly."""
    assert _outcome(int_row, values) == _outcome(fraction_int_row, values)
