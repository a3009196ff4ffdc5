import math
from fractions import Fraction

import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

from qsing.fmlp import cone_membership, int_row, separating_functional, solve


class OracleTooLarge(Exception):
    """reference_solve would build a level of more than max_rows rows."""


def reference_solve(constraints, nvars, max_rows=math.inf):
    """Fourier-Motzkin elimination on Fraction rows, without any scaling:
    the oracle for `solve`.  Returns the point, or None when infeasible.
    Raises OracleTooLarge rather than build a level of more than max_rows
    rows: with every equality doubled, a dense system of six equalities in
    four variables pairs millions of rows at the last level."""
    rows = []
    for coeffs, rel, rhs in constraints:
        coeffs, rhs = [Fraction(c) for c in coeffs], Fraction(rhs)
        if rel == "=":
            rows.append((coeffs, "<=", rhs))
            rows.append(([-c for c in coeffs], "<=", -rhs))
        else:
            rows.append((coeffs, rel, rhs))
    levels, cur = [], rows
    for v in range(nvars):
        levels.append(cur)
        lower = [r for r in cur if r[0][v] < 0]
        upper = [r for r in cur if r[0][v] > 0]
        new = [r for r in cur if r[0][v] == 0]
        if len(new) + len(lower) * len(upper) > max_rows:
            raise OracleTooLarge
        for lc, lrel, lrhs in lower:
            for uc, urel, urhs in upper:
                a, b = uc[v], -lc[v]
                new.append(([b * u + a * l for u, l in zip(uc, lc)],
                            "<" if "<" in (lrel, urel) else "<=",
                            b * urhs + a * lrhs))
        cur = new
    for _, rel, rhs in cur:
        if (rhs < 0) if rel == "<=" else (rhs <= 0):
            return None
    point = [Fraction(0)] * nvars
    for v in range(nvars - 1, -1, -1):
        lo, hi, lo_strict, hi_strict = None, None, False, False
        for coeffs, rel, rhs in levels[v]:
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
    return point


def test_feasible_point_satisfies_system():
    cons = [([1, 1], "<=", 4), ([-1, 0], "<=", 0), ([0, -1], "<=", 0),
            ([1, -1], "<", 2)]
    x = solve(cons, 2)
    assert x is not None
    assert x[0] + x[1] <= 4 and x[0] >= 0 and x[1] >= 0 and x[0] - x[1] < 2


def test_infeasible_gives_none():
    cons = [([1], "<=", 0), ([-1], "<", -1)]  # x <= 0 and x > 1
    assert solve(cons, 1) is None


def test_equality_handling():
    x = solve([([2, 1], "=", 5), ([-1, 0], "<=", 0), ([0, -1], "<=", 0)], 2)
    assert x is not None
    assert 2 * x[0] + x[1] == 5


@pytest.mark.parametrize("system, nvars, expected", [
    # two equalities sharing x1: x0 + x1 = 3 and x0 - x1 = 1
    ([([1, 1], "=", 3), ([1, -1], "=", 1)], 2, [2, 1]),
    # an equality whose first nonzero coefficient is at x1, with x0 <= x1
    # and x2 >= 0 bounding the rest
    ([([0, 2, 1], "=", 4), ([1, -1, 0], "<=", 0), ([0, 0, -1], "<=", 0)], 3,
     [2, 2, 0]),
    # substituting x0 + x1 = 1 into 2 x0 + 2 x1 = 3 leaves 0 = 1
    ([([1, 1], "=", 1), ([2, 2], "=", 3)], 2, None),
    # x0 = x1 turns x0 + x1 < 2 into a strict row in x1 alone: 0 < x1 < 1
    ([([1, -1], "=", 0), ([1, 1], "<", 2), ([-1, 0], "<", 0)], 2,
     [Fraction(1, 2), Fraction(1, 2)]),
    # x0 = x1 turns x0 - x1 < 0 into the ground fact 0 < 0
    ([([1, -1], "=", 0), ([1, -1], "<", 0)], 2, None),
    # a duplicate equality substitutes to 0 = 0, which holds
    ([([1, 2], "=", 4), ([1, 2], "=", 4), ([0, -1], "<=", 0)], 2, [4, 0]),
    # equalities alone, with one solution
    ([([1, 1, 1], "=", 1), ([1, -1, 0], "=", Fraction(1, 2)),
      ([0, 3, -1], "=", 0)], 3, [Fraction(3, 5), Fraction(1, 10),
                                 Fraction(3, 10)]),
])
def test_equality_systems(system, nvars, expected):
    """Systems whose equalities `solve` substitutes, each against the
    Fraction oracle, which doubles every equality into two inequalities."""
    assert solve(system, nvars) == reference_solve(system, nvars) == expected


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


@st.composite
def equality_systems(draw):
    """Systems of at most 6 rows over at most 4 variables, at least half
    of them equalities.  The oracle's work grows doubly exponentially in
    these sizes, equalities doubled, so it is run through
    `bounded_oracle`."""
    nvars, size = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rels = ["="] * ((size + 1) // 2) + draw(st.lists(
        st.sampled_from(("<=", "<", "=")), min_size=size // 2,
        max_size=size // 2))
    coeffs = st.lists(RATIONALS, min_size=nvars, max_size=nvars)
    return [(draw(coeffs), rel, draw(RATIONALS))
            for rel in draw(st.permutations(rels))], nvars


# the most rows the oracle may build at one level for an equality system:
# a few percent of the draws exceed it
ORACLE_MAX_ROWS = 2000


def bounded_oracle(constraints, nvars):
    """reference_solve on a drawn system, or the draw rejected when the
    oracle would build a level of more than ORACLE_MAX_ROWS rows."""
    try:
        return reference_solve(constraints, nvars, max_rows=ORACLE_MAX_ROWS)
    except OracleTooLarge:
        reject()


def satisfies(constraints, point):
    """Whether point meets every row exactly."""
    for coeffs, rel, rhs in constraints:
        lhs = sum(Fraction(c) * x for c, x in zip(coeffs, point))
        if not {"<=": lhs <= rhs, "<": lhs < rhs, "=": lhs == rhs}[rel]:
            return False
    return True


@given(equality_systems())
@settings(max_examples=400, deadline=None)
def test_solve_matches_fraction_oracle_on_equalities(system):
    """Equalities are substituted, the oracle's are doubled: the same
    verdict and the same point.  Where the oracle is too large to run, a
    point from ``solve`` is checked against every row instead; only a
    draw there that ``solve`` calls infeasible is drawn again."""
    point = solve(*system)
    try:
        expected = reference_solve(*system, max_rows=ORACLE_MAX_ROWS)
    except OracleTooLarge:
        if point is None:
            reject()
        event("oracle too large: point checked against the rows")
        constraints, nvars = system
        assert len(point) == nvars and satisfies(constraints, point)
        return
    assert point == expected


@given(systems())
@settings(max_examples=400, deadline=None)
def test_solve_matches_fraction_oracle(system):
    """Integer rows give the oracle's verdict and point exactly: None on
    infeasible systems, the same Fractions on feasible ones."""
    point = solve(*system)
    assert point == reference_solve(*system)
    if point is not None:
        assert all(type(x) is Fraction for x in point)


def test_oracle_differential_sees_both_verdicts():
    """Neither system strategy is one-sided: a fixed draw of each holds
    both feasible and infeasible systems."""
    for strategy, oracle in ((systems(), reference_solve),
                             (equality_systems(), bounded_oracle)):
        verdicts = set()

        @given(strategy)
        @settings(max_examples=200, deadline=None, derandomize=True)
        def collect(system):
            verdicts.add(oracle(*system) is not None)

        collect()
        assert verdicts == {True, False}, strategy


def test_fractional_rows_scale_to_integers():
    # 1/2 x <= 1/3 and -x < -2/3 (x > 2/3): infeasible, with row scales
    # 6 and 3
    assert solve([([Fraction(1, 2)], "<=", Fraction(1, 3)),
                  ([-1], "<", Fraction(-2, 3))], 1) is None
    # 1/3 < x <= 2/3: the midpoint, since the lower bound is strict
    assert solve([([Fraction(1, 2)], "<=", Fraction(1, 3)),
                  ([-1], "<", Fraction(-1, 3))], 1) == [Fraction(1, 2)]


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


@pytest.mark.parametrize("values", [[True], [False], ["1", True], [Fraction(1, 2), False]])
def test_int_row_rejects_bools(values):
    """A JSON true or false is not the number 1 or 0, though Fraction takes
    it for one."""
    with pytest.raises(ValueError, match="is not a rational"):
        int_row(values)


@pytest.mark.parametrize("values", [[0.5], [1.0], ["1", 2.0], [Fraction(1, 2), -0.25]])
def test_int_row_rejects_floats(values):
    """A JSON number with a point is a binary float, which Fraction takes
    exactly, so 0.1 would be read as a number other than the one written;
    a certificate writes its rationals as strings."""
    with pytest.raises(ValueError, match="is not a rational"):
        int_row(values)
