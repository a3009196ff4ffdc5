"""Affine's canonical form, and its arithmetic and box extremes against the
dict-and-sort reference ``affine_add`` and brute force over box points."""

import itertools
import random

from oracles import affine_add

from qsing.affine import Affine, Box, aff_from_json, aff_to_json

SYMBOLS = ("k1", "k2", "k3")


def is_canonical(x):
    names = [s for s, _ in x.coeffs]
    return (type(x.const) is int and names == sorted(set(names))
            and all(type(c) is int and c != 0 for _, c in x.coeffs))


def random_affine(rng):
    """A canonical value in k1..k3, built without Affine's arithmetic, with
    coefficients small enough that sums often cancel."""
    names = sorted(rng.sample(SYMBOLS, rng.randint(0, 3)))
    return Affine(rng.randint(-4, 4),
                  tuple((s, rng.choice([-2, -1, 1, 2])) for s in names))


def times(x, k):
    """x added to itself k >= 0 times by the reference."""
    total = Affine(0)
    for _ in range(k):
        total = affine_add(total, x)
    return total


def test_zero_coefficients_are_dropped():
    assert Affine.sym("k", 0) == Affine(0)
    assert aff_from_json({"const": "1", "coeffs": {"k1": "0"}}) == Affine(1)
    assert aff_from_json({"const": "1", "coeffs": {"k2": "3", "k1": "0"}}) \
        == Affine(1, (("k2", 3),))


def test_every_constructor_is_canonical():
    rng = random.Random(20261019)
    for _ in range(500):
        x, y, c = random_affine(rng), random_affine(rng), rng.randint(-3, 3)
        # a JSON object in any key order, zero coefficients included
        coeffs = {s: str(rng.randint(-1, 1))
                  for s in rng.sample(SYMBOLS, rng.randint(0, 3))}
        made = [Affine.of(c), Affine.sym(rng.choice(SYMBOLS), c),
                aff_from_json({"const": str(c), "coeffs": coeffs}),
                aff_from_json(aff_to_json(x)), x + y, x + c, c + x, x - y,
                x - c, -x, x * c, c * x]
        for z in made:
            assert is_canonical(z), z


def test_arithmetic_matches_the_reference():
    rng = random.Random(2026101901)
    for _ in range(2000):
        x, y, c = random_affine(rng), random_affine(rng), rng.randint(-3, 3)
        assert x + y == affine_add(x, y)
        assert x + c == c + x == affine_add(x, Affine(c))
        assert affine_add(x - y, y) == x
        assert affine_add(x - c, Affine(c)) == x
        assert affine_add(-x, x) == Affine(0)
        if c >= 0:
            assert x * c == c * x == times(x, c)
        else:
            assert affine_add(x * c, times(x, -c)) == Affine(0)
    k1 = Affine.sym("k1")
    assert k1 + 0 == k1 * 1 == k1 and (k1 - k1).is_const()


def brute_extremes(box, x):
    """min and max of x over the box's points, an unbounded symbol run up
    to lo + 3; None where a coefficient on an unbounded symbol makes the
    extreme infinite."""
    names = [s for s, _, _ in box.domains]
    ranges = [range(lo, (lo + 3 if hi is None else hi) + 1)
              for _, lo, hi in box.domains]
    coeffs = dict(x.coeffs)
    values = [x.const + sum(coeffs.get(s, 0) * v for s, v in zip(names, p))
              for p in itertools.product(*ranges)]
    unbounded = {s for s, _, hi in box.domains if hi is None}
    lo_inf = any(c < 0 and s in unbounded for s, c in x.coeffs)
    hi_inf = any(c > 0 and s in unbounded for s, c in x.coeffs)
    return None if lo_inf else min(values), None if hi_inf else max(values)


def test_box_extremes_match_brute_force():
    rng = random.Random(2026101902)
    for _ in range(300):
        box = Box()
        for s in SYMBOLS:
            lo = rng.randint(0, 2)
            box = box.with_symbol(s, lo, rng.choice([None, lo + rng.randint(0, 3)]))
        x = random_affine(rng)
        assert (box.min_of(x), box.max_of(x)) == brute_extremes(box, x), (box, x)
