"""The canonical form of affine values, and their arithmetic and box
minima against the dict-and-sort reference ``affine_add`` and brute force
over box points."""

import itertools
import random

import pytest
from oracles import affine_add

from qsing.affine import (ZERO, aff_add, aff_from_json, aff_mul, aff_neg,
                          aff_of, aff_sub, aff_sym, aff_to_json, min_of,
                          with_symbol)

SYMBOLS = ("k1", "k2", "k3")


def is_canonical(x):
    const, coeffs = x
    names = [s for s, _ in coeffs]
    return (type(x) is tuple and len(x) == 2 and type(const) is int
            and type(coeffs) is tuple and names == sorted(set(names))
            and all(type(c) is int and c != 0 for _, c in coeffs))


def random_affine(rng):
    """A canonical value in k1..k3, built without the package's arithmetic,
    with coefficients small enough that sums often cancel."""
    names = sorted(rng.sample(SYMBOLS, rng.randint(0, 3)))
    return (rng.randint(-4, 4),
            tuple((s, rng.choice([-2, -1, 1, 2])) for s in names))


def times(x, k):
    """x added to itself k >= 0 times by the reference."""
    total = ZERO
    for _ in range(k):
        total = affine_add(total, x)
    return total


def test_zero_coefficients_are_dropped():
    assert aff_sym("k", 0) == aff_of(0) == (0, ())
    assert aff_from_json({"const": "1", "coeffs": {"k1": "0"}}) == (1, ())
    assert aff_from_json({"const": "1", "coeffs": {"k2": "3", "k1": "0"}}) \
        == (1, (("k2", 3),))


@pytest.mark.parametrize("value", [True, False])
def test_bools_are_not_integers(value):
    """A bool has denominator 1, but a JSON true or false is no integer:
    every way into an affine value rejects it."""
    for make in (lambda: aff_from_json({"const": value, "coeffs": {}}),
                 lambda: aff_from_json({"const": "0", "coeffs": {"k1": value}}),
                 lambda: aff_of(value), lambda: aff_sym("k1", value),
                 lambda: aff_mul(aff_sym("k1"), value)):
        with pytest.raises(ValueError, match=f"^{value} is not an integer$"):
            make()


def test_every_constructor_is_canonical():
    rng = random.Random(20261019)
    for _ in range(500):
        x, y, c = random_affine(rng), random_affine(rng), rng.randint(-3, 3)
        # a JSON object in any key order, zero coefficients included
        coeffs = {s: str(rng.randint(-1, 1))
                  for s in rng.sample(SYMBOLS, rng.randint(0, 3))}
        cc = aff_of(c)
        made = [cc, aff_sym(rng.choice(SYMBOLS), c),
                aff_from_json({"const": str(c), "coeffs": coeffs}),
                aff_from_json(aff_to_json(x)), aff_add(x, y), aff_add(x, cc),
                aff_add(cc, x), aff_sub(x, y), aff_sub(x, cc), aff_neg(x),
                aff_mul(x, c), aff_mul(cc, c)]
        for z in made:
            assert is_canonical(z), z


def test_arithmetic_matches_the_reference():
    rng = random.Random(2026101901)
    for _ in range(2000):
        x, y, c = random_affine(rng), random_affine(rng), rng.randint(-3, 3)
        cc = aff_of(c)
        assert aff_add(x, y) == affine_add(x, y)
        assert aff_add(x, cc) == aff_add(cc, x) == affine_add(x, cc)
        assert affine_add(aff_sub(x, y), y) == x
        assert affine_add(aff_sub(x, cc), cc) == x
        assert affine_add(aff_neg(x), x) == ZERO
        if c >= 0:
            assert aff_mul(x, c) == times(x, c)
        else:
            assert affine_add(aff_mul(x, c), times(x, -c)) == ZERO
    k1 = aff_sym("k1")
    assert aff_add(k1, ZERO) == aff_mul(k1, 1) == k1 and not aff_sub(k1, k1)[1]


def brute_min(box, x):
    """The minimum of x over the box's points, each symbol run from its
    lower bound lo up to lo + 3; None where a negative coefficient makes
    it -infinity, as no symbol has an upper bound."""
    const, coeffs = x
    if any(c < 0 for _, c in coeffs):
        return None
    names = list(box)
    ranges = [range(lo, lo + 4) for lo in box.values()]
    return min(const + sum(dict(coeffs).get(s, 0) * v for s, v in zip(names, p))
               for p in itertools.product(*ranges))


def test_box_extremes_match_brute_force():
    """The minimum over a box of lower bounds; there is no maximum to
    check, since every symbol is unbounded above."""
    rng = random.Random(2026101902)
    for _ in range(300):
        box = {}
        for s in SYMBOLS:
            box = with_symbol(box, s, rng.randint(0, 2))
        x = random_affine(rng)
        assert min_of(box, x) == brute_min(box, x), (box, x)
