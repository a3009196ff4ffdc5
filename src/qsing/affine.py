"""Affine expressions over named integer parameters with box domains.

The case-split driver tracks branch parameters (k1, k2, ...) symbolically:
a value like n+m-k1 is an affine value; queries ("is this >= 1 on the
whole box?") reduce to evaluating the affine minimum over the box, which
is exact because each parameter appears independently.

An affine value is a plain tuple (const, coeffs): const is an int and
coeffs a tuple of (symbol, int coefficient) pairs, sorted by symbol, one
per symbol, none zero.  ``aff_of``, ``aff_sym``, ``aff_from_json`` and the
arithmetic build only this canonical form, so equal expressions are equal
tuples, and adding a constant or multiplying by 1 keeps the coefficients
as they are.  Nothing divides: every value the certifier builds is an
integer (bracket endpoints, case values -o, -k and k, lower bounds).  A
non-integer given to ``aff_of``, ``aff_sym``, ``aff_mul`` or
``aff_from_json`` raises ValueError, and so does a bool.

A box is a dict from each symbol to its least value: a symbol k with
lower bound lo ranges over the integers k >= lo, with no upper bound.
Every symbol the certifier binds is k >= 1 or k >= 0, and a parametric
family's n, m >= 1 would be bounded the same way.  ``with_symbol``
returns a new dict; nothing changes a box once built.
"""

from __future__ import annotations

ZERO = (0, ())


def _int(x):
    """x as an int: an int, a rational with denominator 1, or a decimal
    integer string.  Anything else (1/2, "1/2", 0.5, True) raises
    ValueError; a bool has denominator 1 but is not taken for 0 or 1."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    elif type(x) is not bool and getattr(x, "denominator", None) == 1:
        return int(x.numerator)
    raise ValueError(f"{x!r} is not an integer")


def aff_of(x):
    return (_int(x), ())


def aff_sym(name, coeff=1):
    coeff = _int(coeff)
    return (0, ((name, coeff),) if coeff else ())


def aff_add(x, y):
    c, xs = x
    d, ys = y
    if not ys:
        return (c + d, xs) if d else x
    if not xs:
        return (c + d, ys)
    m = dict(xs)
    for s, k in ys:
        m[s] = m.get(s, 0) + k
    return (c + d, tuple(sorted([(s, k) for s, k in m.items() if k])))


def aff_neg(x):
    c, xs = x
    return (-c, tuple([(s, -k) for s, k in xs]) if xs else xs)


def aff_sub(x, y):
    d, ys = y
    if not ys:
        return (x[0] - d, x[1]) if d else x
    return aff_add(x, aff_neg(y))


def aff_mul(x, k):
    if type(k) is not int:
        k = _int(k)
    if k == 1:
        return x
    if not k:
        return ZERO
    c, xs = x
    return (c * k, tuple([(s, v * k) for s, v in xs]) if xs else xs)


def with_symbol(box, name, lo):
    if name in box:
        raise ValueError(f"symbol {name} is already bound")
    return {**box, name: int(lo)}


def min_of(box, x):
    """Exact minimum of x over the box; None means -infinity, which a
    negative coefficient gives, as no symbol has an upper bound."""
    val, coeffs = x
    for s, c in coeffs:
        if c < 0:
            return None
        val += c * box[s]
    return val


def aff_to_json(a):
    return {"const": str(a[0]), "coeffs": {s: str(c) for s, c in a[1]}}


def aff_from_json(d):
    coeffs = ((s, _int(c)) for s, c in d["coeffs"].items())
    return (_int(d["const"]), tuple(sorted((s, c) for s, c in coeffs if c)))
