"""Affine expressions over named integer parameters with box domains.

The case-split driver tracks branch parameters (k1, k2, ...) symbolically:
a value like n+m-k1 is an Affine; queries ("is this >= 1 on the whole
box?") reduce to evaluating the affine minimum/maximum over the box, which
is exact because each parameter appears independently.

The constant and every coefficient are Python ints, and nothing divides:
every value the certifier builds is an integer (bracket endpoints, case
values -o, -k and k, box bounds).  A non-integer given to ``Affine.of``,
``Affine.sym``, ``*`` or ``aff_from_json`` raises ValueError.

Every Affine is canonical: its coefficients are sorted by symbol, one per
symbol, none zero.  ``of``, ``sym``, ``aff_from_json`` and the arithmetic
build only canonical values, and callers of ``Affine(const, coeffs)`` pass
canonical coefficients; so equal expressions are equal objects, and
``x + c`` and ``x * 1`` keep x's coefficients as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

INF = None  # upper bound marker for unbounded symbols


def _int(x):
    """x as an int: an int, a rational with denominator 1, or a decimal
    integer string.  Anything else (1/2, "1/2", 0.5) raises ValueError."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    elif getattr(x, "denominator", None) == 1:
        return int(x.numerator)
    raise ValueError(f"{x!r} is not an integer")


@dataclass(frozen=True)
class Affine:
    const: int
    coeffs: tuple = ()  # sorted tuple of (symbol, int coefficient)

    @staticmethod
    def of(x):
        if isinstance(x, Affine):
            return x
        return Affine(_int(x))

    @staticmethod
    def sym(name, coeff=1):
        coeff = _int(coeff)
        return Affine(0, ((name, coeff),) if coeff else ())

    def __add__(self, other):
        if type(other) is not Affine:
            other = Affine(_int(other))
        if not other.coeffs:
            return Affine(self.const + other.const, self.coeffs) if other.const else self
        if not self.coeffs:
            return Affine(self.const + other.const, other.coeffs)
        m = dict(self.coeffs)
        for s, c in other.coeffs:
            m[s] = m.get(s, 0) + c
        return Affine(self.const + other.const,
                      tuple(sorted((s, c) for s, c in m.items() if c)))

    __radd__ = __add__

    def __neg__(self):
        return Affine(-self.const, tuple((s, -c) for s, c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if type(other) is int else -Affine.of(other))

    def __mul__(self, k):
        k = _int(k)
        if k == 1:
            return self
        if not k:
            return Affine(0)
        return Affine(self.const * k, tuple((s, c * k) for s, c in self.coeffs))

    __rmul__ = __mul__

    def is_const(self):
        return not self.coeffs


@dataclass(frozen=True)
class Box:
    """Independent integer domains lo <= k <= hi (hi may be None = infinity)."""

    domains: tuple = ()  # sorted tuple of (symbol, lo, hi)

    def with_symbol(self, name, lo, hi=INF):
        if any(s == name for s, _, _ in self.domains):
            raise ValueError(f"symbol {name} is already bound")
        new = (name, int(lo), None if hi is INF else int(hi))
        return Box(tuple(sorted(self.domains + (new,))))

    def bounds(self, name):
        for s, l, h in self.domains:
            if s == name:
                return l, h
        raise KeyError(name)

    def min_of(self, expr: Affine):
        """Exact minimum of expr over the box; None means -infinity."""
        val = expr.const
        for s, c in expr.coeffs:
            lo, hi = self.bounds(s)
            if c < 0 and hi is None:
                return None
            val += c * (lo if c > 0 else hi)
        return val

    def max_of(self, expr: Affine):
        """Exact maximum over the box; None means +infinity."""
        mn = self.min_of(-expr)
        return None if mn is None else -mn


def aff_to_json(a: Affine):
    return {"const": str(a.const), "coeffs": {s: str(c) for s, c in a.coeffs}}


def aff_from_json(d) -> Affine:
    coeffs = ((s, _int(c)) for s, c in d["coeffs"].items())
    return Affine(_int(d["const"]), tuple(sorted((s, c) for s, c in coeffs if c)))
