"""Affine expressions over named integer parameters with box domains.

The case-split driver tracks branch parameters (k1, k2, ...) symbolically:
a value like n+m-k1 is an Affine; queries ("is this >= 1 on the whole
box?") reduce to evaluating the affine minimum/maximum over the box, which
is exact because each parameter appears independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

INF = None  # upper bound marker for unbounded symbols


@dataclass(frozen=True)
class Affine:
    const: Fraction
    coeffs: tuple = ()  # sorted tuple of (symbol, Fraction coefficient)

    @staticmethod
    def of(x):
        if isinstance(x, Affine):
            return x
        return Affine(Fraction(x))

    @staticmethod
    def sym(name, coeff=1):
        return Affine(Fraction(0), ((name, Fraction(coeff)),))

    def _map(self):
        return dict(self.coeffs)

    def __add__(self, other):
        other = Affine.of(other)
        m = self._map()
        for s, c in other.coeffs:
            m[s] = m.get(s, Fraction(0)) + c
        return Affine(self.const + other.const,
                      tuple(sorted((s, c) for s, c in m.items() if c)))

    __radd__ = __add__

    def __neg__(self):
        return Affine(-self.const, tuple((s, -c) for s, c in self.coeffs))

    def __sub__(self, other):
        return self + (-Affine.of(other))

    def __mul__(self, k):
        k = Fraction(k)
        if not k:
            return Affine(Fraction(0))
        return Affine(self.const * k, tuple((s, c * k) for s, c in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, k):
        return self * (Fraction(1) / Fraction(k))

    def is_const(self):
        return not self.coeffs


@dataclass(frozen=True)
class Box:
    """Independent integer domains lo <= k <= hi (hi may be None = infinity)."""

    domains: tuple = ()  # sorted tuple of (symbol, lo, hi)

    def with_symbol(self, name, lo, hi=INF):
        d = dict((s, (l, h)) for s, l, h in self.domains)
        assert name not in d
        d[name] = (int(lo), None if hi is INF else int(hi))
        return Box(tuple(sorted((s, l, h) for s, (l, h) in d.items())))

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
            if c > 0:
                val += c * lo
            elif c < 0:
                if hi is None:
                    return None
                val += c * hi
        return val

    def max_of(self, expr: Affine):
        """Exact maximum over the box; None means +infinity."""
        val = expr.const
        for s, c in expr.coeffs:
            lo, hi = self.bounds(s)
            if c > 0:
                if hi is None:
                    return None
                val += c * hi
            elif c < 0:
                val += c * lo
        return val


def aff_to_json(a: Affine):
    return {"const": str(a.const), "coeffs": {s: str(c) for s, c in a.coeffs}}


def aff_from_json(d) -> Affine:
    return Affine(Fraction(d["const"]),
                  tuple(sorted((s, Fraction(c)) for s, c in d["coeffs"].items())))
