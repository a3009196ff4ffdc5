"""Generic decomposition, prehomogeneity, perpendicular-category simples,
and evaluation of the fundamental semi-invariants c_S = det d^V_S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmat import det
from .quiver import Quiver, euler_form
from .roots import Representation, hom_matrix_dvw, hom_table


class NonSquareError(ValueError):
    pass


@dataclass(frozen=True)
class RepClass:
    """Isomorphism class of representations: multiset of roots with multiplicities."""

    parts: tuple  # tuple of (root tuple, multiplicity), roots pairwise distinct

    def total(self):
        n = len(self.parts[0][0])
        out = [0] * n
        for r, m in self.parts:
            for i, c in enumerate(r):
                out[i] += m * c
        return tuple(out)

    def as_multiset(self):
        out = []
        for r, m in self.parts:
            out.extend([r] * m)
        return sorted(out)


def make_class(parts) -> RepClass:
    merged = {}
    for r, m in parts:
        merged[tuple(r)] = merged.get(tuple(r), 0) + m
    return RepClass(tuple(sorted((r, m) for r, m in merged.items() if m > 0)))


def class_hom(table, cls: RepClass, other) -> int:
    """dim Hom(X, Y) by bilinearity, X a RepClass, Y a root or RepClass."""
    if isinstance(other, RepClass):
        return sum(
            mi * mj * table.hom[table.index[ri]][table.index[rj]]
            for ri, mi in cls.parts
            for rj, mj in other.parts
        )
    j = table.index[tuple(other)]
    return sum(m * table.hom[table.index[r]][j] for r, m in cls.parts)


def class_ext(table, cls: RepClass, other) -> int:
    if isinstance(other, RepClass):
        return sum(
            mi * mj * table.ext[table.index[ri]][table.index[rj]]
            for ri, mi in cls.parts
            for rj, mj in other.parts
        )
    j = table.index[tuple(other)]
    return sum(m * table.ext[table.index[r]][j] for r, m in cls.parts)


def class_self_ext(table, cls: RepClass) -> int:
    return class_ext(table, cls, cls)


def generic_decomposition(q: Quiver, alpha) -> RepClass:
    """The unique multiset of positive roots summing to alpha with all
    pairwise Ext vanishing (depth-first over roots in decreasing lex order)."""
    table = hom_table(q)
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("dimension vector must be nonnegative")
    if not any(alpha):
        return RepClass(())
    roots, ext, order = table.roots, table.ext, table.lex_desc

    chosen = []  # (root index, mult)

    def dfs(rem, pos):
        if not any(rem):
            return True
        # some vertex of rem lies in the support of no root from pos on
        if any(a and pos > last for a, last in zip(rem, table.last_support)):
            return False
        ri = order[pos]
        r = roots[ri]
        if all(ext[ri][c] == 0 and ext[c][ri] == 0 for c, _ in chosen):
            maxmult = min(a // c for a, c in zip(rem, r) if c)
            for mult in range(maxmult, 0, -1):
                chosen.append((ri, mult))
                if dfs(tuple(a - mult * c for a, c in zip(rem, r)), pos + 1):
                    return True
                chosen.pop()
        return dfs(rem, pos + 1)

    found = dfs(alpha, 0)
    assert found, "no ext-compatible decomposition found (should not happen on Dynkin)"
    cls = make_class([(roots[ri], m) for ri, m in chosen])
    assert cls.total() == alpha
    return cls


@dataclass(frozen=True)
class PerpData:
    """Dimension vectors of the simple objects of T-perp, lex sorted."""

    simples: tuple  # tuple of root tuples
    r: int


def perp_simples(q: Quiver, t_class: RepClass) -> PerpData:
    """Simples of the right perpendicular category of the generic T.

    Collect the positive roots beta with hom(T_i,beta) = ext(T_i,beta) = 0
    for every part T_i, then drop those expressible as an N-combination of
    at least two collected elements (a simple object has composition length
    one in T-perp, so it cannot split additively).
    """
    table = hom_table(q)
    perp = []
    for beta in table.roots:
        j = table.index[beta]
        if all(
            table.hom[table.index[r]][j] == 0 and table.ext[table.index[r]][j] == 0
            for r, _ in t_class.parts
        ):
            perp.append(beta)

    perp_set = sorted(perp)

    def is_sum(beta):
        # can beta be written as a sum of >= 2 elements of perp_set?
        n = len(beta)

        def dfs(rem, pos, count):
            if not any(rem):
                return count >= 2
            for p in range(pos, len(perp_set)):
                cand = perp_set[p]
                if all(cand[i] <= rem[i] for i in range(n)) and cand != beta:
                    if dfs(tuple(rem[i] - cand[i] for i in range(n)), p, count + 1):
                        return True
            return False

        return dfs(beta, 0, 0)

    simples = tuple(b for b in perp_set if not is_sum(b))
    m = len(t_class.parts)
    r = q.n - m
    if len(simples) != r:
        raise AssertionError(
            f"perpendicular simple count {len(simples)} != n - m = {r}; "
            "this indicates a bug, not a user error"
        )
    return PerpData(simples=simples, r=r)


def evaluate_semiinvariant(v: Representation, s: Representation) -> Fraction:
    """det d^V_S; defined when <dims V, dims S> = 0, zero iff Hom(V,S) != 0."""
    if euler_form(v.quiver, v.dims, s.dims) != 0:
        raise NonSquareError("Euler product nonzero: d^V_S is not square")
    m = hom_matrix_dvw(v, s)
    assert m.nrows == m.ncols
    return det(m)
