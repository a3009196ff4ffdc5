"""Generic decomposition and perpendicular-category simples.

The generic decomposition T of alpha comes from one walk of alpha along the
admissible sink sequence, splitting off simples as the
Bernstein-Gelfand-Ponomarev reflection functors allow.  The simples S of
T-perp, whose semi-invariants c_S = det d^V_S cut out the zero sets, are
read off the Hom table: c_S vanishes at V exactly when Hom(V, S) != 0, so
no determinant is evaluated.  Neither needs a search; both read the
per-quiver context ``roots.hom_table``.  The walk is a few integer
operations per sink step, and the simples come from the context's per-root
bitmasks ``orth`` and ``below`` with one AND per part and one per
collected root, not from a scan of every pair of roots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import Quiver, dimension_vector
from .roots import hom_table


@dataclass(frozen=True)
class RepClass:
    """Isomorphism class of representations: multiset of roots with multiplicities."""

    parts: tuple  # tuple of (root tuple, multiplicity), roots pairwise distinct

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
    """The generic decomposition of alpha: the unique multiset of positive
    roots summing to alpha with all pairwise Ext vanishing.

    Walks alpha along the admissible sink sequence of ``hom_table``, with
    no search.  At step t, x = x_t is a sink of the current quiver, and the
    generic map from the neighbours into x has full rank, so S_x splits off
    the generic representation exactly k = max(0, alpha_x - sum_{y~x}
    alpha_y) times.  The reflection functor C^+_x is an equivalence on
    representations without an S_x summand and preserves Ext, so the rest
    stays rigid, hence generic, with dimension vector s_x(alpha - k e_x).
    The part split off at step t is the root the table walk reaches as the
    simple at x_t after t steps.  A root's walk ends at one step, so the
    parts split off at different steps are different roots and the class
    is the sorted list of parts, with nothing to merge.  The walk stops
    once ``left``, the total of the remainder, is 0; the remainder's
    coordinates stay nonnegative, so the remainder is then 0.
    """
    table = hom_table(q)
    alpha = dimension_vector(q, alpha)
    roots, rem, left = table.roots, list(alpha), sum(alpha)
    parts = []
    for x, nbrs, i in table.steps:
        if not left:
            break
        excess = a = rem[x]
        for y in nbrs:
            excess -= rem[y]
        if excess > 0:
            parts.append((roots[i], excess))
            excess = 0
        rem[x] = -excess  # coordinate x of s_x(alpha - k e_x)
        left -= a + excess
    if left:
        raise AssertionError(
            f"sink walk left {tuple(rem)} of {alpha}; "
            "this indicates a bug, not a user error"
        )
    return RepClass(tuple(sorted(parts)))


@dataclass(frozen=True)
class PerpData:
    """Dimension vectors of the simple objects of T-perp, lex sorted."""

    simples: tuple  # tuple of root tuples
    r: int


def perp_simples(q: Quiver, t_class: RepClass) -> PerpData:
    """Simples of the right perpendicular category of the generic T.

    Collect the positive roots beta with hom(T_i,beta) = ext(T_i,beta) = 0
    for every part T_i, then keep beta exactly when no other collected root
    beta' <= beta has hom(beta', beta) > 0.  T-perp is an exact abelian
    subcategory closed under images, so a nonzero map from an object of
    T-perp to a simple one there is onto, and an onto map beta' -> beta
    needs beta' >= beta.  A beta that is not simple contains a simple beta'
    of T-perp, which is a root with beta' <= beta and hom(beta', beta) > 0.
    Both steps read bitmasks of the context: the collected roots are the
    AND of ``orth`` over the parts, and a collected beta has such a beta'
    exactly when the collected set meets ``below[beta]``.
    """
    table = hom_table(q)
    perp = (1 << len(table.roots)) - 1
    for r, _ in t_class.parts:
        perp &= table.orth[table.index[r]]
    simples, rest = [], perp
    while rest:
        j = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if not perp & table.below[j]:
            simples.append(table.roots[j])
    simples = tuple(sorted(simples))
    m = len(t_class.parts)
    r = q.n - m
    if len(simples) != r:
        raise AssertionError(
            f"perpendicular simple count {len(simples)} != n - m = {r}; "
            "this indicates a bug, not a user error"
        )
    return PerpData(simples=simples, r=r)
