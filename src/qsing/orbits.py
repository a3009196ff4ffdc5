"""Orbit enumeration, degeneration (Hom-) order, zero sets of semi-invariants,
irreducible components, complete-intersection and reducedness analysis.

Degeneration order is implemented as the Hom-order: M degenerates to N iff
dim Hom(M,X) <= dim Hom(N,X) for every indecomposable X.  Semicontinuity
gives one direction; the converse for Dynkin quivers (Bongartz) is adopted
as an external fact and validated end-to-end on the worked examples.

Scale notes.  Dimension vectors and Hom profiles are integers packed w
bits per field with a spare guard bit on top (``_Packing``), so taking a
root off a remainder, or comparing two profiles in every field, is one
subtraction.  Every pass over the classes of alpha is one walk, ``_walk``:
a depth-first search on the packed remainder, carrying a packed integer
accumulator that only grows as parts are added, which cuts a branch once
the accumulator fails a test that every larger one fails too.

The accumulator of the two class walks (``_Bounds``) sums, over the partial
class C, Hom and Ext against the generic representation T of alpha and the
perpendicular simples S_j.  Each field is a lower bound on what every
completion X of C reaches, by three facts proved in ``_Bounds``: X lies in
the closure of the orbit of T, so (i) Ext(X,X) >= Ext(X,T), Ext(T,X);
(ii) Ext(X,T) >= max(Ext(C,T), Hom(C,T) - Hom(T,T)) and the same swapped;
and (iii) Hom(X,S_j) = Ext(X,S_j) >= Ext(C,S_j).
- ``enumerate_classes`` with ``max_self_ext = k`` cuts once the self-Ext
  of C or a bound (i)-(ii) exceeds k.  Components of Z(f_1,...,f_k) have
  codimension at most k (Krull), so ``components`` runs that walk and
  builds a class only at a leaf whose Hom(X,S_j) fields put it in the zero
  set.  On e8-notred it visits 21,787 nodes (59,634 with self-Ext alone).
- The reducedness survey keeps only rare classes (the Hom-dimension-one
  points, the per-index witness patterns and one Z' witness) and cuts once
  some Hom(X,S_j) must exceed 1 and the branch can no longer give a new Z'
  witness.  On e8-notred it visits 5,953 nodes (108,717 with the Hom and
  Ext sums of C alone) instead of all 1,543,628 classes.
- A minimal-degeneration check with codimension gap >= 2 sums packed Hom
  rows and walks only the classes whose profile stays below the target's.
The exact class count is a separate memoized count, run only when
``Survey.total`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .decomp import (
    PerpData,
    RepClass,
    class_hom,
    class_self_ext,
    generic_decomposition,
    perp_simples,
)
from .quiver import Quiver, require_dynkin
from .roots import HomTable, hom_table

# multiplicity bound guaranteeing the nullcone is reduced (Dynkin only)
REDUCED_BOUND = {"A": 1, "D": 2, "E": 2}


def reduced_bound(q: Quiver) -> int:
    cls = require_dynkin(q)
    return REDUCED_BOUND[cls.letter]


@dataclass
class _Packing:
    """``hom_table(q)`` packed w bits per field, each field's top bit a spare
    guard: no borrow crosses a field, and one subtraction compares them all."""

    table: HomTable
    w: int
    vguard: int  # the guard bits of a dimension vector, a field per vertex
    guard: int  # the guard bits of a Hom profile, a field per root
    roots: list  # the root at each walk position
    rows: list  # rows[i] = dim Hom(X_i, -), the Hom profile of root i
    rowsum: list  # the entry sum of rows[i]
    ext2: list  # ext2[p][p'] = Ext(R_p, R_p') + Ext(R_p', R_p), R_p the root at walk position p


@lru_cache(maxsize=None)
def _packed(q: Quiver, w: int) -> _Packing:
    t, top = hom_table(q), 1 << (w - 1)
    return _Packing(t, w, _pack([top] * q.n, w), _pack([top] * len(t.roots), w),
                    [_pack(t.roots[i], w) for i in t.walk],
                    [_pack(row, w) for row in t.hom], [sum(row) for row in t.hom],
                    [[t.ext[i][j] + t.ext[j][i] for j in t.walk] for i in t.walk])


def _packing(q: Quiver, alpha) -> _Packing:
    """The packing wide enough for alpha, every root and every Hom profile of
    a class of alpha: every positive root R lies below the highest root
    theta, so dim Hom(X, R) <= alpha . R <= alpha . theta.  Alpha alone is
    too narrow, since a root's coordinates can exceed alpha's."""
    top = hom_table(q).roots[-1]
    w = 1 + max(*top, sum(a * c for a, c in zip(alpha, top))).bit_length()
    return _packed(q, w)


def _geq(guard, a, b):
    """Every field of packed a is >= the same field of packed b."""
    return ((a | guard) - b) & guard == guard


def _profile(pk, cls):
    """The packed Hom profile of a class, and its entry sum."""
    ims = [(pk.table.index[r], m) for r, m in cls.parts]
    return sum(m * pk.rows[i] for i, m in ims), sum(m * pk.rowsum[i] for i, m in ims)


def _walk(pk, alpha, gain, fits):
    """Stream (chosen, acc) for the classes of ``alpha`` in depth-first walk
    order, each class at most once; ``chosen`` lists its (walk position,
    multiplicity) pairs and is reused, so copy it to keep it.

    The remainder's children are the roots from walk position ``minpos`` on
    whose first support vertex is its first nonzero vertex.  A root fits when
    d = (rem | guards) - root keeps every guard bit; d without them is the
    new remainder, and d - root tests one more copy.

    ``acc`` is an integer accumulator that starts at 0, and
    ``gain(p, chosen)`` is what one more copy of the root at walk position
    ``p`` adds to it, never negative.  A child is
    cut, with every larger multiplicity of its root, once ``fits`` fails on
    its accumulator.  ``fits`` must then fail after any further gain too,
    so a cut loses no class that passes it.  A caller with several sums
    packs them into one integer (``_pack``).
    """
    chosen = []
    start, end, vguard, roots, w = pk.table.start, pk.table.end, pk.vguard, pk.roots, pk.w

    def dfs(rem, minpos, acc):
        if not rem:
            yield chosen, acc
            return
        x = ((rem & -rem).bit_length() - 1) // w
        for p in range(max(minpos, start[x]), end[x]):
            rt = roots[p]
            d = (rem | vguard) - rt
            if d & vguard != vguard:
                continue
            g, mult, nacc = gain(p, chosen), 0, acc
            while d & vguard == vguard:
                mult, nacc = mult + 1, nacc + g
                if not fits(nacc):
                    break  # the accumulator is nondecreasing in mult
                chosen.append((p, mult))
                yield from dfs(d ^ vguard, p + 1, nacc)
                chosen.pop()
                d -= rt

    return dfs(_pack(alpha, w), 0, 0)


def _pack(values, w):
    """The nonnegative integers ``values`` as one integer, entry j in bits
    j*w and up.  Adding packed integers adds them entry by entry while
    every entry but the last stays below 2**w."""
    return sum(v << (w * j) for j, v in enumerate(values))


def _class_of(table, chosen):
    # a walk chooses each position at most once, so there is nothing to merge
    return RepClass(tuple(sorted((table.roots[table.walk[p]], m) for p, m in chosen)))


def _count_classes(pk, alpha):
    """The exact number of classes of alpha, over the same children as
    ``_walk``, memoized on (remaining vector, first admissible position).
    On the E8 example that is 6,663 states for 1,543,628 classes."""
    counted = {}
    start, end, vguard, roots = pk.table.start, pk.table.end, pk.vguard, pk.roots

    def count(rem, minpos):
        if not rem:
            return 1
        x = ((rem & -rem).bit_length() - 1) // pk.w
        state = (rem, max(minpos, start[x]))  # the same count for every lower minpos
        if state not in counted:
            counted[state] = 0
            for p in range(state[1], end[x]):
                d = (rem | vguard) - roots[p]
                while d & vguard == vguard:
                    counted[state] += count(d ^ vguard, p + 1)
                    d -= roots[p]
        return counted[state]

    return count(_pack(alpha, pk.w), 0)


def _acc_width(q: Quiver, alpha) -> int:
    """The field width of a ``_Bounds`` accumulator for classes of alpha.

    Each field sums, over the parts of a direct summand C of a class of
    alpha, a Hom or Ext dimension between C and one of T, S_j or C itself.
    With m = max(alpha, theta) in each vertex (theta the highest root, which
    lies above every S_j), all of these have dimension vectors below m, and
    dim Hom(X,Y) <= sum_v x_v y_v, so dim Ext(X,Y) = dim Hom(X,Y) - <x,y>
    <= sum_{a: t->h} x_t y_h.
    So every field is at most B = sum_v m_v^2 + sum_a m_t m_h, and every
    limit at most 2B (``_Bounds.limit``).  A field that reached 2**(w-1)
    would borrow from its neighbour without a sound; w - 1 bits hold 2B.
    """
    top = hom_table(q).roots[-1]
    m = [max(a, c) for a, c in zip(alpha, top)]
    bound = sum(v * v for v in m) + sum(m[t - 1] * m[h - 1] for t, h in q.arrows)
    return 1 + (2 * bound).bit_length()


@dataclass
class _Bounds:
    """Packed per-root gains for a walk over the classes X of alpha, against
    the generic representation T of alpha and perpendicular simples S_j.

    Fields, w bits each from the bottom, summed over the partial class C:
    Ext(C,T), Hom(C,T), Ext(T,C), Hom(T,C), then Ext(C,C), which only
    ``_bounded_walk`` fills, then Hom(C,S_j) and Ext(C,S_j) for each j.
    Each field but Ext(C,C) is a constant gain per root.  Every X lies in
    the closure of the dense orbit O_T, and for a completion X of C:

    (i)   Ext(X,X) >= Ext(X,T) and Ext(X,X) >= Ext(T,X): Y -> dim Ext(X,Y)
          is upper semicontinuous on Rep(Q,alpha), so the Y with
          dim Ext(X,Y) >= dim Ext(X,T) form a closed set; it contains O_T,
          hence X.  The same for Y -> dim Ext(Y,X);
    (ii)  Ext(X,T) >= max(Ext(C,T), Hom(C,T) - Hom(T,T)), since C is a
          summand of X and Ext(X,T) = Hom(X,T) - <alpha,alpha> with
          <alpha,alpha> = Hom(T,T) - Ext(T,T) = Hom(T,T); and the same with
          the arguments swapped;
    (iii) Hom(X,S_j) = Ext(X,S_j) >= Ext(C,S_j), since Hom(T,S_j) =
          Ext(T,S_j) = 0 gives <alpha,s_j> = 0.

    Every field only grows as parts are added, so each bound below is
    monotone and a walk may cut on it.  ``_acc_width`` gives w.
    """

    w: int
    r: int  # the number of simples
    htt: int  # dim Hom(T,T)
    gains: list  # gains[p]: the fields one copy of the root at walk position p adds
    guard: int  # the guard bit of every field

    @property
    def cap(self):
        return (1 << (self.w - 1)) - 1

    def limit(self, k):
        """The packed limits of a class X with Ext(X,X) <= k, k >= 0: by (i)
        and (ii), Ext(C,T), Ext(T,C) and Ext(C,C) <= k and Hom(C,T),
        Hom(T,C) <= Hom(T,T) + k.  No field exceeds cap - Hom(T,T), so a
        larger k cuts nothing more and is clamped to it."""
        k = min(k, self.cap - self.htt)
        return _pack([k, self.htt + k, k, self.htt + k, k] + [self.cap] * (2 * self.r),
                     self.w)

    def fields(self, acc):
        """The field values of a packed accumulator, bottom first."""
        mask = (1 << self.w) - 1
        return [(acc >> (self.w * j)) & mask for j in range(5 + 2 * self.r)]

    def homs(self, acc):
        """The Hom(C,S_j) fields of a packed accumulator."""
        mask = (1 << self.w) - 1
        return [(acc >> (self.w * j)) & mask for j in range(5, 5 + 2 * self.r, 2)]


@lru_cache(maxsize=None)
def _gain_columns(q: Quiver, w: int, i: int):
    """Two gain columns against root i of ``hom_table(q)``, w bits per
    field, each a list over the walk positions p with R_p the root there:
    against a part of T, the fields Ext(R_p,X_i), Hom(R_p,X_i),
    Ext(X_i,R_p), Hom(X_i,R_p); against a simple, Hom(R_p,X_i) and
    Ext(R_p,X_i)."""
    t = hom_table(q)
    hom, ext = t.hom, t.ext
    return ([_pack([ext[p][i], hom[p][i], ext[i][p], hom[i][p]], w) for p in t.walk],
            [hom[p][i] + (ext[p][i] << w) for p in t.walk])


def _bounds(q: Quiver, alpha, t_class, simples) -> _Bounds:
    """``_Bounds`` for classes of alpha against T = ``t_class``, whose
    dimension vector is alpha (for alpha = 0, T has no parts)."""
    table, w = hom_table(q), _acc_width(q, alpha)
    ts = [(table.index[tr], m) for tr, m in t_class.parts]
    gains = [0] * len(table.walk)
    for t, m in ts:
        gains = [g + m * c for g, c in zip(gains, _gain_columns(q, w, t)[0])]
    for j, s in enumerate(simples):
        shift = w * (5 + 2 * j)
        gains = [g + (c << shift) for g, c in zip(gains, _gain_columns(q, w, table.index[s])[1])]
    htt = sum(mi * mj * table.hom[i][j] for i, mi in ts for j, mj in ts)
    return _Bounds(w, len(simples), htt, gains, _pack([1 << (w - 1)] * (5 + 2 * len(simples)), w))


def _bounded_walk(q: Quiver, alpha, bd: _Bounds, k):
    """``_walk`` over the classes X of alpha with Ext(X,X) <= k, k >= 0,
    streaming (chosen, acc) with acc packed as ``bd`` lays it out.

    The Ext(C,C) field sums self-Ext: one more copy of root i adds
    Ext(i,Y) + Ext(Y,i) for each part Y already chosen (Ext(i,i) = 0, real
    roots).  The walk cuts a branch once any field exceeds ``bd.limit(k)``,
    one guarded subtraction per child.
    """
    pk = _packing(q, alpha)
    ext2, gains, at = pk.ext2, bd.gains, bd.w * 4
    guard, lim = bd.guard, bd.limit(k)

    def gain(p, chosen):
        row = ext2[p]
        return gains[p] + (sum(m * row[pj] for pj, m in chosen) << at)

    return _walk(pk, alpha, gain, lambda acc: _geq(guard, lim, acc))


def enumerate_classes(q: Quiver, alpha, max_self_ext=None):
    """Stream every multiset of positive roots with total alpha, each exactly
    once, in a deterministic depth-first order.

    With ``max_self_ext`` = k, only the classes X with Ext(X,X) <= k, in
    the same order: ``_bounded_walk`` cuts a branch once the self-Ext of
    the partial class, or one of the bounds (i)-(ii) of ``_Bounds`` against
    the generic representation T of alpha, exceeds its limit.
    """
    table = hom_table(q)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != q.n:
        raise ValueError(f"dimension vector has {len(alpha)} entries for {q.n} vertices")
    if any(a < 0 for a in alpha):
        raise ValueError("negative dimension vector")
    if max_self_ext is None:
        walk = _walk(_packing(q, alpha), alpha, lambda p, _: 0, lambda acc: True)
    elif max_self_ext < 0:
        return
    else:
        bd = _bounds(q, alpha, generic_decomposition(q, alpha), ())
        walk = _bounded_walk(q, alpha, bd, int(max_self_ext))  # self-Ext is an integer
    for chosen, _ in walk:
        yield _class_of(table, chosen)


@dataclass(frozen=True)
class ZeroSetSpec:
    """Zero set of the semi-invariants c_{S_j} for j in ``selected``."""

    quiver: Quiver
    alpha: tuple
    t_class: RepClass
    perp: PerpData
    selected: tuple  # 1-based indices into perp.simples, nonempty

    def __post_init__(self):
        if not self.selected:
            raise ValueError("selected must be nonempty")
        object.__setattr__(self, "selected", tuple(sorted(set(self.selected))))
        for j in self.selected:
            if not (1 <= j <= self.perp.r):
                raise ValueError(f"selected index {j} out of range 1..{self.perp.r}")

    @property
    def selected_simples(self):
        return [self.perp.simples[j - 1] for j in self.selected]


def make_spec(q: Quiver, alpha, selected=None) -> ZeroSetSpec:
    t = generic_decomposition(q, alpha)
    perp = perp_simples(q, t)
    if selected is None:
        selected = tuple(range(1, perp.r + 1))
    return ZeroSetSpec(q, tuple(int(a) for a in alpha), t, perp, tuple(selected))


def in_zero_set(x: RepClass, spec: ZeroSetSpec) -> bool:
    table = hom_table(spec.quiver)
    return all(class_hom(table, x, s) > 0 for s in spec.selected_simples)


@dataclass
class ComponentReport:
    rep_class: RepClass
    codim: int
    hom_to_simples: tuple  # against the selected simples, in selection order
    gradient_a: bool
    gradient_b: str = "unverified"  # "verified" | "unverified"
    gradient_b_witnesses: tuple = ()


@dataclass
class Survey:
    """The rare classes of alpha, in the enumeration order of
    ``enumerate_classes``.  ``total``, the exact number of classes of
    alpha, is counted when it is first read; no verdict needs it."""

    spec: ZeroSetSpec
    h_points: list  # classes with hom(X,S_j) == 1 for all selected j
    patterns: dict  # selected index k -> classes with hom == 1 - delta_{jk}
    zprime_witness: RepClass | None  # in zero set, Ext(T,X) = Ext(X,T) = 0
    h_truncated: bool = False  # an h-point was dropped because of h_cap

    @cached_property
    def total(self) -> int:
        return _count_classes(_packing(self.spec.quiver, self.spec.alpha), self.spec.alpha)


_survey_cache: dict = {}


def survey(spec: ZeroSetSpec, h_cap=5000) -> Survey:
    """Collect the reducedness bookkeeping over the classes of alpha.

    One ``_walk`` over the classes carries the fields of ``_Bounds`` for T =
    ``spec.t_class`` and the selected simples, packed into one integer, so
    each node costs one addition and the cut test.  Each list keeps at most
    ``h_cap`` classes; ``h_truncated`` records whether an h-point was
    dropped.

    Cut rule: a child (root, mult) is not explored when Hom(X,S_j) >= 2 for
    some j and every completion X, and either Ext(X,T) + Ext(T,X) > 0 for
    every completion or a Z' witness is already recorded; larger
    multiplicities of the same root are cut with it.  An h-point or a
    pattern needs every Hom(X,S_j) <= 1, and a Z' witness needs Ext(X,T) =
    Ext(T,X) = 0, so nothing kept is lost.  The lower bounds are those of
    ``_Bounds``: Hom(X,S_j) >= max(Hom(C,S_j), Ext(C,S_j)) by (iii), and
    Ext(X,T) > 0 once Ext(C,T) > 0 or Hom(C,T) > Hom(T,T) by (ii), the same
    with the arguments swapped; that is ``limit(0)``.  Every branch that
    can still give a Z' witness survives until the first one is found, so
    the witness is still the first one in enumeration order.

    Results are cached on (spec, h_cap), so ``reducedness_report`` reuses a
    survey its caller has already run.
    """
    key = (spec, h_cap)
    if key in _survey_cache:
        return _survey_cache[key]
    table = hom_table(spec.quiver)
    bd = _bounds(spec.quiver, spec.alpha, spec.t_class, spec.selected_simples)
    r, guard = bd.r, bd.guard
    # meets acc iff some Hom(C,S_j) or Ext(C,S_j) field is >= 2
    over_one = _pack([0] * 5 + [(1 << bd.w) - 2] * (2 * r), bd.w)
    zlim = bd.limit(0)

    res = Survey(spec, h_points=[], patterns={k: [] for k in spec.selected},
                 zprime_witness=None)

    def fits(acc):  # the cut rule
        return not acc & over_one or (res.zprime_witness is None and _geq(guard, zlim, acc))

    for chosen, acc in _walk(_packing(spec.quiver, spec.alpha), spec.alpha,
                             lambda p, _: bd.gains[p], fits):
        hsum = bd.homs(acc)
        if all(h == 1 for h in hsum):
            if len(res.h_points) < h_cap:
                res.h_points.append(_class_of(table, chosen))
            else:
                res.h_truncated = True
        elif hsum.count(0) == 1 and hsum.count(1) == r - 1:
            k = spec.selected[hsum.index(0)]
            if len(res.patterns[k]) < h_cap:
                res.patterns[k].append(_class_of(table, chosen))
        if res.zprime_witness is None and _geq(guard, zlim, acc) and 0 not in hsum:
            res.zprime_witness = _class_of(table, chosen)
    if len(_survey_cache) > 64:
        _survey_cache.clear()
    _survey_cache[key] = res
    return res


def components(spec: ZeroSetSpec):
    """Hom-order-maximal classes in the zero set, with codim and hom profile.

    Every component of a zero set of k polynomials has codimension <= k, so
    only classes with self-Ext <= k can be components; among those, the
    Hom-order maxima coincide with the maxima over the whole zero set.  The
    walk is ``enumerate_classes``' bounded walk against T = ``spec.t_class``
    and the selected simples, so the Hom(X,S_j) fields of a leaf say whether
    X lies in the zero set, and only those leaves become classes.
    """
    table, pk = hom_table(spec.quiver), _packing(spec.quiver, spec.alpha)
    k = len(spec.selected)
    bd = _bounds(spec.quiver, spec.alpha, spec.t_class, spec.selected_simples)
    found = []
    for chosen, acc in _bounded_walk(spec.quiver, spec.alpha, bd, k):
        homs = bd.homs(acc)
        if all(homs):
            cls = _class_of(table, chosen)
            found.append((*_profile(pk, cls), cls, acc))
    # equal profiles are equal classes, and one strictly below has a smaller sum
    found.sort(key=lambda t: t[1])
    maximal, reports = [], []
    for p, _, cls, acc in found:
        if any(_geq(pk.guard, p, mp) for mp in maximal):
            continue
        maximal.append(p)
        homs = tuple(bd.homs(acc))
        reports.append(ComponentReport(cls, bd.fields(acc)[4], homs, all(h == 1 for h in homs)))
    reports.sort(key=lambda rep: rep.rep_class.parts)
    return reports


def is_set_theoretic_ci(spec: ZeroSetSpec, comps) -> bool:
    return all(c.codim == len(spec.selected) for c in comps)


class NotFound(Exception):
    pass


def _is_cover(pk, cand, pc, x, px):
    """cand -> x is a minimal degeneration (packed Hom profiles pc <= px).

    A codimension gap of one is always minimal, since codimension strictly
    increases along proper degenerations.  A larger gap is minimal when no
    class lies strictly between the two in the Hom order; the walk sums
    packed Hom rows and visits only the classes whose profile stays below px.
    """
    table, guard, rows = pk.table, pk.guard, pk.rows
    gap = class_self_ext(table, x) - class_self_ext(table, cand)
    if gap <= 0:
        return False
    if gap == 1:
        return True
    for _, pw in _walk(pk, x.total(), lambda p, _: rows[table.walk[p]],
                       lambda acc: _geq(guard, px, acc)):
        if pw != pc and pw != px and _geq(guard, pw, pc):
            return False
    return True


def gradient_condition_b_witness(x: RepClass, spec: ZeroSetSpec, k,
                                 candidates=None):
    """Search X' with: X' in the zero set of the selection minus k,
    hom(X', S_j) = 1 - delta_{jk} over the selected simples, and X a minimal
    degeneration of X'.  Then Y_k = X + X' has hom(Y_k, S_j) = 2 - delta_{jk}.
    Returns X' or raises NotFound; sufficient, never a proof of failure.

    ``candidates`` are (class, Hom profile) pairs, the profile packed by
    ``_packing(spec.quiver, spec.alpha)``; by default the survey's index-k
    patterns with their profiles.
    """
    if k not in spec.selected:
        raise ValueError("k must be a selected index")
    if x.total() != spec.alpha:
        raise ValueError("x is not a class of the spec's dimension vector")
    pk = _packing(spec.quiver, spec.alpha)
    if candidates is None:
        candidates = [(c, _profile(pk, c)[0]) for c in survey(spec).patterns[k]]
    px = _profile(pk, x)[0]
    for cand, pc in candidates:
        if pc != px and _geq(pk.guard, px, pc) and _is_cover(pk, cand, pc, x, px):
            return cand
    raise NotFound(f"no condition-(b) witness found for k={k}")


@dataclass
class ReducednessReport:
    verdict: str  # "reduced" | "not-reduced" | "unverified"
    reason: str = ""
    witness: RepClass | None = None  # offending component for not-reduced
    components: list = field(default_factory=list)
    ci: bool = False


def reducedness_report(spec: ZeroSetSpec, comps=None) -> ReducednessReport:
    """Serre-criterion verdict for the zero set, read from ``survey(spec)``.

    not-reduced: some component has no representation satisfying the
    Hom-dimension-one condition (a) anywhere in its orbit closure.  This
    needs the complete list of h-points; when the survey truncated it at
    ``h_cap`` the verdict is unverified instead, with the cap in the reason.
    reduced: every component has a representative passing (a) together with
    a condition-(b) witness for every selected index.  A truncated pattern
    list can only hide witnesses, which again gives unverified.
    unverified: anything in between (the (b)-search is sufficient only), or
    the zero set is not a set-theoretic complete intersection.

    Each component tries every condition-(a) point, smallest Hom profile
    sum first.  A condition-(b) witness must be a minimal degeneration onto
    the point (``_is_cover``): a codimension gap of one needs no search, a
    larger gap a walk over the classes between the two.
    """
    if comps is None:
        comps = components(spec)
    rep = ReducednessReport(verdict="unverified", components=comps)
    rep.ci = is_set_theoretic_ci(spec, comps)
    if not comps:
        rep.verdict = "reduced"
        rep.reason = "empty zero set"
        rep.ci = True
        return rep
    if not rep.ci:
        rep.verdict = "unverified"
        rep.reason = "not a set-theoretic complete intersection"
        return rep
    sv = survey(spec)
    pk = _packing(spec.quiver, spec.alpha)
    h_profiles = [(cls, *_profile(pk, cls)) for cls in sv.h_points]
    pattern_profiles = {k: [(cls, _profile(pk, cls)[0]) for cls in sv.patterns[k]]
                        for k in spec.selected}

    # condition (a) first for every component: not-reduced short-circuits
    a_points = {}
    for comp in comps:
        pc = _profile(pk, comp.rep_class)[0]
        pts = [(cls, total) for cls, ph, total in h_profiles if _geq(pk.guard, ph, pc)]
        pts.sort(key=lambda t: (t[1], t[0].parts))
        if not pts:
            if sv.h_truncated:
                rep.reason = (f"the survey kept only h_cap={len(sv.h_points)} "
                              "h-points, so a component's condition-(a) point "
                              "may have been dropped")
                return rep
            rep.verdict = "not-reduced"
            rep.witness = comp.rep_class
            rep.reason = "component has no point satisfying the gradient condition (a)"
            return rep
        a_points[comp.rep_class] = pts

    for comp in comps:
        for cand, _ in a_points[comp.rep_class]:
            try:
                witnesses = tuple(
                    (k, gradient_condition_b_witness(
                        cand, spec, k, candidates=pattern_profiles[k]))
                    for k in spec.selected)
            except NotFound:
                continue
            comp.gradient_b = "verified"
            comp.gradient_b_witnesses = witnesses
            break
        else:
            rep.verdict = "unverified"
            rep.reason = "condition (b) witness search failed for a component"
            return rep
    rep.verdict = "reduced"
    return rep
