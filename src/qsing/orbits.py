"""Orbit enumeration, degeneration (Hom-) order, zero sets of semi-invariants,
irreducible components, complete-intersection and reducedness analysis.

Degeneration order is implemented as the Hom-order: M degenerates to N iff
dim Hom(M,X) <= dim Hom(N,X) for every indecomposable X.  Semicontinuity
gives one direction; the converse for Dynkin quivers (Bongartz) is adopted
as an external fact and validated end-to-end on the worked examples.

Scale notes.  Dimension vectors, Hom profiles and the walk's accumulator
are integers packed w bits per field with a spare guard bit on top, so
taking a root off a remainder, or comparing two profiles in every field, is
one subtraction.  The classes of alpha are packed at one width, that of
their accumulator (``_acc_width``); ``_packing`` keeps one ``_Packing`` per
width on the per-quiver context ``hom_table(q)``, with the columns the
accumulator's gains are summed from, built on first use.  A root's Hom row
is packed when a profile first reads it, and the zero columns of bound (v),
which hold no packed field, are kept once per root on the context for every
width (``_zero_column``).  Every pass over the classes of alpha
is one walk, ``_walk``: a depth-first search on the packed remainder,
carrying a packed integer accumulator stepped once per copy of a root,
which cuts a branch once the accumulator shows that no class with the
partial class as a direct summand passes.  The walk runs in one generator
frame with an explicit stack of the open nodes, so a leaf is one ``yield``
however deep it lies, with no generator per node and no ``yield from``
chain to climb.

The accumulator of the bounded walk (``_Bounds``), which
``enumerate_classes`` and ``components`` run, sums, over the partial class
C of dimension c, Hom and Ext against the generic representation T of
alpha and the perpendicular simples S_j.  The fields bound what every class
X with C as a summand reaches, by five facts proved in ``_Bounds``: X lies
in the closure of the orbit of T, so (i) Ext(X,X) >= Ext(X,T), Ext(T,X);
(ii) Ext(X,T) >= max(Ext(C,T), Hom(C,T) - Hom(T,T)) and the same swapped;
(iii) Hom(X,S_j) = Ext(X,S_j) >= Ext(C,S_j); on the remainder
y = alpha - c, (iv) Ext(X,X) >= Ext(C,C) + max(0, -<c,y>) + max(0, -<y,c>);
and, as every representation of dimension y degenerates to the semisimple
E_y, (v) Hom(X,S_j) <= Hom(C,S_j) + Hom(E_y,S_j).
``enumerate_classes`` with ``max_self_ext = k`` cuts once a bound (i), (ii)
or (iv) exceeds k.  Its accumulator also carries, for every root R_i, the
sums of Ext and of Hom between C and R_i, so one more copy of a root
updates Ext(C,C) and the Euler forms of (iv) from two field reads.
Components of Z(f_1,...,f_k) have codimension at most k (Krull), so
``components`` runs that walk with the simples' fields of (v) added, which
cut once some Hom(X,S_j) can no longer reach 1: every leaf is then a class
of the zero set.  On e8-notred it visits 1,651 nodes and yields 9 leaves
(2,384 nodes and 536 leaves without (v), 21,787 nodes without (iv) or (v),
59,634 with self-Ext alone).  Where some Hom(E_alpha,S_j) is 0 the zero set
is empty and it walks nothing.

``survey`` carries its own fields, those of (ii) and (iii), keeps only rare
classes and no Hom profile, and cuts by (ii) and (iii) alone; no verdict
reads it.  On e8-notred it visits 5,953 nodes instead of all 1,543,628
classes, which a separate memoized count gives when ``Survey.total`` is
read.

``reducedness_report`` walks no class: it reads each component's Hom
profile against the selected simples and, where every entry is 1, the rank
of the Jacobian of the semi-invariants at the component's class, mod a
prime, on the roots realized mod that prime (``jacobian``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .decomp import (
    PerpData,
    RepClass,
    generic_decomposition,
    perp_simples,
)
from . import jacobian
from .quiver import Quiver, dimension_vector, euler_form, require_dynkin
from .roots import HomTable, hom_table

# multiplicity bound guaranteeing the nullcone is reduced (Dynkin only)
REDUCED_BOUND = {"A": 1, "D": 2, "E": 2}


def reduced_bound(q: Quiver) -> int:
    cls = require_dynkin(q)
    return REDUCED_BOUND[cls.letter]


@dataclass
class _Packing:
    """``hom_table(q)`` packed w bits per field, each field's top bit a spare
    guard: no borrow crosses a field, and one subtraction compares them all.
    It builds the columns of ``_bounds`` and ``_bounded_walk`` on first use
    and keeps them, as they depend on the quiver and w alone; ``survey``
    reads the gain columns too.  A root's Hom row is packed when ``_profile``
    first reads it, so only the roots of the classes ``components`` compares
    are packed.  The zero columns of bound (v) hold no packed field, and
    ``_zero_column`` keeps them on the context, once for every width."""

    table: HomTable
    w: int
    vguard: int  # the guard bits of a dimension vector, a field per vertex
    guard: int  # the guard bits of a Hom profile, a field per root
    roots: list  # the root at each walk position
    # root index i -> (dim Hom(X_i, -) packed, its entry sum), filled by ``row``
    rows: dict = field(default_factory=dict, repr=False)
    # root index -> its ``gain_columns``, filled on demand
    gain_cols: dict = field(default_factory=dict, repr=False)

    def row(self, i):
        """The Hom profile dim Hom(X_i, -) of root i, packed, and its entry
        sum; packed on first read."""
        got = self.rows.get(i)
        if got is None:
            h_row = self.table.hom[i]
            got = self.rows[i] = (_pack(h_row, self.w), sum(h_row))
        return got

    @cached_property
    def gain_units(self):
        """What one unit of Ext(R_p,X_i), Hom(R_p,X_i), Ext(X_i,R_p) and
        Hom(X_i,R_p) adds to a gain column against T: its own field among
        0-3, and +1 or -1 in those of fields 5-7, -<r_p,x_i>, -<x_i,r_p> and
        their sum, whose terms it enters."""
        w = self.w
        return (_pack([1, 0, 0, 0, 0, 1, 0, 1], w), _pack([0, 1, 0, 0, 0, -1, 0, -1], w),
                _pack([0, 0, 1, 0, 0, 0, 1, 1], w), _pack([0, 0, 0, 1, 0, 0, -1, -1], w))

    def gain_columns(self, i):
        """Two gain columns against root i of the table, each a list over
        the walk positions p with R_p the root there: against a part of T,
        Ext(R_p,X_i), Hom(R_p,X_i), Ext(X_i,R_p), Hom(X_i,R_p) in fields
        0-3 and the terms -<r_p,x_i>, -<x_i,r_p> and their sum, which may
        be negative, in fields 5-7, each entry summed from ``gain_units``
        by four multiply-adds; against a simple, Hom(R_p,X_i) and
        Ext(R_p,X_i) in the two lowest fields.  Each value is the integer
        ``_pack`` would give for its fields."""
        if i in self.gain_cols:
            return self.gain_cols[i]
        w, hom, ext = self.w, self.table.hom, self.table.ext
        k0, k1, k2, k3 = self.gain_units
        ext_i, hom_i = ext[i], hom[i]
        against_t, against_s = [], []
        for p in self.table.walk:
            ep, hp = ext[p][i], hom[p][i]
            against_t.append(ep * k0 + hp * k1 + ext_i[p] * k2 + hom_i[p] * k3)
            against_s.append(hp + (ep << w))
        self.gain_cols[i] = cols = (against_t, against_s)
        return cols

    @cached_property
    def root_columns(self):
        """The bounded walk's columns: for each walk position p, what one
        more copy of R_p adds to fields 5-7 (the constants 1, 1, 2, as
        Hom(R_p,R_p) = 1) and to the per-root fields above them
        (Ext(R_i,R_p) + Ext(R_p,R_i) and Hom(R_i,R_p) + Hom(R_p,R_i) at each
        walk position i); and the bit offset of the per-root fields of each
        walk position.  Neither depends on the simples, which sit above the
        per-root fields.  Each column is packed in one pass from its top
        field down."""
        w, hom, ext, walk = self.w, self.table.hom, self.table.ext, self.table.walk
        top, w2, cols = walk[::-1], 2 * w, []
        for p in walk:
            hp, ep, x = hom[p], ext[p], 0
            for i in top:  # H_i above E_i, from the top walk position down
                x = (x << w2) + ((hom[i][p] + hp[i]) << w) + ext[i][p] + ep[i]
            for v in (2, 1, 1):  # fields 7, 6 and 5
                x = (x << w) + v
            cols.append(x << 5 * w)
        return cols, [w * (8 + 2 * j) for j in range(len(top))]

    @cached_property
    def self_columns(self):
        """Where Ext(C,C) and Hom(C,C) enter fields 4-7."""
        return (_pack([0, 0, 0, 0, 1, 0, 0, -1], self.w),
                _pack([0, 0, 0, 0, 0, 1, 1, 2], self.w))


def _packing(q: Quiver, alpha) -> _Packing:
    """The packing for the classes of alpha at the width w = ``_acc_width``
    of their ``_Bounds`` accumulator, built once per width and kept on
    ``hom_table(q).packed``.

    w also holds alpha, every root and every Hom profile of a class of
    alpha, which alpha alone would not, as a root's coordinates can exceed
    alpha's.  Every positive root R lies below the highest root theta, so
    dim Hom(X, R) <= alpha . R <= alpha . theta; with m = max(alpha, theta)
    in each vertex, alpha . theta and each coordinate of alpha or a root are
    at most sum_v m_v^2 <= B, the bound of ``_acc_width``, and w - 1 bits
    hold 2B."""
    table, w = hom_table(q), _acc_width(q, alpha)
    pk = table.packed.get(w)
    if pk is None:
        top = 1 << (w - 1)
        pk = table.packed[w] = _Packing(
            table, w, _fill(top, w, q.n), _fill(top, w, len(table.roots)),
            [_pack(table.roots[i], w) for i in table.walk])
    return pk


def _zero_column(table, i):
    """The gain column of bound (v) of ``_Bounds`` against root i, a list
    over the walk positions p with R_p the root there: Hom(E_p,X_i) -
    Hom(R_p,X_i) >= 0, with E_p the semisimple of dimension r_p.  No field
    width enters it, so it is kept on the context, ``table.zero_cols``.
    Hom(E_p,X_i) = sum_x r_p[x] Hom(S_x,X_i) is read from the simples S_x
    in the socle of X_i, those with Hom(S_x,X_i) != 0."""
    col = table.zero_cols.get(i)
    if col is None:
        socle = [(x, h) for x, h_row in enumerate(table.simple_hom) if (h := h_row[i])]
        roots, hom = table.roots, table.hom
        col = table.zero_cols[i] = [sum(roots[p][x] * h for x, h in socle) - hom[p][i]
                                    for p in table.walk]
    return col


def _semisimple_hom(table, v, i):
    """dim Hom(E_v, X_i) = sum_x v_x dim Hom(S_x, X_i), E_v the semisimple
    (+)_x S_x^{v_x} of dimension v and X_i root i of the table."""
    return sum(a * row[i] for a, row in zip(v, table.simple_hom) if a)


def _semisimple_homs(table, alpha, simples):
    """dim Hom(E_alpha, S_j) for each simple S_j, E_alpha the semisimple
    (+)_x S_x^{alpha_x}, the zero point of Rep(Q,alpha)."""
    return [_semisimple_hom(table, alpha, table.index[s]) for s in simples]


def _geq(guard, a, b):
    """Every field of packed a is >= the same field of packed b."""
    return ((a | guard) - b) & guard == guard


def _profile(pk, cls):
    """The packed Hom profile of a class, and its entry sum."""
    rows = [(pk.row(pk.table.index[r]), m) for r, m in cls.parts]
    return sum(m * row for (row, _), m in rows), sum(m * total for (_, total), m in rows)


def _walk(pk, alpha, step, fits, acc=0):
    """Stream (chosen, acc) for the classes of ``alpha`` in depth-first walk
    order, each class at most once; ``chosen`` lists its (walk position,
    multiplicity) pairs and is reused, so copy it to keep it.

    A node's children are the roots whose first support vertex is the first
    nonzero vertex of its remainder, from the walk position after its
    parent's root on.  A root fits when d = g - root keeps every guard bit,
    g being the remainder with the guard bits set; d without them is the
    new remainder, and d - root tests one more copy.

    The walk is one generator frame.  Its variables hold the node being
    expanded: walk position p, the end e of its range, d, the node's
    accumulator, the accumulator after ``mult`` copies of the root at p,
    ``mult`` and g.  Descending to a child pushes those seven onto an
    explicit stack; when a node's range is done, popping them restores the
    parent, which tries one more copy of its root.  A leaf is yielded
    directly from the frame.  The children, the order of the calls to
    ``step`` and ``fits`` and the stream are those of a recursive search
    with one generator per node (``tests/oracles.py``'s ``tuple_walk``).

    The accumulator starts at ``acc`` for the empty class, and
    ``step(acc, p)`` is the accumulator after one more copy of the root at
    walk position ``p``.  A child, the partial class C, is cut, with every
    larger multiplicity of its root, once ``fits`` fails on its
    accumulator.  A false ``fits`` must mean that no class with C as a
    direct summand passes, so a cut loses no class that passes.  A caller
    with several sums packs them into one integer (``_pack``).
    """
    chosen, stack = [], []
    start, end, vguard, roots, w = pk.table.start, pk.table.end, pk.vguard, pk.roots, pk.w
    rem = _pack(alpha, w)
    if not rem:
        yield chosen, acc
        return
    x = ((rem & -rem).bit_length() - 1) // w
    p, e, g = start[x], end[x], rem | vguard  # the simple root at x lies in the range
    d, nacc, mult = g - roots[p], acc, 0
    while True:
        if d & vguard == vguard and fits(nxt := step(nacc, p)):
            mult += 1
            chosen.append((p, mult))
            rem = d ^ vguard
            if rem:  # descend: the child's range may be empty
                stack.append((p, e, d, acc, nxt, mult, g))
                x = ((rem & -rem).bit_length() - 1) // w
                p, e, g, acc = max(p + 1, start[x]), end[x], rem | vguard, nxt
            else:  # a leaf: no further copy of the root fits
                yield chosen, nxt
                chosen.pop()
                p += 1
        else:  # no further copy fits, or a cut: a larger multiplicity has C as a summand
            p += 1
        if p < e:
            d, nacc, mult = g - roots[p], acc, 0
        elif stack:  # back up and try one more copy of the parent's root
            p, e, d, acc, nacc, mult, g = stack.pop()
            chosen.pop()
            d -= roots[p]
        else:
            return


def _pack(values, w):
    """The integers ``values`` as one integer, entry j in bits j*w and up.
    Adding packed integers adds them entry by entry while every entry of
    the sum but the last stays in 0 .. 2**w - 1, so a gain may carry a
    negative entry."""
    return sum(v << (w * j) for j, v in enumerate(values))


def _fill(v, w, n):
    """n fields of w bits, each holding v."""
    return v * (((1 << (w * n)) - 1) // ((1 << w) - 1))


def _class_of(table, chosen):
    """The class of a walk's ``chosen`` pairs, its parts in increasing lex
    order of the roots as ``RepClass`` keeps them, with no sort.

    ``table.walk`` lists the roots by first support vertex, then in
    decreasing lex order, so it is strictly decreasing in lex order: a root
    whose first support vertex is x is lex greater than every root whose
    first support vertex is y > x, since it is nonzero at x and they are 0
    there.  A walk chooses strictly increasing positions, each at most once,
    so there is nothing to merge, and ``reversed(chosen)`` is in strictly
    increasing lex order of the roots.
    """
    roots, walk = table.roots, table.walk
    return RepClass(tuple((roots[walk[p]], m) for p, m in reversed(chosen)))


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

    A walk steps only to a C whose dimension vector c lies below alpha.
    With m = max(alpha, theta) in each vertex (theta the highest root, which
    lies above every root), the dimension vectors of C, the remainder
    y = alpha - c, T, S_j and every root R_i lie below m, and
    dim Hom(X,Y) <= sum_v x_v y_v, so dim Ext(X,Y) = dim Hom(X,Y) - <x,y>
    <= sum_{a: t->h} x_t y_h.  Let B = sum_v m_v^2 + sum_a m_t m_h.
    - A field against T, S_j or C itself sums one such dimension: at most B.
      So does V_j = Hom(E_c,S_j) - Hom(C,S_j) <= Hom(E_alpha,S_j) <=
      sum_v alpha_v s_v, as dim Hom(S_x,S) <= dim S(x).
    - A remainder field is at least 0 and at most B.  Since
      <c,y> = sum_v c_v y_v - sum_a c_t y_h and c_v + y_v = alpha_v,
      -<c,y> >= -sum_v c_v y_v >= -off, with off = sum_v floor(alpha_v^2/4).
      And -<c,y> = Ext(C,Y) - Hom(C,Y) <= sum_a c_t y_h for any Y of
      dimension y, so off + Ext(C,C) - <c,y> <= sum_a c_t alpha_h + off
      <= B.  The same holds with c and y swapped, and
      2 off + Ext(C,C) - <c,y> - <y,c> lies in 0 .. sum_a alpha_t alpha_h
      + 2 off <= B.
    - A per-root field sums a Hom or an Ext between C and R_i both ways: at
      most 2B.
    A field that reached 2**(w-1) would borrow from its neighbour without a
    sound; w - 1 bits hold 2B, and ``_Bounds.limit`` keeps every limit below
    2**(w-1) too.
    """
    top = hom_table(q).roots[-1]
    m = [max(a, c) for a, c in zip(alpha, top)]
    bound = sum(v * v for v in m) + sum(m[t - 1] * m[h - 1] for t, h in q.arrows)
    return 1 + (2 * bound).bit_length()


@dataclass
class _Bounds:
    """Packed per-root gains for a walk over the classes X of alpha, against
    the generic representation T of alpha and perpendicular simples S_j.

    Fields, w bits each from the bottom, summed over the partial class C of
    dimension c, with remainder y = alpha - c:
    - 0-3: Ext(C,T), Hom(C,T), Ext(T,C), Hom(T,C);
    - 4: Ext(C,C);
    - 5-7: the remainder forms off + Ext(C,C) - <c,y>, off + Ext(C,C) -
      <y,c> and 2 off + Ext(C,C) - <c,y> - <y,c>, whose offset ``off``
      keeps them nonnegative (``_acc_width``);
    - fields 8 + 2i and 9 + 2i: E_i = Ext(C,R_i) + Ext(R_i,C) and H_i =
      Hom(C,R_i) + Hom(R_i,C) for the root R_i at each walk position i;
    - from field ``simple`` on, Hom(C,S_j) and Ext(C,S_j) for each j;
    - from field ``simple`` + 2r on, for r simples, V_j = Hom(E_c,S_j) -
      Hom(C,S_j) for each j, E_c the semisimple (+)_x S_x^{c_x}.
    ``simple`` is 8 + 2N for N roots, so the per-root fields and their
    columns (``_Packing.root_columns``) depend on the quiver and w alone,
    not on the simples.

    Every X lies in the closure of the dense orbit O_T.  For every class X
    of alpha that has C as a direct summand:

    (i)   Ext(X,X) >= Ext(X,T) and Ext(X,X) >= Ext(T,X): Y -> dim Ext(X,Y)
          is upper semicontinuous on Rep(Q,alpha), so the Y with
          dim Ext(X,Y) >= dim Ext(X,T) form a closed set; it contains O_T,
          hence X.  The same for Y -> dim Ext(Y,X);
    (ii)  Ext(X,T) >= max(Ext(C,T), Hom(C,T) - Hom(T,T)), since C is a
          summand of X and Ext(X,T) = Hom(X,T) - <alpha,alpha> with
          <alpha,alpha> = Hom(T,T) - Ext(T,T) = Hom(T,T); and the same with
          the arguments swapped;
    (iii) Hom(X,S_j) = Ext(X,S_j) >= Ext(C,S_j), since Hom(T,S_j) =
          Ext(T,S_j) = 0 gives <alpha,s_j> = 0;
    (iv)  Ext(X,X) >= Ext(C,C) + max(0, -<c,y>) + max(0, -<y,c>): X = C + Y
          with Y of dimension y, so Ext(X,X) >= Ext(C,C) + Ext(C,Y) +
          Ext(Y,C), and Ext(C,Y) = Hom(C,Y) - <c,y> is at least 0 and at
          least -<c,y> (the Euler-form bound on general representations,
          Schofield 1992); the same with the arguments swapped.  Here
          -<c,y> = <c,c> - <c,alpha> = Hom(C,C) - Ext(C,C) - Hom(C,T) +
          Ext(C,T);
    (v)   Hom(X,S_j) <= Hom(C,S_j) + Hom(E_y,S_j) = Hom(E_alpha,S_j) - V_j,
          E_y the semisimple of dimension y: X = C + Y with Y of dimension
          y, and Y degenerates to E_y.  The underlying graph of Q is a
          tree, so Q has a height h with h(ha) = h(ta) + 1 on every arrow
          a; g(t)_x = t^h(x) multiplies every arrow by t, so g(t).Y -> 0 =
          E_y as t -> 0, and V -> dim Hom(V,S_j), the nullity of d^V_{S_j},
          is upper semicontinuous.  Hom(E_-,S_j) is additive in the
          dimension vector, and V_j >= 0 as C degenerates to E_c.  X lies
          in Z only if every Hom(X,S_j) >= 1 (c_S(V) = 0 iff Hom(V,S) != 0,
          Derksen-Weyman, JAMS 2000), so only if every V_j <=
          Hom(E_alpha,S_j) - 1; at a whole class, c = alpha, that is X in Z.
          The zero point of Rep(Q,alpha) is E_alpha, so c_{S_j}(0) = 0 iff
          Hom(E_alpha,S_j) >= 1.  A semi-invariant takes a character's
          factor under g(t), so c_{S_j}(tV) = t^d c_{S_j}(V) for some d.
          If Hom(E_alpha,S_j) = 0, then c_{S_j}(0) != 0 forces d = 0, and
          c_{S_j}(V) = c_{S_j}(tV) -> c_{S_j}(0) as t -> 0: c_{S_j} is a
          nonzero constant and Z is empty.  If it is at least 1, c_{S_j}
          vanishes at 0 and is not a nonzero constant.

    The bound (iv) is at most k exactly when the four linear forms Ext(C,C),
    Ext(C,C) - <c,y>, Ext(C,C) - <y,c> and Ext(C,C) - <c,y> - <y,c> are,
    which fields 4-7 hold.  Unlike the other fields, fields 5-7 are not
    monotone along a walk.  A cut on them is sound all the same, since (iv)
    holds for every X with C as a summand, and that includes every larger
    multiplicity of C's last root.  The same holds for (v).  ``_acc_width``
    gives w, the width of the packing ``pk``.
    """

    pk: _Packing  # ``_packing(q, alpha)``, whose columns the gains are built from
    r: int  # the number of simples
    n: int  # the number of fields
    simple: int  # the field of Hom(C,S_1), above the per-root fields if any
    htt: int  # dim Hom(T,T)
    off: int  # the offset of the remainder fields
    gains: list  # gains[p]: the constant fields one copy of the root at walk position p adds
    guard: int  # the guard bit of every field
    ehom: list  # Hom(E_alpha,S_j) for each j, the limits of the V_j fields

    @property
    def w(self):
        return self.pk.w

    @property
    def cap(self):
        return (1 << (self.w - 1)) - 1

    @property
    def start(self):
        """The accumulator of the empty class: fields 5-7 at their offsets
        off, off and 2 off, which is off times the Hom(C,C) column."""
        return self.off * self.pk.self_columns[1]

    def limit(self, k):
        """The packed limits of a class X in Z with Ext(X,X) <= k, k >= 0: by
        (i) and (ii), Ext(C,T), Ext(T,C) <= k and Hom(C,T), Hom(T,C) <=
        Hom(T,T) + k; by (iv), each form of fields 4-7 <= k, plus its
        offset; by (v), each V_j <= Hom(E_alpha,S_j) - 1, which needs every
        Hom(E_alpha,S_j) >= 1.  Fields 0-7 are at most B <= cap - B
        (``_acc_width``), and Hom(T,T), 2 off and Hom(E_alpha,S_j) are at
        most B, so a larger k than cap - max(Hom(T,T), 2 off) cuts nothing
        more and is clamped to it; then no limit exceeds cap."""
        k, o, w = min(k, self.cap - max(self.htt, 2 * self.off)), self.off, self.w
        top = self.simple + 2 * self.r
        return (_pack([k, self.htt + k, k, self.htt + k, k, o + k, o + k, 2 * o + k], w)
                + (_fill(self.cap, w, top - 8) << (8 * w))
                + (_pack([e - 1 for e in self.ehom], w) << (top * w)))

    def fields(self, acc):
        """The field values of a packed accumulator, bottom first."""
        w = self.w
        mask = (1 << w) - 1
        return [(acc >> (w * j)) & mask for j in range(self.n)]

    def homs(self, acc):
        """The Hom(C,S_j) fields of a packed accumulator."""
        w = self.w
        mask = (1 << w) - 1
        return [(acc >> (w * j)) & mask
                for j in range(self.simple, self.simple + 2 * self.r, 2)]


def _bounds(pk: _Packing, alpha, t_class, simples) -> _Bounds:
    """``_Bounds`` for classes of alpha against T = ``t_class``, whose
    dimension vector is alpha (for alpha = 0, T has no parts), on the
    packing ``pk = _packing(q, alpha)``."""
    table, w, r = pk.table, pk.w, len(simples)
    simple, gains = 8 + 2 * len(table.walk), pk.root_columns[0]
    for tr, m in t_class.parts:
        gains = [g + m * c for g, c in zip(gains, pk.gain_columns(table.index[tr])[0])]
    for j, s in enumerate(simples):
        i = table.index[s]
        shift, up = w * (simple + 2 * j), w * (2 * r - j)  # V_j is 2r - j fields above Hom(C,S_j)
        gains = [g + ((c + (v << up)) << shift)
                 for g, c, v in zip(gains, pk.gain_columns(i)[1], _zero_column(table, i))]
    htt = euler_form(table.quiver, alpha, alpha)  # Hom(T,T), as Ext(T,T) = 0
    off = sum(a * a // 4 for a in alpha)
    n = simple + 3 * r
    return _Bounds(pk, r, n, simple, htt, off, gains, _fill(1 << (w - 1), w, n),
                   _semisimple_homs(table, alpha, simples))


def _bounded_walk(alpha, bd: _Bounds, k):
    """``_walk`` over the classes X of alpha with Ext(X,X) <= k, k >= 0,
    streaming (chosen, acc) with acc packed as ``bd`` lays it out.

    One more copy of R_p adds the constant ``bd.gains[p]`` and the per-root
    sums E_p and H_p, read from the accumulator: Ext(C + R_p, C + R_p) =
    Ext(C,C) + E_p, since Ext(R_p,R_p) = 0, and Hom(C + R_p, C + R_p) =
    Hom(C,C) + H_p + 1.  Earlier copies of R_p are counted in E_p and H_p.
    Fields 5-7 take E_p and H_p with the coefficients of their forms.  The
    walk cuts a branch once any field exceeds ``bd.limit(k)``, one guarded
    subtraction per child: once a bound (i), (ii) or (iv) on Ext(X,X)
    exceeds k, or, with simples, once (v) leaves some Hom(X,S_j) no room
    to reach 1.  So with simples every class streamed lies in their zero
    set, and every Hom(E_alpha,S_j) must be at least 1.
    """
    assert all(bd.ehom), "a constant semi-invariant leaves (v) no limit"
    pk = bd.pk
    w, mask = pk.w, (1 << pk.w) - 1
    gains, at = bd.gains, pk.root_columns[1]
    ecol, hcol = pk.self_columns
    guard = bd.guard
    top = bd.limit(k) | guard

    def step(acc, p):
        v = acc >> at[p]
        return acc + gains[p] + (v & mask) * ecol + (v >> w & mask) * hcol

    # _geq(guard, bd.limit(k), acc), inlined
    return _walk(pk, alpha, step, lambda acc: (top - acc) & guard == guard, bd.start)


def enumerate_classes(q: Quiver, alpha, max_self_ext=None):
    """Stream every multiset of positive roots with total alpha, each exactly
    once, in a deterministic depth-first order.

    With ``max_self_ext`` = k, only the classes X with Ext(X,X) <= k, in
    the same order: ``_bounded_walk`` cuts a branch once one of the bounds
    (i), (ii) and (iv) of ``_Bounds`` on Ext(X,X), against the generic
    representation T of alpha and the remainder, exceeds k.
    """
    table = hom_table(q)
    alpha = dimension_vector(q, alpha)
    pk = _packing(q, alpha)
    if max_self_ext is None:
        walk = _walk(pk, alpha, lambda acc, p: acc, lambda acc: True)
    elif max_self_ext < 0:
        return
    else:
        bd = _bounds(pk, alpha, generic_decomposition(q, alpha), ())
        walk = _bounded_walk(alpha, bd, int(max_self_ext))  # self-Ext is an integer
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
        if set(map(type, self.selected)) != {int}:
            raise ValueError(f"selected {self.selected} has an index that is not an int")
        object.__setattr__(self, "selected", tuple(sorted(set(self.selected))))
        for j in self.selected:
            if not (1 <= j <= self.perp.r):
                raise ValueError(f"selected index {j} out of range 1..{self.perp.r}")

    @property
    def selected_simples(self):
        return [self.perp.simples[j - 1] for j in self.selected]


def make_spec(q: Quiver, alpha, selected=None) -> ZeroSetSpec:
    alpha = dimension_vector(q, alpha)
    t = generic_decomposition(q, alpha)
    perp = perp_simples(q, t)
    if selected is None:
        selected = tuple(range(1, perp.r + 1))
    return ZeroSetSpec(q, alpha, t, perp, tuple(selected))


@dataclass
class ComponentReport:
    rep_class: RepClass
    codim: int
    hom_to_simples: tuple  # against the selected simples, in selection order
    gradient_a: bool  # every Hom(X,S_j) is 1; rule 1 of ``reducedness_report`` where not
    # the coordinates (a, k, t), entry (k, t) of X(a) for X the direct sum of the
    # class's roots realized mod p (``jacobian.jacobian_rows``), of a k x k minor
    # of the Jacobian nonzero mod p, set when rule 2 proves the rank k over Q
    jacobian_minor: tuple | None = None


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


def survey(spec: ZeroSetSpec, h_cap=5000) -> Survey:
    """Collect the reducedness bookkeeping over the classes of alpha.

    One ``_walk`` over the classes carries 4 + 2r fields for T =
    ``spec.t_class`` and the r selected simples S_j, w bits each from the
    bottom of one integer, summed over the partial class C: Ext(C,T),
    Hom(C,T), Ext(T,C), Hom(T,C), then Hom(C,S_j) and Ext(C,S_j) for each
    j.  So each node costs one addition and the cut test.  The gains are
    fields 0-3 of the bounded walk's columns against T, whose terms above
    field 3 are multiples of 2**(5w) even when negative, and its columns
    against the S_j.  Each list keeps at most ``h_cap`` classes;
    ``h_truncated`` records whether an h-point was dropped.  No Hom profile
    is kept.

    Cut rule: a child (root, mult) is not explored when Hom(X,S_j) >= 2 for
    some j and every completion X, and either Ext(X,T) + Ext(T,X) > 0 for
    every completion or a Z' witness is already recorded; larger
    multiplicities of the same root are cut with it.  An h-point or a
    pattern needs every Hom(X,S_j) <= 1, and a Z' witness needs Ext(X,T) =
    Ext(T,X) = 0, so nothing kept is lost.  The lower bounds are (ii) and
    (iii) of ``_Bounds``: Hom(X,S_j) >= max(Hom(C,S_j), Ext(C,S_j)), and
    Ext(X,T) > 0 once Ext(C,T) > 0 or Hom(C,T) > Hom(T,T), the same with
    the arguments swapped; Hom(T,T) = <alpha,alpha> as Ext(T,T) = 0.  Every
    branch that can still give a Z' witness survives until the first one is
    found, so the witness is still the first one in enumeration order.
    """
    q, alpha, simples = spec.quiver, spec.alpha, spec.selected_simples
    table, pk = hom_table(q), _packing(q, alpha)
    w, r, index = pk.w, len(simples), table.index
    low, gains = (1 << 4 * w) - 1, [0] * len(table.walk)
    for tr, m in spec.t_class.parts:
        gains = [g + m * (c & low) for g, c in zip(gains, pk.gain_columns(index[tr])[0])]
    for j, s in enumerate(simples):
        gains = [g + (c << w * (4 + 2 * j)) for g, c in zip(gains, pk.gain_columns(index[s])[1])]
    mask, shifts = (1 << w) - 1, range(4 * w, (4 + 2 * r) * w, 2 * w)
    guard = _fill(1 << (w - 1), w, 4 + 2 * r)
    # meets acc iff some Hom(C,S_j) or Ext(C,S_j) field is >= 2
    over_one = _fill(mask - 1, w, 2 * r) << 4 * w
    # the limits of (ii) with Ext(X,T) = Ext(T,X) = 0, none on the simples'
    # fields, and the guard bits set: a Z' witness may lie below acc iff
    # (ztop - acc) & guard == guard
    htt = euler_form(q, alpha, alpha)
    ztop = _pack([0, htt, 0, htt], w) | guard | (_fill(mask, w, 2 * r) << 4 * w)

    res = Survey(spec, h_points=[], patterns={k: [] for k in spec.selected}, zprime_witness=None)

    def fits(acc):  # the cut rule
        return not acc & over_one or (res.zprime_witness is None and (ztop - acc) & guard == guard)

    for chosen, acc in _walk(pk, alpha, lambda acc, p: acc + gains[p], fits):
        hsum = [(acc >> s) & mask for s in shifts]
        if all(h == 1 for h in hsum):
            if len(res.h_points) < h_cap:
                res.h_points.append(_class_of(table, chosen))
            else:
                res.h_truncated = True
        elif hsum.count(0) == 1 and hsum.count(1) == r - 1:
            k = spec.selected[hsum.index(0)]
            if len(res.patterns[k]) < h_cap:
                res.patterns[k].append(_class_of(table, chosen))
        if res.zprime_witness is None and (ztop - acc) & guard == guard and 0 not in hsum:
            res.zprime_witness = _class_of(table, chosen)
    return res


def components(spec: ZeroSetSpec):
    """Hom-order-maximal classes in the zero set, with codim and hom profile.

    Every component of a zero set of k polynomials has codimension <= k, so
    only classes with self-Ext <= k can be components; among those, the
    Hom-order maxima coincide with the maxima over the whole zero set.  When
    some Hom(E_alpha,S_j) = 0 the zero set is empty, by (v) of ``_Bounds``,
    and nothing is packed or walked.  Otherwise the walk is
    ``enumerate_classes``' bounded walk against T = ``spec.t_class`` and
    the selected simples, which also cuts on (v), so every leaf it streams
    lies in the zero set and becomes a class.
    """
    table, simples = hom_table(spec.quiver), spec.selected_simples
    if not all(_semisimple_homs(table, spec.alpha, simples)):
        return []
    pk = _packing(spec.quiver, spec.alpha)
    bd = _bounds(pk, spec.alpha, spec.t_class, simples)
    found = []
    for chosen, acc in _bounded_walk(spec.alpha, bd, len(spec.selected)):
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


@dataclass
class ReducednessReport:
    verdict: str  # "reduced" | "not-reduced" | "unverified"
    reason: str = ""
    witness: RepClass | None = None  # offending component for not-reduced
    components: list = field(default_factory=list)
    ci: bool = False


def reducedness_report(spec: ZeroSetSpec, comps=None) -> ReducednessReport:
    """Whether Z = Z(f_j : j selected) is reduced, f_j = c_{S_j} = det
    d^V_{S_j}, from the Jacobian of the f_j at one point per component.

    An empty Z is reduced.  Otherwise let k = |selected|.  Unless every
    component has codimension k the verdict is unverified.  When each has,
    Z is cut out of the affine space Rep(Q,alpha) by k equations with every
    component of codimension k: a complete intersection, so Cohen-Macaulay
    with no embedded component, and by Serre's criterion Z is reduced iff it
    is reduced at the generic point eta of every component C.  The local
    ring of Rep(Q,alpha) at eta is regular of dimension k, so O_{Z,eta} =
    O/(f_1, ..., f_k), of dimension 0, is reduced iff it is a field, iff
    the f_j generate the maximal ideal m, iff their classes in m/m^2 are
    independent, iff (char 0) the Jacobian (df_j) has rank k at eta.  C is
    the closure of the orbit O_X of its class X (``components``), O_X is
    open in C, and the rank is constant on O_X, as f_j(gV) = chi_j(g) f_j(V)
    for a character chi_j of GL(alpha).  So Z is reduced iff the Jacobian
    has rank k at every component's X.

    At X, M_j = d^X_{S_j} is square (<alpha, s_j> = 0) with kernel
    Hom(X,S_j) != 0, and df_j(X)(E) = tr(adj(M_j) dM_j(E)).
    - Rule 1, no matrices: if some Hom(X,S_j) >= 2, M_j has corank >= 2, so
      adj(M_j) = 0, df_j(X) = 0, the rank is below k and Z is not reduced,
      with X the witness.  This is ``gradient_a`` false, the paper's
      condition (a) failing: every point of C then has Hom >= 2 against
      S_j.  It is tested on every component, in order, before rule 2.
    - Rule 2: if every Hom(X,S_j) = 1, adj(M_j) = c phi psi^T with c != 0,
      phi spanning ker M_j and psi its left kernel.  The derivative of M_j
      in the coordinate (a, k, t) of X(a) sends phi to the block phi_ha
      E_kt of arrow a, whose entry (i, t) is phi_ha[i, k]; so row j of the
      Jacobian at (a, k, t) is c sum_i psi[a, t, i] phi[ha, k, i]
      (``jacobian.jacobian_rows``, in ``jacobian._dvw``'s layout).
    - Rule 2 mod p: ``jacobian.realize`` builds each root over F_p, and each
      pivot its elimination picks is a unit of Z_(p), the rationals whose
      denominators are prime to p.  Let W, with matrices over Z_(p), reduce
      to a representation built on the way, which by BGP over F_p is
      indecomposable, and let W over Q be indecomposable too, as at the
      simple where the walk starts.  At a source step x, neither W over Q
      nor W mod p is the simple at x, so by BGP over each field the stacked
      matrix A of W(x) -> (+)_a W(ha) has rank dim W(x) over Q and F_p.  The
      pivot columns C found for A^T mod p give a square block B of A^T with
      det B a unit of Z_(p), and B^-1 A^T, over Z_(p), lifts the reduced
      echelon form mod p with the identity in C.  So the vectors read off
      it, one per free column, lift those found mod p and are a basis of the
      left kernel of A over Q: the coreflection over Q, with matrices over
      Z_(p).  So X and S_j have matrices over Z_(p) whose reductions
      ``realize`` returns, and M_j is a matrix over Z_(p) of rational corank
      1.
    - Rule 2 per block: no matrix of X is built.  Hom(X_i(x),S(x)) and
      Hom(X_i(ta),S(ha)) are blocks of the domain and the codomain of M_j,
      and M_j maps the first into the second (phi_ha X_i(a) - S(a) phi_ta
      stays in Hom(X_i(ta),S(ha)) when phi is 0 off X_i), so over Q and
      mod p alike M_j is block diagonal, with the block B_i = d^{X_i}_{S_j}
      once per copy of X_i.  Over Q, B_i has kernel Hom(X_i,S_j) and
      cokernel Ext(X_i,S_j), whose dimensions the Hom table holds.  As
      Hom(X,S_j) = 1, exactly one summand X_u, of multiplicity 1, has
      Hom(X_u,S_j) = 1, and as Ext(X,S_j) = Hom(X,S_j) - <alpha,s_j> = 1,
      exactly one X_v, of multiplicity 1, has Ext(X_v,S_j) = 1.  So phi
      vanishes off block u and psi off block v, and row j is 0 off the
      block X_v(ta) -> X_u(ha) of each X(a).  Only the kernel of B_u mod p
      and the left kernel of B_v mod p are computed.  phi on block u, over
      Z_(p) and scaled to have a unit entry, reduces to a nonzero vector of
      ker(B_u mod p); if that kernel is a line, the phi_u found mod p is a
      nonzero multiple of the reduction of phi.  The same holds for psi_v
      when the left kernel of B_v mod p is a line.  The row built on that
      block from phi_u and psi_v is then a nonzero multiple of the
      reduction of a row over Z_(p), itself a nonzero rational multiple of
      the true row, so a k x k minor nonzero mod p reduces a nonzero minor
      over Z_(p), and the rank over Q is k.  Such a component gets
      ``jacobian_minor``, the coordinates of the minor.  No other block is
      read, so one singular mod p does not touch the argument.  A kernel
      of B_u or a left kernel of B_v that is not a line mod p, or a rank
      below k mod p, proves nothing: the verdict is unverified, and the
      reason names the component, the corank and p.  When M_j mod p has
      corank 1, its kernel and left kernel are spanned by phi_u and psi_v
      extended by 0, so the rows are those of the whole matrix up to a
      nonzero factor each, and as scaling rows keeps the pivot columns of
      their reduced echelon form, ``jacobian_minor`` names the same
      coordinates either way.
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
        rep.reason = "not a set-theoretic complete intersection"
        return rep
    for comp in comps:  # rule 1
        if not comp.gradient_a:
            rep.verdict = "not-reduced"
            rep.witness = comp.rep_class
            rep.reason = ("rule 1: some Hom(X,S_j) >= 2 at a component, "
                          "so df_j vanishes on it")
            return rep
    for comp in comps:  # rule 2
        minor, note = jacobian.jacobian_minor(spec.quiver, comp.rep_class,
                                              spec.selected_simples)
        if minor is None:
            rep.reason = (f"rule 2 is inconclusive mod p = {jacobian.P} at the "
                          f"component {comp.rep_class.parts}: {note}")
            return rep
        comp.jacobian_minor = minor
    rep.verdict = "reduced"
    return rep
