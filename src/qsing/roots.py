"""Positive roots of Dynkin quivers and the per-quiver context.

``hom_table`` builds the context once per quiver: the roots, every pairwise
Hom/Ext dimension, the root order of the class walk and the steps of the
sink walk that the generic decomposition follows.  ``positive_roots``
builds the roots height by height: in a simply-laced root system a
positive root of height h + 1 is beta + e_x for a positive root beta of
height h, and beta + e_x is a root exactly when (beta, e_x) = -1
(Humphreys, *Introduction to Lie Algebras and Representation Theory*,
9.4 and 10.2).  The Hom table comes from one walk along an admissible
sink sequence that reflects every root at once, in exact integer
arithmetic on one list per vertex, and the Ext table is read from the Hom
table by the Auslander-Reiten formula Ext^1(X, Y) = D Hom(Y, tau X), with
dim tau X = c(dim X) for a non-projective indecomposable X
(Assem-Simson-Skowronski, *Elements of the Representation Theory of
Associative Algebras* I, ch. IV and VIII).  The walk and the root steps
read the neighbour lists that ``Quiver.adjacency`` builds once from the
arrows.  The Coxeter transformation c and its inverse are not stored:
``HomTable.coxeter_step`` reflects one list in place at the first n steps
of the same walk, forwards for c and backwards for c^-1, reading the
neighbours each step already holds.  The walk keeps c(r) for every
positive root r, and ``HomTable.translates`` reads from it, on first use,
the image under c and under c^-1 of every positive root, from which the
b-function recursion advances its slots.  No
representation matrix is built here; the tests check the table against
explicit matrices, and ``jacobian.realize`` builds a root's matrices mod a
prime on demand, through its Coxeter translate once the root's walk passes
it, and keeps them on the context.  The class walk's packed integers are
kept there on demand too, one ``orbits._Packing`` per field width, beside
the zero columns of its bound (v), which no width enters and which are
kept once per root, and so are the two per-root bitmasks ``orth`` and
``below`` from which ``decomp.perp_simples`` reads the perpendicular
simples, built on first use rather than by ``hom_table``.
``hom_table`` is the only cache of the package: everything else derived
from a quiver alone hangs off its context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import count
from operator import add, neg

from .quiver import Quiver, require_dynkin, simple_root, tits_form


def positive_roots(q: Quiver):
    """All positive roots of the underlying Dynkin diagram, sorted by
    height then lexicographically, which fixes the root indexing used
    everywhere.

    Built height by height from the simple roots.  In a simply-laced root
    system every positive root of height h + 1 is beta + e_x for some
    positive root beta of height h (Humphreys 10.2), and beta + e_x is a
    root exactly when (beta, e_x) = 2 beta_x - sum of beta_y over the
    neighbours y of x is -1 (Humphreys 9.4: (beta, e_x) lies in {-1, 0, 1}
    for beta != e_x, and the e_x-string through beta has length at most
    two).  The symmetric form reads ``Quiver.adjacency``.
    """
    require_dynkin(q)
    n, adj = q.n, q.adjacency
    level = sorted(simple_root(n, x) for x in range(1, n + 1))
    roots = []
    while level:
        roots += level
        up = set()
        for b in level:
            for x, nbrs in enumerate(adj):
                if 2 * b[x] - sum(b[y] for y in nbrs) == -1:
                    up.add(b[:x] + (b[x] + 1,) + b[x + 1:])
        level = sorted(up)
    assert all(tits_form(q, r) == 1 for r in roots)
    return roots


@dataclass
class HomTable:
    """The per-quiver context: every fact qsing derives from a Dynkin quiver
    alone, built once per quiver by ``hom_table``.

    Root indices refer to ``roots``.  The class walk of ``orbits`` visits
    roots in the order ``walk`` (grouped by first support vertex, decreasing
    lex inside a group); the roots whose first support vertex is x (0-based)
    sit at walk positions start[x] .. end[x] - 1.
    steps[t] = (x, neighbours, i) for the steps t = 0, 1, ... of the
    admissible sink sequence, with 0-based vertices: step t reflects at x,
    whose neighbours in the underlying graph are listed, and root i is the
    one whose walk ends there as the simple at x (t_i = t in ``hom_table``),
    or None when no root's walk does, and end_step[i] = t_i, recorded by
    the same walk.  ``generic_decomposition`` walks a dimension vector
    along these steps; ``jacobian.realize`` starts a root at its end step,
    or at step n from its Coxeter translate when t_i >= n.  ``hom`` comes
    from one walk that reflects every root at once along these steps, and
    ``ext`` from ``hom`` by the Auslander-Reiten formula: ext(i, j) =
    hom(j, index[c(r_i)]) with tau = c = ``coxeter_step(+1)``, and 0 when
    c(r_i) is not positive, X_i projective (Assem-Simson-Skowronski I,
    ch. IV and VIII; see ``hom_table``).  ``tau`` keeps c(r_i) as the walk
    found it, all 0 for a projective X_i.

    What later layers derive from the quiver alone is kept here too, filled
    on demand: ``jacobian``'s realized roots and its kernels of one block
    per side, the packed integers of ``orbits``' class walk, one packing
    per field width, its width-free zero columns ``zero_cols``, one per
    root, and the Hom rows ``simple_hom`` of the simple roots, from which
    it reads Hom(E,X) at a semisimple E, the bitmasks ``orth`` and
    ``below`` of ``decomp.perp_simples`` (bit j of a mask stands for root
    j), and the Coxeter images ``translates`` of the roots, which the
    b-function recursion of ``brackets`` reads, each built once, on first
    use.
    """

    quiver: Quiver
    roots: list  # positive roots, by height then lexicographically
    index: dict  # root tuple -> position in roots
    hom: list  # hom[i][j] = dim Hom(X_i, X_j)
    ext: list  # ext[i][j] = dim Ext^1(X_i, X_j)
    walk: list
    start: list
    end: list
    steps: list
    end_step: list  # end_step[i] = t_i, the step at which root i's walk ends
    tau: list  # tau[i] = c(r_i), or all 0 when X_i is projective
    # root -> its representation mod ``jacobian.P``, filled by
    # ``jacobian.realize`` on demand, never here
    realized: dict = field(default_factory=dict, repr=False, compare=False)
    # (root, simple, side) -> the kernel (side 0) or left kernel (side 1)
    # of d^X_S mod ``jacobian.P`` with its offsets, filled by ``jacobian``
    # on demand, never here
    kernels: dict = field(default_factory=dict, repr=False, compare=False)
    # field width -> the table packed at that width with the class walk's
    # columns (``orbits._Packing``), filled by ``orbits._packing`` on demand
    packed: dict = field(default_factory=dict, repr=False, compare=False)
    # root index i -> the zero column of bound (v) of ``orbits._Bounds``
    # against root i, which no field width enters, filled by
    # ``orbits._zero_column`` on demand, never here
    zero_cols: dict = field(default_factory=dict, repr=False, compare=False)

    def hom_root(self, a, b):
        return self.hom[self.index[tuple(a)]][self.index[tuple(b)]]

    def ext_root(self, a, b):
        return self.ext[self.index[tuple(a)]][self.index[tuple(b)]]

    @cached_property
    def simple_hom(self):
        """simple_hom[x]: the row dim Hom(S_x, -) of the simple root at
        vertex x (0-based)."""
        n = self.quiver.n
        return [self.hom[self.index[simple_root(n, x)]] for x in range(1, n + 1)]

    @cached_property
    def orth(self):
        """orth[i]: bitmask of the roots j with Hom(X_i,X_j) = Ext(X_i,X_j) = 0."""
        return [sum(1 << j for j, (h, e) in enumerate(zip(h_row, e_row)) if h == e == 0)
                for h_row, e_row in zip(self.hom, self.ext)]

    @cached_property
    def below(self):
        """below[j]: bitmask of the roots i != j with Hom(X_i,X_j) > 0 and
        r_i <= r_j.  The roots are packed w bits per coordinate with a guard
        bit on top of each field, so r_i <= r_j is one subtraction.  Such an
        r_i has a lower height than r_j, and the roots are sorted by height,
        so only the pairs i < j are tested."""
        w = max(max(r) for r in self.roots).bit_length() + 1
        guard = sum(1 << (w * v + w - 1) for v in range(self.quiver.n))
        packed = [sum(c << (w * v) for v, c in enumerate(r)) for r in self.roots]
        out = [0] * len(self.roots)
        for i, (h_row, p) in enumerate(zip(self.hom, packed)):
            for j in range(i + 1, len(h_row)):
                if h_row[j] and ((packed[j] | guard) - p) & guard == guard:
                    out[j] |= 1 << i
        return out

    @cached_property
    def translates(self):
        """translates[d][r]: c^d(r) for d = +1 and d = -1 and each positive
        root r, or None when that image is not positive.  c maps roots to
        roots, so the image is then a negative root: the object of r is
        projective (d = +1) or injective (d = -1).  Read from ``tau``, which
        the walk of ``hom_table`` keeps: c^-1 maps c(r) back to r, so c^-1(w)
        is positive exactly for the w that are some c(r), r positive.  The
        b-function recursion advances its slots, which are positive roots,
        by one lookup here."""
        forward = {r: w if any(w) else None for r, w in zip(self.roots, self.tau)}
        backward = dict.fromkeys(self.roots)
        backward.update((w, r) for r, w in forward.items() if w is not None)
        return {+1: forward, -1: backward}

    def coxeter_step(self, v, direction=+1):
        """c(v) for direction +1 and c^{-1}(v) for -1, in integers.

        c = s_{x_n} ... s_{x_1} is the product of the simple reflections
        along the admissible sink sequence x_1, ..., x_n (BGP), and it
        equals -E^{-1} E^t for the Euler matrix E.  The steps 0 .. n - 1 of
        ``steps`` reflect at x_1, ..., x_n, so c reflects v at them in order
        and c^{-1} = s_{x_1} ... s_{x_n} in reverse.  There are at least n
        steps, since the walk of the simple root at x_n cannot end before
        step n - 1: reflections at other vertices keep its coordinate x_n
        at 1.

        The n reflections act on one list in place: each sets coordinate x
        to the sum of its neighbours' coordinates, read from ``steps``,
        minus itself, and one tuple is built at the end.  v may have
        negative entries.
        """
        n, w = self.quiver.n, list(v)
        get = w.__getitem__
        for x, nbrs, _ in (self.steps[:n] if direction > 0 else self.steps[n - 1::-1]):
            w[x] = sum(map(get, nbrs)) - w[x]
        return tuple(w)


@lru_cache(maxsize=None)
def hom_table(q: Quiver) -> HomTable:
    """The per-quiver context of ``q``; raises NonDynkinError off Dynkin type.

    Hom dimensions follow the reflection-functor recursion along the
    admissible sink sequence x_0, x_1, ...: at a sink x, Hom(S_x, N) =
    dim N(x) and Hom(M, S_x) = 0 for an indecomposable M != S_x, and C^+_x
    preserves Hom between indecomposables other than S_x.  Root i is
    walked to the step t_i at which it is first the simple at the vertex
    x_{t_i} reflected next; then hom(i, j) is coordinate x_{t_i} of root j
    walked t_i steps when t_j >= t_i, and 0 otherwise.

    One walk reflects every root at once.  It keeps one list per vertex,
    cols[x][i] = coordinate x of root i, and step t replaces the list of
    x_t by the sum of its neighbours' lists minus itself.  A root that has
    not ended is a positive root, and s_x maps every positive root other
    than e_x to a positive root and e_x to -e_x, so the root that ends at
    step t is the one whose new coordinate x_t is -1.  Its row of hom is
    the list of x_t before the step.  An ended root is taken out of the
    test by setting its coordinates to 0, which every later reflection
    keeps at 0: the list of x_t then holds 0 for each root j with t_j <
    t_i, as hom(i, j) asks, and an ended root is never the simple again.

    Ext is read from Hom by the Auslander-Reiten formula Ext^1(X, Y) = D
    Hom(Y, tau X) with dim tau X = c(dim X) for a non-projective
    indecomposable X (Assem-Simson-Skowronski I, ch. IV and VIII).  Here
    tau = c = ``coxeter_step(+1)``, the n reflections at x_0, ..., x_{n-1}
    that the walk takes first, so after n steps cols holds c(r_i) for every
    root i still walking.  So ext(i, j) = hom(j, index[c(r_i)]), and
    ext(i, j) = 0 when X_i is projective, which is when c(r_i) is not
    positive, the roots whose walks end in the first n steps; their
    coordinates are then 0.
    """
    roots = positive_roots(q)
    n, k = q.n, len(roots)
    seq = [x - 1 for x in q.admissible_sink_sequence()]
    adj = q.adjacency
    cols = [list(c) for c in zip(*roots)]  # cols[x][i]: coordinate x of root i
    hom, end_step, ends = [None] * k, [None] * k, []  # ends[t]: the root ending at t
    left = k
    for t in count():
        if t == n:
            tau = list(zip(*cols))  # tau[i] = c(r_i), or all 0 when X_i is projective
        if not left:
            break
        assert t < 64 * n, "reflection walk failed to terminate"
        x = seq[t % n]
        old = cols[x]
        new = map(neg, old)
        for y in adj[x]:
            new = map(add, new, cols[y])
        cols[x] = new = list(new)
        if -1 in new:
            i = new.index(-1)
            hom[i], end_step[i] = old, t
            for col in cols:
                col[i] = 0
            left -= 1
        else:
            i = None
        ends.append(i)

    index = {r: i for i, r in enumerate(roots)}
    hom_cols = list(zip(*hom))  # hom_cols[m][j] = hom(j, m)
    projective = (0,) * k
    ext = []
    for i, c in enumerate(tau):
        e_row = list(hom_cols[index[c]] if c in index else projective)
        assert min(e_row) >= 0
        assert hom[i][i] == 1 and e_row[i] == 0
        ext.append(e_row)

    first = [next(v for v, c in enumerate(r) if c) for r in roots]
    walk = sorted(range(k), key=lambda i: (first[i], [-c for c in roots[i]]))
    walk_first = [first[i] for i in walk]
    start = [walk_first.index(x) for x in range(n)]
    end = [start[x] + walk_first.count(x) for x in range(n)]
    steps = [(seq[t % n], adj[seq[t % n]], i) for t, i in enumerate(ends)]

    return HomTable(q, roots, index, hom, ext, walk, start, end, steps, end_step,
                    tau)
