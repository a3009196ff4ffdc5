"""Positive roots of Dynkin quivers and the per-quiver context.

``hom_table`` builds the context once per quiver: the roots, every pairwise
Hom/Ext dimension, the root order of the class walk and the steps of the
sink walk that the generic decomposition follows.  Its Hom table comes from
one reflection walk per root along an admissible sink sequence, in exact
integer arithmetic on dimension vectors, and its Ext table from the Euler
form, read as one dot product per pair against the root's Euler column.
The root closure and the walks reflect through ``quiver.reflect_dim``,
which reads the neighbour lists that ``Quiver.adjacency`` builds once from
the arrows.  The Coxeter transformation c and its inverse are not stored:
``HomTable.coxeter_step`` reflects one list in place at the first n steps
of the same walk, forwards for c and backwards for c^-1, reading the
neighbours each step already holds, and ``HomTable.translates`` keeps,
built on first use, the image under c and under c^-1 of every positive
root, from which the b-function recursion advances its slots.  No
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
from operator import mul

from .quiver import Quiver, reflect_dim, require_dynkin, simple_root, tits_form


def positive_roots(q: Quiver):
    """All positive roots of the underlying Dynkin diagram.

    Closure of the simple roots under simple reflections; sorted by height
    then lexicographically, which fixes the root indexing used everywhere.
    """
    require_dynkin(q)
    simples = [simple_root(q.n, x) for x in range(1, q.n + 1)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for x in range(1, q.n + 1):
                w = reflect_dim(q, x, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    roots = sorted((v for v in seen if all(c >= 0 for c in v) and any(v)),
                   key=lambda v: (sum(v), v))
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
    or None when no root's walk does.  ``generic_decomposition`` walks a
    dimension vector along these steps.

    What later layers derive from the quiver alone is kept here too, filled
    on demand: ``jacobian``'s realized roots, the steps ``end_step`` at
    which their walks end, and its kernels of one block per side, the
    packed integers of ``orbits``' class walk, one packing per field width,
    its width-free zero columns ``zero_cols``, one per root, and the Hom
    rows ``simple_hom`` of the simple roots, from which it reads Hom(E,X) at
    a semisimple E, the bitmasks ``orth`` and ``below`` of
    ``decomp.perp_simples`` (bit j of a mask stands for root j), and the
    Coxeter images ``translates`` of the roots, which the b-function
    recursion of ``brackets`` reads, each built once, on first use.
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
    def end_step(self):
        """end_step[i]: the step t_i of ``steps`` at which the walk of root
        i ends, read off ``steps`` on first use; ``jacobian.realize``
        starts there, or at step n from the root's Coxeter translate when
        t_i >= n."""
        out = [0] * len(self.roots)
        for t, (_, _, i) in enumerate(self.steps):
            if i is not None:
                out[i] = t
        return out

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
        projective (d = +1) or injective (d = -1).  Built from
        ``coxeter_step``; the b-function recursion advances its slots, which
        are positive roots, by one lookup here."""
        out = {}
        for d in (+1, -1):
            images = (self.coxeter_step(r, d) for r in self.roots)
            out[d] = {r: w if min(w) >= 0 else None
                      for r, w in zip(self.roots, images)}
        return out

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
        minus itself, as ``quiver.reflect_dim`` does, and one tuple is
        built at the end.  v may have negative entries.
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
    preserves Hom between indecomposables other than S_x.  A root's walk
    does not depend on the other root of a pair, so each root i is walked
    once, to the step t_i at which it is the simple at the vertex x_{t_i}
    reflected next.  Then hom(i, j) is coordinate x_{t_i} of root j walked
    t_i steps when t_j >= t_i, and 0 otherwise.

    Ext comes from hom(i, j) - ext(i, j) = <r_i, r_j>, the Euler form.  For
    each root b the Euler column E.b, with (E.b)_x = b_x - sum of b_h over
    the arrows x -> h, is built once; then <a, b> = a . (E.b), so ext(i, j)
    = hom(i, j) - r_i . (E.r_j) is one n-term dot product per pair.  The
    walks, the root closure and ``steps`` read one table of neighbour
    lists, ``Quiver.adjacency``.
    """
    roots = positive_roots(q)
    n, k = q.n, len(roots)
    seq = q.admissible_sink_sequence()
    simples = [simple_root(n, x) for x in range(1, n + 1)]
    paths = []  # paths[i][t]: root i after t steps of the walk
    for r in roots:
        path, x = [r], seq[0]
        while path[-1] != simples[x - 1]:
            path.append(reflect_dim(q, x, path[-1]))
            assert len(path) < 64 * n, "reflection walk failed to terminate"
            x = seq[(len(path) - 1) % n]
        paths.append(path)
    columns = []  # columns[j]: the Euler column E.r_j
    for b in roots:
        c = list(b)
        for t, h in q.arrows:
            c[t - 1] -= b[h - 1]
        columns.append(c)
    hom, ext = [], []
    for i, (r, pi) in enumerate(zip(roots, paths)):
        t = len(pi) - 1
        x = seq[t % n] - 1
        h_row = [pj[t][x] if len(pj) > t else 0 for pj in paths]
        e_row = [h - sum(map(mul, r, c)) for h, c in zip(h_row, columns)]
        assert min(e_row) >= 0
        assert h_row[i] == 1 and e_row[i] == 0
        hom.append(h_row)
        ext.append(e_row)

    first = [next(v for v, c in enumerate(r) if c) for r in roots]
    walk = sorted(range(k), key=lambda i: (first[i], [-c for c in roots[i]]))
    walk_first = [first[i] for i in walk]
    start = [walk_first.index(x) for x in range(n)]
    end = [start[x] + walk_first.count(x) for x in range(n)]
    ends = {len(p) - 1: i for i, p in enumerate(paths)}  # t_i -> i
    steps = [(seq[t % n] - 1, q.adjacency[seq[t % n] - 1], ends.get(t))
             for t in range(max(ends) + 1)]

    return HomTable(q, roots, {r: i for i, r in enumerate(roots)}, hom, ext,
                    walk, start, end, steps)
