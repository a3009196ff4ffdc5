"""Positive roots of Dynkin quivers, explicit indecomposable representations,
Hom/Ext dimensions, and the per-quiver context.

Two routes to Hom dimensions coexist on purpose:

* ``hom_dim`` computes the nullity of the explicit matrix of
  d^V_W : (+)_x Hom(V(x),W(x)) -> (+)_a Hom(V(ta),W(ha))
  over Q, from concrete rational matrices.  This is the ground truth.
* ``hom_table`` builds the per-quiver context once per quiver: the roots,
  every pairwise Hom/Ext dimension, the root order of the class walk, the
  steps of the sink walk that the generic decomposition follows, and the
  Coxeter matrix with its inverse.  Its Hom table comes from one reflection
  walk per root along an admissible sink sequence, and the two Coxeter
  matrices are products of the simple reflections along that sequence and
  its reverse, all in exact integer arithmetic.  ``realize`` reads each
  root's walk from the table.  The two routes are cross-checked in the test
  suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exactmat import Mat, left_nullspace, rank
from .quiver import (
    Quiver,
    euler_form,
    reflect_dim,
    reflection_product,
    require_dynkin,
    simple_root,
    tits_form,
)


class NotARootError(ValueError):
    pass


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


def is_positive_root(q: Quiver, v) -> bool:
    return all(c >= 0 for c in v) and any(v) and tits_form(q, v) == 1


@dataclass
class Representation:
    """Explicit rational matrices V(a) indexed by arrow position."""

    quiver: Quiver
    dims: tuple
    maps: dict  # arrow index in quiver.arrows -> Mat of shape dims[ha] x dims[ta]


def simple_rep(q: Quiver, x) -> Representation:
    dims = simple_root(q.n, x)
    maps = {i: Mat(dims[h - 1], dims[t - 1]) for i, (t, h) in enumerate(q.arrows)}
    return Representation(q, dims, maps)


def _coreflect(q_src: Quiver, x, rep: Representation) -> Representation:
    """C^-_x at a source x of rep.quiver (= q_src); result lives over the
    reflected quiver.  Callers pass the target quiver to avoid rebuilding."""
    q = rep.quiver
    out_arrows = [(i, a) for i, a in enumerate(q.arrows) if a[0] == x]
    # stack V(x) -> (+)_{a: ta=x} V(ha)
    tot = sum(rep.dims[a[1] - 1] for _, a in out_arrows)
    dx = rep.dims[x - 1]
    psi = Mat(tot, dx)
    off = 0
    for i, (t, h) in out_arrows:
        m = rep.maps[i]
        for r in range(m.nrows):
            psi.rows[off + r] = list(m.rows[r])
        off += m.nrows
    proj_rows = left_nullspace(psi)  # rows spanning a cokernel projection
    newdim = len(proj_rows)
    proj = Mat(newdim, tot, proj_rows)

    new_dims = list(rep.dims)
    new_dims[x - 1] = newdim
    new_dims = tuple(new_dims)
    new_maps = {}
    qr = q_src
    off = 0
    offsets = {}
    for i, (t, h) in out_arrows:
        offsets[i] = off
        off += rep.dims[h - 1]
    for i, (t, h) in enumerate(qr.arrows):
        if h == x:
            # reversed arrow: map V(t) -> coker, t was a head of an old arrow at x
            old_i = i  # arrow positions are preserved by Quiver.reflect
            o = offsets[old_i]
            cols = rep.dims[t - 1]
            m = Mat(newdim, cols)
            for r in range(newdim):
                m.rows[r] = proj.rows[r][o:o + cols]
            new_maps[i] = m
        else:
            new_maps[i] = rep.maps[i].copy()
    return Representation(qr, new_dims, new_maps)


def realize(q: Quiver, root) -> Representation:
    """Explicit indecomposable with dimension vector ``root``.

    Built with Bernstein-Gelfand-Ponomarev reflection functors along the
    admissible sink sequence: the root's walk ends at step t as the simple
    at the vertex of steps[t] in ``hom_table``, so apply the inverse
    reflections of steps t - 1, ..., 0 to that simple representation.
    Raises NonDynkinError off Dynkin type and NotARootError for a vector
    that is not a positive root.
    """
    table = hom_table(q)
    root = tuple(root)
    if root not in table.index:
        raise NotARootError(f"{root} is not a positive root")
    i = table.index[root]
    t = next(t for t, (_, _, j) in enumerate(table.steps) if j == i)
    xs = [x + 1 for x, _, _ in table.steps[:t + 1]]
    quivers = [q]
    for x in xs[:-1]:
        quivers.append(quivers[-1].reflect(x))
    rep = simple_rep(quivers[t], xs[t])
    for s in range(t - 1, -1, -1):
        # xs[s] is a source of quivers[s+1]; reflect back to quivers[s]
        rep = _coreflect(quivers[s], xs[s], rep)
    assert rep.dims == root
    return rep


def hom_matrix_dvw(v: Representation, w: Representation) -> Mat:
    """Matrix of d^V_W, basis ordered vertices ascending then column-major
    inside each Hom(V(x),W(x)) block."""
    if v.quiver.arrows != w.quiver.arrows or v.quiver.n != w.quiver.n:
        raise ValueError("representations over different quivers")
    q = v.quiver
    col_off = []
    off = 0
    for x in range(q.n):
        col_off.append(off)
        off += v.dims[x] * w.dims[x]
    ncols = off
    row_off = []
    off = 0
    for t, h in q.arrows:
        row_off.append(off)
        off += v.dims[t - 1] * w.dims[h - 1]
    nrows = off
    m = Mat(nrows, ncols)
    for ai, (t, h) in enumerate(q.arrows):
        va = v.maps[ai]
        wa = w.maps[ai]
        ro = row_off[ai]
        dvt, dwh = v.dims[t - 1], w.dims[h - 1]
        # output entry (jt, it) at row ro + jt*dwh + it equals
        #   sum_k phi_h[it][k] * va[k][jt]  -  sum_k wa[it][k] * phi_t[k][jt]
        co_h = col_off[h - 1]
        dwhh = w.dims[h - 1]
        for jt in range(dvt):
            for it in range(dwh):
                r = ro + jt * dwh + it
                for k in range(va.nrows):  # va: dims[h'] rows? va maps V(t)->V(h): rows=dims V(h)
                    if va.rows[k][jt]:
                        # phi_h has shape w.dims[h] x v.dims[h]; column-major index
                        m.rows[r][co_h + k * dwhh + it] += va.rows[k][jt]
                co_t = col_off[t - 1]
                dwt = w.dims[t - 1]
                for k in range(dwt):
                    if wa.rows[it][k]:
                        m.rows[r][co_t + jt * dwt + k] -= wa.rows[it][k]
    return m


def hom_dim(v: Representation, w: Representation) -> int:
    m = hom_matrix_dvw(v, w)
    return m.ncols - rank(m)


def ext_dim(v: Representation, w: Representation) -> int:
    e = hom_dim(v, w) - euler_form(v.quiver, v.dims, w.dims)
    assert e >= 0
    return e


@dataclass
class HomTable:
    """The per-quiver context: every fact qsing derives from a Dynkin quiver
    alone, built once per quiver by ``hom_table``.

    Root indices refer to ``roots``.  The class walk of ``orbits`` visits
    roots in the order ``walk`` (grouped by first support vertex, decreasing
    lex inside a group); the roots whose first support vertex is x (0-based)
    sit at walk positions start[x] .. end[x] - 1, and support[p] lists the
    (vertex, coordinate) pairs of the root at walk position p.
    steps[t] = (x, neighbours, i) for the steps t = 0, 1, ... of the
    admissible sink sequence, with 0-based vertices: step t reflects at x,
    whose neighbours in the underlying graph are listed, and root i is the
    one whose walk ends there as the simple at x (t_i = t in ``hom_table``),
    or None when no root's walk does.  ``generic_decomposition`` walks a
    dimension vector along these steps.
    """

    quiver: Quiver
    roots: list  # positive roots, by height then lexicographically
    index: dict  # root tuple -> position in roots
    hom: list  # hom[i][j] = dim Hom(X_i, X_j)
    ext: list  # ext[i][j] = dim Ext^1(X_i, X_j)
    walk: list
    start: list
    end: list
    support: list
    steps: list
    coxeter: tuple  # c = s_{x_n} ... s_{x_1} along the admissible sink sequence
    coxeter_inv: tuple  # c^{-1} = s_{x_1} ... s_{x_n}, the reversed product

    def hom_root(self, a, b):
        return self.hom[self.index[tuple(a)]][self.index[tuple(b)]]

    def ext_root(self, a, b):
        return self.ext[self.index[tuple(a)]][self.index[tuple(b)]]


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
    """
    roots = positive_roots(q)
    n, k = q.n, len(roots)
    seq = q.admissible_sink_sequence()
    paths = []  # paths[i][t]: root i after t steps of the walk
    for r in roots:
        path = [r]
        while path[-1] != simple_root(n, seq[(len(path) - 1) % n]):
            path.append(reflect_dim(q, seq[(len(path) - 1) % n], path[-1]))
            assert len(path) < 64 * n, "reflection walk failed to terminate"
        paths.append(path)
    hom = [[0] * k for _ in range(k)]
    ext = [[0] * k for _ in range(k)]
    for i, pi in enumerate(paths):
        t = len(pi) - 1
        x = seq[t % n] - 1
        for j, pj in enumerate(paths):
            h = pj[t][x] if len(pj) > t else 0
            e = h - euler_form(q, roots[i], roots[j])
            assert e >= 0
            hom[i][j] = h
            ext[i][j] = e
        assert hom[i][i] == 1 and ext[i][i] == 0

    first = [next(v for v, c in enumerate(r) if c) for r in roots]
    walk = sorted(range(k), key=lambda i: (first[i], [-c for c in roots[i]]))
    walk_first = [first[i] for i in walk]
    start = [walk_first.index(x) for x in range(n)]
    end = [start[x] + walk_first.count(x) for x in range(n)]
    support = [[(v, c) for v, c in enumerate(roots[i]) if c] for i in walk]
    ends = {len(p) - 1: i for i, p in enumerate(paths)}  # t_i -> i
    steps = []
    for t in range(max(ends) + 1):
        x = seq[t % n]
        steps.append((x - 1, tuple(y - 1 for y in q.neighbors(x)), ends.get(t)))

    return HomTable(q, roots, {r: i for i, r in enumerate(roots)}, hom, ext,
                    walk, start, end, support, steps,
                    reflection_product(q, seq),
                    reflection_product(q, seq[::-1]))
