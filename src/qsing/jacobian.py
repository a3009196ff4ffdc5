"""Representations of the roots mod a prime, and the Jacobian of
semi-invariants at a direct sum of them, ranked mod that prime.

``realize`` builds the indecomposable with a given root as dimension vector
by Bernstein-Gelfand-Ponomarev coreflections along the root's walk in
``hom_table``, over F_P for the prime ``P``.  Each coreflection projects
onto a cokernel through a left kernel, found by elimination mod P
(``_kernel``); reflection functors work over any field, so the walk always
ends at the root.

``jacobian_rows`` and ``jacobian_minor`` work from the kernels of
d^{X_i}_S mod P, laid out as the test oracle ``hom_matrix_dvw`` lays it out,
for each summand X_i of X alone: d^X_S is block diagonal over them.
Realized roots and those kernels are kept on ``hom_table(q)`` on demand, for
the P they were built at.  ``orbits.reducedness_report`` proves what a rank
mod ``P`` says over Q.
"""

from __future__ import annotations

from .decomp import RepClass
from .quiver import Quiver
from .roots import hom_table

P = (1 << 61) - 1  # a prime; every matrix here is reduced mod P


def _echelon(rows, ncols, p):
    """Bring ``rows``, reduced mod the prime ``p``, to reduced row echelon
    form mod p in place; return the pivot columns.  The pivot of a column is
    its first nonzero entry from the current row down, as in the test
    oracle."""
    pivots, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        u = rows[r][c]
        if u != 1:
            inv = pow(u, -1, p)
            rows[r] = [x * inv % p for x in rows[r]]
        top = rows[r]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _kernel(rows, ncols, p):
    """A basis mod the prime ``p`` of the column vectors x with M x = 0 for
    the matrix M whose rows are ``rows``, of ``ncols`` columns: one vector
    per free column of its reduced row echelon form, as the test oracle's
    ``left_nullspace`` builds it on the transpose."""
    rows = [[v % p for v in r] for r in rows]
    pivots = _echelon(rows, ncols, p)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc] % p
        basis.append(v)
    return basis


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def realize(q: Quiver, root):
    """(dims, maps) of an indecomposable with dimension vector ``root``
    over F_P: maps[a] is the dims[ha] x dims[ta] matrix of arrow a mod
    ``P``, a list of rows, shared with the cache, so do not modify it.

    The root's walk ends at step t as the simple at the vertex z of
    steps[t] in ``hom_table``, a sink of the quiver reflected at steps 0 ..
    t - 1, so over that quiver the simple at z has a 1 x 0 matrix on each
    arrow at z and 0 x 0 elsewhere.  Undo the reflections from step t - 1
    down: the vertex x of step s is a source of the quiver reflected at
    steps 0 .. s, so every arrow at x leaves x, and the coreflection there
    maps the new V(x) onto the cokernel of V(x) -> (+)_{a at x} V(ha), whose
    basis is the left kernel of the stacked matrices mod P.  Raises
    KeyError for a vector that is not a positive root.
    """
    table = hom_table(q)
    root = tuple(root)
    if root in table.realized:
        return table.realized[root]
    i = table.index[root]
    t = next(t for t, (_, _, j) in enumerate(table.steps) if j == i)
    z = table.steps[t][0] + 1
    dims = [int(v == z) for v in range(1, q.n + 1)]
    maps = [[[]] if z in arrow else [] for arrow in q.arrows]
    for x, nbrs, _ in reversed(table.steps[:t]):
        out = [a for a, arrow in enumerate(q.arrows) if x + 1 in arrow]  # towards nbrs, in order
        stacked = [row for a in out for row in maps[a]]
        proj = _kernel(_transpose(stacked), len(stacked), P)
        dims[x] = len(proj)
        off = 0
        for a, h in zip(out, nbrs):
            maps[a] = [p[off:off + dims[h]] for p in proj]
            off += dims[h]
    assert tuple(dims) == root, f"realize built {tuple(dims)} for the root {root}"
    table.realized[root] = rep = (root, maps)
    return rep


def _dvw(q: Quiver, v, w):
    """The matrix of d^V_W : (+)_x Hom(V(x),W(x)) -> (+)_a
    Hom(V(ta),W(ha)), phi -> phi_ha V(a) - W(a) phi_ta, laid out as the test
    oracle's ``hom_matrix_dvw``: Hom(V(x),W(x)) is column-major at column
    offset ``col_off[x]``, so its entry (i, k) is column col_off[x] + k
    dim W(x) + i, and arrow a's block starts at row offset ``row_off[a]``,
    with its entry (i, c) at row row_off[a] + c dim W(ha) + i.  Returns
    (rows, col_off, row_off)."""
    (vd, vm), (wd, wm) = v, w
    col_off, row_off = [0], [0]
    for x in range(q.n):
        col_off.append(col_off[-1] + vd[x] * wd[x])
    for t, h in q.arrows:
        row_off.append(row_off[-1] + vd[t - 1] * wd[h - 1])
    rows = [[0] * col_off[-1] for _ in range(row_off[-1])]
    for a, (t, h) in enumerate(q.arrows):
        va, wa, dwh, dwt = vm[a], wm[a], wd[h - 1], wd[t - 1]
        for c in range(vd[t - 1]):
            for i in range(dwh):
                row = rows[row_off[a] + c * dwh + i]
                for k in range(vd[h - 1]):
                    if va[k][c]:
                        row[col_off[h - 1] + k * dwh + i] += va[k][c]
                for k in range(dwt):
                    if wa[i][k]:
                        row[col_off[t - 1] + c * dwt + k] -= wa[i][k]
    return rows, col_off, row_off


def _pair(q: Quiver, root, s):
    """(kernel, left kernel, col_off, row_off) of d^V_S mod ``P``, V and S
    realized, in ``_dvw``'s layout, kept on the context."""
    cache = hom_table(q).kernels
    if (root, s) not in cache:
        m, col_off, row_off = _dvw(q, realize(q, root), realize(q, s))
        cache[root, s] = (_kernel(m, col_off[-1], P),
                          _kernel(_transpose(m), row_off[-1], P), col_off, row_off)
    return cache[root, s]


def jacobian_rows(q: Quiver, cls: RepClass, simples):
    """The Jacobian of the semi-invariants f_j = det d^V_{S_j} mod ``P``, up
    to a nonzero factor per row, at X, the direct sum of ``realize`` over
    ``cls.as_multiset()``.  Returns (coords, rows): the coordinates (a, k,
    t) of X, entry (k, t) of X(a), arrow by arrow, row by row, and per simple
    (corank of d^X_{S_j} mod P, summed over the summands, and row j or
    None).  Row j is given when that corank is 1: one summand X_u has a
    kernel phi, one X_v a left kernel psi (``_pair``), and row j is 0 off
    the block X_v(ta) -> X_u(ha) of each X(a), where its entry (k, t) is
    sum_i psi[row_off[a] + t dim S(ha) + i] phi[col_off[ha] + k dim S(ha) + i].
    """
    parts = cls.as_multiset()
    dims = [sum(r[x] for r in parts) for x in range(q.n)]
    coords = [(a, k, t) for a, (ta, ha) in enumerate(q.arrows)
              for k in range(dims[ha - 1]) for t in range(dims[ta - 1])]
    where = {c: i for i, c in enumerate(coords)}
    out = []
    for s in simples:
        pairs = [_pair(q, r, tuple(s)) for r in parts]
        corank = sum(len(pair[0]) for pair in pairs)
        if corank != 1:
            out.append((corank, None))
            continue
        u = next(i for i, pair in enumerate(pairs) if pair[0])
        v = next(i for i, pair in enumerate(pairs) if pair[1])
        ((phi,), _, col_off, _), (_, (psi,), _, row_off) = pairs[u], pairs[v]
        row = [0] * len(coords)
        for a, (ta, ha) in enumerate(q.arrows):
            sh, k0 = s[ha - 1], sum(r[ha - 1] for r in parts[:u])
            t0 = sum(r[ta - 1] for r in parts[:v])
            for k in range(parts[u][ha - 1]):
                for t in range(parts[v][ta - 1]):
                    pk, pt = col_off[ha - 1] + k * sh, row_off[a] + t * sh
                    row[where[a, k0 + k, t0 + t]] = sum(
                        psi[pt + i] * phi[pk + i] for i in range(sh)) % P
        out.append((1, row))
    return coords, out


def jacobian_minor(q: Quiver, cls: RepClass, simples):
    """(minor, note): the coordinates of X, named as in ``jacobian_rows``,
    one per simple, at which its Jacobian has a nonzero minor mod ``P``,
    and "" when every corank is 1 and the rank mod P is the number of
    simples; otherwise None and what failed."""
    coords, rows = jacobian_rows(q, cls, simples)
    for s, (corank, _) in zip(simples, rows):
        if corank != 1:
            return None, f"d^X_S has corank {corank} mod p for S = {tuple(s)}"
    pivots = _echelon([row[:] for _, row in rows], len(coords), P)
    if len(pivots) < len(rows):
        return None, f"the Jacobian has rank {len(pivots)} < {len(rows)} mod p"
    return tuple(coords[c] for c in pivots), ""
