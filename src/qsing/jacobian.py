"""Representations of the roots mod a prime, and the Jacobian of
semi-invariants at a direct sum of them, ranked mod that prime.

``realize`` builds the indecomposable with a given root as dimension vector
by Bernstein-Gelfand-Ponomarev coreflections along the root's walk in
``hom_table``, over F_P for the prime ``P``.  Each coreflection projects
onto a cokernel through a left kernel, found by elimination mod P
(``_kernel``); reflection functors work over any field, so the walk always
ends at the root.  A walk that passes the root's Coxeter translate c(root)
at step n starts from c(root), realized first and kept, so each root runs
at most n coreflections of its own, with the matrices of the whole walk.

``jacobian_rows`` and ``jacobian_minor`` work from two blocks of d^X_S per
simple S, laid out as the test oracle ``hom_matrix_dvw`` lays them out:
d^X_S is block diagonal over the summands X_i of X, block i has kernel
Hom(X_i,S) and cokernel Ext(X_i,S) over Q, and when Hom(X,S) = 1 the
Hom table names the one summand X_u whose block has a kernel and the one
X_v whose block has a cokernel.  Only the kernel of block u and the left
kernel of block v are computed mod P (``_block``).  Realized roots and
those kernels are kept on ``hom_table(q)`` on demand, for the P they were
built at.  ``orbits.reducedness_report`` proves what a rank mod ``P`` says
over Q.
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
    pivots, r, nrows = [], 0, len(rows)
    for c in range(ncols):
        for piv in range(r, nrows):
            if rows[piv][c]:
                break
        else:
            continue
        top = rows[piv]
        rows[piv] = rows[r]
        u = top[c]
        if u != 1:
            inv = pow(u, -1, p)
            top = [x * inv % p for x in top]
        rows[r] = top
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _kernel(rows, ncols, p):
    """A basis mod the prime ``p`` of the column vectors x with M x = 0 for
    the matrix M whose rows are ``rows``, of ``ncols`` columns: one vector
    per free column of its reduced row echelon form, as the test oracle's
    ``left_nullspace`` builds it on the transpose."""
    if not rows:
        return [[int(c == fc) for c in range(ncols)] for fc in range(ncols)]
    rows = [[v % p for v in r] for r in rows]
    pivots = _echelon(rows, ncols, p)
    basis, k = [], 0
    for fc in range(ncols):
        if k < len(pivots) and pivots[k] == fc:
            k += 1
            continue
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc] % p
        basis.append(v)
    return basis


def realize(q: Quiver, root):
    """(dims, maps) of an indecomposable with dimension vector ``root``
    over F_P: maps[a] is the dims[ha] x dims[ta] matrix of arrow a mod
    ``P``, a list of rows, shared with the cache, so do not modify it.
    Raises KeyError for a vector that is not a positive root.

    The root's walk ends at the step t = ``end_step`` of ``hom_table`` as
    the simple at the vertex z of steps[t], a sink of the quiver reflected
    at steps 0 .. t - 1, so over that quiver the simple at z has a 1 x 0
    matrix on each arrow at z and 0 x 0 elsewhere.  Undo the reflections
    from step t - 1 down: the vertex x of step s is a source of the quiver
    reflected at steps 0 .. s, so every arrow at x leaves x, and the
    coreflection there maps the new V(x) onto the cokernel of V(x) ->
    (+)_{a at x} V(ha), whose basis is the left kernel of the stacked
    matrices mod P.

    When t >= n, the walk passes the Coxeter translate c(root) at step n,
    the steps repeat with period n, and reflecting at the n steps 0 .. n -
    1 gives the quiver back, so undoing steps t - 1 .. n builds, by the
    same operations, the representation of c(root) that its own walk
    builds.  So ``_realize`` realizes c(root) first, kept like every
    realized root, and undoes only steps n - 1 .. 0: each root runs at
    most n coreflections of its own, and the matrices are those of the
    whole walk, bit for bit.
    """
    return _realize(q, hom_table(q), tuple(root))


def _realize(q: Quiver, table, root):
    """``realize`` on the context ``table``, through c(root) when its walk
    passes it; called directly, not through ``realize``, so a wrapper of
    ``realize`` sees only the roots its callers ask for."""
    rep = table.realized.get(root)
    if rep is not None:
        return rep
    n, steps = q.n, table.steps
    t = table.end_step[table.index[root]]
    if t >= n:
        image = table.coxeter_step(root, +1)
        dims, maps, t = list(image), list(_realize(q, table, image)[1]), n
    else:
        z = steps[t][0]
        dims = [0] * n
        dims[z] = 1
        maps = [[[]] if z + 1 in arrow else [] for arrow in q.arrows]
    incident = q.incident
    for s in range(t - 1, -1, -1):
        x, nbrs, _ = steps[s]
        out = incident[x]  # towards nbrs, in order
        stacked = [row for a in out for row in maps[a]]
        if not stacked:  # every V(ha) is 0, so the cokernel is 0 too
            dims[x] = 0
            continue
        proj = _kernel(list(zip(*stacked)), len(stacked), P)
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


def _block(q: Quiver, root, s, side):
    """The kernel (``side`` 0) or the left kernel (``side`` 1) of d^V_S
    mod ``P``, V and S realized, as a list of basis vectors, with the column
    offsets (side 0) or the row offsets (side 1) of ``_dvw``'s layout; kept
    on the context per block and side."""
    cache = hom_table(q).kernels
    key = root, s, side
    if key not in cache:
        m, col_off, row_off = _dvw(q, realize(q, root), realize(q, s))
        cache[key] = ((_kernel(m, col_off[-1], P), col_off) if side == 0 else
                      (_kernel(list(zip(*m)), row_off[-1], P), row_off))
    return cache[key]


def jacobian_rows(q: Quiver, cls: RepClass, simples):
    """The Jacobian of the semi-invariants f_j = det d^V_{S_j} mod ``P``, up
    to a nonzero factor per row, at X, the direct sum of ``realize`` over
    ``cls.as_multiset()``, for simples S_j with <dim X, S_j> = 0, so that
    d^X_{S_j} is square.  Returns (coords, rows): the coordinates (a, k, t)
    of X, entry (k, t) of X(a), arrow by arrow, row by row, and per simple
    (c, row j or None).

    When Hom(X,S_j) != 1, c is Hom(X,S_j), the corank of d^X_{S_j} over Q,
    read from the Hom table with no block built, and there is no row.
    Otherwise exactly one summand X_u has Hom(X_u,S_j) = 1 and exactly one
    X_v has Ext(X_v,S_j) = 1, and only the kernel of d^{X_u}_{S_j} and the
    left kernel of d^{X_v}_{S_j} are computed mod P (``_block``).  When
    both are lines, spanned by phi and psi, c is 1 and row j is 0 off the
    block X_v(ta) -> X_u(ha) of each X(a), where its entry (k, t) is sum_i
    psi[row_off[a] + t dim S(ha) + i] phi[col_off[ha] + k dim S(ha) + i].
    Otherwise c is the larger of their dimensions, a lower bound on the
    corank of d^X_{S_j} mod P, and there is no row.
    """
    table = hom_table(q)
    parts = cls.as_multiset()
    ids = [table.index[r] for r in parts]
    dims = [sum(r[x] for r in parts) for x in range(q.n)]
    coords = [(a, k, t) for a, (ta, ha) in enumerate(q.arrows)
              for k in range(dims[ha - 1]) for t in range(dims[ta - 1])]
    where = {c: i for i, c in enumerate(coords)}
    out = []
    for s in simples:
        s = tuple(s)
        j = table.index[s]
        homs = [table.hom[i][j] for i in ids]
        if sum(homs) != 1:
            out.append((sum(homs), None))
            continue
        u, v = homs.index(1), [table.ext[i][j] for i in ids].index(1)
        (phis, col_off), (psis, row_off) = _block(q, parts[u], s, 0), _block(q, parts[v], s, 1)
        if len(phis) != 1 or len(psis) != 1:
            out.append((max(len(phis), len(psis)), None))
            continue
        (phi,), (psi,) = phis, psis
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
    and "" when every simple has a row and the rank mod P is the number of
    simples; otherwise None and what failed."""
    coords, rows = jacobian_rows(q, cls, simples)
    for s, (corank, _) in zip(simples, rows):
        if corank != 1:
            return None, f"d^X_S has corank {corank} mod p for S = {tuple(s)}"
    pivots = _echelon([row[:] for _, row in rows], len(coords), P)
    if len(pivots) < len(rows):
        return None, f"the Jacobian has rank {len(pivots)} < {len(rows)} mod p"
    return tuple(coords[c] for c in pivots), ""
