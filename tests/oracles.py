"""Representation-matrix oracles for the test suite.

The package derives every Hom and Ext dimension from dimension vectors
alone: ``qsing.roots.hom_table`` walks each root along an admissible sink
sequence.  This module is the second, independent route, from explicit
rational matrices:

* ``realize`` builds an indecomposable with a given root as dimension
  vector by Bernstein-Gelfand-Ponomarev reflection functors, reading the
  root's walk from the table's ``steps`` and reversing arrows with
  ``reflect``;
* ``hom_dim`` is the nullity of the matrix of
  d^V_W : (+)_x Hom(V(x),W(x)) -> (+)_a Hom(V(ta),W(ha)),
  which is the ground truth the table is checked against;
* ``evaluate_semiinvariant`` is c_S(V) = det d^V_S, the semi-invariant
  whose zero sets the package describes through Hom dimensions.

``coxeter_matrix`` builds the integer matrix of c or c^-1 column by column
from ``HomTable.coxeter_step`` on the basis vectors, for the tests that
check c as a matrix.

Two references for ``qsing.orbits``, which packs dimension vectors and Hom
profiles into integers, work on plain tuples instead: ``hom_profile`` and
the class walk ``tuple_walk``.

``condition_ab_report`` is the reference for ``orbits.reducedness_report``:
the paper's gradient conditions (a) and (b), read from the classes
``orbits.survey`` keeps, each with its Hom profile from ``orbits._profile``.
``jacobian_minor_det`` recomputes over Q, from explicit matrices, the
Jacobian minor that the report names.  ``whole_jacobian_rows`` and
``whole_jacobian_minor`` are the package's Jacobian mod p built the direct
way: the integer matrices of the direct sum X (``representative``) and the
whole matrix of d^X_S, eliminated mod ``qsing.jacobian.P``, where the
package reads, per simple, the kernel of one summand's block and the left
kernel of another's, named by the Hom table.  ``walked_realize`` is the
reference for ``qsing.jacobian.realize`` mod p: every step of the root's
walk undone from the simple, where the package starts from the root's
Coxeter translate.

``merged_walk_decomposition`` and ``scan_perp_simples`` are the
references for ``qsing.decomp``: the sink walk that merges its parts in a
dict, and the perpendicular simples found by scanning every pair of roots
of the Hom table, where the package reads per-root bitmasks.
``class_total`` is the dimension vector of a class, and ``in_zero_set``
tests a class against a zero set's selected simples by bilinearity.

``affine_add`` is the reference for ``qsing.affine.aff_add``: addition of
two affine tuples (const, coeffs) as one dict merge with zeros dropped and
a sort, with no fast path.  ``signature_json`` and ``summed_k`` are the
references for what a ``qsing.bsato`` branch state carries: a bracket's
signature as ``json.dumps`` writes it, and K as the negated sum of every
fixed value.

``bracket_identity_check`` tests the telescoping identity of brackets,
[s]^d_{a,b} [s]^d_{0,a} = [s]^d_{0,b}, on which the b-function recursion
of ``qsing.brackets`` rests, by expanding both sides.

Everything is exact: matrices hold Fraction entries, or integers mod the
prime in the whole-matrix Jacobian.  ``conftest.py``
registers this module for pytest's assertion rewriting, so its checks
still run under ``python -O``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from qsing import jacobian
from qsing.affine import aff_to_json
from qsing.brackets import BracketTerm, expand, family_from_terms
from qsing.decomp import (PerpData, RepClass, class_hom, class_self_ext,
                          generic_decomposition, make_class, perp_simples)
from qsing.orbits import _geq, _packing, _profile, _walk, is_set_theoretic_ci, survey
from qsing.quiver import Quiver, euler_form, reflect_arrows, simple_root
from qsing.roots import hom_table, positive_roots


# -- affine expressions ------------------------------------------------------

def affine_add(x, y):
    """x + y by merging the coefficients in a dict, dropping the zeros and
    sorting, whatever either side holds."""
    m = dict(x[1])
    for s, c in y[1]:
        m[s] = m.get(s, 0) + c
    return (x[0] + y[0], tuple(sorted((s, c) for s, c in m.items() if c)))


# -- certification branch states --------------------------------------------

def signature_json(term, vars) -> str:
    """The signature of a ``qsing.bsato`` bracket term (gamma, a, b, mult,
    deg) on the active variables vars as ``json.dumps`` writes it, from the
    term's fields."""
    gamma, a, b, mult, _ = term
    return json.dumps([[gamma[v] for v in vars], aff_to_json(a),
                       aff_to_json(b), mult], sort_keys=True)


def summed_k(fixed):
    """K = -(sum of the fixed values) of a branch state, summed afresh from
    its ((var, value, clean flag), ...) list by ``affine_add``."""
    total = (0, ())
    for _, v, _ in fixed:
        total = affine_add(total, v)
    return (-total[0], tuple((s, -c) for s, c in total[1]))


# -- brackets ----------------------------------------------------------------

def bracket_identity_check(d, a, b, mults=((1,), (2,), (3,))) -> bool:
    """[s]^d_{a,b} * [s]^d_{0,a} == [s]^d_{0,b} as multisets of linear forms,
    checked by expansion at several multiplicity tuples."""
    if isinstance(d, int):
        d = (d,)
    r = len(d)
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a = {a}, b = {b}")
    left = family_from_terms(r, [BracketTerm(tuple(d), a, b), BracketTerm(tuple(d), 0, a)])
    right = family_from_terms(r, [BracketTerm(tuple(d), 0, b)])
    for m in mults:
        mm = tuple(m) if len(m) == r else tuple(list(m) * r)[:r]
        if expand(left, mm) != expand(right, mm):
            return False
    return True


# -- exact linear algebra over the rationals ---------------------------------

class Mat:
    """Dense rational matrix with explicit shape, so that 0 x n and n x 0
    matrices behave."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        else:
            rows = [[Fraction(x) for x in r] for r in rows]
            assert len(rows) == nrows and all(len(r) == ncols for r in rows)
        self.rows = rows

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}, {self.rows})"


def coxeter_matrix(q: Quiver, direction=+1):
    """The matrix of c (direction +1) or c^-1 (-1) as a tuple of rows; its
    column j is ``coxeter_step`` of the basis vector e_j."""
    step = hom_table(q).coxeter_step
    return tuple(zip(*(step(simple_root(q.n, j), direction) for j in range(1, q.n + 1))))


def _echelon(rows, ncols):
    """In-place reduced row echelon form; returns the pivot columns."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / Fraction(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(m: Mat) -> int:
    if m.nrows == 0 or m.ncols == 0:
        return 0
    return len(_echelon([r[:] for r in m.rows], m.ncols))


def left_nullspace(m: Mat):
    """Basis of the row vectors y with y*m = 0."""
    if m.nrows == 0:
        return []
    rows = [list(col) for col in zip(*m.rows)] if m.ncols else []
    pivots = _echelon(rows, m.nrows) if rows else []
    basis = []
    for fc in sorted(set(range(m.nrows)) - set(pivots)):
        v = [Fraction(0)] * m.nrows
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def det(m: Mat) -> Fraction:
    assert m.nrows == m.ncols, "det of a non-square matrix"
    n = m.nrows
    rows = [r[:] for r in m.rows]
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


# -- explicit representations ------------------------------------------------

class NotARootError(ValueError):
    pass


class NonSquareError(ValueError):
    pass


@dataclass
class Representation:
    """Explicit rational matrices V(a) indexed by arrow position."""

    quiver: Quiver
    dims: tuple
    maps: dict  # arrow index in quiver.arrows -> Mat of shape dims[ha] x dims[ta]


def rep(q: Quiver, dims, values) -> Representation:
    """The representation whose coordinates (arrow index, row, column) take
    ``values``, zero elsewhere."""
    maps = {ai: Mat(dims[h - 1], dims[t - 1]) for ai, (t, h) in enumerate(q.arrows)}
    for (ai, i, j), v in values.items():
        maps[ai].rows[i][j] = Fraction(v)
    return Representation(q, tuple(dims), maps)


def direct_sum(q: Quiver, reps) -> Representation:
    dims = tuple(sum(r.dims[x] for r in reps) for x in range(q.n))
    out = rep(q, dims, {})
    for ai, (t, h) in enumerate(q.arrows):
        ro = co = 0
        for r in reps:
            blk = r.maps[ai]
            for i in range(blk.nrows):
                out.maps[ai].rows[ro + i][co:co + blk.ncols] = blk.rows[i]
            ro += r.dims[h - 1]
            co += r.dims[t - 1]
    return out


def _coreflect(q_src: Quiver, x, v: Representation) -> Representation:
    """C^-_x at a source x of v.quiver; the result lives over q_src, the
    quiver reflected at x.  Arrow positions are preserved by reflection."""
    out_arrows = [(i, h) for i, (t, h) in enumerate(v.quiver.arrows) if t == x]
    # stack V(x) -> (+)_{a: ta=x} V(ha) and project onto its cokernel
    psi = Mat(sum(v.dims[h - 1] for _, h in out_arrows), v.dims[x - 1],
              [row for i, _ in out_arrows for row in v.maps[i].rows])
    proj = left_nullspace(psi)
    dims = list(v.dims)
    dims[x - 1] = len(proj)
    maps = dict(v.maps)
    off = 0
    for i, h in out_arrows:
        # the reversed arrow maps V(h) into the cokernel
        cols = v.dims[h - 1]
        maps[i] = Mat(len(proj), cols, [p[off:off + cols] for p in proj])
        off += cols
    return Representation(q_src, tuple(dims), maps)


def reflect(q: Quiver, x) -> Quiver:
    """q with every arrow at x reversed, a quiver when x is a sink or source."""
    return Quiver(q.n, reflect_arrows(q.arrows, x))


def realize(q: Quiver, root) -> Representation:
    """Explicit indecomposable with dimension vector ``root``.

    The root's walk ends at step t as the simple at the vertex of steps[t]
    in ``hom_table``, so apply the inverse reflections of steps t - 1, ...,
    0 to that simple representation.  Raises NonDynkinError off Dynkin type
    and NotARootError for a vector that is not a positive root.
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
        quivers.append(reflect(quivers[-1], x))
    v = rep(quivers[t], simple_root(q.n, xs[t]), {})
    for s in range(t - 1, -1, -1):
        # xs[s] is a source of quivers[s+1]; reflect back to quivers[s]
        v = _coreflect(quivers[s], xs[s], v)
    assert v.dims == root, f"realize built {v.dims} for the root {root}"
    return v


# -- Hom dimensions and semi-invariants from matrices ------------------------

def hom_matrix_dvw(v: Representation, w: Representation) -> Mat:
    """Matrix of d^V_W: columns are the vertices ascending, column-major
    inside each Hom(V(x),W(x)) block; rows are the arrows in order, each
    block column-major in Hom(V(ta),W(ha))."""
    if v.quiver.arrows != w.quiver.arrows or v.quiver.n != w.quiver.n:
        raise ValueError("representations over different quivers")
    q = v.quiver
    col_off = [0]
    for x in range(q.n):
        col_off.append(col_off[-1] + v.dims[x] * w.dims[x])
    nrows = sum(v.dims[t - 1] * w.dims[h - 1] for t, h in q.arrows)
    m = Mat(nrows, col_off[-1])
    ro = 0
    for ai, (t, h) in enumerate(q.arrows):
        va, wa = v.maps[ai], w.maps[ai]
        dwh, dwt = w.dims[h - 1], w.dims[t - 1]
        # entry (it, jt) of phi_h V(a) - W(a) phi_t, with phi_x column-major
        for jt in range(v.dims[t - 1]):
            for it in range(dwh):
                row = m.rows[ro + jt * dwh + it]
                for k in range(va.nrows):
                    if va.rows[k][jt]:
                        row[col_off[h - 1] + k * dwh + it] += va.rows[k][jt]
                for k in range(dwt):
                    if wa.rows[it][k]:
                        row[col_off[t - 1] + jt * dwt + k] -= wa.rows[it][k]
        ro += v.dims[t - 1] * dwh
    return m


def hom_dim(v: Representation, w: Representation) -> int:
    m = hom_matrix_dvw(v, w)
    return m.ncols - rank(m)


def ext_dim(v: Representation, w: Representation) -> int:
    e = hom_dim(v, w) - euler_form(v.quiver, v.dims, w.dims)
    assert e >= 0, f"negative Ext dimension {e}"
    return e


def evaluate_semiinvariant(v: Representation, s: Representation) -> Fraction:
    """det d^V_S; defined when <dims V, dims S> = 0, zero iff Hom(V,S) != 0."""
    if euler_form(v.quiver, v.dims, s.dims) != 0:
        raise NonSquareError("Euler product nonzero: d^V_S is not square")
    m = hom_matrix_dvw(v, s)
    assert m.nrows == m.ncols, f"d^V_S is {m.nrows} x {m.ncols}"
    return det(m)


def vanishing_mismatches(q: Quiver, rng, count):
    """Classes X and perpendicular simples S where c_S on a representative
    of X vanishes but hom(X, S) = 0, or the other way round.

    Draws classes of one to three random roots with ``rng`` and evaluates
    c_S for every perpendicular simple S with <dim X, S> = 0, until at
    least ``count`` pairs are checked.
    """
    table = hom_table(q)
    roots = positive_roots(q)
    checked, bad = 0, []
    while checked < count:
        parts = {}
        for _ in range(rng.randint(1, 3)):
            r = rng.choice(roots)
            parts[r] = parts.get(r, 0) + 1
        cls = make_class(list(parts.items()))
        alpha = class_total(cls, q.n)
        perp = perp_simples(q, generic_decomposition(q, alpha))
        usable = [s for s in perp.simples if euler_form(q, alpha, s) == 0]
        if not usable:
            continue
        v = direct_sum(q, [realize(q, r) for r in cls.as_multiset()])
        for s in usable:
            hom = class_hom(table, cls, s)
            if (evaluate_semiinvariant(v, realize(q, s)) == 0) != (hom > 0):
                bad.append((cls, s))
            checked += 1
    return bad


def degenerates_to(q: Quiver, m_class, n_class) -> bool:
    """True iff N lies in the orbit closure of M (Hom-order)."""
    if class_total(m_class, q.n) != class_total(n_class, q.n):
        raise ValueError("classes have different dimension vectors")
    table = hom_table(q)
    pm = hom_profile(table, m_class)
    pn = hom_profile(table, n_class)
    return all(a <= b for a, b in zip(pm, pn))


# -- the decomposition layer -------------------------------------------------

def class_total(cls: RepClass, n):
    """The dimension vector of ``cls``, a class of representations of a
    quiver with n vertices; the zero vector for the class with no part."""
    out = [0] * n
    for r, m in cls.parts:
        for i, c in enumerate(r):
            out[i] += m * c
    return tuple(out)


def in_zero_set(x: RepClass, spec) -> bool:
    """Whether every selected semi-invariant of ``spec`` vanishes on X,
    that is Hom(X, S_j) > 0 for every selected simple S_j."""
    table = hom_table(spec.quiver)
    return all(class_hom(table, x, s) > 0 for s in spec.selected_simples)


def merged_walk_decomposition(q: Quiver, alpha) -> RepClass:
    """Reference for ``decomp.generic_decomposition``: the same sink walk,
    testing the whole remainder at every step and merging the parts in a
    dict through ``make_class``."""
    table = hom_table(q)
    rem = list(alpha)
    parts = []
    for x, nbrs, i in table.steps:
        if not any(rem):
            break
        excess = rem[x] - sum(rem[y] for y in nbrs)
        if excess > 0:
            parts.append((table.roots[i], excess))
        rem[x] = max(0, -excess)
    assert not any(rem)
    return make_class(parts)


def scan_perp_simples(q: Quiver, t_class: RepClass) -> PerpData:
    """Reference for ``decomp.perp_simples``: the roots Hom- and
    Ext-orthogonal to every part of T, then those with no other such root
    beta' <= beta with hom(beta', beta) > 0, by scanning every pair of roots
    of the Hom table."""
    table = hom_table(q)
    roots, hom = table.roots, table.hom
    ts = [table.index[r] for r, _ in t_class.parts]
    perp = [j for j in range(len(roots))
            if all(hom[i][j] == 0 and table.ext[i][j] == 0 for i in ts)]
    simples = tuple(sorted(
        roots[j] for j in perp
        if not any(i != j and hom[i][j]
                   and all(a <= b for a, b in zip(roots[i], roots[j]))
                   for i in perp)
    ))
    return PerpData(simples=simples, r=q.n - len(t_class.parts))


# -- the orbit geometry on tuples --------------------------------------------

def hom_profile(table, x):
    """dim Hom(X, R) against every positive root R, in root-list order."""
    out = [0] * len(table.roots)
    for r, m in x.parts:
        for j, h in enumerate(table.hom[table.index[r]]):
            out[j] += m * h
    return tuple(out)


def tuple_children(table, rem, minpos):
    """(walk position, root, largest multiplicity) of every root the class
    walk may add next to a nonzero remainder tuple ``rem``, in walk order:
    the roots from walk position ``minpos`` on whose first support vertex is
    the first nonzero vertex of ``rem``."""
    x = next(v for v, a in enumerate(rem) if a)
    for p in range(max(minpos, table.start[x]), table.end[x]):
        rt = table.roots[table.walk[p]]
        maxmult = min(rem[v] // c for v, c in enumerate(rt) if c)
        if maxmult:
            yield p, rt, maxmult


def tuple_walk(table, alpha, step, fits, acc=0):
    """``qsing.orbits._walk`` with the remainder of alpha held as a tuple:
    the same (chosen, acc) stream in the same order."""
    chosen = []

    def dfs(rem, minpos, acc):
        if not any(rem):
            yield chosen, acc
            return
        for p, rt, maxmult in tuple_children(table, rem, minpos):
            nacc = acc
            for mult in range(1, maxmult + 1):
                nacc = step(nacc, p)
                if not fits(nacc):
                    break
                chosen.append((p, mult))
                yield from dfs(tuple([a - mult * c for a, c in zip(rem, rt)]),
                               p + 1, nacc)
                chosen.pop()

    return dfs(tuple(alpha), 0, acc)


# -- the paper's gradient conditions (a) and (b) -------------------------------

class NotFound(Exception):
    pass


def is_cover(pk, cand, pc, x, px):
    """cand -> x is a minimal degeneration (packed Hom profiles pc <= px).

    A codimension gap of one is always minimal, since codimension strictly
    increases along proper degenerations.  A larger gap is minimal when no
    class lies strictly between the two in the Hom order; the walk sums
    packed Hom rows and visits only the classes whose profile stays below px.
    """
    table, guard = pk.table, pk.guard
    gap = class_self_ext(table, x) - class_self_ext(table, cand)
    if gap <= 0:
        return False
    if gap == 1:
        return True
    for _, pw in _walk(pk, class_total(x, table.quiver.n),
                       lambda acc, p: acc + pk.row(table.walk[p])[0],
                       lambda acc: _geq(guard, px, acc)):
        if pw != pc and pw != px and _geq(guard, pw, pc):
            return False
    return True


def gradient_condition_b_witness(x, spec, k, sv=None):
    """Search X' with: X' in the zero set of the selection minus k,
    hom(X', S_j) = 1 - delta_{jk} over the selected simples, and X a minimal
    degeneration of X'.  Then Y_k = X + X' has hom(Y_k, S_j) = 2 - delta_{jk}.
    Returns X' or raises NotFound; sufficient, never a proof of failure.

    The candidates X' are the index-k patterns of the survey ``sv``, by
    default ``survey(spec)``, each with its Hom profile from ``_profile``.
    """
    if k not in spec.selected:
        raise ValueError("k must be a selected index")
    if class_total(x, spec.quiver.n) != spec.alpha:
        raise ValueError("x is not a class of the spec's dimension vector")
    pk, sv = _packing(spec.quiver, spec.alpha), sv or survey(spec)
    px = _profile(pk, x)[0]
    for cand in sv.patterns[k]:
        pc = _profile(pk, cand)[0]
        if pc != px and _geq(pk.guard, px, pc) and is_cover(pk, cand, pc, x, px):
            return cand
    raise NotFound(f"no condition-(b) witness found for k={k}")


def condition_ab_report(spec, comps):
    """(verdict, witness, (b)-witnesses per component) by the paper's
    Serre-criterion conditions, read from ``survey(spec)``.

    not-reduced, with the component as witness: some component has no
    point satisfying the Hom-dimension-one condition (a) anywhere in its
    orbit closure.  reduced: every component has a representative passing
    (a) together with a condition-(b) witness for every selected index.
    unverified: anything in between (the (b)-search is sufficient only), a
    survey truncated at ``h_cap``, or a zero set that is not a set-theoretic
    complete intersection.  Each component tries every condition-(a)
    point, smallest Hom profile sum first; a (b)-witness must be a minimal
    degeneration onto the point (``is_cover``).
    """
    if not comps:
        return "reduced", None, {}
    if not is_set_theoretic_ci(spec, comps):
        return "unverified", None, {}
    sv, pk = survey(spec), _packing(spec.quiver, spec.alpha)
    a_points, h_profiles = {}, [_profile(pk, cls) for cls in sv.h_points]
    for comp in comps:
        pc = _profile(pk, comp.rep_class)[0]
        pts = [(cls, total) for cls, (ph, total) in zip(sv.h_points, h_profiles)
               if _geq(pk.guard, ph, pc)]
        if not pts:
            return ("unverified", None, {}) if sv.h_truncated else ("not-reduced", comp.rep_class, {})
        a_points[comp.rep_class] = sorted(pts, key=lambda t: (t[1], t[0].parts))
    found = {}
    for comp in comps:
        for cand, _ in a_points[comp.rep_class]:
            try:
                found[comp.rep_class] = tuple(
                    (k, gradient_condition_b_witness(cand, spec, k, sv)) for k in spec.selected)
            except NotFound:
                continue
            break
        else:
            return "unverified", None, found
    return "reduced", None, found


def _transpose(m: Mat) -> Mat:
    return Mat(m.ncols, m.nrows, [list(c) for c in zip(*m.rows)])


def jacobian_minor_det(q: Quiver, cls, simples, minor) -> Fraction:
    """The k x k minor of the Jacobian of f_j = det d^V_{S_j} at the
    coordinates ``minor`` (arrow, row, column) of X, the direct sum of
    ``realize`` over ``cls.as_multiset()``, each row built over Q from a
    vector phi spanning the kernel of d^X_{S_j} and psi its left kernel:
    entry sum_i psi[a, t, i] phi[ha, k, i] in ``hom_matrix_dvw``'s layout.
    Each d^X_{S_j} must have a kernel and a left kernel of dimension one."""
    x = direct_sum(q, [realize(q, r) for r in cls.as_multiset()])
    rows = []
    for s in simples:
        m = hom_matrix_dvw(x, realize(q, s))
        phi, psi = left_nullspace(_transpose(m)), left_nullspace(m)
        assert len(phi) == len(psi) == 1, (cls, s)
        col_off = [0]
        for v in range(q.n):
            col_off.append(col_off[-1] + x.dims[v] * s[v])
        row_off = [0]
        for t, h in q.arrows:
            row_off.append(row_off[-1] + x.dims[t - 1] * s[h - 1])
        rows.append([sum(psi[0][row_off[a] + t * s[h - 1] + i]
                         * phi[0][col_off[h - 1] + k * s[h - 1] + i] for i in range(s[h - 1]))
                     for a, k, t in minor for h in [q.arrows[a][1]]])
    return det(Mat(len(rows), len(minor), rows))


# -- the Jacobian mod p on the whole matrix of the direct sum ----------------

def walked_realize(q: Quiver, root):
    """(dims, maps) mod ``jacobian.P`` of the root, built from the simple at
    its end step t by undoing every step t - 1, ..., 0 of its walk, with
    no Coxeter translate and nothing kept.  Each coreflection at a source x
    maps the new V(x) onto the left kernel of the stacked matrices of the
    arrows at x."""
    table, root = hom_table(q), tuple(root)
    t = table.end_step[table.index[root]]
    z = table.steps[t][0]
    dims = [0] * q.n
    dims[z] = 1
    maps = [[[]] if z + 1 in arrow else [] for arrow in q.arrows]
    for x, nbrs, _ in table.steps[t - 1::-1] if t else ():
        out = q.incident[x]
        stacked = [row for a in out for row in maps[a]]
        if not stacked:
            dims[x] = 0
            continue
        proj = jacobian._kernel(list(zip(*stacked)), len(stacked), jacobian.P)
        dims[x], off = len(proj), 0
        for a, h in zip(out, nbrs):
            maps[a] = [p[off:off + dims[h]] for p in proj]
            off += dims[h]
    assert tuple(dims) == root, f"walked_realize built {tuple(dims)} for the root {root}"
    return root, maps


def representative(q: Quiver, cls):
    """(dims, maps) of the direct sum of ``jacobian.realize`` of each root
    of ``cls.as_multiset()``, in that order, block diagonal on every arrow:
    the representation X whose coordinates ``jacobian.jacobian_rows`` names."""
    parts = [jacobian.realize(q, r) for r in cls.as_multiset()]
    dims = tuple(sum(d[x] for d, _ in parts) for x in range(q.n))
    maps = []
    for a, (t, h) in enumerate(q.arrows):
        m = [[0] * dims[t - 1] for _ in range(dims[h - 1])]
        ro = co = 0
        for d, mp in parts:
            for i, row in enumerate(mp[a]):
                m[ro + i][co:co + len(row)] = row
            ro += d[h - 1]
            co += d[t - 1]
        maps.append(m)
    return dims, maps


def whole_jacobian_rows(q: Quiver, cls, simples):
    """``jacobian.jacobian_rows`` from the whole square matrix of d^X_{S_j}
    at X = ``representative(q, cls)``: its corank mod P and, when that is
    1, row j at (a, k, t) as sum_i psi[row_off[a] + t dim S(ha) + i]
    phi[col_off[ha] + k dim S(ha) + i], phi spanning its kernel and psi its
    left kernel mod P, in ``jacobian._dvw``'s layout."""
    p, x = jacobian.P, representative(q, cls)
    coords = [(a, k, t) for a, (ta, ha) in enumerate(q.arrows)
              for k in range(x[0][ha - 1]) for t in range(x[0][ta - 1])]
    out = []
    for s in simples:
        m, col_off, row_off = jacobian._dvw(q, x, jacobian.realize(q, s))
        phi = jacobian._kernel(m, len(m), p)
        if len(phi) != 1:
            out.append((len(phi), None))
            continue
        phi, psi = phi[0], jacobian._kernel([list(c) for c in zip(*m)], len(m), p)[0]
        row = []
        for a, k, t in coords:
            sh = s[q.arrows[a][1] - 1]
            pt, pk = row_off[a] + t * sh, col_off[q.arrows[a][1] - 1] + k * sh
            row.append(sum(psi[pt + i] * phi[pk + i] for i in range(sh)) % p)
        out.append((1, row))
    return coords, out


def whole_jacobian_minor(q: Quiver, cls, simples):
    """``jacobian.jacobian_minor`` on the rows of ``whole_jacobian_rows``."""
    coords, rows = whole_jacobian_rows(q, cls, simples)
    for s, (corank, _) in zip(simples, rows):
        if corank != 1:
            return None, f"d^X_S has corank {corank} mod p for S = {tuple(s)}"
    pivots = jacobian._echelon([row[:] for _, row in rows], len(coords), jacobian.P)
    if len(pivots) < len(rows):
        return None, f"the Jacobian has rank {len(pivots)} < {len(rows)} mod p"
    return tuple(coords[c] for c in pivots), ""
