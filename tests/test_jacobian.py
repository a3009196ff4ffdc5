import pytest
import sympy

from qsing import jacobian
from qsing.jacobian import P, jacobian_minor, jacobian_rows
from qsing.orbits import components, make_spec, reducedness_report
from qsing.quiver import Quiver, reflect_dim
from qsing.roots import hom_table

from oracles import (direct_sum, hom_matrix_dvw, realize, rep, walked_realize,
                     whole_jacobian_minor, whole_jacobian_rows)
from test_roots import CONTEXT_DIGESTS, context_quiver
from conftest import E6_ALPHA, fresh_jacobian_caches
from test_orbits import E6_SMALL, NULLCONE_E8, scaled_by_3, selections


def mod_p(x):
    """The rational ``x`` reduced mod P."""
    return x.numerator * pow(x.denominator, -1, P) % P


@pytest.mark.parametrize("name", sorted(CONTEXT_DIGESTS))
def test_integer_realize_matches_the_oracle(request, name):
    """On every root, the matrices mod P, entries being integers 0 .. P - 1,
    equal the oracle's rational ones reduced mod P, and a second call
    returns the cached representation."""
    q = context_quiver(request, name)
    for r in hom_table(q).roots:
        v = realize(q, r)
        dims, maps = jacobian.realize(q, r)
        assert dims == v.dims == r
        assert [[[mod_p(x) for x in row] for row in v.maps[a].rows]
                for a in range(len(q.arrows))] == maps, (q, r)
        assert all(type(x) is int and 0 <= x < P for m in maps for row in m for x in row)
        assert jacobian.realize(q, r) is hom_table(q).realized[r]


@pytest.mark.parametrize("order", [1, -1], ids=["by-height", "reverse"])
@pytest.mark.parametrize("name", sorted(CONTEXT_DIGESTS))
def test_realize_through_the_translate_matches_the_whole_walk(request, monkeypatch, name,
                                                              order):
    """On fresh caches, every root realized in height order or in reverse
    gets the matrices of the oracle that undoes its whole walk, bit for
    bit, whichever translates are kept already.  No root runs more than n
    coreflections of its own: a call runs at most n kernels per root it
    adds to the cache, and the whole pass runs those of
    ``own_coreflections``."""
    q = context_quiver(request, name)
    fresh_jacobian_caches(monkeypatch)
    table = jacobian.hom_table(q)
    calls = counted_kernels(monkeypatch)
    for r in table.roots[::order]:
        ran, kept = len(calls), len(table.realized)
        got = jacobian.realize(q, r)
        assert len(calls) - ran <= q.n * (len(table.realized) - kept), r
        assert got is table.realized[r]
        ran = len(calls)
        assert got == walked_realize(q, r), r
        del calls[ran:]  # the oracle's own kernels
    assert len(table.realized) == len(table.roots)
    assert len(calls) == own_coreflections(table)
    assert any(end >= q.n for end in table.end_step)  # some root goes through c(r)


def sympy_gradient(q, x, s, coords):
    """The partial derivatives of f = det d^V_S at V = X by the coordinates
    (a, k, t) of V(a), each as d/dv f(X + v E) at v = 0 for the unit E of
    its coordinate, with ``sympy`` and the oracle's ``hom_matrix_dvw``
    alone: d^V_S is affine in V, so d^{X + v E}_S = d^X_S + v (d^E_S -
    d^0_S)."""
    v, sr = sympy.Symbol("v"), realize(q, s)
    at_x = sympy.Matrix(hom_matrix_dvw(x, sr).rows)
    zero = sympy.Matrix(hom_matrix_dvw(rep(q, x.dims, {}), sr).rows)
    grad = []
    for c in coords:
        unit = sympy.Matrix(hom_matrix_dvw(rep(q, x.dims, {c: 1}), sr).rows)
        f = (at_x + v * (unit - zero)).det(method="berkowitz")
        grad.append(int(sympy.diff(f, v).subs(v, 0)))
    return grad


@pytest.mark.parametrize("name, alpha, rows", [
    ("a3", (1, 2, 1), 1), ("a3", (2, 2, 2), 2), ("d4", (1, 1, 2, 2), 2), ("d4", (2, 2, 2, 4), 6),
])
def test_jacobian_rows_are_multiples_of_the_sympy_gradient(request, name, alpha, rows):
    """Each row ``jacobian_rows`` gives is, mod P, a nonzero multiple of the
    gradient of det d^V_{S_j} differentiated by ``sympy`` at the same X, so
    a transposed index layout cannot pass; ``rows`` counts them."""
    q = request.getfixturevalue(name)
    spec = make_spec(q, alpha)
    checked = 0
    for comp in components(spec):
        if not comp.gradient_a:
            continue
        x = direct_sum(q, [realize(q, r) for r in comp.rep_class.as_multiset()])
        coords, got = jacobian_rows(q, comp.rep_class, spec.selected_simples)
        for s, (corank, row) in zip(spec.selected_simples, got):
            assert corank == 1
            grad = sympy_gradient(q, x, s, coords)
            assert any(g % P for g in grad), (comp.rep_class, s)
            i = next(i for i, g in enumerate(grad) if g % P)
            lam = row[i] * pow(grad[i], -1, P) % P
            assert lam and all((r - lam * g) % P == 0 for r, g in zip(row, grad)), (comp, s)
            checked += 1
    assert checked == rows


def matches_the_whole_matrix(spec):
    """On every component of the zero set: the rows and the minor equal
    those of the whole matrix of d^X_{S_j}, coordinate for coordinate.
    Returns how many components have a minor."""
    minors = 0
    for comp in components(spec):
        args = spec.quiver, comp.rep_class, spec.selected_simples
        assert jacobian_rows(*args) == whole_jacobian_rows(*args), (spec.alpha, spec.selected)
        minor = jacobian_minor(*args)
        assert minor == whole_jacobian_minor(*args), (spec.alpha, spec.selected, comp)
        minors += minor[0] is not None
    return minors


@pytest.mark.parametrize("name, bound, minors", [
    ("a3", 6, 23),
    (Quiver(3, ((1, 2), (3, 2))), 6, 23),
    ("d4", 5, 61),
    (Quiver(4, ((4, 1), (4, 2), (4, 3))), 5, 61),
    ("d5", 4, 65),
    ("e6", 3, 30),
])
def test_per_summand_jacobian_matches_the_whole_matrix(request, name, bound, minors):
    """Every nonempty selection of every alpha of the box; ``minors`` counts
    the components with a nonzero minor."""
    q = request.getfixturevalue(name) if isinstance(name, str) else name
    assert sum(map(matches_the_whole_matrix, selections(q, bound))) == minors


def test_per_summand_jacobian_matches_the_whole_matrix_on_e8(e8):
    """The 18 nullcone-e8 inputs, every selected simple."""
    assert sum(matches_the_whole_matrix(make_spec(e8, a)) for a in NULLCONE_E8) == 37


def test_hom_table_leaves_the_kernel_cache_empty(e6):
    table = hom_table.__wrapped__(e6)
    assert table.kernels == {} and table.realized == {} and table.packed == {}
    assert table.zero_cols == {}


def counted_kernels(monkeypatch):
    calls = []
    real = jacobian._kernel

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(jacobian, "_kernel", counted)
    return calls


def test_a_second_report_builds_no_kernel(e6, monkeypatch, fresh_caches):
    table = hom_table(e6)
    calls = counted_kernels(monkeypatch)
    spec = make_spec(e6, E6_SMALL)
    comps = components(spec)
    first = reducedness_report(spec, comps)
    built = len(calls)
    assert first.verdict == "reduced" and built
    minors = [c.jacobian_minor for c in comps]
    second = reducedness_report(spec, comps)
    assert len(calls) == built
    assert second.verdict == "reduced" and [c.jacobian_minor for c in comps] == minors
    # one kernel per cached block and side, and one per coreflection of
    # realize at a vertex with a nonzero neighbour: walked forwards, the
    # root has at step t the dimension vector that realize undoes step t
    # at, and it undoes only the steps before its end step t_r and before
    # step n, where its walk passes its Coxeter translate, realized too
    assert built == own_coreflections(table) + len(table.kernels)


def own_coreflections(table):
    """The coreflections ``realize`` runs with a kernel for the roots it
    has kept, each for its own steps: 0 .. min(t_r, n) - 1."""
    q, count = table.quiver, 0
    for r in table.realized:
        v = r
        for x, nbrs, _ in table.steps[:min(table.end_step[table.index[r]], q.n)]:
            count += any(v[h] for h in nbrs)
            v = reflect_dim(q, x + 1, v)
    return count


def test_a_report_mod_3_leaves_no_kernel_behind(e6):
    """Kernels and roots are kept for the P they were built at, so the
    fixture's fresh caches must be put back: after the report on e6-ex1
    (1,1) mod 3 on representatives scaled by 3, unverified, the same report
    mod P is reduced again, with the same minors as before."""
    spec = make_spec(e6, E6_SMALL)
    before = reducedness_report(spec)
    assert before.verdict == "reduced"
    with pytest.MonkeyPatch.context() as mp:
        fresh_jacobian_caches(mp)
        scaled_by_3(mp)
        assert reducedness_report(make_spec(e6, E6_SMALL)).verdict == "unverified"
    after = reducedness_report(make_spec(e6, E6_SMALL))
    assert after.verdict == "reduced"
    assert [c.jacobian_minor for c in after.components] == \
        [c.jacobian_minor for c in before.components]
    with pytest.MonkeyPatch.context() as mp:  # unscaled, mod 3 decides too
        fresh_jacobian_caches(mp)
        mp.setattr(jacobian, "P", 3)
        assert reducedness_report(make_spec(e6, E6_SMALL)).verdict == "reduced"


@pytest.mark.parametrize("name, bound", [
    ("a3", 6), (Quiver(3, ((1, 2), (3, 2))), 6),
    ("d4", 5), (Quiver(4, ((4, 1), (4, 2), (4, 3))), 5),
])
def test_small_primes_give_the_verdicts_of_p(request, name, bound):
    """Mod 2 and mod 3 the roots are realized over F_2 and F_3, and every
    report of the box, over every nonempty selection, gives the verdict
    and witness it gives mod P."""
    q = request.getfixturevalue(name) if isinstance(name, str) else name
    specs = list(selections(q, bound))

    def verdicts():
        return [(rr.verdict, rr.witness) for rr in map(reducedness_report, specs)]

    at_p = verdicts()
    assert ("reduced", None) in at_p
    for p in (2, 3):
        with pytest.MonkeyPatch.context() as mp:
            fresh_jacobian_caches(mp)
            mp.setattr(jacobian, "P", p)
            assert verdicts() == at_p, p


@pytest.mark.parametrize("name, alpha, selected, summand", [
    ("d4", (0, 0, 2, 2), (1,), (0, 0, 1, 1)),
    ("e6", E6_ALPHA(1, 2), None, (0, 1, 1, 1, 0, 1)),
])
def test_a_block_no_row_reads_may_be_singular_mod_p(request, name, alpha, selected, summand):
    """Rule 2 reads one block per side and simple: the kernel of the
    summand with Hom(X_u,S_j) = 1 and the left kernel of the one with
    Ext(X_v,S_j) = 1.  A summand that is neither for any selected simple,
    its representative scaled by 3, so 0 mod 3 but still isomorphic over Q
    to the root's indecomposable, makes its own block singular mod 3 and
    so the whole d^X_{S_j}, but not the verdict: the report is reduced, with the minors
    of the unscaled report mod 3."""
    q = request.getfixturevalue(name)
    table = hom_table(q)

    def report():
        return reducedness_report(make_spec(q, alpha, selected))

    with pytest.MonkeyPatch.context() as mp:
        fresh_jacobian_caches(mp)
        mp.setattr(jacobian, "P", 3)
        plain = report()
    simples = make_spec(q, alpha, selected).selected_simples
    assert any(summand in c.rep_class.as_multiset() for c in plain.components)
    assert all(table.hom_root(summand, s) == table.ext_root(summand, s) == 0 for s in simples)
    with pytest.MonkeyPatch.context() as mp:
        fresh_jacobian_caches(mp)
        scaled_by_3(mp, only=summand)
        scaled = report()
    assert plain.verdict == scaled.verdict == "reduced"
    assert [c.jacobian_minor for c in scaled.components] == \
        [c.jacobian_minor for c in plain.components]


def test_only_the_blocks_rows_read_are_built(e8, fresh_caches):
    """Over the 18 nullcone-e8 inputs, every cached kernel is of a block
    with Hom(X_i,S) = 1 and every cached left kernel of one with
    Ext(X_i,S) = 1, each a line mod P; 139 blocks are built in all."""
    for alpha in NULLCONE_E8:
        assert reducedness_report(make_spec(e8, alpha)).verdict == "reduced"
    table = hom_table(e8)
    for (root, s, side), (basis, _) in table.kernels.items():
        dim = (table.hom_root, table.ext_root)[side](root, s)
        assert dim == 1 and len(basis) == 1, (root, s, side)
    assert len(table.kernels) == 139
