import pytest
import sympy

from qsing import jacobian
from qsing.jacobian import P, jacobian_minor, jacobian_rows
from qsing.orbits import components, make_spec, reducedness_report
from qsing.quiver import Quiver
from qsing.roots import hom_table

from oracles import (direct_sum, hom_matrix_dvw, realize, rep, whole_jacobian_minor,
                     whole_jacobian_rows)
from test_roots import CONTEXT_DIGESTS, D4_MIXED
from conftest import fresh_jacobian_caches
from test_orbits import E6_SMALL, E8_RELABELLED, NULLCONE_E8, scaled_by_3, selections


def context_quiver(request, name):
    q = {"d4-mixed": D4_MIXED, "e8-relabelled": E8_RELABELLED}.get(name)
    return q or request.getfixturevalue(name)


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
    # one kernel per coreflection of realize, two per pair of _pair
    steps = sum(next(t for t, (_, _, j) in enumerate(table.steps) if j == table.index[r])
                for r in table.realized)
    assert built == steps + 2 * len(table.kernels)


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
