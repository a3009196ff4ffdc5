import pytest
import sympy

from qsing import jacobian
from qsing.decomp import make_class
from qsing.jacobian import P, PivotError, jacobian_minor, jacobian_rows
from qsing.orbits import components, make_spec, reducedness_report
from qsing.quiver import Quiver
from qsing.roots import hom_table

from oracles import (direct_sum, hom_matrix_dvw, realize, rep, whole_jacobian_minor,
                     whole_jacobian_rows)
from test_roots import CONTEXT_DIGESTS, D4_MIXED
from test_orbits import E6_SMALL, E8_RELABELLED, NULLCONE_E8, selections


def context_quiver(request, name):
    q = {"d4-mixed": D4_MIXED, "e8-relabelled": E8_RELABELLED}.get(name)
    return q or request.getfixturevalue(name)


@pytest.mark.parametrize("name", sorted(CONTEXT_DIGESTS))
def test_integer_realize_matches_the_oracle(request, name):
    """On every root, the integer matrices equal the oracle's rational ones,
    and a second call returns the cached representation."""
    q = context_quiver(request, name)
    for r in hom_table(q).roots:
        v = realize(q, r)
        dims, maps = jacobian.realize(q, r)
        assert dims == v.dims == r
        assert [v.maps[a].rows for a in range(len(q.arrows))] == maps, (q, r)
        assert all(type(x) is int for m in maps for row in m for x in row)
        assert jacobian.realize(q, r) is hom_table(q).realized[r]


def test_a_pivot_that_is_not_a_unit_raises(monkeypatch):
    with pytest.raises(PivotError):
        jacobian._kernel([[2, 1]], 2)
    with pytest.raises(PivotError):  # the second pivot is -2
        jacobian._kernel([[1, 1], [1, -1]], 2)
    assert jacobian._kernel([[1, 1], [1, -1]], 2, 3) == []  # a unit mod 3
    # every elimination of realize sees its matrix doubled: the highest root
    # of D4 needs a nonzero pivot, so it raises and nothing is cached
    q = Quiver(4, ((4, 1), (4, 2), (3, 4)))  # this orientation only here
    real = jacobian._echelon

    def doubled(rows, ncols, p=None):
        rows[:] = [[2 * x for x in row] for row in rows]
        return real(rows, ncols, p)

    monkeypatch.setattr(jacobian, "_echelon", doubled)
    with pytest.raises(PivotError):
        jacobian.realize(q, (1, 1, 1, 2))
    assert (1, 1, 1, 2) not in hom_table(q).realized


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
    assert table.kernels == {} and table.realized == {}


def counted_kernels(monkeypatch):
    calls = []
    real = jacobian._kernel

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(jacobian, "_kernel", counted)
    return calls


def test_a_second_report_builds_no_kernel(e6, monkeypatch):
    table = hom_table(e6)
    monkeypatch.setattr(table, "kernels", {})
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
    assert set(table.kernels) == {P}


def test_kernels_are_kept_per_prime(a3, monkeypatch):
    """The kernels kept mod P are not read mod 3: at A3 (1,2,1), whose row
    holds -1 mod P, every kernel is built again mod 3, and the rows equal
    the whole matrix's mod 3; once P is back, those kept mod P are read
    again and give the same rows."""
    table = hom_table(a3)
    monkeypatch.setattr(table, "kernels", {})
    spec = make_spec(a3, (1, 2, 1))
    args = a3, make_class([((0, 1, 1), 1), ((1, 1, 0), 1)]), spec.selected_simples
    at_p = jacobian_rows(*args)
    assert P - 1 in at_p[1][0][1]
    monkeypatch.setattr(jacobian, "P", 3)
    want = whole_jacobian_rows(*args)
    calls = counted_kernels(monkeypatch)
    at_3 = jacobian_rows(*args)
    assert len(calls) == 2 * len(table.kernels[P]) and set(table.kernels) == {P, 3}
    assert at_3 == want and 2 in at_3[1][0][1]
    monkeypatch.setattr(jacobian, "P", P)
    assert jacobian_rows(*args) == at_p and len(calls) == 2 * len(table.kernels[P])
