import hashlib
import json
import random

import pytest

from qsing import orbits
from qsing.orbits import components, make_spec
from qsing.quiver import NonDynkinError, Quiver, euler_form, tits_form
from qsing.roots import hom_table, positive_roots

from oracles import (NotARootError, coxeter_matrix, ext_dim, hom_dim, hom_matrix_dvw, rank,
                     realize)
from test_orbits import E8_RELABELLED, NULLCONE_E8

ROOT_COUNTS = {"A2": 3, "A3": 6, "A4": 10, "D4": 12, "E6": 36, "E8": 120}
# a D4 orientation with a source, a sink and two other arms
D4_MIXED = Quiver(4, ((4, 1), (2, 4), (4, 3)))


def test_root_counts(a2, a3, a4, d4, e6, e8):
    for name, q in (("A2", a2), ("A3", a3), ("A4", a4), ("D4", d4),
                    ("E6", e6), ("E8", e8)):
        assert len(positive_roots(q)) == ROOT_COUNTS[name]


def test_a2_roots(a2):
    assert set(positive_roots(a2)) == {(1, 0), (0, 1), (1, 1)}


def test_roots_are_real(e6):
    for r in positive_roots(e6):
        assert tits_form(e6, r) == 1


def test_realize_a2(a2):
    v = realize(a2, (1, 1))
    assert v.dims == (1, 1)
    assert v.maps[0].rows == [[1]]
    s2 = realize(a2, (0, 1))
    assert s2.dims == (0, 1)
    assert s2.maps[0].nrows == 1 and s2.maps[0].ncols == 0
    with pytest.raises(NotARootError):
        realize(a2, (2, 1))
    with pytest.raises(NotARootError):
        realize(a2, (1, 1, 0))
    with pytest.raises(NonDynkinError):
        realize(Quiver(2, ((1, 2), (1, 2))), (1, 1))


def test_realize_all_roots_have_trivial_endomorphisms(a3, d4, e6):
    for q in (a3, d4, e6):
        for r in positive_roots(q):
            v = realize(q, r)
            assert v.dims == r
            assert hom_dim(v, v) == 1


def test_realize_e8_root(e8):
    v = realize(e8, (1, 2, 3, 2, 1, 1, 0, 1))
    assert hom_dim(v, v) == 1


def test_dvw_matrix_shape_and_a2_kernel(a2):
    v = realize(a2, (1, 1))
    m = hom_matrix_dvw(v, v)
    # rows = sum over arrows dimV(ta) dimW(ha), cols = sum dimV(x) dimW(x)
    assert (m.nrows, m.ncols) == (1, 2)
    assert rank(m) == 1
    assert sorted(x for row in m.rows for x in row) == [-1, 1]


def test_hom_dim_a2_pairs(a2):
    # recomputed independently: the only map (1,1)->(0,1) must vanish
    v11, v01, v10 = realize(a2, (1, 1)), realize(a2, (0, 1)), realize(a2, (1, 0))
    assert hom_dim(v11, v01) == 0
    assert hom_dim(v01, v11) == 1
    assert hom_dim(v11, v10) == 1
    assert hom_dim(v10, v11) == 0
    # cross-check hom - ext = <,> via the Euler form
    assert (0 - euler_form(a2, (1, 1), (0, 1))) == 0


def test_hom_table_a2(a2):
    t = hom_table(a2)
    assert t.roots == [(0, 1), (1, 0), (1, 1)]
    assert t.hom == [[1, 0, 1], [0, 1, 0], [0, 1, 1]]
    assert t.ext == [[0, 0, 0], [1, 0, 0], [0, 0, 0]]


def test_hom_table_matches_euler_form(a2, a3, d4, e6, e8):
    for q in (a2, a3, d4, e6, e8):
        t = hom_table(q)
        k = len(t.roots)
        for i in range(k):
            assert t.ext[i][i] == 0 and t.hom[i][i] == 1
            for j in range(k):
                assert t.hom[i][j] - t.ext[i][j] == \
                    euler_form(q, t.roots[i], t.roots[j])
                assert t.hom[i][j] >= 0 and t.ext[i][j] >= 0


def test_hom_table_agrees_with_matrix_kernels(a2, a3, d4, d5):
    # the fast dimension-vector recursion against the d^V_W nullity route,
    # also on the mixed D4 orientation
    for q in (a2, a3, d4, D4_MIXED, d5):
        t = hom_table(q)
        reps = {r: realize(q, r) for r in t.roots}
        for a in t.roots:
            for b in t.roots:
                assert t.hom_root(a, b) == hom_dim(reps[a], reps[b])
                assert t.ext_root(a, b) == ext_dim(reps[a], reps[b])


def test_hom_recursion_agrees_on_e8_sample(e8):
    t = hom_table(e8)
    rng = random.Random(3)
    roots = t.roots
    pairs = [(rng.choice(roots), rng.choice(roots)) for _ in range(25)]
    pairs.append(((0, 0, 1, 0, 0, 0, 0, 0), (0, 1, 2, 1, 1, 1, 0, 1)))
    for a, b in pairs:
        assert t.hom_root(a, b) == hom_dim(realize(e8, a), realize(e8, b))


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4", "d5", "e6", "e7", "e8", E8_RELABELLED],
                         ids=["a2", "a3", "a4", "d4", "d5", "e6", "e7", "e8", "e8-relabelled"])
def test_walk_order_is_strictly_decreasing_in_lex_order(request, name):
    """``orbits._class_of`` reads a class's parts in increasing lex order,
    with no sort, from the walk positions it chose in increasing order."""
    t = hom_table(request.getfixturevalue(name) if isinstance(name, str) else name)
    walked = [t.roots[i] for i in t.walk]
    assert all(a > b for a, b in zip(walked, walked[1:]))


def test_notred_hom_value_is_two(e8):
    # the non-reducedness witness: central simple against the second
    # perpendicular simple of the E8 example
    t = hom_table(e8)
    assert t.hom_root((0, 0, 1, 0, 0, 0, 0, 0), (0, 1, 2, 1, 1, 1, 0, 1)) == 2


def test_realization_independent_of_reflection_order(a3, d4):
    # realize along a different admissible ordering by relabeling vertices:
    # hom tables must be identical
    for q, perm in ((a3, (3, 2, 1)), (d4, (2, 3, 1, 4))):
        relabeled = Quiver(q.n, tuple((perm[t - 1], perm[h - 1])
                                      for t, h in q.arrows))
        t1 = hom_table(q)
        t2 = hom_table(relabeled)
        for a in t1.roots:
            for b in t1.roots:
                pa = tuple(a[perm.index(i + 1)] for i in range(q.n))
                pb = tuple(b[perm.index(i + 1)] for i in range(q.n))
                assert t1.hom_root(a, b) == t2.hom_root(pa, pb)


# sha256 of json [roots, hom] as the pairwise recursion built it: for every
# pair, both roots walked together along the sink sequence until one of them
# is the simple at the vertex reflected next
PAIRWISE_HOM_DIGESTS = {
    "d5": "285dbb9fb5811d226c439d45f9c9b843b77165b293b9d6d0bb17b3d5d8794cc9",
    "e7": "18ce71cd408590f72b951585c07b4c8b8f6f7c7d88ec314d0ee826cc8fd26b92",
    "e8": "f9c2dcb06d4023e6e3314db8b1080991b3ce09ff6a815cb2618f5581913b8ac0",
}


@pytest.mark.parametrize("name", sorted(PAIRWISE_HOM_DIGESTS))
def test_hom_table_matches_pairwise_recursion(request, name):
    t = hom_table(request.getfixturevalue(name))
    text = json.dumps([t.roots, t.hom], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PAIRWISE_HOM_DIGESTS[name]


# sha256 of json [roots, hom, ext, walk, start, end, steps], the whole
# per-quiver context, as recorded when hom_table walked each root with
# reflect_dim and took every Ext from euler_form
CONTEXT_DIGESTS = {
    "a2": "c229c6c1c9a9d70fb9566508b1b9b8ad0afcc40f5fb7c98f0a5f19467a34bcd0",
    "a3": "3d25ab2a383dcc01d3c27f4f667ef15949d24c81919d90f629c219d91d3c3f6f",
    "a4": "3aa57c913e55d63a97aa6276164dcb2b993fef30554b22f80a805a0ea9ee9993",
    "d4": "b70cd0de5a8a840fd3eefea5531bba65ffd65e4cae313faa80ecf8e5495ee350",
    "d4-mixed": "e83ff7bbab37bc48108ff7c9d50ec28a06d5fde5db4d355416a0e50b7fb06bab",
    "d5": "160d16944d0994141814325b29c01e854ea2e67b8f7e12be45cd7c2e4b4f2e7a",
    "e6": "c92a362f81577f7fbb6396f8c5a441200a4bf636b89bf96027848f5fa56d2fb6",
    "e7": "5be27e027ce2e39ded6cc087773aa87ef70812ecbe6ac0579929f88289c6180d",
    "e8": "cc09049439911bafbb209c7575ba78fa04f9495cdf0955d29a73adadbc430e32",
    "e8-relabelled": "5126bcbba3d1b5b0c082d29d8009cb591199ea16b31d994ab0c7ef701968075e",
}


def context_quiver(request, name):
    """The quiver of a ``CONTEXT_DIGESTS`` name."""
    q = {"d4-mixed": D4_MIXED, "e8-relabelled": E8_RELABELLED}.get(name)
    return q or request.getfixturevalue(name)


@pytest.mark.parametrize("name", sorted(CONTEXT_DIGESTS))
def test_context_matches_recorded_digests(request, name):
    t = hom_table(context_quiver(request, name))
    assert _sha256([t.roots, t.hom, t.ext, t.walk, t.start, t.end, t.steps]) == \
        CONTEXT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CONTEXT_DIGESTS))
def test_zero_columns_match_the_semisimple_hom(request, monkeypatch, name):
    """The zero column of bound (v) against every root, read from its
    socle, equals Hom(E_{r_p},X_i) - Hom(R_p,X_i) at each walk position p,
    and is kept on the context."""
    table = hom_table(context_quiver(request, name))
    monkeypatch.setattr(table, "zero_cols", {})
    for i in range(len(table.roots)):
        col = orbits._zero_column(table, i)
        assert col == [orbits._semisimple_hom(table, table.roots[p], i) - table.hom[p][i]
                       for p in table.walk], i
        assert table.zero_cols[i] is col and orbits._zero_column(table, i) is col


def test_zero_columns_are_built_once_for_every_width(e8, monkeypatch):
    """The 18 nullcone-e8 inputs pack at the widths 10 and 11; a simple
    selected at both has one zero column, the same object at both."""
    table = hom_table(e8)
    monkeypatch.setattr(table, "zero_cols", {})
    monkeypatch.setattr(table, "packed", {})
    seen = {}  # width -> root index -> the zero column read at that width
    for alpha in NULLCONE_E8:
        spec = make_spec(e8, alpha)
        components(spec)
        cols = seen.setdefault(orbits._acc_width(e8, alpha), {})
        for s in spec.selected_simples:
            cols[table.index[s]] = table.zero_cols[table.index[s]]
    assert sorted(seen) == sorted(table.packed) == [10, 11]
    shared = seen[10].keys() & seen[11].keys()
    assert shared and all(seen[10][i] is seen[11][i] for i in shared)
    assert table.zero_cols == {**seen[10], **seen[11]}


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4", "d5", "e6", "e7", "e8"])
def test_coxeter_inverse(request, name):
    q = request.getfixturevalue(name)
    c, c_inv = coxeter_matrix(q), coxeter_matrix(q, -1)
    product = [[sum(c_inv[i][k] * c[k][j] for k in range(q.n))
                for j in range(q.n)] for i in range(q.n)]
    assert product == [[int(i == j) for j in range(q.n)] for i in range(q.n)]


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


# sha256 of json [c, c^-1] as matrices and of realize's matrices for every
# root, as recorded when the Coxeter matrix was -E^{-1} E^t by exact matrix
# inversion and realize walked each root down the sink sequence itself; the
# matrices are now built from coxeter_step on the basis vectors
COXETER_REALIZE_DIGESTS = {
    "d5": ("1b50358b4c5048d914c42c0c93afe3f147fc4abd335a4adfa4adc28265b85f75",
           "18a5131094168745eaa96416fd5fde3f3ca786ed3e7c49a407d0d7a0c4aaa31c"),
    "e6": ("4f7f5817335dd646aa5e237f0649d3e137e6b035910b84170dba9d0db8581129",
           "78c5951cff04aedeaa81d67b5e6c7f7df99a35df4dd3b1c385bc27f14601d050"),
}


@pytest.mark.parametrize("name", sorted(COXETER_REALIZE_DIGESTS))
def test_coxeter_and_realize_match_recorded_digests(request, name):
    q = request.getfixturevalue(name)
    t = hom_table(q)
    reps = [realize(q, r) for r in t.roots]
    matrices = [[v.dims, [[[str(x) for x in row] for row in v.maps[a].rows]
                          for a in range(len(q.arrows))]] for v in reps]
    assert (_sha256([coxeter_matrix(q), coxeter_matrix(q, -1)]), _sha256(matrices)) == \
        COXETER_REALIZE_DIGESTS[name]
