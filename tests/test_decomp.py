import importlib.util
import itertools
import random
import time
from pathlib import Path

import pytest
from fractions import Fraction

from qsing import decomp, presets, quiver
from qsing.decomp import RepClass, class_ext, generic_decomposition, make_class, perp_simples
from qsing.orbits import enumerate_classes
from qsing.quiver import Quiver
from qsing.roots import hom_table, positive_roots

from oracles import (
    Mat,
    NonSquareError,
    Representation,
    class_total,
    evaluate_semiinvariant,
    merged_walk_decomposition,
    realize,
    scan_perp_simples,
    vanishing_mismatches,
)

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


def test_a2_decompositions(a2):
    t = generic_decomposition(a2, (5, 3))
    assert t.parts == (((1, 0), 2), ((1, 1), 3))
    t = generic_decomposition(a2, (1, 1))
    assert t.parts == (((1, 1), 1),)


def test_simple_root_decomposes_to_itself(a3):
    t = generic_decomposition(a3, (0, 1, 0))
    assert t.parts == (((0, 1, 0), 1),)


def test_e6_example_decomposition(e6, e6_alpha):
    t = generic_decomposition(e6, e6_alpha(1, 1))
    assert t.parts == (((0, 1, 1, 1, 0, 1), 1), ((1, 2, 2, 2, 1, 1), 1))
    # multiplicities scale with n, m
    t = generic_decomposition(e6, e6_alpha(3, 2))
    assert dict(t.parts) == {(0, 1, 1, 1, 0, 1): 2, (1, 2, 2, 2, 1, 1): 3}


def test_e8_example_decomposition(e8, e8_alpha):
    t = generic_decomposition(e8, e8_alpha(1))
    assert set(dict(t.parts)) == {
        (0, 1, 2, 1, 1, 1, 1, 1),
        (1, 2, 3, 2, 1, 1, 0, 1),
        (1, 1, 2, 1, 1, 0, 0, 1),
    }
    assert all(mult == 1 for _, mult in t.parts)


def test_decomposition_has_no_extensions(a3, d4, e6):
    rng = random.Random(5)
    for q in (a3, d4, e6):
        t = hom_table(q)
        for _ in range(10):
            alpha = tuple(rng.randint(0, 5) for _ in range(q.n))
            cls = generic_decomposition(q, alpha)
            assert class_total(cls, q.n) == alpha
            assert class_ext(t, cls, cls) == 0


def _all_ext_free_decompositions(q, alpha):
    """Brute-force oracle: every multiset of positive roots summing to alpha
    with pairwise vanishing Ext in both directions."""
    table = hom_table(q)
    roots = positive_roots(q)
    found = []

    def ok_pair(a, b):
        return table.ext_root(a, b) == 0 and table.ext_root(b, a) == 0

    def rec(rem, pos, acc):
        if not any(rem):
            found.append(tuple(acc))
            return
        for p in range(pos, len(roots)):
            r = roots[p]
            if all(rv >= cv for rv, cv in zip(rem, r)) and \
                    all(ok_pair(r, other) for other in acc):
                acc.append(r)
                rec(tuple(rv - cv for rv, cv in zip(rem, r)), p, acc)
                acc.pop()

    rec(tuple(alpha), 0, [])
    return set(found)


@pytest.mark.parametrize("alpha", [(2, 3, 2), (4, 5, 3), (1, 4, 2), (5, 5, 5),
                                   (6, 2, 6)])
def test_uniqueness_oracle_a3(a3, alpha):
    sols = _all_ext_free_decompositions(a3, alpha)
    assert len(sols) == 1
    expected = tuple(sorted(generic_decomposition(a3, alpha).as_multiset()))
    assert sols == {expected}


@pytest.mark.parametrize("alpha", [(1, 1, 1, 2), (2, 2, 2, 3), (1, 2, 3, 4),
                                   (3, 3, 3, 5), (2, 1, 2, 4)])
def test_uniqueness_oracle_d4(d4, alpha):
    sols = _all_ext_free_decompositions(d4, alpha)
    assert len(sols) == 1
    expected = tuple(sorted(generic_decomposition(d4, alpha).as_multiset()))
    assert sols == {expected}


def test_perp_simples_a2(a2):
    t = generic_decomposition(a2, (1, 1))
    p = perp_simples(a2, t)
    assert p.simples == ((0, 1),) and p.r == 1


def test_perp_simples_e6(e6, e6_alpha):
    t = generic_decomposition(e6, e6_alpha(1, 1))
    p = perp_simples(e6, t)
    assert p.r == 4
    assert set(p.simples) == {
        (1, 1, 1, 0, 0, 1), (0, 0, 1, 1, 1, 1),
        (0, 1, 1, 1, 1, 0), (1, 1, 1, 1, 0, 0),
    }
    assert list(p.simples) == sorted(p.simples)  # lexicographic convention


def test_perp_simples_e8(e8, e8_alpha):
    t = generic_decomposition(e8, e8_alpha(1))
    p = perp_simples(e8, t)
    assert p.r == 5
    assert set(p.simples) == {
        (0, 0, 1, 1, 1, 1, 1, 0), (0, 1, 2, 1, 1, 1, 0, 1),
        (1, 1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 1),
        (0, 1, 1, 1, 1, 0, 0, 0),
    }


def test_perp_simples_hom_orthogonal(e6, e6_alpha, e8, e8_alpha):
    for q, alpha in ((e6, e6_alpha(2, 2)), (e8, e8_alpha(1))):
        table = hom_table(q)
        p = perp_simples(q, generic_decomposition(q, alpha))
        for i, a in enumerate(p.simples):
            for j, b in enumerate(p.simples):
                assert table.hom_root(a, b) == (1 if i == j else 0)


def test_evaluate_semiinvariant_a2(a2):
    v = realize(a2, (1, 1))
    s2 = realize(a2, (0, 1))
    assert abs(evaluate_semiinvariant(v, s2)) == 1
    # scale the arrow entry
    v5 = Representation(a2, (1, 1), {0: Mat(1, 1, [[Fraction(5)]])})
    assert abs(evaluate_semiinvariant(v5, s2)) == 5
    with pytest.raises(NonSquareError):
        evaluate_semiinvariant(v, realize(a2, (1, 0)))


def test_semiinvariant_vanishing_matches_hom(a3, d4):
    # zero of c_S on a representative of a class iff hom(class, S) > 0
    rng = random.Random(17)
    for q in (a3, d4):
        assert vanishing_mismatches(q, rng, 50) == []


def _search_generic_decomposition(q, alpha):
    """Oracle: the depth-first search that computed the generic
    decomposition before the sink walk.  Tries roots in decreasing lex
    order, each with its largest multiplicity first, keeping parts with
    pairwise vanishing Ext."""
    table = hom_table(q)
    roots, ext = table.roots, table.ext
    order = sorted(range(len(roots)), key=lambda i: roots[i], reverse=True)
    # last_support[v]: the last position in order whose root has v in its support
    last_support = [max(p for p, i in enumerate(order) if roots[i][v])
                    for v in range(q.n)]
    chosen = []

    def dfs(rem, pos):
        if not any(rem):
            return True
        if any(a and pos > last for a, last in zip(rem, last_support)):
            return False
        ri = order[pos]
        r = roots[ri]
        if all(ext[ri][c] == 0 and ext[c][ri] == 0 for c, _ in chosen):
            maxmult = min(a // c for a, c in zip(rem, r) if c)
            for mult in range(maxmult, 0, -1):
                chosen.append((ri, mult))
                if dfs(tuple(a - mult * c for a, c in zip(rem, r)), pos + 1):
                    return True
                chosen.pop()
        return dfs(rem, pos + 1)

    found = dfs(tuple(alpha), 0)
    assert found
    return make_class([(roots[ri], m) for ri, m in chosen])


def _sum_free_perp_simples(q, t_class):
    """Oracle: the perpendicular roots that are not a sum of at least two
    perpendicular roots, found by search, in lex order."""
    table = hom_table(q)
    perp_set = sorted(
        beta for beta in table.roots
        if all(table.hom_root(r, beta) == 0 and table.ext_root(r, beta) == 0
               for r, _ in t_class.parts))

    def is_sum(beta):
        def dfs(rem, pos, count):
            if not any(rem):
                return count >= 2
            for p in range(pos, len(perp_set)):
                cand = perp_set[p]
                if all(c <= a for c, a in zip(cand, rem)) and cand != beta:
                    if dfs(tuple(a - c for a, c in zip(rem, cand)), p, count + 1):
                        return True
            return False

        return dfs(beta, 0, 0)

    return tuple(b for b in perp_set if not is_sum(b))


BOX_QUIVERS = [
    pytest.param(Quiver(3, ((1, 2), (2, 3))), 6, id="A3"),
    pytest.param(Quiver(3, ((1, 2), (3, 2))), 6, id="A3-sink"),
    pytest.param(Quiver(4, ((1, 2), (2, 3), (3, 4))), 4, id="A4"),
    pytest.param(Quiver(4, ((2, 1), (2, 3), (4, 3))), 4, id="A4-zigzag"),
    pytest.param(Quiver(4, ((1, 4), (2, 4), (3, 4))), 4, id="D4"),
    pytest.param(Quiver(4, ((4, 1), (4, 2), (3, 4))), 4, id="D4-mixed"),
    pytest.param(Quiver(5, ((1, 5), (2, 5), (5, 3), (3, 4))), 2, id="D5"),
    pytest.param(Quiver(6, ((1, 2), (2, 3), (4, 3), (5, 4), (6, 3))), 2,
                 id="E6"),
    pytest.param(Quiver(7, ((1, 2), (2, 3), (4, 3), (5, 4), (6, 5), (7, 3))), 1,
                 id="E7"),
]


@pytest.mark.parametrize("q, top", BOX_QUIVERS)
def test_sink_walk_matches_rigid_class_and_search(q, top):
    # every alpha with coordinates in 0..top
    for alpha in itertools.product(range(top + 1), repeat=q.n):
        t = generic_decomposition(q, alpha)
        assert list(enumerate_classes(q, alpha, max_self_ext=0)) == [t]
        assert _search_generic_decomposition(q, alpha) == t
        assert perp_simples(q, t).simples == _sum_free_perp_simples(q, t)


def test_e8_scaled_decomposition_without_search(e8, e8_alpha):
    # the depth-first search took minutes here; the walk does not scale with alpha
    base = generic_decomposition(e8, e8_alpha(1))
    start = time.perf_counter()
    t = generic_decomposition(e8, e8_alpha(5))
    assert time.perf_counter() - start < 1.0
    assert t.parts == tuple((r, 5 * m) for r, m in base.parts)


def test_e8_sample_matches_search(e8):
    # the whole {0,1}^8 box takes the search about 20 s; a seeded sample of
    # full-support vectors covers the largest table
    rng = random.Random(8)
    for _ in range(60):
        alpha = tuple(rng.randint(1, 3) for _ in range(8))
        t = generic_decomposition(e8, alpha)
        assert _search_generic_decomposition(e8, alpha) == t
        assert perp_simples(e8, t).simples == _sum_free_perp_simples(e8, t)


def benchmark_inputs():
    """(quiver, alpha) for every input of the benchmark's orbit and census
    workloads at full size, read from ``perfbench/workloads.py``."""
    qs = workloads.quivers({"quiver": quiver, "presets": presets})
    sizes = workloads.SIZES["full"]
    inputs = dict.fromkeys(sizes["nullcone-e8"])
    for name in ("reduced-sweep", "bfunction-census"):
        inputs.update(dict.fromkeys(workloads.box(sizes[name])))
    return [(qs[name], alpha) for name, alpha in inputs]


def test_decomposition_matches_the_references_on_the_benchmark_inputs():
    inputs = benchmark_inputs()
    assert len(inputs) == 1329 + 7314 + 251 + 461 + 18  # A3, D4 <= 18; D5, E6 <= 5; E8
    for q, alpha in inputs:
        t = generic_decomposition(q, alpha)
        assert t == merged_walk_decomposition(q, alpha), (q, alpha)
        assert perp_simples(q, t) == scan_perp_simples(q, t), (q, alpha)


def test_zero_alpha_has_the_empty_decomposition(a3):
    t = generic_decomposition(a3, (0, 0, 0))
    assert t == RepClass(()) and class_total(t, 3) == (0, 0, 0)
    assert perp_simples(a3, t).simples == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


@pytest.mark.parametrize("q", [p.values[0] for p in BOX_QUIVERS] + [presets.E8_QUIVER],
                         ids=[p.id for p in BOX_QUIVERS] + ["E8"])
def test_masks_decode_to_their_definitions_and_are_built_once(q, monkeypatch):
    """``orth`` and ``below`` hold, bit by bit, the Hom/Ext conditions they
    stand for.  ``hom_table`` leaves them unbuilt, and the decomposition
    layer builds them on a fresh context once, on first use."""
    table = hom_table.__wrapped__(q)
    assert "orth" not in vars(table) and "below" not in vars(table)
    monkeypatch.setattr(decomp, "hom_table", lambda _q: table)
    rng = random.Random(3)
    perp_simples(q, generic_decomposition(q, (1,) * q.n))
    assert "orth" in vars(table) and "below" in vars(table)
    orth, below = table.orth, table.below
    for _ in range(3):
        perp_simples(q, generic_decomposition(q, tuple(rng.randint(0, 3) for _ in range(q.n))))
        assert table.orth is orth and table.below is below
    roots, hom, ext = table.roots, table.hom, table.ext
    for i in range(len(roots)):
        for j in range(len(roots)):
            assert bool(table.orth[i] >> j & 1) == (hom[i][j] == ext[i][j] == 0)
            assert bool(table.below[j] >> i & 1) == (
                i != j and hom[i][j] > 0 and all(a <= b for a, b in zip(roots[i], roots[j])))
        assert table.orth[i] < 1 << len(roots) and table.below[i] < 1 << len(roots)
