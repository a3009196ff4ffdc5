import collections
import dataclasses
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from qsing import jacobian, orbits
from qsing.decomp import (
    RepClass,
    class_ext,
    class_hom,
    class_self_ext,
    generic_decomposition,
    make_class,
    perp_simples,
)
from qsing.orbits import (
    components,
    enumerate_classes,
    is_set_theoretic_ci,
    make_spec,
    reduced_bound,
    reducedness_report,
    survey,
)
from qsing.quiver import Quiver, euler_form, simple_root
from qsing.roots import hom_table

from oracles import (class_total, condition_ab_report, degenerates_to, evaluate_semiinvariant,
                     gradient_condition_b_witness, hom_profile, in_zero_set, is_cover,
                     jacobian_minor_det, realize, rep, tuple_walk)


def test_enumerate_a2(a2):
    classes = [c.parts for c in enumerate_classes(a2, (1, 1))]
    assert sorted(classes) == sorted([
        (((1, 1), 1),),
        (((0, 1), 1), ((1, 0), 1)),
    ])
    assert len(list(enumerate_classes(a2, (2, 2)))) == 3


def test_enumerate_total_and_uniqueness(a3, d4):
    for q, alpha in ((a3, (2, 3, 2)), (d4, (2, 2, 2, 3))):
        seen = set()
        for cls in enumerate_classes(q, alpha):
            assert class_total(cls, q.n) == alpha
            assert cls.parts not in seen
            seen.add(cls.parts)


def test_enumerate_max_self_ext_filter(a3):
    table = hom_table(a3)
    alpha = (3, 4, 3)
    all_classes = {c.parts: class_self_ext(table, c)
                   for c in enumerate_classes(a3, alpha)}
    bounded = {c.parts for c in enumerate_classes(a3, alpha, max_self_ext=2)}
    assert bounded == {p for p, e in all_classes.items() if e <= 2}
    assert {c.parts for c in enumerate_classes(a3, alpha, max_self_ext=2.5)} == bounded


def test_in_zero_set_a2(a2):
    spec = make_spec(a2, (1, 1))
    generic = make_class([((1, 1), 1)])
    degenerate = make_class([((1, 0), 1), ((0, 1), 1)])
    assert not in_zero_set(generic, spec)
    assert in_zero_set(degenerate, spec)


def test_degeneration_order_a2(a2):
    m = make_class([((1, 1), 1)])
    n = make_class([((1, 0), 1), ((0, 1), 1)])
    assert degenerates_to(a2, m, n)
    assert not degenerates_to(a2, n, m)
    assert degenerates_to(a2, m, m)


def test_generic_degenerates_to_everything(a3):
    alpha = (2, 3, 2)
    t = generic_decomposition(a3, alpha)
    for cls in enumerate_classes(a3, alpha):
        assert degenerates_to(a3, t, cls)


def test_hom_order_antisymmetry(a3, d4):
    # equal hom profiles imply equal multisets
    for q, alpha in ((a3, (2, 2, 2)), (d4, (1, 2, 1, 3))):
        table = hom_table(q)
        seen = {}
        for cls in enumerate_classes(q, alpha):
            p = hom_profile(table, cls)
            assert p not in seen, "two classes share a hom profile"
            seen[p] = cls


def test_codim_two_ways(a3, d4):
    # ext(X,X) = dim Rep - (sum alpha^2 - hom(X,X))
    for q, alpha in ((a3, (2, 2, 1)), (d4, (1, 1, 1, 2))):
        table = hom_table(q)
        dim_rep = sum(alpha[t - 1] * alpha[h - 1] for t, h in q.arrows)
        dim_gl = sum(a * a for a in alpha)
        for cls in enumerate_classes(q, alpha):
            codim = class_self_ext(table, cls)
            orbit_dim = dim_gl - class_hom(table, cls, cls)
            assert codim == dim_rep - orbit_dim


def test_components_a2(a2):
    spec = make_spec(a2, (1, 1))
    comps = components(spec)
    assert len(comps) == 1
    assert comps[0].rep_class.parts == (((0, 1), 1), ((1, 0), 1))
    assert comps[0].codim == 1
    assert comps[0].gradient_a
    assert is_set_theoretic_ci(spec, comps)


def test_components_pairwise_incomparable(d4):
    spec = make_spec(d4, (2, 2, 2, 3))
    comps = components(spec)
    table = hom_table(d4)
    for c1, c2 in itertools.combinations(comps, 2):
        assert not degenerates_to(d4, c1.rep_class, c2.rep_class)
        assert not degenerates_to(d4, c2.rep_class, c1.rep_class)


def test_non_ci_instance_d4(d4):
    # three generic lines in the plane: the nullcone of (1,1,1,2) has a
    # single component of codimension 2 against three semi-invariants
    spec = make_spec(d4, (1, 1, 1, 2))
    assert spec.perp.r == 3
    comps = components(spec)
    assert len(comps) == 1
    assert comps[0].rep_class.parts == (((0, 0, 0, 1), 1), ((1, 1, 1, 1), 1))
    assert comps[0].codim == 2
    assert not is_set_theoretic_ci(spec, comps)
    rr = reducedness_report(spec, comps)
    assert rr.verdict == "unverified"
    assert "complete intersection" in rr.reason


def test_gradient_condition_a(a2):
    # condition (a): hom(X, S_j) = 1 for every selected j; the generic class
    # is not in the zero set, so it is neither an h-point nor a component
    spec = make_spec(a2, (1, 1))
    degenerate = make_class([((1, 0), 1), ((0, 1), 1)])
    assert survey(spec).h_points == [degenerate]
    assert {c.rep_class: c.gradient_a for c in components(spec)} == {degenerate: True}


def test_gradient_b_witness_a2(a2):
    spec = make_spec(a2, (1, 1))
    x = make_class([((1, 0), 1), ((0, 1), 1)])
    w = gradient_condition_b_witness(x, spec, 1)
    assert w.parts == (((1, 1), 1),)


def test_gradient_b_witness_rejects_a_class_of_another_dimension_vector(a2):
    spec = make_spec(a2, (1, 1))
    with pytest.raises(ValueError, match="dimension vector"):
        gradient_condition_b_witness(make_class([((1, 0), 2), ((0, 1), 1)]), spec, 1)


def test_zprime_h_a2(a2):
    spec = make_spec(a2, (1, 1))
    sv = survey(spec)
    assert sv.zprime_witness is not None
    assert sv.h_points


def test_reduced_a2(a2):
    spec = make_spec(a2, (1, 1))
    rr = reducedness_report(spec)
    assert rr.verdict == "reduced" and rr.ci
    # X(a) = 0 at the component, and its one coordinate has df nonzero
    assert rr.components[0].jacobian_minor == ((0, 0, 0),)


def test_bound_tables(a3, d4, e6):
    assert reduced_bound(a3) == 1 and reduced_bound(d4) == 2
    assert reduced_bound(e6) == 2


@pytest.mark.parametrize("alpha", [(2, 2, 2), (3, 4, 3), (1, 3, 2), (4, 4, 4)])
def test_thm_dynk_regime_a3(a3, alpha):
    # multiplicities >= N(A) = 1 always hold; the nullcone must be reduced
    from qsing.decomp import perp_simples
    perp = perp_simples(a3, generic_decomposition(a3, alpha))
    if perp.r == 0:
        pytest.skip("no semi-invariants")
    rr = reducedness_report(make_spec(a3, alpha))
    assert rr.verdict == "reduced"


def test_thm_dynk_regime_d4(d4):
    # all multiplicities >= N(D) = 2
    t = make_class([((1, 1, 1, 2), 2)])
    alpha = class_total(t, 4)
    spec = make_spec(d4, alpha)
    assert all(mult >= 2 for _, mult in spec.t_class.parts)
    rr = reducedness_report(spec)
    assert rr.verdict == "reduced"


def test_e6_nullcone_reduced(e6, e6_alpha):
    spec = make_spec(e6, e6_alpha(2, 2))
    comps = components(spec)
    assert len(comps) == 1 and comps[0].codim == 4
    rr = reducedness_report(spec, comps)
    assert rr.verdict == "reduced"
    assert len(comps[0].jacobian_minor) == 4
    sv = survey(spec)
    assert sv.zprime_witness is not None and sv.h_points


def reference_survey(spec):
    """The survey by brute force: every class of alpha, in enumeration
    order, with Hom and Ext sums recomputed from scratch."""
    table = hom_table(spec.quiver)
    total, h_points, zprime = 0, [], None
    patterns = {k: [] for k in spec.selected}
    for cls in enumerate_classes(spec.quiver, spec.alpha):
        total += 1
        homs = [class_hom(table, cls, s) for s in spec.selected_simples]
        text = class_ext(table, cls, spec.t_class) + class_ext(table, spec.t_class, cls)
        if all(h == 1 for h in homs):
            h_points.append(cls)
        for k in spec.selected:
            if homs == [int(j != k) for j in spec.selected]:
                patterns[k].append(cls)
        if zprime is None and text == 0 and all(homs):
            zprime = cls
    return total, h_points, patterns, zprime


@pytest.mark.parametrize("name, alpha, selected", [
    ("a3", (2, 3, 2), None),
    ("a3", (3, 3, 3), (2,)),
    ("a3", (0, 3, 3), (1,)),  # the Z' witness has a Hom equal to 2
    ("d4", (2, 2, 2, 3), None),
    ("d4", (2, 2, 2, 4), (2,)),
    ("d4", (1, 2, 1, 3), None),
    ("e6", (1, 3, 3, 3, 1, 2), None),
    ("e6", (1, 3, 3, 3, 1, 2), (1, 3)),
    ("e6", (1, 2, 3, 2, 1, 2), None),
    # the survey also cuts on Hom(C,T) > Hom(T,T) here, with Ext(C,T) =
    # Ext(T,C) = 0 and no Z' witness yet
    ("e6", (0, 0, 2, 1, 0, 1), (2, 3)),
    ("e6", (0, 1, 3, 2, 1, 2), None),
    # and on Ext(C,S_j) >= 2 with every Hom(C,S_j) <= 1, beside patterns
    ("d4", (1, 1, 1, 2), (2, 3)),
    ("a3", (2, 2, 2), None),
])
def test_survey_matches_brute_force(request, name, alpha, selected):
    q = request.getfixturevalue(name)
    spec = make_spec(q, alpha, selected)
    if selected is not None:
        assert len(spec.selected) < spec.perp.r  # a proper subset
    total, h_points, patterns, zprime = reference_survey(spec)
    sv = survey(spec)
    assert sv.total == total
    assert sv.h_points == h_points
    assert sv.patterns == patterns
    assert sv.zprime_witness == zprime
    assert not sv.h_truncated


E6_SMALL = (1, 3, 3, 3, 1, 2)  # e6-ex1 at n = m = 1


def test_survey_h_cap_truncates_the_h_points(e6):
    spec = make_spec(e6, E6_SMALL)
    capped = survey(spec, h_cap=1)
    assert len(capped.h_points) == 1 and capped.h_truncated
    full = survey(spec)
    assert len(full.h_points) == len(reference_survey(spec)[1]) > 1
    assert reducedness_report(spec).verdict == "reduced"


_REPLAY = Path(__file__).resolve().parents[1] / "scripts" / "replay_reports.py"
_SPEC = importlib.util.spec_from_file_location("replay_reports", _REPLAY)
replay_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(replay_reports)
# the spec of every nonempty selection of every alpha with 0 < |alpha| <= bound
selections = replay_reports.box


def agrees_with_condition_ab(spec):
    """The report's verdict and witness, checked against the paper's
    conditions (a) and (b) wherever they decide; no complete intersection
    is left unverified, and each minor of a reduced verdict is nonzero over
    Q, recomputed from rational matrices."""
    comps = components(spec)
    rr = reducedness_report(spec, comps)
    want, witness, _ = condition_ab_report(spec, comps)
    if want != "unverified":
        assert (rr.verdict, rr.witness) == (want, witness), (spec.alpha, spec.selected)
    if comps and rr.ci:
        assert rr.verdict != "unverified", (spec.alpha, spec.selected, rr.reason)
    if rr.verdict == "reduced":
        for c in comps:
            assert jacobian_minor_det(spec.quiver, c.rep_class, spec.selected_simples,
                                      c.jacobian_minor) != 0, (spec.alpha, spec.selected)
    return rr.verdict if comps else "empty"


@pytest.mark.parametrize("name, bound, counts", [
    ("a3", 6, {"reduced": 23, "empty": 105}),
    (Quiver(3, ((1, 2), (3, 2))), 6, {"reduced": 23, "empty": 105}),
    ("d4", 5, {"reduced": 58, "unverified": 1, "empty": 408}),
    (Quiver(4, ((4, 1), (4, 2), (4, 3))), 5, {"reduced": 58, "unverified": 1, "empty": 408}),
    ("d5", 4, {"reduced": 65, "empty": 1022}),
    ("e6", 3, {"reduced": 30, "empty": 1623}),
    ("a4", 7, {"reduced": 152, "empty": 809}),
    (Quiver(4, ((1, 2), (3, 2), (3, 4))), 7, {"reduced": 142, "empty": 805}),
])
def test_reducedness_agrees_with_conditions_a_and_b(request, name, bound, counts):
    """Every nonempty selection of every alpha of the box; ``counts`` tallies
    the verdicts on nonempty zero sets, and the empty ones.  The one
    unverified zero set of D4 is (1,1,1,2), not a complete intersection."""
    q = request.getfixturevalue(name) if isinstance(name, str) else name
    seen = collections.Counter(map(agrees_with_condition_ab, selections(q, bound)))
    assert seen == counts


# (zero sets, digest) of every group of ``scripts/replay_reports.py``, recorded
# when ``jacobian.realize`` still worked over the integers: verdicts, reasons,
# witnesses, components and minors have not changed since
REPLAY_DIGESTS = {
    "a3": (128, "f07c21941fd0730cf48b2488f24232d02fd252a401a508c59f904dd3d426482f"),
    "a3-sink": (128, "ad1e68ecdd722c53aaa3ac9951e54f3f04b9e473fc4f771e53be48dfa2b063ad"),
    "d4": (467, "a7dbf73f66606beef2cccf3957581708ef1befe93d33e87c4e8a5d45edb49581"),
    "d4-source": (467, "f0f49723c970352c610e5d47016b073846abe568f60faed3b2d34fbb96759903"),
    "d5": (1087, "d5d10eea86ac754c04ef49fdf20cb4260bf88ea6505520924b23b4150ba7d90c"),
    "e6": (1653, "b4049e7debae74d919ea96d8d8bbc25b7096cb606a666b5ceaa19915c1c365e5"),
    "e8": (4244, "32f9fd75ef101f3877a97c6b34b6b9a217a7d41f6f8b64991ad7c40f22a6c206"),
    "examples": (28, "9e83557e92b750e6933c95beb2ea66efe18101833ed7173d7c343ef90cc7aa50"),
}


@pytest.mark.parametrize("group", sorted(REPLAY_DIGESTS))
def test_reports_replay_to_the_recorded_digests(group):
    assert replay_reports.digest(replay_reports.GROUPS[group]()) == REPLAY_DIGESTS[group]


# the inputs of the nullcone-e8 benchmark workload
NULLCONE_E8 = replay_reports.NULLCONE_E8


def test_e8_reducedness_agrees_with_conditions_a_and_b(e8, e8_alpha):
    """The nullcone-e8 inputs are reduced, each with a nonzero minor over
    Q, and e8-notred is not reduced, with the first component, N1, failing
    condition (a) as witness: Hom (1,1,1,2,1) against its simples."""
    assert [agrees_with_condition_ab(make_spec(e8, a)) for a in NULLCONE_E8] == ["reduced"] * 18
    spec = make_spec(e8, e8_alpha(1))
    assert agrees_with_condition_ab(spec) == "not-reduced"
    rr = reducedness_report(spec)
    assert rr.witness.parts == (((0, 0, 1, 0, 0, 0, 0, 0), 1), ((2, 4, 6, 4, 3, 2, 1, 3), 1))
    assert rr.witness == rr.components[0].rep_class
    assert rr.components[0].hom_to_simples == (1, 1, 1, 2, 1)
    assert all(c.jacobian_minor is None for c in rr.components)  # rule 1 builds no matrix


def scaled_by_3(mp, only=None):
    """Through the MonkeyPatch ``mp``, work mod 3 on ``realize``'s
    representatives scaled by 3, or on that of the root ``only`` alone."""
    real = jacobian.realize
    mp.setattr(jacobian, "P", 3)

    def scaled(q, root):
        dims, maps = real(q, root)
        if only is not None and tuple(root) != only:
            return dims, maps
        return dims, [[[3 * x for x in row] for row in m] for m in maps]

    mp.setattr(jacobian, "realize", scaled)


def test_inconclusive_rank_mod_p_gives_no_verdict(e6, monkeypatch, fresh_caches):
    """``realize`` works over F_p itself, so its representatives mod p are
    indecomposable, and a corank mod p that rises above 1 says nothing
    about Q.  Representatives scaled by 3, isomorphic over Q, are 0 mod 3:
    every corank rises, and the report gives no verdict, naming the
    component and the prime."""
    scaled_by_3(monkeypatch)
    spec = make_spec(e6, E6_SMALL)
    rr = reducedness_report(spec)
    assert rr.verdict == "unverified" and rr.witness is None
    assert "mod p = 3" in rr.reason and "corank" in rr.reason
    assert str(rr.components[0].rep_class.parts) in rr.reason
    assert all(c.jacobian_minor is None for c in rr.components)


@pytest.mark.parametrize("name, alpha, counts", [
    ("a2", (2, 2), (1, 1)),
    ("a3", (1, 2, 1), (2, 4)),
    ("d4", (1, 1, 1, 3), (9, 62)),
])
def test_gap_two_covers_match_brute_force(request, name, alpha, counts):
    """The reference's ``is_cover`` on every Hom-comparable pair with codimension gap >= 2
    against a scan of all classes for one strictly in between; ``counts``
    is (minimal, not minimal), so both outcomes are reached."""
    q = request.getfixturevalue(name)
    table = hom_table(q)
    pk = orbits._packing(q, alpha)
    classes = [(c, hom_profile(table, c), class_self_ext(table, c))
               for c in enumerate_classes(q, alpha)]
    leq = lambda p, r: all(a <= b for a, b in zip(p, r))
    packed = lambda p: orbits._pack(p, pk.w)
    seen = [0, 0]
    for (m, pm, em), (x, px, ex) in itertools.product(classes, repeat=2):
        if ex - em < 2 or not leq(pm, px):
            continue
        minimal = not any(pw not in (pm, px) and leq(pm, pw) and leq(pw, px)
                          for _, pw, _ in classes)
        assert is_cover(pk, m, packed(pm), x, packed(px)) == minimal, (m, x)
        seen[not minimal] += 1
    assert tuple(seen) == counts


# E8 relabelled so that vertex 1 sits inside an arm; the root coordinates
# outgrow alpha's there, so a packing width taken from alpha alone breaks
E8_RELABELLED = Quiver(8, ((2, 1), (1, 7), (8, 7), (3, 8), (5, 3), (6, 5), (4, 7)))
WALK_BOXES = [
    ("a3", 6), ("d4", 5), (Quiver(4, ((4, 1), (4, 2), (4, 3))), 5), ("d5", 4),
    ("e6", 3), ("e8", 2),
]


def walk_box(request):
    """(quiver, alpha) for every nonzero alpha of the boxes, and the
    relabelled E8 case."""
    for q, bound in WALK_BOXES:
        q = request.getfixturevalue(q) if isinstance(q, str) else q
        for alpha in itertools.product(range(bound + 1), repeat=q.n):
            if 0 < sum(alpha) <= bound:
                yield q, alpha
    yield E8_RELABELLED, (1, 0, 1, 0, 1, 0, 0, 0)


def walked_class(table, chosen):
    return make_class([(table.roots[table.walk[p]], m) for p, m in chosen])


def node_class(table, seq):
    """The class of a node given by the walk positions stepped to reach it."""
    return walked_class(table, collections.Counter(seq).items())


def test_packed_walk_matches_tuple_walk(request):
    """The packed walk streams the same (chosen, acc) pairs in the same
    order as the tuple walk, with and without cuts.  The accumulator lists
    every walk position stepped on the way, so both walks must step the
    same roots in the same order; the cut is on its self-Ext.  The class
    count equals the number of classes the walk streams."""
    for q, alpha in walk_box(request):
        table = hom_table(q)
        pk = orbits._packing(q, alpha)
        self_ext = lambda seq: class_self_ext(table, node_class(table, seq))
        for fits in (lambda acc: True, lambda acc: self_ext(acc) <= 1):
            stream = lambda walk, t: [(tuple(c), acc) for c, acc in
                                      walk(t, alpha, lambda acc, p: acc + (p,), fits, ())]
            assert stream(orbits._walk, pk) == stream(tuple_walk, table), (q, alpha)
        assert orbits._count_classes(pk, alpha) == len(list(enumerate_classes(q, alpha)))
    assert len(list(enumerate_classes(E8_RELABELLED, (1, 0, 1, 0, 1, 0, 0, 0)))) == 2


def test_bounded_enumeration_matches_the_filtered_tuple_walk(request):
    """``enumerate_classes`` with ``max_self_ext`` = k streams the classes of
    the unbounded tuple walk whose self-Ext is at most k, in the same order."""
    for q, alpha in walk_box(request):
        table = hom_table(q)
        every = [walked_class(table, chosen)
                 for chosen, _ in tuple_walk(table, alpha, lambda acc, p: acc, lambda acc: True)]
        codims = [class_self_ext(table, c) for c in every]
        for k in range(4):
            want = [c for c, e in zip(every, codims) if e <= k]
            assert list(enumerate_classes(q, alpha, max_self_ext=k)) == want, (q, alpha, k)


def semisimple(n, v):
    """The class of the semisimple (+)_x S_x^{v_x}."""
    return make_class([(simple_root(n, x + 1), c) for x, c in enumerate(v) if c])


def bounded_nodes(monkeypatch, q, alpha, bd):
    """(walk positions stepped, accumulator) of every child the bounded walk
    steps to with no cut, dead ends and leaves included, and the number of
    leaves.  The limits of (v) are lifted to the field cap, and k is too
    large to cut.  Each step's accumulator is the one of its parent node or
    of the previous copy of its root, which sit on the stack of the path."""
    nodes, real = [], orbits._walk

    def walk(pk, alpha, step, fits, acc):
        path = [((), acc)]

        def traced(acc, p):
            while path[-1][1] is not acc:
                path.pop()
            path.append((path[-1][0] + (p,), step(acc, p)))
            nodes.append(path[-1])
            return path[-1][1]

        return real(pk, alpha, traced, fits, acc)

    monkeypatch.setattr(orbits, "_walk", walk)
    uncut = dataclasses.replace(bd, ehom=[bd.cap + 1] * len(bd.ehom))
    leaves = sum(1 for _ in orbits._bounded_walk(alpha, uncut, 10**9))
    monkeypatch.undo()
    return nodes, leaves


def test_bound_fields_decode_to_their_hom_and_ext(request, monkeypatch):
    """Every field of every node of the bounded walk, with limits too large
    to cut, decodes to the Hom or Ext dimension it sums, so no field
    overflows into its neighbour or goes negative; the nodes satisfy facts
    (i)-(v), and the cut at k = 0..3 passes a node exactly when none of the
    bounds (i), (ii) and (iv) on Ext(X,X) exceeds k and, by (v), every
    Hom(E_alpha,S_j) - V_j is at least 1.  Where some Hom(E_alpha,S_j) is
    0, ``components`` walks nothing, (v) has no limit, and the cut with the
    limits of (v) lifted to the field cap passes a node exactly when none
    of (i), (ii) and (iv) exceeds k."""
    for q, alpha in walk_box(request):
        table = hom_table(q)
        t = generic_decomposition(q, alpha)
        simples = perp_simples(q, t).simples
        bd = orbits._bounds(orbits._packing(q, alpha), alpha, t, simples)
        ehom = [class_hom(table, semisimple(q.n, alpha), s) for s in simples]
        assert bd.ehom == ehom
        if not all(ehom):
            assert components(make_spec(q, alpha)) == [], (q, alpha)
        lifted = dataclasses.replace(bd, ehom=[bd.cap + 1] * len(bd.ehom))
        single = [make_class([(table.roots[i], 1)]) for i in table.walk]
        nodes, leaves = bounded_nodes(monkeypatch, q, alpha, bd)
        for seq, acc in nodes:
            c = node_class(table, seq)
            cv = class_total(c, q.n)
            y = generic_decomposition(q, tuple(a - b for a, b in zip(alpha, cv)))
            homs = [class_hom(table, c, s) for s in simples]
            exts = [class_ext(table, c, s) for s in simples]
            t_fields = [class_ext(table, c, t), class_hom(table, c, t),
                        class_ext(table, t, c), class_hom(table, t, c)]
            codim = class_self_ext(table, c)
            cy = class_ext(table, c, y) - class_hom(table, c, y)  # -<c,y>
            yc = class_ext(table, y, c) - class_hom(table, y, c)  # -<y,c>
            rem = [bd.off + codim + cy, bd.off + codim + yc, 2 * bd.off + codim + cy + yc]
            pairs = [v for hom_ext in zip(homs, exts) for v in hom_ext]
            per_root = [v for r in single for v in (
                class_ext(table, c, r) + class_ext(table, r, c),
                class_hom(table, c, r) + class_hom(table, r, c))]
            zero = [class_hom(table, semisimple(q.n, cv), s) - h for s, h in zip(simples, homs)]
            assert bd.fields(acc) == [*t_fields, codim, *rem, *per_root, *pairs, *zero], (
                q, alpha, c)
            assert bd.homs(acc) == homs
            bound = max(t_fields[0], t_fields[2], t_fields[1] - bd.htt, t_fields[3] - bd.htt,
                        codim + max(0, cy) + max(0, yc))  # (i), (ii) and (iv)
            room = all(e - v >= 1 for e, v in zip(ehom, zero))  # (v)
            for k in range(4):
                if all(ehom):
                    assert orbits._geq(bd.guard, bd.limit(k), acc) == (bound <= k and room), (
                        q, alpha, c, k)
                else:  # no limit for (v): the cut on (i), (ii) and (iv) alone
                    assert orbits._geq(bd.guard, lifted.limit(k), acc) == (bound <= k), (
                        q, alpha, c, k)
            assert all(0 <= v <= e for v, e in zip(zero, ehom))
            if cv == alpha:
                assert homs == exts  # (iii)
                assert codim >= max(t_fields[0], t_fields[2])  # (i)
                assert t_fields[1] - bd.htt == t_fields[0]  # (ii) at a whole class
                assert room == all(homs)  # (v) at a whole class is membership in Z
        assert leaves == orbits._count_classes(orbits._packing(q, alpha), alpha)


# two nullcone-e8 inputs: the widest accumulator, w = 11 with two simples,
# and the most simples, five at w = 10
E8_NULLCONES = {(1, 3, 7, 2, 1, 2, 1, 3): (11, 2), (1, 2, 5, 2, 2, 2, 1, 3): (10, 5)}


def test_bounds_gains_match_their_definition(request, e8, e8_alpha):
    """Every gain of ``_bounds`` equals its fields as the ``_Bounds``
    docstring lists them, rebuilt from ``hom_table`` and the Euler form and
    packed by ``_pack``; and ``_bounded_walk``'s offsets read
    E_p and H_p.  The gain of V_j is Hom(E_{r_p},S_j) - Hom(R_p,S_j),
    E_{r_p} the semisimple of dimension r_p, and its limit is set by
    Hom(E_alpha,S_j).
    Beside ``walk_box`` this reaches E8 at the widths of real inputs: the
    two ``E8_NULLCONES`` and e8-notred."""
    cases = [*walk_box(request), *((e8, a) for a in E8_NULLCONES), (e8, e8_alpha(1))]
    per_root = {}  # quiver -> the per-root fields one copy of R_p adds, by walk position p
    for q, alpha in cases:
        table = hom_table(q)
        hom, ext, walk = table.hom, table.ext, table.walk
        if q not in per_root:
            per_root[q] = [[v for i in walk for v in (ext[i][p] + ext[p][i], hom[i][p] + hom[p][i])]
                           for p in walk]
        t = generic_decomposition(q, alpha)
        simples = perp_simples(q, t).simples
        pk = orbits._packing(q, alpha)
        bd = orbits._bounds(pk, alpha, t, simples)
        assert (bd.simple, bd.n) == (8 + 2 * len(walk), 8 + 2 * len(walk) + 3 * len(simples))
        assert bd.ehom == [class_hom(table, semisimple(q.n, alpha), s) for s in simples]
        if q == e8 and alpha in E8_NULLCONES:
            assert (bd.w, bd.r) == E8_NULLCONES[alpha]
        for pos, p in enumerate(walk):
            x = make_class([(table.roots[p], 1)])
            t_fields = [class_ext(table, x, t), class_hom(table, x, t),
                        class_ext(table, t, x), class_hom(table, t, x)]
            ra, ar = euler_form(q, table.roots[p], alpha), euler_form(q, alpha, table.roots[p])
            rem = [1 - ra, 1 - ar, 2 - ra - ar]  # <r_p,r_p> = 1; E_p, H_p come from the walk
            pairs = [v for s in simples for v in (class_hom(table, x, s), class_ext(table, x, s))]
            e_p = semisimple(q.n, table.roots[p])
            zero = [class_hom(table, e_p, s) - class_hom(table, x, s) for s in simples]
            want = [*t_fields, 0, *rem, *per_root[q][pos], *pairs, *zero]
            assert bd.gains[pos] == orbits._pack(want, bd.w), (q, alpha, pos)
        at, mask = pk.root_columns[1], (1 << bd.w) - 1
        rng = random.Random(sum(alpha))
        vals = [rng.randrange(mask + 1) for _ in range(bd.n)]
        acc = orbits._pack(vals, bd.w)
        for pos in range(len(walk)):
            assert (acc >> at[pos]) & mask == vals[8 + 2 * pos], (q, alpha, pos)  # E_p
            assert (acc >> at[pos] + bd.w) & mask == vals[9 + 2 * pos], (q, alpha, pos)  # H_p


def test_remainder_bound_is_at_most_the_self_ext_of_every_completion(request):
    """At every interior node C of the unbounded tuple walk, the remainder
    bound (iv) of ``_Bounds``, Ext(C,C) + max(0, -<c,y>) + max(0, -<y,c>)
    with y = alpha - c and the Euler form read from dimension vectors, is
    at most Ext(X,X) for every class X the walk gives below C or at a larger
    multiplicity of C's last root: every class a cut at C would lose.  The
    bound is tight at some nodes and exceeds Ext(C,C) at others."""
    tight = above = 0
    for q, alpha in walk_box(request):
        table = hom_table(q)
        least = {}  # node -> the least self-Ext of the classes a cut there loses
        for chosen, _ in tuple_walk(table, alpha, lambda acc, p: acc, lambda acc: True):
            e = class_self_ext(table, walked_class(table, chosen))
            seq = tuple(p for p, m in chosen for _ in range(m))
            for i in range(1, len(seq)):
                least[seq[:i]] = min(least.get(seq[:i], e), e)
        for seq, e in least.items():
            c = node_class(table, seq)
            cv = class_total(c, q.n)
            y = tuple(a - b for a, b in zip(alpha, cv))
            codim = class_self_ext(table, c)
            bound = codim + max(0, -euler_form(q, cv, y)) + max(0, -euler_form(q, y, cv))
            assert bound <= e, (q, alpha, c)
            tight += bound == e
            above += bound > codim
    assert tight and above


def brute_force_components(table, every, spec):
    """(parts, codim, Hom to the selected simples, condition (a)) of every
    class in the zero set that no other class in it degenerates from."""
    simples = spec.selected_simples
    zero = [(c, hom_profile(table, c)) for c in every
            if all(class_hom(table, c, s) > 0 for s in simples)]
    out = []
    for c, p in zero:
        if not any(d != c and all(a <= b for a, b in zip(pd, p)) for d, pd in zero):
            homs = tuple(class_hom(table, c, s) for s in simples)
            out.append((c.parts, class_self_ext(table, c), homs, all(h == 1 for h in homs)))
    return sorted(out)


@pytest.mark.parametrize("name, bound", [
    ("a3", 6), ("d4", 5), (Quiver(4, ((4, 1), (4, 2), (4, 3))), 5), ("e6", 3),
])
def test_components_match_brute_force(request, name, bound):
    """``components`` against a scan of every class of alpha, for every
    nonempty selection of perpendicular simples: no codimension bound, so
    this also checks the cut on self-Ext <= k and the bounds against T."""
    q = request.getfixturevalue(name) if isinstance(name, str) else name
    table = hom_table(q)
    for alpha in itertools.product(range(bound + 1), repeat=q.n):
        if not 0 < sum(alpha) <= bound:
            continue
        every = list(enumerate_classes(q, alpha))
        r = perp_simples(q, generic_decomposition(q, alpha)).r
        for size in range(1, r + 1):
            for sel in itertools.combinations(range(1, r + 1), size):
                spec = make_spec(q, alpha, sel)
                got = [(c.rep_class.parts, c.codim, c.hom_to_simples, c.gradient_a)
                       for c in components(spec)]
                assert got == brute_force_components(table, every, spec), (q, alpha, sel)


@pytest.mark.parametrize("name, alpha", [("a3", (2, 3, 2)), ("e8", (1, 3, 7, 2, 1, 2, 1, 3))])
def test_each_alpha_is_packed_once_at_its_accumulator_width(request, name, alpha, monkeypatch):
    """``components`` packs alpha's classes at one width, ``_acc_width``,
    kept on the context; the survey reads the same packing, and a second
    ``components`` adds no width and no gain column."""
    q = request.getfixturevalue(name)
    table = hom_table(q)
    monkeypatch.setattr(table, "packed", {})
    spec = make_spec(q, alpha)
    first = components(spec)
    w = orbits._acc_width(q, alpha)
    assert list(table.packed) == [w]
    pk = table.packed[w]
    built = dict(pk.gain_cols)
    assert built
    survey(spec)
    assert components(spec) == first
    assert list(table.packed) == [w] and table.packed[w] is pk and pk.gain_cols == built


@pytest.mark.parametrize("q, bound", [
    (Quiver(3, ((1, 2), (2, 3))), 4), (Quiver(3, ((1, 2), (3, 2))), 4),
    (Quiver(4, ((1, 4), (2, 4), (3, 4))), 3),
])
def test_semisimple_hom_is_zero_exactly_for_a_constant_semi_invariant(q, bound):
    """Hom(E_alpha,S_j) = 0 exactly when c_{S_j} is a nonzero constant, on
    explicit matrices: where it is at least 1, f = c_{S_j} vanishes at the
    zero point but not at a random V, so f is not constant; where it is 0,
    f(2V) = f(V) != 0 at a random V, and ``components`` finds no class."""
    table, rng = hom_table(q), random.Random(7)
    seen = collections.Counter()
    for alpha in itertools.product(range(bound + 1), repeat=q.n):
        if sum(alpha) > bound:
            continue
        coords = [(ai, i, j) for ai, (t, h) in enumerate(q.arrows)
                  for i in range(alpha[h - 1]) for j in range(alpha[t - 1])]
        values = {c: rng.randint(-9, 9) for c in coords}
        v, v2 = rep(q, alpha, values), rep(q, alpha, {c: 2 * x for c, x in values.items()})
        zero_point = rep(q, alpha, {})
        for j, s in enumerate(perp_simples(q, generic_decomposition(q, alpha)).simples, 1):
            e = orbits._semisimple_homs(table, alpha, [s])[0]
            f = lambda point: evaluate_semiinvariant(point, realize(q, s))
            if e:
                assert f(zero_point) == 0 != f(v), (alpha, s)
            else:
                assert f(v2) == f(v) != 0, (alpha, s)
                assert components(make_spec(q, alpha, (j,))) == [], (alpha, s)
            seen[bool(e)] += 1
    assert seen[True] and seen[False]


def count_walks(monkeypatch):
    """Wrap ``orbits._walk``: the list of the leaf counts of its walks."""
    walks, real = [], orbits._walk

    def walk(*args):
        walks.append(0)
        for leaf in real(*args):
            walks[-1] += 1
            yield leaf

    monkeypatch.setattr(orbits, "_walk", walk)
    return walks


def test_components_walk_only_to_the_zero_set(a3, e8, e8_alpha, monkeypatch):
    """The work the cut on (v) leaves: on e8-notred the walk yields only the
    9 classes of the zero set with Ext(X,X) <= k, its 9 components, and on
    A3 1 -> 2 -> 3 at alpha = (1,1,0), whose selection holds a constant
    semi-invariant, no walk starts."""
    walks = count_walks(monkeypatch)
    assert len(components(make_spec(e8, e8_alpha(1)))) == 9
    assert walks == [9]
    walks.clear()
    assert components(make_spec(a3, (1, 1, 0))) == []
    assert walks == []


def test_components_and_bounded_enumeration_share_one_walk(a3, monkeypatch):
    limits = []
    real = orbits._bounded_walk
    monkeypatch.setattr(orbits, "_bounded_walk",
                        lambda alpha, bd, k: limits.append(k) or real(alpha, bd, k))
    list(enumerate_classes(a3, (2, 3, 2), max_self_ext=2))
    components(make_spec(a3, (2, 3, 2), (1,)))
    assert limits == [2, 1]


@pytest.mark.parametrize("alpha, patterns, total", [
    ((0, 0, 0), {1: [], 2: [], 3: []}, 1),
    # (1,1,0) selects a simple meeting vertex 3, whose semi-invariant is a
    # nonzero constant, so the zero set comes out empty; working on the
    # support of alpha would change this output
    ((1, 1, 0), {1: [], 2: [make_class([((0, 1, 0), 1), ((1, 0, 0), 1)])]}, 2),
])
def test_nullcone_off_the_support(a3, alpha, patterns, total):
    """T has no part at alpha = 0, and the walks read its dimension vector
    from the spec."""
    spec = make_spec(a3, alpha)
    assert components(spec) == []
    sv = survey(spec)
    assert (sv.h_points, sv.patterns, sv.zprime_witness, sv.h_truncated, sv.total) == (
        [], patterns, None, False, total)
    rr = reducedness_report(spec)
    assert (rr.verdict, rr.reason, rr.witness, rr.ci) == ("reduced", "empty zero set", None, True)


def test_zero_alpha_has_the_empty_class(a3):
    for k in (None, 0, 1, 5):
        assert list(enumerate_classes(a3, (0, 0, 0), max_self_ext=k)) == [RepClass(())]
    assert list(enumerate_classes(a3, (0, 0, 0), max_self_ext=-1)) == []


@pytest.mark.parametrize("name, alpha", [
    ("a3", (2, 3, 2)), ("d4", (2, 2, 2, 3)), ("e6", (1, 2, 2, 2, 1, 1)),
    ("e8", (0, 0, 1, 0, 0, 0, 0, 0)), (E8_RELABELLED, (1, 0, 1, 0, 1, 0, 0, 0)),
])
def test_packed_profiles_match_tuple_profiles(request, name, alpha):
    q = request.getfixturevalue(name) if isinstance(name, str) else name
    table = hom_table(q)
    pk = orbits._packing(q, alpha)
    classes = [(orbits._profile(pk, c), hom_profile(table, c))
               for c in enumerate_classes(q, alpha)]
    for (packed, total), prof in classes:
        assert packed == orbits._pack(prof, pk.w) and total == sum(prof)
    for ((pa, _), a), ((pb, _), b) in itertools.product(classes, repeat=2):
        assert orbits._geq(pk.guard, pa, pb) == all(x >= y for x, y in zip(a, b))


@pytest.mark.parametrize("alpha", [(1, 1, 1, 1), (1, 1)])
@pytest.mark.parametrize("call", [
    lambda q, alpha: list(enumerate_classes(q, alpha)),
    generic_decomposition,
    make_spec,
], ids=["enumerate_classes", "generic_decomposition", "make_spec"])
def test_dimension_vector_of_the_wrong_length_is_rejected(a3, call, alpha):
    with pytest.raises(ValueError, match="entries for 3 vertices"):
        call(a3, alpha)


def test_make_spec_names_a_missing_perpendicular_simple(a3):
    """alpha = (1, 2, 3) has no perpendicular simple: the error says so, not
    only that the selection is empty."""
    with pytest.raises(ValueError, match=r"^dimension vector \(1, 2, 3\) has no "
                       "perpendicular simple, so there is no semi-invariant to select$"):
        make_spec(a3, (1, 2, 3))
    with pytest.raises(ValueError, match="^selected must be nonempty$"):
        make_spec(a3, (1, 2, 1), ())
