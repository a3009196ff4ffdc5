import itertools

import pytest

from qsing.quiver import (
    Classification,
    Quiver,
    QuiverError,
    classify,
    euler_form,
    format_quiver_file,
    parse_quiver_file,
    simple_root,
)
from qsing.roots import hom_table

from oracles import Mat, coxeter_matrix, det, reflect_dim


def test_construction_validates():
    with pytest.raises(QuiverError):
        Quiver(2, ((1, 1),))  # loop
    with pytest.raises(QuiverError):
        Quiver(2, ((1, 2), (2, 1)))  # oriented cycle
    with pytest.raises(QuiverError):
        Quiver(2, ((1, 3),))  # bad vertex


@pytest.mark.parametrize("n, arrows", [
    (2, ((1.7, 2),)), (2, ((True, 2),)), (2, ((1, 2.0),)), (2, (("1", 2),)),
    (True, ()), (2.0, ((1, 2),)), ("2", ((1, 2),))])
def test_construction_rejects_non_int_input(n, arrows):
    """The vertex count and every arrow endpoint is an int: a float, a bool
    or a str raises rather than being truncated or read as one."""
    with pytest.raises(QuiverError, match="not an int"):
        Quiver(n, arrows)


@pytest.mark.parametrize("a, b", [
    ((1.5, 1), (1, 1.9)), ((True, 1), (1, 1)), ((1, 1), (1, False)),
    (("1", 1), (1, 1)), ((1, 1), (1.0, 1))])
def test_euler_form_rejects_non_int_entries(a2, a, b):
    with pytest.raises(QuiverError, match="not an int"):
        euler_form(a2, a, b)


def test_euler_form_takes_negative_entries(a2):
    # <a,b> = a1 b1 + a2 b2 - a1 b2 on 1 -> 2
    assert euler_form(a2, (-1, 2), (1, -3)) == -1 - 6 - 3
    assert euler_form(a2, (1, -1), (1, -1)) == 1 + 1 + 1


def test_euler_form_direct_sum(a2):
    # direct evaluation of the defining double sum
    assert euler_form(a2, (1, 1), (0, 1)) == 0
    assert euler_form(a2, (1, 1), (1, 0)) == 1
    with pytest.raises(QuiverError):
        euler_form(a2, (1, 1, 1), (1, 1))


def test_euler_form_unit_vectors(a2, a3, e6):
    for q in (a2, a3, e6):
        for x in range(1, q.n + 1):
            e = simple_root(q.n, x)
            assert euler_form(q, e, e) == 1


def test_euler_form_perp_vanishing(e6, e6_alpha):
    alpha = e6_alpha(1, 1)
    for beta in [(1, 1, 1, 0, 0, 1), (0, 0, 1, 1, 1, 1),
                 (0, 1, 1, 1, 1, 0), (1, 1, 1, 1, 0, 0)]:
        assert euler_form(e6, alpha, beta) == 0
    # d^V_S is square on Rep(Q, alpha) iff <alpha, s> = 0.  At n = m = 2
    # these four roots have <alpha, s> = 0 but <s, alpha> = 2, so a guard on
    # <s, alpha> would refuse them; the first two are among the preset's
    # own selected simples.  (1, 1, 1, 1, 1, 0) is not perpendicular.
    alpha = e6_alpha(2, 2)
    for s in [(0, 1, 1, 1, 1, 0), (1, 1, 1, 1, 0, 0),
              (1, 1, 2, 2, 1, 1), (1, 2, 2, 1, 1, 1)]:
        assert (euler_form(e6, alpha, s), euler_form(e6, s, alpha)) == (0, 2)
    assert euler_form(e6, alpha, (1, 1, 1, 1, 1, 0)) == 2


def test_coxeter_a2(a2):
    assert coxeter_matrix(a2) == ((0, -1), (1, -1))


def test_coxeter_order_is_coxeter_number(a2):
    # h = 3 for A2: c^3 = id
    step = hom_table(a2).coxeter_step
    v = (7, -3)
    w = v
    for _ in range(3):
        w = step(w)
    assert w == v


def orientations(q):
    """Every orientation of the underlying graph of q."""
    for flips in itertools.product((False, True), repeat=len(q.arrows)):
        yield Quiver(q.n, tuple((h, t) if f else (t, h)
                                for (t, h), f in zip(q.arrows, flips)))


def test_coxeter_adjoint_identity(a2, a3, a4, d4, d5, e6, e7, e8):
    # <e_i, c e_j> = -<e_j, e_i> on every basis pair; E is unimodular, so
    # this is exactly c = -E^{-1} E^t
    quivers = [a2, a3, a4, d4, e7, e8, *orientations(d5), *orientations(e6)]
    for q in quivers:
        step = hom_table(q).coxeter_step
        basis = [simple_root(q.n, x) for x in range(1, q.n + 1)]
        for a in basis:
            for b in basis:
                assert euler_form(q, a, step(b)) == -euler_form(q, b, a), q


def test_coxeter_determinant_unimodular(e8):
    c = coxeter_matrix(e8)
    d = det(Mat(e8.n, e8.n, [list(r) for r in c]))
    assert d in (1, -1)


def projective_dim(q, x):
    """Dimension vector of the indecomposable projective at x (path counts)."""
    counts = [0] * (q.n + 1)
    counts[x] = 1
    for v in q.topological_order():
        if counts[v]:
            for t, h in q.arrows:
                if t == v:
                    counts[h] += counts[v]
    return tuple(counts[1:])


def test_coxeter_kills_projectives(a3, d4, e6, e8):
    # c(dim P_x) has a negative entry for every projective root
    for q in (a3, d4, e6, e8):
        step = hom_table(q).coxeter_step
        for x in range(1, q.n + 1):
            image = step(projective_dim(q, x))
            assert any(v < 0 for v in image)


def test_classify_dynkin(a2, a3, d4, e6, e8):
    assert classify(a2) == classify(a2).__class__("dynkin", "A", 2)
    assert (classify(a3).letter, classify(a3).rank) == ("A", 3)
    assert (classify(d4).letter, classify(d4).rank) == ("D", 4)
    assert (classify(e6).letter, classify(e6).rank) == ("E", 6)
    assert (classify(e8).kind, classify(e8).letter, classify(e8).rank) == \
        ("dynkin", "E", 8)


def test_classify_extended_and_wild():
    # the extended Dynkin (tame) graphs and the wild ones get the same kind
    non_dynkin = [
        Quiver(2, ((1, 2), (1, 2))),  # Kronecker, A~1
        Quiver(5, ((1, 5), (2, 5), (3, 5), (4, 5))),  # D~4
        Quiver(7, ((1, 2), (2, 3), (4, 5), (5, 3), (6, 7), (7, 3))),  # E~6
        Quiver(8, ((1, 2), (2, 3), (3, 4), (5, 4), (6, 5), (8, 6), (7, 4))),  # E~7
        Quiver(8, ((1, 2), (2, 3), (3, 4), (5, 4), (6, 5), (7, 4), (8, 7))),  # wild T(3,3,4)
        Quiver(9, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (7, 6), (8, 7),
                   (9, 6))),  # E~8
        Quiver(6, ((1, 3), (2, 3), (3, 4), (4, 5), (4, 6))),  # D~5
        Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4))),  # A~3, a cycle
        Quiver(6, ((1, 6), (2, 6), (3, 6), (4, 6), (5, 6))),  # wild star
        Quiver(2, ((1, 2), (1, 2), (1, 2))),  # wild, three arrows
        Quiver(3, ((1, 2),)),  # disconnected
    ]
    for q in non_dynkin:
        assert classify(q) == Classification("non-dynkin"), q
        assert not classify(q).is_dynkin


def test_reflection_involution(d4):
    v = (1, 2, 3, 4)
    for x in range(1, 5):
        assert reflect_dim(d4, x, reflect_dim(d4, x, v)) == v


def test_quiver_file_round_trip(e6):
    text = format_quiver_file(e6)
    q = parse_quiver_file(text)
    assert q == e6
    with pytest.raises(QuiverError):
        parse_quiver_file("vertices 2\nbogus 1 2\n")
    with pytest.raises(QuiverError):
        parse_quiver_file("arrow 1 2\n")
    with pytest.raises(QuiverError, match="line 1: vertices needs integers"):
        parse_quiver_file("vertices three\n")
    with pytest.raises(QuiverError, match="line 2: arrow needs integers"):
        parse_quiver_file("vertices 2\narrow 1 x\n")


def test_hash_is_stored_and_keys_the_context():
    """Equal quivers, built apart, hash equal and share one ``hom_table``; a
    relabelled quiver is equal to neither and gets its own context."""
    q1, q2 = Quiver(3, ((1, 2), (2, 3))), Quiver(3, [(1, 2), (2, 3)])
    relabelled = Quiver(3, ((3, 2), (2, 1)))  # vertices 1 and 3 swapped
    assert q1 == q2 and hash(q1) == hash(q2) == hash((3, ((1, 2), (2, 3))))
    assert hom_table(q1) is hom_table(q2)
    assert relabelled != q1 and hom_table(relabelled) is not hom_table(q1)
    assert {q1: 1, relabelled: 2}[q2] == 1
