import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsing import bsato, fmlp
from qsing.affine import (ZERO, aff_add, aff_from_json, aff_mul, aff_neg,
                          aff_of, aff_sub, aff_sym, aff_to_json, min_of,
                          with_symbol)
from qsing.brackets import (
    BFunctionFamily,
    BracketTerm,
    TerminalRuleInapplicable,
    compute_bfunction,
    expand,
    family_from_terms,
)
from qsing.bsato import (
    CertNode,
    CertifyOutcome,
    SymState,
    _check_node,
    _cover_check,
    _leaf_node,
    _reduc_a_tuple_cert,
    _refute,
    _t_interval,
    cert_to_json,
    certify_all_good,
    check_form_assumption,
    is_good,
    leaf_all_fixed,
    leaf_empty_generator,
    leaf_last_var,
    membership_in_ztilde,
    rational_singularities_verdict,
    reduc_a,
    reduc_b,
    signature,
    single_variable_roots,
    sym_state_from_family,
    sym_term,
    verify_certificate,
)
from qsing.decomp import generic_decomposition, perp_simples
from qsing.orbits import enumerate_classes, make_spec
from qsing.presets import E6_QUIVER, preset
from qsing.quiver import Quiver, euler_form

from oracles import (affine_add, bracket_identity_check, generator_bc,
                     generator_value, generic_point, refutation_candidates,
                     scan_refute, signature_json, summed_k)
from test_fmlp import reference_solve

TESTS = os.path.dirname(os.path.abspath(__file__))

E6_FAMILY_PAPER_ORDER = lambda n, m: family_from_terms(4, [
    # paper's own variable order (s_1..s_4) for readability in these tests
    BracketTerm((1, 0, 0, 0), 0, n + m),
    BracketTerm((0, 1, 0, 0), 0, n + m),
    BracketTerm((0, 0, 1, 0), 0, n),
    BracketTerm((0, 0, 0, 1), 0, n),
    BracketTerm((0, 0, 1, 1), n, 2 * n + m),
    BracketTerm((0, 1, 1, 0), n + m, 2 * n + m),
    BracketTerm((1, 0, 0, 1), n + m, 2 * n + m),
])

E8_POS_FAMILY = lambda n: family_from_terms(2, [
    BracketTerm((0, 1), 0, 4 * n),
    BracketTerm((0, 1), n, 3 * n, 2),
    BracketTerm((0, 1), 2 * n, 4 * n),
    BracketTerm((1, 0), 0, n),
    BracketTerm((1, 1), n, 4 * n),
    BracketTerm((1, 2), 4 * n, 7 * n),
])


def test_is_good():
    assert is_good((-1, -1), 2)
    assert not is_good((9, -7), 2)
    assert is_good((-2, -1, -1, -1), 4)
    assert not is_good((Fraction(-1, 2), -1), 2)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_one_goodness_rule_matches_its_definition(r):
    """The goodness rule on integer points, ``bsato._good``, against its
    definition read in Fractions (z = -e or e.z < -r), on every point x/d
    with d = 1..6 and -2d - 1 <= x_i <= d, in lowest terms or not: -e is
    written (-d, ..., -d, d) for each d.  ``is_good`` on the same z, which
    it reads over the least common denominator, agrees."""
    minus_e = 0
    for d in range(1, 7):
        for x in itertools.product(range(-2 * d - 1, d + 1), repeat=r):
            z = tuple(Fraction(v, d) for v in x)
            want = z == (-1,) * r or sum(z) < -r
            assert bsato._good((*x, d)) == want == is_good(z, r), (x, d)
            minus_e += x == (-d,) * r
    assert minus_e == 6


def test_generator_unit_c():
    """The oracle's b_{e_1} on the e6-ex1 family, and its root hyperplanes
    as ``bsato._roots`` reads them."""
    fam = E6_FAMILY_PAPER_ORDER(2, 2)
    factors, binomials = generator_bc(fam, (1, 0, 0, 0))
    assert binomials == ()
    assert factors[((1, 0, 0, 0), 1)] == 1  # the factor s_1 + 1
    # depth-1 factors of the two gamma_1-brackets only
    gammas = {g for (g, _c) in factors}
    assert gammas == {(1, 0, 0, 0), (1, 0, 0, 1)}
    assert bsato._roots(fam, (1, 0, 0, 0)) == set(factors)


def test_generator_with_negative_part():
    fam = E8_POS_FAMILY(1)
    factors, binomials = generator_bc(fam, (2, -1))
    assert binomials == ((2, 1),)
    # shift c^- = (0,-1) moves every gamma_2-involving constant down by gamma_2
    assert ((1, 2), 3) in factors  # offset 5, depth from c+=(2,0), shift -2
    # the oracle's value, built on evaluate, is the product of its factors
    z = (Fraction(3), Fraction(-2))
    manual = Fraction(1)
    for (g, c), cnt in factors.items():
        manual *= (g[0] * z[0] + g[1] * z[1] + c) ** cnt
    manual *= z[1]  # binom(s_2, 1)
    assert generator_value(fam, (2, -1), z) == manual
    # binom(s_2, 1) vanishes on s_2 = 0
    assert bsato._roots(fam, (2, -1)) == set(factors) | {((0, 1), 0)}


def test_generator_a2():
    fam = family_from_terms(1, [BracketTerm((1,), 0, 1)])
    assert generator_bc(fam, (1,)) == ({((1,), 1): 1}, ())
    assert bsato._roots(fam, (1,)) == {((1,), 1)}


INPUT_CHECKS = [
    # the oracle's b_c takes c with e.c = 1 only
    "generator_bc(E8_POS_FAMILY(1), (2, 2))",
    "generator_bc(E8_POS_FAMILY(1), (1, 0, 0))",
    # c is a vector of ints: no float or bool is truncated to one
    "generator_bc(E8_POS_FAMILY(1), (2.5, -1))",
    "generator_bc(E8_POS_FAMILY(1), (True, False))",
    "single_variable_roots(E8_POS_FAMILY(1))",
    "family_from_terms(2, [BracketTerm((1, 0), 3, 1)])",
    "family_from_terms(2, [BracketTerm((1, -1), 0, 1)])",
    # term fields are ints, not bools or floats, and mult >= 1
    "family_from_terms(1, [BracketTerm((True,), 0, 1, 1.5)])",
    "family_from_terms(1, [BracketTerm((1,), False, True)])",
    "family_from_terms(1, [BracketTerm((1,), 0, 1, 0)])",
    "expand(E8_POS_FAMILY(1), (1, -1))",
    "bracket_identity_check(1, 2, 1)",
    "with_symbol(with_symbol({}, 'k1', 1), 'k1', 0)",
    # the certifier's affine values hold integers only, and no bool
    "aff_of(Fraction(1, 2))",
    "aff_mul(aff_sym('k'), Fraction(1, 2))",
    "aff_from_json({'const': '1/2', 'coeffs': {}})",
    "aff_from_json({'const': False, 'coeffs': {}})",
    # the b-function's alpha is a nonnegative n-vector and its simples are
    # positive roots of the quiver
    "compute_bfunction(Quiver(2, ((1, 2),)), (1, 1, 1), [(0, 1)])",
    "compute_bfunction(Quiver(2, ((1, 2),)), (1, -1), [(0, 1)])",
    "compute_bfunction(Quiver(2, ((1, 2),)), (1, 1), [(0, 2)])",
    # a dimension vector holds ints: a float, a bool or a str is rejected,
    # not truncated or read as an integer
    "generic_decomposition(Quiver(2, ((1, 2),)), (1.5, 1))",
    "generic_decomposition(Quiver(2, ((1, 2),)), (True, 1))",
    "generic_decomposition(Quiver(2, ((1, 2),)), ('1', 1))",
    "next(enumerate_classes(Quiver(2, ((1, 2),)), ('1', 1)))",
    "make_spec(Quiver(2, ((1, 2),)), (1, 1.9))",
    # a selection holds int indices: a bool, a float or a str is rejected,
    # not kept as an index or left to fail in selected_simples
    "make_spec(E6_QUIVER, (2, 6, 6, 6, 2, 4), (True,))",
    "make_spec(E6_QUIVER, (2, 6, 6, 6, 2, 4), (1.0,))",
    "make_spec(E6_QUIVER, (2, 6, 6, 6, 2, 4), ('1',))",
    "make_spec(E6_QUIVER, (2, 6, 6, 6, 2, 4), (1, 2.0))",
    "compute_bfunction(Quiver(2, ((1, 2),)), (True, 1), [(0, 1)])",
    # a simple holds ints too: one written with floats or bools equals a
    # root and hashes like it, yet is rejected rather than kept in meta
    "compute_bfunction(E6_QUIVER, (2, 6, 6, 6, 2, 4), [(0.0, 0.0, 1.0, 1.0, 1.0, 1.0),"
    " (0, 1, 1, 1, 1, 0), (1, 1, 1, 0, 0, 1), (1, 1, 1, 1, 0, 0)])",
    "compute_bfunction(E6_QUIVER, (2, 6, 6, 6, 2, 4), [(False, False, True, True, True, True),"
    " (0, 1, 1, 1, 1, 0), (1, 1, 1, 0, 0, 1), (1, 1, 1, 1, 0, 0)])",
    "compute_bfunction(Quiver(2, ((1, 2),)), (1, 1), [[0, 1.0]])",
    # a quiver's vertex count and arrow endpoints, and the Euler form's
    # entries, are ints: none is truncated to one
    "Quiver(2, ((1.7, 2),))",
    "Quiver(2, ((True, 2),))",
    "Quiver(2, ((1, '2'),))",
    "Quiver(True, ())",
    "Quiver(2.0, ((1, 2),))",
    "euler_form(Quiver(2, ((1, 2),)), (1.5, 1), (1, 1.9))",
    "euler_form(Quiver(2, ((1, 2),)), (1, 1), (True, 1))",
    "euler_form(Quiver(2, ((1, 2),)), ('1', -1), (1, 1))",
    # a point z of Z(B~) or of the goodness test has r entries, each an int
    # or a Fraction: none is dropped, missing or read from a bool, a float
    # or a str
    "membership_in_ztilde(E8_POS_FAMILY(1), (1, 2, 3))",
    "membership_in_ztilde(E8_POS_FAMILY(1), (1,))",
    "membership_in_ztilde(E8_POS_FAMILY(1), (True, 2))",
    "membership_in_ztilde(E8_POS_FAMILY(1), (1.0, 2))",
    "membership_in_ztilde(E8_POS_FAMILY(1), ('1', 2))",
    "membership_in_ztilde(family_from_terms(4, []), (-1, -1, -1))",
    "is_good((1,), 2)",
    "is_good((-1, -1, -1), 2)",
    "is_good((False, -5), 2)",
    "is_good((-1.0, -1), 2)",
]


@pytest.mark.parametrize("call", INPUT_CHECKS)
def test_input_checks_raise_value_error(call):
    with pytest.raises(ValueError):
        eval(call)


def test_input_checks_survive_optimize():
    # python -O drops assert statements; input checks must not ride on them
    source = "\n".join([
        "from fractions import Fraction",
        "from qsing.affine import aff_from_json, aff_mul, aff_of, aff_sym, "
        "with_symbol",
        "import sys",
        "sys.path.insert(0, %r)" % TESTS,
        "from qsing.brackets import BracketTerm, compute_bfunction, expand, "
        "family_from_terms",
        "from qsing.bsato import is_good, membership_in_ztilde, "
        "single_variable_roots",
        "from qsing.decomp import generic_decomposition",
        "from qsing.orbits import enumerate_classes, make_spec",
        "from qsing.presets import E6_QUIVER",
        "from qsing.quiver import Quiver, euler_form",
        "from oracles import bracket_identity_check, generator_bc",
        "E8_POS_FAMILY = lambda n: family_from_terms(2, [",
        "    BracketTerm((0, 1), 0, 4 * n), BracketTerm((0, 1), n, 3 * n, 2),",
        "    BracketTerm((0, 1), 2 * n, 4 * n), BracketTerm((1, 0), 0, n),",
        "    BracketTerm((1, 1), n, 4 * n), BracketTerm((1, 2), 4 * n, 7 * n)])",
        "for call in %r:" % (INPUT_CHECKS,),
        "    try:",
        "        eval(call)",
        "    except ValueError:",
        "        continue",
        "    except Exception as exc:",
        "        print('raised', type(exc).__name__ + ':', call)",
        "        continue",
        "    print('returned:', call)",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", source],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_generator_soundness_random():
    """The oracle's two forms of b_c agree for random c and z: its value,
    evaluate(family, c+, z + c-) times the binomials, is the product of
    its factor multiset and binomials, written out here."""
    rng = random.Random(41)
    fam = E6_FAMILY_PAPER_ORDER(2, 2)
    for _ in range(20):
        c = [0, 0, 0, 0]
        for i in range(3):
            c[i] = rng.randint(-2, 2)
        c[3] = 1 - sum(c[:3])
        factors, binomials = generator_bc(fam, tuple(c))
        z = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                  for _ in range(4))
        manual = Fraction(1)
        for (g, const), cnt in factors.items():
            manual *= (sum(Fraction(a) * b for a, b in zip(g, z)) + const) ** cnt
        for i, order in binomials:
            b = Fraction(1)
            for t in range(order):
                b *= z[i - 1] - t
            manual *= b / math.factorial(order)
        assert generator_value(fam, tuple(c), z) == manual


def test_membership_r1():
    """[s]_{0,1} = s + 1, and [s]^{(2)}_{0,1} = (2s + 1)(2s + 2): the
    roots -1/2 and -1 of the second are members, and points near them are
    not, with witness c = (1); the oracle's b_{(1)} agrees on each."""
    fam = family_from_terms(1, [BracketTerm((1,), 0, 1)])
    assert membership_in_ztilde(fam, (-1,)).kind == "member"
    assert membership_in_ztilde(fam, (-2,)).kind == "nonmember"
    fam = family_from_terms(1, [BracketTerm((2,), 0, 1)])
    for z in (Fraction(-1, 2), -1):
        assert membership_in_ztilde(fam, (z,)) == bsato.Membership("member")
        assert generator_value(fam, (1,), (z,)) == 0
    for z in (Fraction(-1, 3), Fraction(-2, 3), Fraction(-3, 4), Fraction(-3, 2),
              0, -2, Fraction(1, 2)):
        got = membership_in_ztilde(fam, (z,))
        assert (got.kind, got.witness_c) == ("nonmember", (1,)), z
        assert generator_value(fam, (1,), (z,)) != 0


def test_membership_expos_exact():
    """The E8 positive-root example, exactly at r = 2.

    The member found by the engine lies on the line s_1 + s_2 = -2, every
    generator of which contains the factor s_1 + s_2 + 2.  The point
    (8n+1, -6n-1) printed in the source example is NOT a member, a slip in
    the example: the generator at c = (3n+1, -3n) has no vanishing factor
    there (its [s]^{11} factors vanish only for t >= 3n+1 and its [s]^{12}
    factors only for t <= 3n-1 on c = (1+t, -t)), which brute-force
    evaluation confirms; see test_membership_brute_force_cross_check.  The
    derivation is in test_criterion_3_paper_membership_value, and
    tests/test_bfunction_oracle.py checks the c- shift of the generators
    against a direct sympy computation.
    """
    fam = E8_POS_FAMILY(1)
    got = membership_in_ztilde(fam, (-4, 2))
    assert got.kind == "member"
    got = membership_in_ztilde(fam, (9, -7))
    assert got.kind == "nonmember"
    assert got.witness_c == (4, -3)
    assert membership_in_ztilde(fam, (100, 100)).kind == "nonmember"


def test_membership_brute_force_cross_check():
    fam = E8_POS_FAMILY(1)
    for z, expected in (((-4, 2), True), ((9, -7), False)):
        z = tuple(Fraction(v) for v in z)
        vanishes_everywhere = all(
            generator_value(fam, (1 + t, -t), z) == 0
            for t in range(-40, 41)
        )
        assert vanishes_everywhere == expected


def _swapped(fam):
    return family_from_terms(2, [BracketTerm(t.gamma[::-1], t.a, t.b, t.mult)
                                 for t in fam.terms()])


def _vanishes(gen, z):
    """b_c(z) == 0 for the oracle's gen = generator_bc(fam, c), read factor
    by factor: a product vanishes iff one of its factors does (every
    multiplicity is positive), and binom(z_i, order) iff z_i is one of
    0 .. order - 1."""
    factors, binomials = gen
    assert all(cnt > 0 for cnt in factors.values())
    return any(g[0] * z[0] + g[1] * z[1] + const == 0 for g, const in factors) \
        or any(z[i - 1] in range(order) for i, order in binomials)


def test_membership_r2_regressions():
    """Points where the c = (1-u, u) side once used the constant
    g_2 - 1 - w + g_1 instead of g_1 - 1 - w, and so answered member."""
    fam = E8_POS_FAMILY(1)
    got = membership_in_ztilde(fam, (-1, -5))
    assert got.kind == "nonmember" and got.witness_c == (0, 1)
    assert generator_value(fam, (0, 1), (-1, -5)) == -298598400
    swapped = _swapped(fam)
    got = membership_in_ztilde(swapped, (-7, 6))
    assert got.kind == "nonmember"
    assert generator_value(swapped, got.witness_c, (-7, 6)) != 0
    assert not is_good((-7, 6), 2)


@pytest.mark.parametrize("terms, z", [
    ([BracketTerm((0, 1), 4, 8, 2), BracketTerm((1, 3), 0, 4)], (-5, 1)),
    ([BracketTerm((1, 0), 0, 1), BracketTerm((2, 1), 0, 4)], (0, -4)),
])
def test_membership_r2_reads_the_binomial_tails(terms, z):
    """Points of Z_gen only through a binomial factor binom(s_i, t), on
    c = (1+t, -t) at z_2 = 1 and on c = (-t, 1+t) at z_1 = 0: no offset
    gives an unbounded t-interval there, so without the tails some b_c
    would not vanish.  Direct evaluation of every b_c, |t| <= 40, agrees."""
    fam = family_from_terms(2, terms)
    assert membership_in_ztilde(fam, z).kind == "member"
    assert all(_vanishes(generator_bc(fam, (1 + t, -t)), z) for t in range(-40, 41))
    values, tails = bsato._point_cover(fam.offsets, *z, 1)
    assert bsato._witness(values, tails) is None
    assert bsato._witness(values, (None, None)) is not None


@pytest.mark.parametrize("name", ["e8-pos", "e8-pos swapped", "d4"])
def test_membership_r2_matches_direct_evaluation(name):
    """Exact r = 2 membership against evaluating every b_c with
    c = (1+t, -t), |t| <= 40, on a seeded sample of points with |z_i| <= 9
    whose coordinates are halves or thirds, mixed, so that z is read over
    the common denominators 1, 2, 3 and 6; the sample holds both answers.
    The d4 family is the one of D4 (three arms into the centre) at
    alpha = (1, 1, 2, 3)."""
    fam = {"e8-pos": E8_POS_FAMILY(1),
           "e8-pos swapped": _swapped(E8_POS_FAMILY(1)),
           "d4": family_from_terms(2, [BracketTerm((0, 1), 0, 1),
                                       BracketTerm((1, 0), 0, 1),
                                       BracketTerm((1, 1), 1, 3)])}[name]
    gens = [generator_bc(fam, (1 + t, -t)) for t in range(-40, 41)]
    grid = sorted({(Fraction(a, p), Fraction(b, q))
                   for p, q in itertools.product((2, 3), repeat=2)
                   for a in range(-9 * p, 9 * p + 1)
                   for b in range(-9 * q, 9 * q + 1)})
    kinds, denominators = set(), set()
    for z in random.Random(7).sample(grid, 160):
        got = membership_in_ztilde(fam, z)
        kinds.add(got.kind)
        denominators.add(bsato._point(z, 2)[-1])
        assert (got.kind == "member") == all(_vanishes(g, z) for g in gens), z
        if got.kind == "nonmember":
            assert not _vanishes(generator_bc(fam, got.witness_c), z)
    assert kinds == {"member", "nonmember"}
    assert denominators == {1, 2, 3, 6}


def sorted_refutation_candidates(family, bound):
    """Every candidate built and sorted at once: the oracle for the
    level-by-level generator of ``oracles.scan_refute``."""
    gammas = sorted({g for (g, _o) in family.offsets})
    for i in range(family.r):
        gammas.append(tuple(1 if d == i else 0 for d in range(family.r)))
    gammas = sorted(set(gammas))
    cands = []
    for g1, g2 in itertools.combinations(gammas, 2):
        det = g1[0] * g2[1] - g1[1] * g2[0]
        if det == 0:
            continue
        for v1 in range(-bound, bound + 1):
            for v2 in range(-bound, bound + 1):
                z1 = Fraction(-v1 * g2[1] + v2 * g1[1], det)
                z2 = Fraction(-v2 * g1[0] + v1 * g2[0], det)
                cands.append((abs(v1) + abs(v2), (z1, z2)))
    cands.sort(key=lambda t: (t[0], t[1]))
    seen = set()
    for _, z in cands:
        if z not in seen:
            seen.add(z)
            yield z


@pytest.mark.parametrize("bound", [0, 1, 4, 30])
def test_refutation_candidates_match_sorted_oracle(bound):
    fam = E8_POS_FAMILY(1)
    assert list(refutation_candidates(fam, bound)) == \
        list(sorted_refutation_candidates(fam, bound))


def test_membership_box_r4():
    fam = E6_FAMILY_PAPER_ORDER(2, 2)
    got = membership_in_ztilde(fam, (-1, -1, -1, -1), box_bound=2)
    # every generator in the box vanishes at -e, but r > 2 stays honest
    assert got.kind == "unknown"
    got = membership_in_ztilde(fam, (50, 50, 50, 50), box_bound=1)
    assert got.kind == "nonmember"


def oracle_roots(fam, c):
    """The distinct root hyperplanes (g, k) of b_c from the oracle: its
    distinct linear factors g.s + k, and s_i - j for each binomial factor
    binom(s_i, order), 0 <= j < order."""
    factors, binomials = generator_bc(fam, c)
    unit = lambda i: tuple(int(v == i) for v in range(1, fam.r + 1))
    return set(factors) | {(unit(i), -j) for i, order in binomials
                           for j in range(order)}


def _runs(roots, g):
    """The number of maximal runs of consecutive k among the roots (g, k)."""
    ks = sorted(k for h, k in roots if h == g)
    return sum(1 for a, b in zip([None] + ks, ks) if a is None or b > a + 1)


@pytest.mark.parametrize("source", ["e6-ex1", "e8-pos", "random"])
def test_roots_match_the_oracle_factors(source):
    """``bsato._roots`` against the oracle's distinct factors and binomial
    hyperplanes, on seeded c with negative parts and on each e_j: e6-ex1
    at n = m = 2 (r = 4), e8-pos at n = 1..3 and 50 seeded random r = 2
    families.  The random families' offsets leave gaps, so the k of one g
    fall in several runs for some c and in one merged run for others; a
    wrong run merge fails here."""
    rng = random.Random(23)
    if source == "e6-ex1":
        fams = [_preset_family("e6-ex1", 2, 2)]
    elif source == "e8-pos":
        fams = [_preset_family("e8-pos", n) for n in (1, 2, 3)]
    else:
        fams = [random_r2_family(rng) for _ in range(50)]
    split = merged = 0
    for fam in fams:
        r = fam.r
        cs = [tuple(int(v == i) for v in range(r)) for i in range(r)]
        while len(cs) < r + 12:
            c = [rng.randint(-4, 4) for _ in range(r - 1)]
            c.append(1 - sum(c))
            if min(c) < 0:
                cs.append(tuple(c))
        for c in cs:
            roots = bsato._roots(fam, c)
            assert roots == oracle_roots(fam, c), (fam, c)
            for g in {g for g, _ in fam.offsets}:
                runs = _runs(roots, g)
                split += runs > 1
                merged += runs == 1 and len({i for h, i in fam.offsets if h == g}) > 1
    assert split and merged or source != "random"


def _scan(fam, z, box_bound):
    """The oracle's membership scan over the box |c_i| <= box_bound in the
    package's c order: the first c whose b_c, evaluated exactly, does not
    vanish at z."""
    for c in itertools.product(range(-box_bound, box_bound + 1), repeat=fam.r):
        if sum(c) == 1 and generator_value(fam, c, z) != 0:
            return "nonmember", c
    return "unknown", None


def test_membership_r4_matches_an_oracle_scan():
    """r = 4 membership, read on the root hyperplanes, against the oracle's
    exact evaluation of every b_c in the same c order, on -e and 40 seeded
    e6-ex1 (n = m = 2) points with integer or half-integer coordinates:
    the same kind and the same witness c.  Both kinds occur, with several
    witnesses."""
    fam = _preset_family("e6-ex1", 2, 2)
    rng = random.Random(3)
    points = [(-1, -1, -1, -1)] + [
        tuple(Fraction(rng.randint(-8, 1), rng.choice((1, 1, 1, 2)))
              for _ in range(4)) for _ in range(40)]
    seen = []
    for z in points:
        got = membership_in_ztilde(fam, z, box_bound=2)
        seen.append(_scan(fam, z, 2))
        assert (got.kind, got.witness_c) == seen[-1], z
    assert seen[0] == ("unknown", None)
    assert len({c for _, c in seen}) > 10


@pytest.mark.parametrize("n, z", [(1, (7, -6)), (2, (15, -12))])
def test_common_zeros_of_the_generators_hold_points_with_e_z_positive(n, z):
    """Z_gen, the common zeros of the b_c on e8-pos, holds isolated points
    with e.z = 2n - 1 > 0.  The b-function of f_1 f_2 has negative roots
    only; if it lies in B~, Z(B~) has no such point and Z_gen != Z(B~).
    Whether it does is open, so a refutation shows a bad member of Z_gen,
    not of Z(B~).  The oracle's b_c vanish there for |t| <= 20."""
    fam = _preset_family("e8-pos", n)
    assert sum(z) == 2 * n - 1
    assert membership_in_ztilde(fam, z).kind == "member"
    assert all(generator_value(fam, c, z) == 0
               for t in range(-20, 21) for c in ((1 + t, -t), (-t, 1 + t)))


def test_check_form_assumption():
    assert check_form_assumption(E6_FAMILY_PAPER_ORDER(2, 2))
    assert not check_form_assumption(E8_POS_FAMILY(1))  # [s]^{11}_{1,4}: 2 > 1
    units = family_from_terms(2, [BracketTerm((1, 0), 0, 3),
                                  BracketTerm((0, 1), 0, 2)])
    assert check_form_assumption(units)


def test_reduc_a_examples():
    fam = E6_FAMILY_PAPER_ORDER(2, 2)
    state = sym_state_from_family(fam)
    got = reduc_a(state, (0, 1))
    assert got is not None
    certs, cases = got
    assert len(certs) == 1
    assert [Fraction(x) for x in certs[0]["u"]] == [1, 1]
    assert [(var, value[0]) for var, _, value, _, _ in cases] == \
        [(v, -o) for v in (1, 2) for o in (1, 2, 3, 4)]
    # ex:pos: I = {1} fails with the (1,1) bracket tuple
    state2 = sym_state_from_family(E8_POS_FAMILY(1))
    assert reduc_a(state2, (0,)) is None


def test_reduc_a_vacuous_when_gamma_empty():
    fam = family_from_terms(2, [BracketTerm((1, 0), 0, 2),
                                BracketTerm((0, 1), 0, 2)])
    state = sym_state_from_family(fam)
    certs, cases = reduc_a(state, (0,))
    assert certs == [] and [value[0] for _, _, value, _, _ in cases] == [-1, -2]


def test_reduc_b_b1_family():
    # the printed 3-variable reduction of the E6 example: J empty,
    # J+ = {1, 3}, J- = {2}
    n = m = 2
    fam = family_from_terms(3, [
        BracketTerm((1, 0, 0), 0, n + m),
        BracketTerm((0, 1, 0), 0, n),
        BracketTerm((0, 0, 1), 0, n),
        BracketTerm((0, 1, 1), n, 2 * n + m),
        BracketTerm((1, 1, 0), n + m, 2 * n + m),
        BracketTerm((0, 0, 1), n + m - 1, 2 * n + m - 1),
    ])
    rb = reduc_b(sym_state_from_family(fam))
    assert rb is not None
    assert rb.j_set == ()
    assert rb.j_plus == (0, 2) and rb.j_minus == (1,)


def test_reduc_b_not_applicable_when_e_in_cone():
    rb = reduc_b(sym_state_from_family(E8_POS_FAMILY(1)))
    assert rb is None  # (1,1) lies in Gamma


def test_reduc_b_gamma_empty():
    fam = family_from_terms(3, [BracketTerm((1, 0, 0), 0, 2),
                                BracketTerm((0, 1, 0), 0, 2),
                                BracketTerm((0, 0, 1), 0, 2)])
    rb = reduc_b(sym_state_from_family(fam))
    assert rb is not None
    assert len(rb.j_set) == 2  # maximal J misses a single coordinate
    assert len(rb.j_plus) == 1 and rb.j_minus == ()


def test_certify_a2():
    fam = family_from_terms(1, [BracketTerm((1,), 0, 1)])
    out = certify_all_good(fam)
    assert out.kind == "certificate"
    assert out.certificate.rule == "leaf_last_var"
    ok, msg = verify_certificate(fam, out.certificate)
    assert ok, msg


def test_certify_e6_and_checker():
    fam = E6_FAMILY_PAPER_ORDER(2, 2)
    out = certify_all_good(fam)
    assert out.kind == "certificate"
    assert out.certificate.rule == "reduc_a"
    ok, msg = verify_certificate(fam, out.certificate)
    assert ok, msg
    # serialization round trip feeds the checker equally well
    blob = json.dumps(cert_to_json(out.certificate))
    ok2, msg2 = verify_certificate(fam, json.loads(blob))
    assert ok2, msg2


def test_checker_rejects_tampered_certificate():
    fam = E6_FAMILY_PAPER_ORDER(2, 2)
    out = certify_all_good(fam)
    blob = cert_to_json(out.certificate)
    blob["data"]["certs"][0]["u"] = ["1", "0"]  # no longer combines to e
    ok, msg = verify_certificate(fam, blob)
    assert not ok
    blob2 = cert_to_json(out.certificate)
    del blob2["branches"][0]  # drop a case
    ok2, _ = verify_certificate(fam, blob2)
    assert not ok2


def test_certify_expos_refuted():
    fam = E8_POS_FAMILY(1)
    out = certify_all_good(fam)
    assert out.kind == "refuted"
    z = out.witness
    assert not is_good(z, 2)
    assert membership_in_ztilde(fam, z).kind == "member"


def _preset_family(name, n, m=1):
    q, alpha, sel, _ = preset(name, n, m)
    spec = make_spec(q, alpha, sel)
    return compute_bfunction(q, spec.alpha, spec.selected_simples)


# sha256 of json.dumps(cert_to_json(certificate), sort_keys=True) on the
# whole certify grid, e6-ex1 with n, m in 1..4: (1, 1), (1, 2), (2, 1),
# (2, 2) and (3, 1) recorded with the Fraction-row Fourier-Motzkin solver,
# the rest with the integer-row solver and the integer Affine, before
# Affine's constant fast paths and the integer back-substitution; None
# marks an inconclusive outcome, which has no certificate
E6_CERT_SHA256 = {
    (1, 1): None,
    (1, 2): None,
    (1, 3): None,
    (1, 4): None,
    (2, 1): "c2800da1cd1439c2bbc80401414aa40265f9fdb72d73a9dc26bd5b448b51c3d8",
    (2, 2): "73bc2d387dbc23295679f1d9013aed8f8f2440ade5e6309d398abaf9cb7633e9",
    (2, 3): "3a56f5093054136ba513d1956bc7d86bd7d4e9d1e809b3acfd253631286f4dd2",
    (2, 4): "d63bbbd07357c09a2e9e5557555a41cc3dfc990a70eedfa340801aadee45a439",
    (3, 1): "e9ac36c2526f8c7b8db876da96ef6ed622bacb6231bd1a08537b7cdc7ff59d5f",
    (3, 2): "16863a0b6cf5f75fa56d6eac10f377d1b7c700f4ebd308c2afa26384790bf6d0",
    (3, 3): "e55af9f1cfe136b279eaccc78f5900f42d7eaf0c12e84c21ec549232420bcfb8",
    (3, 4): "7e54a28f84b629e4bd93414b9127bc0d41a00b4d12aac018ab011a8ac742e302",
    (4, 1): "577b4dbba1fcccd57a01a42e24ff360d5dc121ffa9358cfceeeb19a04d977c03",
    (4, 2): "b6aceb5a1e4c7283fdb950a9c1570dc97f9c397ccac0ae612da22349f5c73075",
    (4, 3): "36a3aac9579098be06884198c346e1dd2c904b082fcb06d8224cea2f0400843d",
    (4, 4): "881c7dd676b7580f143f8334cbf57337e697191f8f0995d31231824670dca05e",
}


@pytest.fixture(scope="module")
def e6_grid():
    """(family, outcome) of certify_all_good for each e6-ex1 (n, m) of
    E6_CERT_SHA256, computed once for the tests that read the grid."""
    grid = {}
    for n, m in E6_CERT_SHA256:
        fam = _preset_family("e6-ex1", n, m)
        grid[(n, m)] = fam, certify_all_good(fam)
    return grid


@pytest.mark.parametrize("n,m", sorted(E6_CERT_SHA256))
def test_certificate_json_pinned(e6_grid, n, m):
    """certify_all_good on the e6-ex1 preset gives byte-identical
    certificate JSON (LP multipliers, Farkas functionals, cone memberships)
    to the recorded one, and the same outcome where it cannot close."""
    fam, out = e6_grid[(n, m)]
    want = E6_CERT_SHA256[(n, m)]
    if want is None:
        assert out.kind == "inconclusive" and out.certificate is None
        assert out.reason == "case analysis exhausted without closing"
        return
    assert out.kind == "certificate"
    blob = json.dumps(cert_to_json(out.certificate), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == want
    assert verify_certificate(fam, out.certificate) == (
        True, "certificate verified")


def _cert_nodes(node):
    return 1 + sum(_cert_nodes(child) for _, child in node.branches)


def test_certify_grid_node_total(e6_grid):
    """The 12 certificates of the grid hold 1,984 nodes between them, the
    certify-grid workload's cert_nodes counter."""
    certs = [out.certificate for _, out in e6_grid.values() if out.certificate]
    assert len(certs) == 12
    assert sum(map(_cert_nodes, certs)) == 1984


def _path_vars(node):
    """The variables fixed along each root-to-leaf path of a certificate
    in its JSON form, in order."""
    if not node["branches"]:
        yield []
    for assume, child in node["branches"]:
        for rest in _path_vars(child):
            yield [assume["var"], *rest]


def assert_paths_fix_distinct_variables(fam, cert):
    """Every case fixes one active variable and removes it from its
    branch, so no path fixes a variable twice and none is longer than r:
    this, not a depth bound, ends the certifier's recursion.  Returns the
    longest path's length."""
    paths = list(_path_vars(cert_to_json(cert)))
    for path in paths:
        assert len(set(path)) == len(path) <= fam.r, path
    return max(map(len, paths))


def test_e6_certificate_paths_fix_distinct_variables():
    depths = {}
    for n, m in itertools.product((1, 2), repeat=2):
        fam = _preset_family("e6-ex1", n, m)
        out = certify_all_good(fam)
        if out.kind == "certificate":
            depths[(n, m)] = assert_paths_fix_distinct_variables(
                fam, out.certificate)
    # (1, 1) and (1, 2) are inconclusive (see E6_CERT_SHA256)
    assert sorted(depths) == [(2, 1), (2, 2)]
    # three of the r = 4 variables are fixed on the longest paths; the
    # last closes at a leaf_last_var leaf
    assert depths == {(2, 1): 3, (2, 2): 3}


def test_e8_pos_outcome_pinned():
    out = certify_all_good(_preset_family("e8-pos", 1))
    assert out.kind == "refuted"
    assert out.witness == (Fraction(-4), Fraction(2))
    assert out.certificate is None


def _count_solve_calls(monkeypatch):
    """Count every fmlp.solve call, the LPs of both lemmas, from here on."""
    calls = []
    real = fmlp.solve

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fmlp, "solve", counting)
    monkeypatch.setattr(bsato, "solve", counting)
    return calls


def test_certification_memoizes_its_lps(monkeypatch):
    """One certification solves each distinct lemma (a) system and each
    lemma (b) cone (r', Gamma) once: e6-ex1 n = m = 2 made 166 solve
    calls before the memo and n = m = 4 made 326.  The memo belongs to one
    call: (2, 2) certified again after (4, 4) makes the same calls and
    gives the same certificate JSON."""
    calls = _count_solve_calls(monkeypatch)
    counts, blobs = [], []
    for n in (2, 4, 2):
        del calls[:]
        out = certify_all_good(_preset_family("e6-ex1", n, n))
        counts.append(len(calls))
        blobs.append(json.dumps(cert_to_json(out.certificate), sort_keys=True))
    assert counts[0] <= 59 and counts[1] <= 91
    assert counts[2] == counts[0]
    assert blobs[2] == blobs[0]
    assert hashlib.sha256(blobs[0].encode()).hexdigest() == E6_CERT_SHA256[(2, 2)]


# the inputs of the certify-grid benchmark workload
GRID_INPUTS = [("e6-ex1", n, m) for n in range(1, 5) for m in range(1, 5)] \
    + [("e8-pos", 1, 1)]


@pytest.fixture(scope="module")
def grid_trace():
    """One pass over the 17 certify-grid inputs, certifier then checker on
    each: every state either side builds (the root state and each state
    ``branch_state`` returns), by side, the lemma (a) LP systems the
    certifier solves (``bsato.solve``, called through the run's memo), the
    outcome kinds and every (parent, case, child) of ``branch_state``."""
    states = {"certifier": [], "checker": []}
    side = ["certifier"]
    solves, kinds, steps = [], [], []
    real_branch, real_solve = bsato.branch_state, bsato.solve
    real_root = bsato.sym_state_from_family

    def root(family):
        got = real_root(family)
        states[side[0]].append(got)
        return got

    def branch(state, case):
        got = real_branch(state, case)
        states[side[0]].append(got[0])
        steps.append((state, case, got[0]))
        return got

    def counting(*args):
        solves.append(args)
        return real_solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bsato, "branch_state", branch)
        mp.setattr(bsato, "sym_state_from_family", root)
        mp.setattr(bsato, "solve", counting)
        for inp in GRID_INPUTS:
            fam = _preset_family(*inp)
            side[0] = "certifier"
            out = certify_all_good(fam)
            kinds.append(out.kind)
            if out.kind == "certificate":
                side[0] = "checker"
                assert verify_certificate(fam, out.certificate) == (
                    True, "certificate verified")
    return states, solves, kinds, steps


def test_signatures_are_the_json_text_on_the_grid(grid_trace):
    """Every bracket of every state the certifier and the checker build on
    the grid signs as json.dumps writes it."""
    states = grid_trace[0]
    terms = [(t, st_.vars) for side in states.values() for st_ in side
             for t in st_.terms]
    assert len(terms) > 14000
    for t, vars in terms:
        assert signature(t, vars) == signature_json(t, vars), t


def test_k_total_is_the_summed_k_on_the_grid(grid_trace):
    """K is handed from state to child, never re-summed: each root state
    has K = 0, and every branch_state gives its child the parent's K less
    the case's value, summed by the reference ``affine_add``.  So on both
    sides K is the negated sum of the values fixed on the state's path.
    A child is clean exactly when its parent is and its case is not
    nat_sym.  The checker rebuilds one state per branch: 1,984 nodes in
    12 trees."""
    states, _, _, steps = grid_trace
    assert len(states["checker"]) == 1984
    assert len(states["certifier"]) > len(states["checker"])
    roots = [st_ for side in states.values() for st_ in side
             if len(st_.vars) == st_.r_global]
    assert len(roots) == 17 + 12
    assert all(st_.k_total == ZERO and st_.clean for st_ in roots)
    assert len(steps) == sum(map(len, states.values())) - len(roots)
    for parent, (_, kind, value, _, _), child in steps:
        negated = (-value[0], tuple((s, -c) for s, c in value[1]))
        assert child.k_total == affine_add(parent.k_total, negated), child
        assert child.clean == (parent.clean and kind != "nat_sym"), child


def test_term_degrees_on_the_grid(grid_trace):
    """Every bracket of every state either side builds on the grid carries
    deg = e.gamma over the state's active variables, at least 1: a term
    whose active gamma is 0 is a scalar, not a term."""
    states = grid_trace[0]
    for side in states.values():
        for state in side:
            for t in state.terms:
                assert t[4] == sum(t[0][v] for v in state.vars) >= 1, t


def test_specialize_keeps_the_terms_it_does_not_touch():
    """Specializing s_v hands each bracket with gamma_v = 0 to the child
    as the same object, in the same order; it rebuilds every other one
    with shifted endpoints and a smaller deg, or turns it into scalars."""
    state = sym_state_from_family(E6_FAMILY_PAPER_ORDER(2, 2))
    value = aff_sym("k1", -1)
    for var in state.vars:
        terms, scalars = bsato.specialize(state.terms, var, value)
        untouched = [t for t in state.terms if not t[0][var]]
        kept = [t for t in terms if not t[0][var]]
        assert len(kept) == len(untouched)
        assert all(u is t for u, t in zip(untouched, kept))
        touched = [t for t in state.terms if t[0][var]]
        rebuilt = [t for t in terms if t[0][var]]
        assert len(rebuilt) + len(scalars) == len(touched) >= 1
        for old in touched:
            g = old[0][var]
            shifted = aff_add(old[1], aff_mul(value, g)), \
                aff_add(old[2], aff_mul(value, g))
            if old[4] > g:
                assert (old[0], *shifted, old[3], old[4] - g) in rebuilt
            else:
                assert (*shifted, old[3]) in scalars


def test_lemma_a_solves_on_the_grid_pinned(grid_trace):
    """Work pin: one pass over the 17 grid inputs solves 301 lemma (a)
    systems (641 while a tuple with a coordinate of e outside every
    gamma's support still went to the solver), and the outcomes stay 12
    certificates, 1 refutation, 4 inconclusive."""
    _, solves, kinds, _ = grid_trace
    assert len(solves) == 301
    assert (kinds.count("certificate"), kinds.count("refuted"),
            kinds.count("inconclusive")) == (12, 1, 4)


def test_grid_systems_match_the_fraction_oracle():
    """Every LP one certifier pass over the 17 grid inputs solves, lemma
    (a)'s through ``bsato.solve`` and lemma (b)'s cones through
    ``fmlp.solve``, gets the Fraction oracle's verdict and point.  Most
    have more rows than the hypothesis systems of tests/test_fmlp.py."""
    systems = []
    real_solve = fmlp.solve

    def recording(*args):
        got = real_solve(*args)
        systems.append((args, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bsato, "solve", recording)
        mp.setattr(fmlp, "solve", recording)
        for inp in GRID_INPUTS:
            certify_all_good(_preset_family(*inp))
    assert len(systems) == 638
    assert sum(len(args[0]) > 5 for args, _ in systems) == 416
    for args, got in systems:
        assert got == reference_solve(*args), args


def test_grid_solves_build_fractions_only_for_their_points():
    """Work pin: over one certifier pass of the 17 grid inputs, ``solve``
    eliminates and back-substitutes on ints and builds a Fraction only for
    each coordinate of a point it returns: 898, over the 377 feasible
    systems of the 638 (back-substitution on Fractions built 2,938)."""
    made, feasible = [], []
    real_solve = fmlp.solve

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    def recording(cons, nvars):
        got = real_solve(cons, nvars)
        if got is not None:
            feasible.append(nvars)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fmlp, "Fraction", counting)
        mp.setattr(bsato, "solve", recording)
        mp.setattr(fmlp, "solve", recording)
        for inp in GRID_INPUTS:
            certify_all_good(_preset_family(*inp))
    assert len(feasible) == 377
    assert len(made) == sum(feasible) == 898


# symbol names that json.dumps escapes: a quote, a backslash, a non-ASCII
# letter and a control character
ESCAPED = ['"q', '"\\', '"\u00e9', '"\x01']


def test_signatures_escape_symbols_as_json_does():
    a = aff_of(4)
    for i, s in enumerate(ESCAPED):
        a = aff_add(a, aff_sym(s, i - 2 or 3))
    k3 = aff_sym(ESCAPED[3])
    terms = [sym_term((1, 0, 2), a, aff_add(a, aff_of(2)), 3),
             sym_term((2,), aff_neg(a), aff_add(aff_neg(a), aff_of(1))),
             sym_term((1, 1), k3, aff_add(k3, aff_of(1))),
             sym_term((0, 1), aff_of(-3), aff_of(0))]
    for t in terms:
        vars = tuple(range(1, len(t[0])))
        assert signature(t, vars) == signature_json(t, vars), t
    assert all(ord(c) < 128 for t in terms
               for c in signature(t, tuple(range(1, len(t[0])))))


def _escaped_reduc_a():
    """A state over symbols that need escaping, bounded below, with two
    non-unit brackets [s]^(2,0) and [s]^(0,2) whose endpoints are symbolic,
    and the certifier's lemma (a) on both positions: one tuple, u = (1/2,
    1/2), and no unit root, so no case."""
    k = [aff_sym(s) for s in ESCAPED]
    box = {}
    for s in ESCAPED:
        box = with_symbol(box, s, 0)
    a1 = aff_add(aff_add(k[0], aff_mul(k[1], 2)), aff_of(4))
    a2 = aff_add(aff_add(k[2], aff_mul(k[3], 3)), aff_of(6))
    state = SymState((1, 2), (sym_term((2, 0), a1, aff_add(a1, aff_of(1))),
                              sym_term((0, 2), a2, aff_add(a2, aff_of(2)))),
                     2, ZERO, True, box, frozenset())
    return state, reduc_a(state, (0, 1))


def test_checker_matches_escaped_symbols_through_their_signatures():
    """The checker finds a tuple's certificate by the signatures of its
    brackets: a certificate naming them as json.dumps writes them
    (escapes included) passes, and one that spells a symbol differently
    has no certificate for the tuple."""
    state, (certs, cases) = _escaped_reduc_a()
    assert cases == [] and len(certs) == 1
    terms = state.terms
    assert certs[0] == {"tuple": [signature_json(t, (1, 2)) for t in terms],
                        "u": ["1/2", "1/2"]}

    def node(sigs):
        return {"rule": "reduc_a", "branches": [], "data": {
            "I": [1, 2], "certs": [{"tuple": sigs, "u": ["1/2", "1/2"]}]}}

    _check_node(state, node([signature_json(t, (1, 2)) for t in terms]))
    unescaped = [json.dumps([[g[1], g[2]], aff_to_json(a), aff_to_json(b), mult],
                            sort_keys=True, ensure_ascii=False)
                 for g, a, b, mult, _ in terms]
    assert unescaped != [signature_json(t, (1, 2)) for t in terms]
    with pytest.raises(bsato.CertificateError,
                       match="missing LP certificate for a tuple"):
        _check_node(state, node(unescaped))


def _lemma_a_system(state, terms):
    """Lemma (a)'s LP for a tuple, written out in full: u >= 0,
    sum u*gamma = e, and sum u*(min a + 1) > r - min K."""
    k = len(terms)
    cons = [([t[0][v] for t in terms], "=", 1) for v in state.vars]
    cons += [([-int(i == j) for j in range(k)], "<=", 0) for i in range(k)]
    cons.append(([-(min_of(state.box, t[1]) + 1) for t in terms], "<",
                 min_of(state.box, state.k_total) - state.r_global))
    return cons, k


@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.just(r),
    st.lists(st.tuples(st.lists(st.integers(0, 2), min_size=r, max_size=r),
                       st.integers(-3, 6)),
             min_size=1, max_size=4),
    st.integers(-4, 4), st.integers(1, 5))))
@settings(max_examples=300, deadline=None)
def test_support_cut_declines_only_infeasible_tuples(args):
    """Where some coordinate of e lies outside every gamma's support,
    _reduc_a_tuple_cert declines without calling its solver, and the full
    system is infeasible; otherwise the solver decides it."""
    r, raw, k_const, r_global = args
    terms = [sym_term(tuple(g), aff_of(a), aff_of(a + 1)) for g, a in raw]
    state = SymState(tuple(range(1, r + 1)), tuple(terms), r_global,
                     aff_of(k_const), True, {}, frozenset())
    calls = []

    def spy(cons, nvars):
        calls.append(cons)
        return fmlp.solve(cons, nvars)

    got = _reduc_a_tuple_cert(state, terms, spy)
    if any(not any(t[0][v] for t in terms) for v in state.vars):
        assert got is None and not calls
        assert fmlp.solve(*_lemma_a_system(state, terms)) is None
    else:
        assert len(calls) == 1
        assert (got is not None) == (
            fmlp.solve(*_lemma_a_system(state, terms)) is not None)


def _first_branch(node, kind):
    for assume, child in node["branches"]:
        if assume["kind"] == kind:
            return assume
        found = _first_branch(child, kind)
        if found:
            return found
    return None


def test_checker_rejects_branches_other_than_the_rules_cases():
    """A branch must be exactly the case its rule gives: a J+ branch
    z = -k - 1 would leave out z = -1, and a unit-root branch may assume
    no negation flags."""
    fam = _preset_family("e6-ex1", 2, 2)
    blob = cert_to_json(certify_all_good(fam).certificate)
    shifted = json.loads(json.dumps(blob))
    _first_branch(shifted, "neg_int_sym")["value"]["const"] = "-1"
    flagged = json.loads(json.dumps(blob))
    assume = _first_branch(flagged, "neg_int")
    assume["negations"] = [{"var": assume["var"], "flag": "not_nat"}]
    assert verify_certificate(fam, shifted) == (
        False, "reduc_b branches are not the rule's cases")
    assert verify_certificate(fam, flagged) == (
        False, "reduc_a branches are not the rule's cases")


def _nodes(node):
    yield node
    for _, child in node["branches"]:
        yield from _nodes(child)


def _root_var_1_true(blob):
    """The root's index set with variable 1 written as true."""
    index_set = blob["data"]["I"]
    index_set[index_set.index(1)] = True


def _case_vars_true(blob):
    """Variable 1 written as true in every case and negation naming it."""
    named = [x for assume in _assumptions(blob)
             for x in [assume, *assume.get("negations", ())] if x["var"] == 1]
    assert named
    for x in named:
        x["var"] = True


def _sides_true(blob):
    """Variable 1 written as true in every lemma (b) J+ and J- naming it."""
    sides = [node["data"][key] for node in _nodes(blob)
             for key in ("Jplus", "Jminus") if 1 in node["data"].get(key, ())]
    assert sides
    for side in sides:
        side[side.index(1)] = True


def _signs_true(blob):
    """Every lemma (b) membership sign 1 written as true."""
    signs = [ms for node in _nodes(blob)
             for ms in node["data"].get("memberships", {}).values()
             if ms["sign"] == 1]
    assert signs
    for ms in signs:
        ms["sign"] = True


def _multipliers_bool(blob):
    """Every "1" and "0" among lemma (a)'s u and lemma (b)'s lambdas written
    as true and false."""
    lists = [values for node in _nodes(blob)
             for values in [*(c["u"] for c in node["data"].get("certs", ())),
                            *(ms["lambdas"] for ms in
                              node["data"].get("memberships", {}).values())]]
    assert any("1" in values for values in lists)
    for values in lists:
        values[:] = [{"1": True, "0": False}.get(x, x) for x in values]


def _multipliers_float(blob):
    """Every entry of lemma (a)'s u and lemma (b)'s lambdas written as a
    JSON number with a point, 0.5 for "1/2"."""
    lists = [values for node in _nodes(blob)
             for values in [*(c["u"] for c in node["data"].get("certs", ())),
                            *(ms["lambdas"] for ms in
                              node["data"].get("memberships", {}).values())]]
    assert any(lists)
    for values in lists:
        values[:] = [float(Fraction(x)) for x in values]


def test_checker_rejects_malformed_node_data():
    """Missing or ill-typed node data is a rejection, not an exception: a
    JSON true or false is neither a variable, nor a sign, nor a
    multiplier, and a JSON float is not a multiplier either."""
    fam = E6_FAMILY_PAPER_ORDER(2, 2)
    blob = cert_to_json(certify_all_good(fam).certificate)
    malformed = []
    for edit in (lambda b: b["data"].pop("I"),
                 lambda b: b["data"]["certs"][0].pop("u"),
                 lambda b: b["data"]["certs"][0].update(u=["x", "1"]),
                 lambda b: b["data"].update(I=5),
                 lambda b: b["branches"][0][0].pop("value"),
                 lambda b: b.pop("data"),
                 _root_var_1_true, _case_vars_true, _sides_true, _signs_true,
                 _multipliers_bool, _multipliers_float):
        bad = json.loads(json.dumps(blob))
        edit(bad)
        malformed.append(bad)
    malformed.append({"rule": "reduc_a", "data": {}, "branches": []})
    for bad in malformed:
        ok, msg = verify_certificate(fam, bad)
        assert not ok and msg.startswith("malformed certificate: "), msg


def _certificate_with_a_fractional_value():
    """The e6-ex1 n = m = 2 certificate with the value of its first case
    edited from an integer to 1/2."""
    fam = _preset_family("e6-ex1", 2, 2)
    blob = cert_to_json(certify_all_good(fam).certificate)
    blob["branches"][0][0]["value"]["const"] = "1/2"
    return fam, blob


def test_checker_rejects_a_fractional_case_value():
    fam, blob = _certificate_with_a_fractional_value()
    assert verify_certificate(fam, blob) == (
        False, "malformed certificate: ValueError: '1/2' is not an integer")


def _assumptions(node):
    for assume, child in node["branches"]:
        yield assume
        yield from _assumptions(child)


def test_checker_rejects_bool_case_values():
    """A JSON false is not the integer 0: the e6-ex1 n = m = 2 certificate
    with every case value constant "0" written as false is malformed."""
    fam = _preset_family("e6-ex1", 2, 2)
    blob = json.loads(json.dumps(cert_to_json(certify_all_good(fam).certificate)))
    zeros = [assume["value"] for assume in _assumptions(blob)
             if assume["value"]["const"] == "0"]
    assert len(zeros) == 24
    for value in zeros:
        value["const"] = False
    assert verify_certificate(fam, blob) == (
        False, "malformed certificate: ValueError: False is not an integer")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_fractional_case_value_rejected_by_cli(tmp_path, flags):
    fam, blob = _certificate_with_a_fractional_value()
    terms = [{"gamma": list(t.gamma), "a": t.a, "b": t.b, "mult": t.mult}
             for t in fam.terms()]
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps({"terms": terms, "r": fam.r,
                                "certificate": blob}))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "qsing.cli", "verify-certificate",
         str(path)], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ("REJECTED: malformed certificate: ValueError: "
                           "'1/2' is not an integer\n")
    assert "Traceback" not in proc.stderr


def test_checker_rejects_a_certificate_deeper_than_the_recursion_limit():
    fam = family_from_terms(2, [BracketTerm((1, 0), 0, 1),
                                BracketTerm((0, 1), 0, 1)])
    cert = CertNode("leaf_last_var")
    for _ in range(2 * sys.getrecursionlimit()):
        cert = CertNode("reduc_a", {}, [({}, cert)])
    ok, msg = verify_certificate(fam, cert)
    assert not ok and msg.startswith("malformed certificate: RecursionError"), msg


UNITS3_TERMS = [{"gamma": [int(d == i) for d in range(3)], "a": 0, "b": 2,
                 "mult": 1} for i in range(3)]


def _one_branch_reduc_b(state, symbol, child):
    """A reduc_b node on the state, with its data from reduc_b(state) and
    its one J+ branch binding the given symbol."""
    rb = reduc_b(state)
    var = state.vars[rb.j_plus[0]]
    return {"rule": "reduc_b", "data": {
        "J": [state.vars[i] for i in rb.j_set], "Jplus": [var], "Jminus": [],
        "farkas": [str(x) for x in rb.farkas],
        "memberships": {str(state.vars[i]): {"lambdas": [str(x) for x in lm],
                                             "mus": [str(x) for x in mu],
                                             "sign": sg}
                        for i, (lm, mu, sg) in rb.memberships.items()}},
        "branches": [[{"var": var, "kind": "neg_int_sym",
                       "value": aff_to_json(aff_sym(symbol, -1)),
                       "symbol": symbol, "negations": []}, child]]}


def nested_certificate(inner_symbol):
    """Three unit brackets [s]^{e_i}_{0,2}: a reduc_b root whose branch binds
    k1, over a second reduc_b node whose branch binds inner_symbol, over a
    last-variable leaf."""
    fam = family_from_terms(3, [BracketTerm(tuple(t["gamma"]), 0, 2)
                                for t in UNITS3_TERMS])
    outer = sym_state_from_family(fam)
    var = outer.vars[reduc_b(outer).j_plus[0]]
    inner, _ = bsato.branch_state(
        outer, (var, "neg_int_sym", aff_sym("k1", -1), "k1", ()))
    leaf = {"rule": "leaf_last_var", "data": {}, "branches": []}
    return fam, _one_branch_reduc_b(
        outer, "k1", _one_branch_reduc_b(inner, inner_symbol, leaf))


def test_checker_rejects_a_rebound_symbol():
    fam, cert = nested_certificate("k2")
    assert verify_certificate(fam, cert) == (True, "certificate verified")
    fam, cert = nested_certificate("k1")
    assert verify_certificate(fam, cert) == (
        False, "symbol k1 is already bound")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_rebound_symbol_rejected_by_cli(tmp_path, flags):
    # python -O drops assert statements, so the check must not ride on one
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"terms": UNITS3_TERMS, "r": 3,
                                "certificate": nested_certificate("k1")[1]}))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "qsing.cli", "verify-certificate",
         str(path)], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "REJECTED: symbol k1 is already bound\n"
    assert "Traceback" not in proc.stderr


# b = s_1*(s_2 + 1) = [s]^{10}_{-1,0}[s]^{01}_{0,1}: a bracket with a < 0,
# outside the rules' domain, and the certificate the certifier once gave it.
# It closes lemma (b)'s J+ = {1} with z_1 = -k, k >= 1, after z_2 = -1, and
# so misses (0, -1), a member of Z_gen with e.z = -1
NEGATIVE_A_TERMS = [{"gamma": [1, 0], "a": -1, "b": 0, "mult": 1},
                    {"gamma": [0, 1], "a": 0, "b": 1, "mult": 1}]
NEGATIVE_A_CERT = json.loads(
    '{"branches": [[{"kind": "neg_int", "scalars": [[{"coeffs": {}, "const": '
    '"-1"}, {"coeffs": {}, "const": "0"}, 1]], "value": {"coeffs": {}, '
    '"const": "-1"}, "var": 2}, {"branches": [[{"kind": "neg_int_sym", '
    '"negations": [], "scalars": [[{"coeffs": {"k1": "-1"}, "const": "-1"}, '
    '{"coeffs": {"k1": "-1"}, "const": "0"}, 1]], "symbol": "k1", "value": '
    '{"coeffs": {"k1": "-1"}, "const": "0"}, "var": 1}, {"branches": [], '
    '"data": {"mode": "clean"}, "rule": "leaf_all_fixed"}]], "data": {"J": [], '
    '"Jminus": [], "Jplus": [1], "farkas": ["1"], "memberships": {"1": '
    '{"lambdas": ["1"], "mus": [], "sign": 1}}}, "rule": "reduc_b"}]], '
    '"data": {"I": [2], "certs": []}, "rule": "reduc_a"}')
NEGATIVE_A_REJECTION = (
    "malformed certificate: ValueError: bracket BracketTerm(gamma=(1, 0), "
    "a=-1, b=0, mult=1) has a = -1 < 0")


def _negative_a_family():
    return family_from_terms(2, [BracketTerm(tuple(t["gamma"]), t["a"], t["b"],
                                             t["mult"])
                                 for t in NEGATIVE_A_TERMS])


def test_a_family_with_a_negative_bracket_is_refused():
    """s_1*(s_2 + 1) has the bad member (0, -1) of Z_gen, which membership
    and the refutation find.  The certifier refuses the family, and the
    checker rejects the certificate it once gave."""
    fam = _negative_a_family()
    assert membership_in_ztilde(fam, (0, -1)).kind == "member"
    assert not is_good((0, -1), 2) and _refute(fam) == (0, -1)
    with pytest.raises(ValueError, match=r"has a = -1 < 0$"):
        certify_all_good(fam)
    assert verify_certificate(fam, NEGATIVE_A_CERT) == (
        False, NEGATIVE_A_REJECTION)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_negative_a_certificate_rejected_by_cli(tmp_path, flags):
    path = tmp_path / "negative-a.json"
    path.write_text(json.dumps({"terms": NEGATIVE_A_TERMS, "r": 2,
                                "certificate": NEGATIVE_A_CERT}))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "qsing.cli", "verify-certificate",
         str(path)], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "REJECTED: " + NEGATIVE_A_REJECTION + "\n"
    assert "Traceback" not in proc.stderr


def test_random_families_are_refused_or_certified_soundly():
    """A seeded cross-check on the sampler ``random_r2_family`` (a in
    -1..4): the certifier raises ValueError on each family with a bracket
    a < 0, and on every other family a certificate means that the
    refutation finds no bad member of Z_gen.  Before the guard, 14 of the
    470 refused draws were certified, and 6 of those falsely."""
    rng = random.Random(5)
    kinds = []
    for _ in range(1000):
        fam = random_r2_family(rng)
        if any(t.a < 0 for t in fam.terms()):
            with pytest.raises(ValueError, match=r"< 0$"):
                certify_all_good(fam)
            kinds.append("refused")
            continue
        out = certify_all_good(fam)
        kinds.append(out.kind)
        if out.kind == "certificate":
            assert _refute(fam) is None, fam
    assert [kinds.count(k) for k in
            ("refused", "certificate", "refuted", "inconclusive")] == \
        [470, 82, 416, 32]


# full-support dimension vectors of total at most the bound; on each, every
# pair of perpendicular simples, and all of them where there are three or more
CERT_BOX = (("d4", 9), ("d5", 8), ("e6", 9))

# sha256 of json [name, alpha, selection, sha256 of the certificate JSON
# (sort_keys) or "refuted:" + witness or "inconclusive"] over CERT_BOX in
# order, recorded while bracket terms, cases and affine values were frozen
# dataclasses
CERT_BOX_DIGEST = "ada2dfec09da66bf4e927dbdb21a36501b424168842f641f2360fbc64c8bd13b"


@pytest.fixture(scope="module")
def cert_box(d4, d5):
    """(name, alpha, selection, family, outcome of certify_all_good) for
    each CERT_BOX family in order, computed once for the tests that read
    the box."""
    quivers = {"d4": d4, "d5": d5, "e6": E6_QUIVER}
    box = []
    for name, bound in CERT_BOX:
        q = quivers[name]
        for alpha in itertools.product(range(1, bound + 1), repeat=q.n):
            if sum(alpha) > bound:
                continue
            simples = perp_simples(q, generic_decomposition(q, alpha)).simples
            sels = list(itertools.combinations(range(len(simples)), 2))
            if len(simples) >= 3:
                sels.append(tuple(range(len(simples))))
            for sel in sels:
                try:
                    fam = compute_bfunction(q, alpha, [simples[i] for i in sel])
                except TerminalRuleInapplicable:
                    continue
                box.append((name, alpha, sel, fam, certify_all_good(fam)))
    return box


def test_certificates_beyond_the_grid_pinned(cert_box):
    """Certificates on D4, D5 and E6 boxes reach rules the grid does not
    (r = 3..5, the no-terms leaf), byte for byte as recorded, and the
    checker accepts each."""
    rows, certs = [], []
    for name, alpha, sel, fam, out in cert_box:
        got = out.kind
        if out.kind == "certificate":
            blob = cert_to_json(out.certificate)
            assert verify_certificate(fam, blob) == (
                True, "certificate verified"), (name, alpha, sel)
            text = json.dumps(blob, sort_keys=True)
            got = hashlib.sha256(text.encode()).hexdigest()
            certs.append((fam.r, text.count('"mode": "no-terms"')))
        elif out.kind == "refuted":
            got = "refuted:" + ",".join(map(str, out.witness))
        rows.append([name, list(alpha), list(sel), got])
    kinds = [got.split(":")[0] for *_, got in rows]
    assert (len(certs), kinds.count("refuted"), kinds.count("inconclusive")) \
        == (510, 91, 22)
    assert {r: sum(cr == r for cr, _ in certs) for r in (2, 3, 4, 5)} == \
        {2: 429, 3: 58, 4: 22, 5: 1}
    assert sum(nt for _, nt in certs) == 4
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_BOX_DIGEST


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_refute_matches_the_scan_on_e8_pos(n):
    """The enumeration of ``_refute`` and the bounded scan of
    ``oracles.scan_refute`` name the same witness where the scan's box
    holds it: (-4, 2) at n = 1, on the line z_1 + z_2 = -2 inside Z_gen,
    and (4n - 3, 1 - 4n) after."""
    fam = E8_POS_FAMILY(n)
    assert _refute(fam) == scan_refute(fam, 30) == \
        ((-4, 2) if n == 1 else (4 * n - 3, 1 - 4 * n))


def test_refute_ignores_offsets_with_count_zero():
    """An offset with count zero is no factor of the family, as
    ``terms()`` and ``_roots`` read it, so the witness does not move: it
    is (-4, 2) at e8-pos n = 1 with the entry ((1, 3), 1): 0 as without
    it, though the direction (1, 3) once entered the level of z."""
    fam = E8_POS_FAMILY(1)
    padded = BFunctionFamily(2, {**fam.offsets, ((1, 3), 1): 0})
    assert padded.terms() == fam.terms()
    assert _refute(padded) == _refute(fam) == (-4, 2)
    out = certify_all_good(padded)
    assert (out.kind, out.witness) == ("refuted", (-4, 2))


def test_refute_matches_the_scan_where_the_case_tree_fails(cert_box):
    """Every r = 2 family of CERT_BOX that the case tree does not certify
    is refuted, by the enumeration and by the scan alike."""
    failed = [fam for *_, fam, out in cert_box
              if fam.r == 2 and out.kind != "certificate"]
    assert len(failed) == 91
    for fam in failed:
        witness = _refute(fam)
        assert witness is not None and witness == scan_refute(fam, 30)


def test_refute_matches_the_scan_on_random_families():
    """A seeded sample of r = 2 families over directions that include
    non-primitive ones, (2, 1) and (2, 2): where the scan over the box
    |v_1|, |v_2| <= 7 finds a bad member, the enumeration names the same
    one; where it finds none, the enumeration's witness, if any, lies
    outside that box.  Both answers occur."""
    rng = random.Random(11)
    kinds = set()
    for _ in range(200):
        fam = random_r2_family(rng)
        witness, scanned = _refute(fam), scan_refute(fam, 7)
        kinds.add(witness is None)
        if scanned is not None:
            assert witness == scanned, fam
        elif witness is not None:
            assert witness not in set(refutation_candidates(fam, 7)), fam
        if witness is not None:
            assert not is_good(witness, 2)
            assert membership_in_ztilde(fam, witness).kind == "member"
    assert kinds == {True, False}


def shared_lines(fam):
    """The root lines (a, b, c) that b_{e_1} and b_{e_2} share, read from
    the oracle's factors of each."""
    lines = [{bsato._line(g, k) for g, k in generator_bc(fam, c)[0]}
             for c in ((1, 0), (0, 1))]
    return lines[0] & lines[1]


def assert_line_cover_matches_the_generic_point(fam, lines):
    """On each line, ``_line_cover`` (the interval cover on the factors
    parallel to the line) and membership at ``oracles.generic_point`` give
    the same kind and the same witness c, with either half-line of c read
    first: the swapped family on the swapped line reads (-t, 1+t) first.
    Returns the number of lines contained in Z_gen."""
    swapped = _swapped(fam)
    dirs = sorted({g for g, _ in fam.offsets} | {(1, 0), (0, 1)})
    contained = 0
    for a, b, c in lines:
        for f, line, ds in ((fam, (a, b, c), dirs),
                            (swapped, (b, a, c), [g[::-1] for g in dirs])):
            got = bsato._witness(*bsato._line_cover(f.offsets, *line))
            ref = membership_in_ztilde(f, generic_point(line, ds))
            assert (got is None) == (ref.kind == "member"), (f, line)
            assert got == ref.witness_c, (f, line)
        contained += got is None
    return contained


def random_r2_family(rng):
    """A seeded r = 2 family of two to five brackets over directions that
    include non-primitive ones, (2, 2), (1, 2) and (2, 1)."""
    dirs = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]
    terms = []
    for _ in range(rng.randint(2, 5)):
        a = rng.randint(-1, 4)
        terms.append(BracketTerm(rng.choice(dirs), a, a + rng.randint(1, 4),
                                 rng.randint(1, 2)))
    return family_from_terms(2, terms)


def test_line_cover_matches_the_generic_point_on_e8_pos():
    """Every shared line of e8-pos n = 1..12, and every line
    a*z_1 + b*z_2 + c = 0 with 0 <= a, b <= 2 and |c| <= 8 at n = 1,
    whether the family has it or not: lines z_2 = j with j >= 0 among
    them, where the point test reads the binomial tail and the line cover
    has none."""
    total = contained = 0
    for n in range(1, 13):
        lines = shared_lines(_preset_family("e8-pos", n))
        total += len(lines)
        contained += assert_line_cover_matches_the_generic_point(
            _preset_family("e8-pos", n), lines)
    assert (total, contained) == (468, 234)
    small = {bsato._line((a, b), c) for a, b in itertools.product(range(3), repeat=2)
             if a or b for c in range(-8, 9)}
    assert (0, 1, -3) in small and (1, 0, -3) in small
    assert assert_line_cover_matches_the_generic_point(E8_POS_FAMILY(1), small) > 0


def test_line_cover_matches_the_generic_point_on_cert_box(cert_box):
    """Every shared line of the r = 2 families of CERT_BOX."""
    fams = [fam for *_, fam, _ in cert_box if fam.r == 2]
    assert len(fams) == 520
    counts = [assert_line_cover_matches_the_generic_point(f, shared_lines(f))
              for f in fams]
    assert any(counts)


def test_line_cover_matches_the_generic_point_on_random_families():
    """Every shared line of 2,000 seeded random r = 2 families; both kinds
    occur, on lines of non-primitive directions too."""
    rng = random.Random(40)
    total = contained = 0
    for _ in range(2000):
        fam = random_r2_family(rng)
        lines = shared_lines(fam)
        total += len(lines)
        contained += assert_line_cover_matches_the_generic_point(fam, lines)
    assert (total, contained) == (12479, 5479)


def test_contained_points_hold_the_least_bad_point():
    """On each line g.z + c = 0 over the e8-pos directions, |c| <= 6, that
    holds bad points, ``_contained_points`` holds the least of them in
    (level, z) order among its meets with h.z = -v, |v| <= 40."""
    dirs = [(0, 1), (1, 0), (1, 1), (1, 2)]
    pairs = [(g, h) for g, h in itertools.combinations(dirs, 2)
             if g[0] * h[1] != g[1] * h[0]]

    def level(pt):
        vals = {g: abs((g[0] * pt[0] + g[1] * pt[1]) // pt[2]) for g in dirs
                if (g[0] * pt[0] + g[1] * pt[1]) % pt[2] == 0}
        return min(vals[g] + vals[h] for g, h in pairs
                   if g in vals and h in vals)

    for (a, b), c in itertools.product(dirs, range(-6, 7)):
        if a == b and c > 2 * a:  # e.z < -2 on the whole line
            continue
        across = [g for g in dirs if g[0] * b != g[1] * a]
        meets = {bsato._meet((a, b, c), (*g, v))
                 for g in across for v in range(-40, 41)}
        least = min((level(p), Fraction(p[0], p[2]), Fraction(p[1], p[2]), p)
                    for p in meets if not bsato._good(p))[-1]
        assert least in bsato._contained_points((a, b, c), dirs, level), (a, b, c)


def test_refute_finds_no_bad_member_where_the_case_tree_certifies(cert_box):
    """Two exact methods agree: on each r = 2 family of CERT_BOX that
    carries a certificate that every member of Z(B~) is good, the
    enumeration of candidates finds no bad member."""
    certified = [fam for *_, fam, out in cert_box
                 if fam.r == 2 and out.kind == "certificate"]
    assert len(certified) == 429
    assert all(_refute(fam) is None for fam in certified)


def _reduc_b_states(state, node):
    """(state, node) for each reduc_b node of a certificate in JSON form,
    the state rebuilt from ``state`` by ``branch_state`` along the path."""
    if node["rule"] == "reduc_b":
        yield state, node
    for assume, child in node["branches"]:
        case = (assume["var"], assume["kind"], aff_from_json(assume["value"]),
                assume.get("symbol"),
                tuple((n["var"], n["flag"]) for n in assume.get("negations", ())))
        yield from _reduc_b_states(bsato.branch_state(state, case)[0], child)


def test_reduc_b_unit_brackets_of_j_plus_start_at_zero_or_above(e6_grid, cert_box):
    """The split of ``reduc_b`` assumes that every unit bracket [s_v]_{a,b}
    with v in J+ has a >= 0 on the box, which is proved at the root state
    only.  At each of the 132 reduc_b nodes of the 12 grid certificates and
    the 510 CERT_BOX certificates, rebuilt along its path, it holds for all
    396 such brackets, so no certificate there rests on the unproved
    case."""
    certs = [(fam, out.certificate) for fam, out in e6_grid.values()]
    certs += [(fam, out.certificate) for *_, fam, out in cert_box]
    certs = [(fam, cert_to_json(cert)) for fam, cert in certs if cert is not None]
    assert len(certs) == 12 + 510
    nodes = units = 0
    for fam, cert in certs:
        for state, node in _reduc_b_states(sym_state_from_family(fam), cert):
            nodes += 1
            for v in node["data"]["Jplus"]:
                for g, a, _, _, deg in state.terms:
                    if deg == 1 and g[v]:
                        units += 1
                        low = min_of(state.box, a)
                        assert low is not None and low >= 0, (fam.offsets, state, v)
    assert (nodes, units) == (132, 396)


def test_no_member_of_z_gen_has_e_z_above_minus_2_on_cert_box(cert_box):
    """On the r = 2 families of CERT_BOX, every member z of Z_gen has
    e.z <= -2, unlike e8-pos, where (7, -6) is one at n = 1.  The
    candidates are ``_refute``'s without its goodness filter: the meets of
    the root lines of b_{e_1} with those of b_{e_2}, and on each shared
    line with a witness c, its meets with the root lines of b_c.  Each
    shared line that lies in Z_gen is z_1 + z_2 = -k/a, parallel to e, with
    k >= 2a: 121 such lines, and 1,032 isolated members, the largest
    e.z among them exactly -2."""
    fams = [fam for *_, fam, _ in cert_box if fam.r == 2]
    assert len(fams) == 520
    members = contained = 0
    top = None
    for fam in fams:
        lines = [{bsato._line(g, k) for g, k in bsato._roots(fam, c)}
                 for c in ((1, 0), (0, 1))]
        points = {bsato._meet(l1, l2) for l1 in lines[0] for l2 in lines[1]}
        for line in lines[0] & lines[1]:
            c = bsato._witness(*bsato._line_cover(fam.offsets, *line))
            if c is None:
                a, b, k = line
                assert a == b and k >= 2 * a, (fam, line)
                contained += 1
            else:
                points.update(bsato._meet(line, bsato._line(g, k))
                              for g, k in bsato._roots(fam, c))
        points.discard(None)
        for x1, x2, d in points:
            z = (Fraction(x1, d), Fraction(x2, d))
            if membership_in_ztilde(fam, z).kind == "member":
                members += 1
                top = sum(z) if top is None else max(top, sum(z))
    assert (members, top, contained) == (1032, -2, 121)


@pytest.mark.parametrize("n", [2, 5, 9, 12, 24, 40])
def test_e8_pos_refuted_at_paper_scale(n):
    """e8-pos past the old candidate box |v_1|, |v_2| <= 30 (n >= 9) is
    refuted with the bad common zero (4n - 3, 1 - 4n) of the generators,
    (93, -95) at n = 24 and (157, -159) at n = 40, in under a second
    (0.12 s at n = 24 and 0.27 s at n = 40 on a 2-vCPU x86-64 Xeon)."""
    fam = _preset_family("e8-pos", n)
    t0 = time.perf_counter()
    out = certify_all_good(fam)
    elapsed = time.perf_counter() - t0
    assert out.kind == "refuted"
    assert out.witness == (4 * n - 3, 1 - 4 * n)
    assert elapsed < 1, elapsed


def test_certifier_and_checker_agree_beyond_the_presets(d4, d5):
    """Every all-simples family with r >= 2 on D4 (totals <= 8), D5 (<= 5)
    and E6 (<= 4): each certificate passes the checker as returned and
    after a JSON round trip, no path of it fixes a variable twice, and
    each refutation witness is a bad common zero of the generators b_c."""
    kinds = []
    for q, bound in ((d4, 8), (d5, 5), (E6_QUIVER, 4)):
        for alpha in itertools.product(range(bound + 1), repeat=q.n):
            if not 0 < sum(alpha) <= bound or \
                    perp_simples(q, generic_decomposition(q, alpha)).r < 2:
                continue
            spec = make_spec(q, alpha)
            try:
                fam = compute_bfunction(q, spec.alpha, spec.selected_simples)
            except TerminalRuleInapplicable:
                continue
            out = certify_all_good(fam)
            kinds.append(out.kind)
            if out.kind == "certificate":
                assert verify_certificate(fam, out.certificate)[0], alpha
                assert_paths_fix_distinct_variables(fam, out.certificate)
                blob = json.loads(json.dumps(cert_to_json(out.certificate)))
                assert verify_certificate(fam, blob)[0], alpha
            elif out.kind == "refuted":
                assert not is_good(out.witness, fam.r), alpha
                assert membership_in_ztilde(fam, out.witness).kind == "member"
    assert kinds.count("certificate") > 700 and "refuted" in kinds


def test_cover_check_has_no_step_cap():
    # 20,000 unit intervals cover 0..19999 and the tail the rest; a step
    # guard used to report a false gap at 10001 here
    assert _cover_check([(i, i) for i in range(20000)], 20000, 0) == (True, None)
    assert _cover_check([(0, 3), (5, None)], None, 0) == (False, 4)
    assert _cover_check([(2, 7), (0, 1), (8, None)], None, 0) == (True, None)


def test_cover_check_matches_brute_force():
    """The first gap is the least integer t >= start in no interval and
    below the tail; intervals and tails stay below 40, so a scan to 60
    decides it."""
    rng = random.Random(5)
    for _ in range(2000):
        intervals = []
        for _ in range(rng.randint(0, 6)):
            lo = rng.randint(-3, 30)
            hi = None if rng.random() < 0.1 else lo + rng.randint(-2, 8)
            intervals.append((lo, hi))
        tail = rng.choice([None, rng.randint(0, 40)])
        start = rng.randint(0, 2)
        covered = lambda t: (tail is not None and t >= tail) or any(
            lo <= t and (hi is None or t <= hi) for lo, hi in intervals)
        gap = next((t for t in range(start, 60) if not covered(t)), None)
        assert _cover_check(intervals, tail, start) == (gap is None, gap)


def test_t_interval_matches_brute_force():
    """The integers t >= 0 with a*t + b >= 0 for both pairs: bounds stay
    below 40, so a scan to 60 decides the interval and whether it is
    bounded above."""
    rng = random.Random(13)
    for _ in range(3000):
        conds = [(rng.randint(-4, 4), rng.randint(-20, 20)) for _ in range(2)]
        ts = [t for t in range(61) if all(a * t + b >= 0 for a, b in conds)]
        want = None
        if ts:
            want = (ts[0], None if ts[-1] == 60 else ts[-1])
            assert ts == list(range(ts[0], ts[-1] + 1))
        assert _t_interval(conds) == want, conds


def test_single_variable_roots():
    fam = family_from_terms(1, [BracketTerm((1,), 0, 2), BracketTerm((2,), 2, 4)])
    roots = single_variable_roots(fam)
    assert roots[0] == (Fraction(-1), 1)
    assert (Fraction(-3, 2), 1) in roots


def test_verdict_a2(a2):
    v = rational_singularities_verdict(make_spec(a2, (1, 1)))
    assert v.kind == "rational_singularities"
    assert v.largest_root == -1 and v.largest_root_mult == 1
    # Z(B~) for the one-variable family is exactly {-1}
    assert [r for r, _ in single_variable_roots(v.family)] == [Fraction(-1)]


def test_verdict_codim1_a3(a3):
    # a hypersurface orbit closure: alpha = (1,1,2) with its single
    # perpendicular simple (0,1,0); the semi-invariant is a coordinate
    v = rational_singularities_verdict(make_spec(a3, (1, 1, 2), (1,)))
    assert v.kind == "rational_singularities"
    assert v.largest_root == -1 and v.largest_root_mult == 1


def test_verdict_e6(e6, e6_alpha):
    v = rational_singularities_verdict(make_spec(e6, e6_alpha(2, 2)))
    assert v.kind == "rational_singularities"
    assert v.certificate is not None
    ok, msg = verify_certificate(v.family, v.certificate)
    assert ok, msg
    assert v.reducedness.verdict == "reduced"


def test_verdict_expos(e8, e8_alpha):
    v = rational_singularities_verdict(make_spec(e8, e8_alpha(1), (2, 4)))
    assert v.kind == "not_certified"
    assert v.witness is not None
    assert not is_good(v.witness, 2)
    assert membership_in_ztilde(v.family, v.witness).kind == "member"


def _box_min_fraction(box, const, coeffs):
    """The minimum of const + sum c*s over the box of lower bounds in
    Fractions; None for -infinity."""
    val = Fraction(const)
    for s, c in coeffs.items():
        if c < 0:
            return None
        val += c * box[s]
    return val


def leaf_last_var_fraction_oracle(state, fixed):
    """leaf_last_var as written on Fractions: K is the negated sum of the
    fixed values ((var, value, clean flag), ...), each bracket's bound is
    the minimum of K + (a+1)/g, which must be >= r, and where it equals r
    the branch must be clean, every flag true, with min (a+1)/g >= 1."""
    if len(state.vars) != 1 or not state.terms:
        return None
    k_const, k_coeffs = Fraction(0), {}
    for _, (v_const, v_coeffs), _ in fixed:
        k_const -= v_const
        for s, c in v_coeffs:
            k_coeffs[s] = k_coeffs.get(s, 0) - c
    bounds = []
    for t in state.terms:
        g, (t_const, t_coeffs) = t[0][state.vars[0]], t[1]
        a_const = Fraction(t_const + 1, g)
        a_coeffs = {s: Fraction(c, g) for s, c in t_coeffs}
        total = dict(k_coeffs)
        for s, c in a_coeffs.items():
            total[s] = total.get(s, 0) + c
        mu = _box_min_fraction(state.box, k_const + a_const, total)
        if mu is None or mu < state.r_global:
            return None
        if mu == state.r_global:
            lo = _box_min_fraction(state.box, a_const, a_coeffs)
            if not (all(cl for *_, cl in fixed) and lo is not None
                    and lo >= 1):
                return None
        bounds.append((t, mu))
    return bounds


def _random_last_var_state(rng):
    """A state with one active variable: g in 1..4, integer or symbolic
    bracket endpoints and fixed values, symbols with lower bounds 0..2.
    Returns the state and its fixed values, which the state does not
    hold."""
    box = {}
    for s in ("k1", "k2"):
        box = with_symbol(box, s, rng.randint(0, 2))

    def value(lo, hi):
        v = aff_of(rng.randint(lo, hi))
        if rng.random() < 0.4:
            v = aff_add(v, aff_sym(rng.choice(["k1", "k2"]),
                                   rng.choice([-2, -1, 1, 2])))
        return v

    fixed = tuple((var, value(-4, 1), rng.random() < 0.6)
                  for var in range(2, 2 + rng.randint(0, 3)))
    terms = []
    for _ in range(rng.randint(1, 3)):
        a = value(-2, 6)
        terms.append(sym_term((rng.randint(1, 4),), a,
                              aff_add(a, aff_of(rng.randint(0, 3))),
                              rng.randint(1, 2)))
    return SymState((1,), tuple(terms), rng.randint(1, 4), summed_k(fixed),
                    all(cl for *_, cl in fixed), box, frozenset()), fixed


def _tight_last_var_state(fixed_value, a):
    """A clean state with g = 1 and r = 1 over k1 >= 0, and its fixed
    values."""
    fixed = ((2, fixed_value, True),)
    return SymState((1,), (sym_term((1,), a, aff_add(a, aff_of(1))),), 1,
                    summed_k(fixed), True, with_symbol({}, "k1", 0),
                    frozenset()), fixed


def test_leaf_last_var_matches_the_fraction_formula():
    """The integer rule accepts and rejects exactly where the Fraction
    formula does, and writes the same bound strings."""
    k1 = aff_sym("k1")
    # the bound K + a + 1 equals r = 1 on both, the symbol cancelling:
    # K = -k1 with a = k1, and K = 1 - k1 with a = k1 - 1; a + 1 is 1 at
    # least on the first but 0 at k1 = 0 on the second
    accepts = _tight_last_var_state(k1, k1)
    rejects = _tight_last_var_state(aff_sub(k1, aff_of(1)),
                                    aff_sub(k1, aff_of(1)))
    assert [str(Fraction(gmu, g))
            for _, gmu, g in leaf_last_var(accepts[0])] == ["1"]
    assert leaf_last_var(rejects[0]) is None
    rng = random.Random(20261018)
    accepted = tight = fractional = 0
    states = [accepts, rejects] + [_random_last_var_state(rng)
                                   for _ in range(3000)]
    for state, fixed in states:
        got = leaf_last_var(state)
        want = leaf_last_var_fraction_oracle(state, fixed)
        assert (got is None) == (want is None), state
        if got is None:
            continue
        assert [(signature(t, (1,)), str(Fraction(gmu, g)))
                for t, gmu, g in got] == \
            [(signature(t, (1,)), str(mu)) for t, mu in want], state
        accepted += 1
        tight += any(mu == state.r_global for _, mu in want)
        fractional += any(mu.denominator > 1 for _, mu in want)
    # both outcomes, the bound equal to r, and bounds that are not integers
    assert 100 < accepted < 2900 and tight > 20 and fractional > 20, \
        (accepted, tight, fractional)


def test_lemma_a_tuples_merge_brackets_equal_on_the_active_variables():
    """[s]^(1,1,1)_{0,1} and [s]^(2,1,1)_{1,2} at z_1 = -1 are two terms that
    keep different entries for s_1 but are one bracket [s]^(1,1)_{-1,0}:
    each tuple of lemma (a) on both positions holds it once."""
    fam = family_from_terms(3, [BracketTerm((1, 1, 1), 0, 1),
                                BracketTerm((2, 1, 1), 1, 2)])
    child, _ = bsato.branch_state(sym_state_from_family(fam),
                                  (1, "neg_int", aff_of(-1), None, ()))
    t1, t2 = child.terms
    assert t1 != t2 and signature(t1, child.vars) == signature(t2, child.vars)
    assert [len(d) for d in bsato._lemma_a_tuples(child, (0, 1))] == [1] * 4


def _fixed_state(fixed, box, r):
    """A state with no active variable left, after the fixed values
    ((var, value, clean flag), ...)."""
    return SymState((), (), r, summed_k(fixed), all(cl for *_, cl in fixed),
                    box, frozenset())


def test_leaf_all_fixed_modes():
    """clean when every fixed value came from a negative case; otherwise
    None, and None while a variable is active.  A dirty branch fixed some
    z_v = k to a symbol k >= 0 that ``branch_state`` bounds from below only,
    so e.z = -K has no upper bound and no other mode can hold: the checker
    rejects a leaf on it, and any mode but clean."""
    clean = ((1, aff_of(-1), True), (2, aff_sym("k1", -1), True))
    state = _fixed_state(clean, with_symbol({}, "k1", 1), 2)
    assert leaf_all_fixed(state) == "clean"
    node = _leaf_node(state)
    assert (node.rule, node.data) == ("leaf_all_fixed", {"mode": "clean"})
    _check_node(state, cert_to_json(node))
    root = sym_state_from_family(family_from_terms(1, [BracketTerm((1,), 0, 1)]))
    dirty = bsato.branch_state(root, (1, "nat_sym", aff_sym("k1"), "k1", ()))[0]
    assert dirty.vars == () and not dirty.clean and dirty.box == {"k1": 0}
    assert min_of(dirty.box, dirty.k_total) is None
    assert leaf_all_fixed(dirty) is None and _leaf_node(dirty) is None
    for st, mode in ((dirty, "clean"), (state, "strict")):
        with pytest.raises(bsato.CertificateError,
                           match="leaf_all_fixed does not hold"):
            _check_node(st, {"rule": "leaf_all_fixed", "data": {"mode": mode},
                             "branches": []})
    active = SymState((3,), (), 3, summed_k(clean), True,
                      with_symbol({}, "k1", 1), frozenset())
    assert leaf_all_fixed(active) is None


def _branch_at_s1(terms, kind, value, negations):
    """The state on the branch z_1 = value, bound to symbol k1, of the
    family of the given 3-variable brackets."""
    root = sym_state_from_family(family_from_terms(3, terms))
    return bsato.branch_state(root, (1, kind, value, "k1", negations))[0]


def test_leaf_empty_generator_modes():
    """no-terms when no bracket holds s_i on the active variables;
    units-positive when each one is the unit bracket of s_i with a >= 0 on
    the box and z_i is not a negative integer; None otherwise.  The states
    come from fixing s_1, so their brackets keep an entry for s_1."""
    units = [BracketTerm((1, 1, 0), 0, 1), BracketTerm((0, 1, 0), 0, 2),
             BracketTerm((1, 0, 0), 0, 1)]
    not_neg = ((2, "not_neg_int"),)
    flagged = _branch_at_s1(units, "nat_sym", aff_sym("k1"), not_neg)
    assert flagged.vars == (2, 3)
    assert leaf_empty_generator(flagged, 1) == ("no-terms", [])
    mode, touching = leaf_empty_generator(flagged, 0)
    k1 = '{"coeffs": {"k1": "1"}, "const": "%d"}'
    assert mode == "units-positive"
    assert [signature(t, flagged.vars) for t in touching] == [
        '[[1, 0], {"coeffs": {}, "const": "0"}, {"coeffs": {}, "const": "2"}, 1]',
        '[[1, 0], %s, %s, 1]' % (k1 % 0, k1 % 1)]
    node = _leaf_node(flagged)
    assert node.data == {"var": 2, "mode": "units-positive",
                         "terms": [signature(t, flagged.vars) for t in touching]}
    _check_node(flagged, cert_to_json(node))
    # z_2 may be a negative integer; a = -k1 has no lower bound; a bracket
    # of s_2 is not a unit bracket on the active variables
    assert leaf_empty_generator(
        _branch_at_s1(units, "nat_sym", aff_sym("k1"), ()), 0) is None
    assert leaf_empty_generator(
        _branch_at_s1(units, "neg_int_sym", aff_sym("k1", -1), not_neg), 0) is None
    wide = [BracketTerm((1, 1, 1), 0, 1), BracketTerm((0, 1, 0), 0, 2)]
    assert leaf_empty_generator(
        _branch_at_s1(wide, "nat_sym", aff_sym("k1"), not_neg), 0) is None


def test_affine_box_arithmetic():
    k = aff_sym("k")
    box = with_symbol({}, "k", 1)
    e = aff_add(aff_mul(k, 2), aff_of(3))
    assert min_of(box, e) == 5
    assert min_of(box, aff_neg(k)) is None
    assert not aff_sub(k, k)[1]
