"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  All comparisons are exact (integer / rational); the
stated runtime targets are asserted as generous wall-clock bounds.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from qsing.brackets import (
    BracketTerm,
    compute_bfunction,
    family_from_terms,
)
from qsing.bsato import (
    certify_all_good,
    is_good,
    membership_in_ztilde,
    rational_singularities_verdict,
    single_variable_roots,
    verify_certificate,
)
from qsing.decomp import (
    class_hom,
    class_self_ext,
    generic_decomposition,
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
from qsing.quiver import Quiver, euler_form
from qsing.roots import hom_table, positive_roots

from conftest import E6_ALPHA, E8_ALPHA
from oracles import bracket_identity_check, generator_value, vanishing_mismatches


def report(criterion, ok, note=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag}" + (f"  ({note})" if note else ""))
    return ok


# the nine nullcone components of the E8 example, as multisets of roots
# (row vertices 1..7, branch vertex last).  N6 as printed in the source has a
# typo: its summands total (2,3,7,3,2,2,1;3) != alpha; the corrected fourth
# summand is (0,1,1,1,1,0,0;0) in place of the central simple, which is the
# unique completion to a codimension-5 class and the one the exhaustive
# search produces.
E8_COMPONENTS = [
    [(0, 0, 1, 0, 0, 0, 0, 0), (2, 4, 6, 4, 3, 2, 1, 3)],  # N1
    [(0, 0, 1, 1, 0, 0, 0, 1), (0, 0, 1, 1, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0, 0, 1),
     (1, 1, 1, 0, 0, 0, 0, 0), (1, 2, 3, 2, 2, 2, 1, 1)],  # N2
    [(1, 1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1, 1, 0), (0, 1, 2, 1, 0, 0, 0, 1),
     (1, 2, 3, 2, 2, 1, 0, 2)],  # N3
    [(0, 0, 1, 1, 0, 0, 0, 1), (0, 0, 1, 1, 1, 1, 1, 0), (0, 1, 1, 0, 0, 0, 0, 0),
     (1, 1, 2, 1, 1, 1, 0, 1), (1, 2, 2, 1, 1, 0, 0, 1)],  # N4
    [(0, 0, 1, 0, 0, 0, 0, 1), (0, 0, 1, 1, 1, 1, 1, 0), (0, 1, 1, 1, 1, 0, 0, 0),
     (1, 1, 1, 0, 0, 0, 0, 0), (1, 2, 3, 2, 1, 1, 0, 2)],  # N5
    [(0, 0, 1, 1, 0, 0, 0, 1), (0, 0, 1, 1, 1, 1, 0, 0), (0, 1, 1, 0, 0, 0, 0, 1),
     (0, 1, 1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0, 0),
     (1, 1, 2, 1, 1, 1, 1, 1)],  # N6 (corrected)
    [(0, 0, 1, 1, 0, 0, 0, 1), (0, 0, 1, 1, 1, 1, 1, 0), (0, 1, 1, 1, 1, 0, 0, 0),
     (0, 1, 2, 1, 1, 1, 0, 1), (1, 1, 1, 0, 0, 0, 0, 0),
     (1, 1, 1, 0, 0, 0, 0, 1)],  # N7
    [(1, 1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0), (1, 2, 4, 3, 3, 2, 1, 2),
     (0, 1, 1, 0, 0, 0, 0, 1)],  # N8
    [(0, 0, 1, 1, 0, 0, 0, 1), (0, 0, 1, 1, 1, 1, 1, 0), (0, 1, 2, 1, 1, 0, 0, 1),
     (1, 1, 1, 0, 0, 0, 0, 0), (1, 2, 2, 1, 1, 1, 0, 1)],  # N9
]

# the engine's variable order lists the selected simples lexicographically;
# for the E6 example, engine variable i is printed variable
# E6_ENGINE_TO_PRINTED[i-1]: engine 1 = printed S2, 2 = S3, 3 = S1, 4 = S4
E6_ENGINE_TO_PRINTED = (2, 3, 1, 4)


def as_multiset(cls):
    return sorted(cls.as_multiset())


def run_cli_json(args, capsys):
    import json

    from qsing.cli import main
    main(args + ["--format", "json"])
    out = capsys.readouterr().out
    return json.loads(out)


def test_criterion_1_e8_nullcone(e8, e8_alpha, capsys):
    """E8 example: 9 components, codim 5, CI, not reduced with witness N1."""
    t0 = time.time()
    spec = make_spec(e8, e8_alpha(1))
    comps = components(spec)
    ok = len(comps) == 9
    got = sorted(as_multiset(c.rep_class) for c in comps)
    want = sorted(sorted(x) for x in E8_COMPONENTS)
    ok &= got == want
    ok &= all(c.codim == 5 for c in comps)
    ok &= is_set_theoretic_ci(spec, comps)
    red = reducedness_report(spec, comps)
    ok &= red.verdict == "not-reduced"
    ok &= as_multiset(red.witness) == sorted(E8_COMPONENTS[0])
    sv = survey(spec)
    ok &= bool(sv.h_points)  # H is nonempty even though N1 fails (a)
    # the survey's bookkeeping, as the unpruned pass over every class gave it
    ok &= sv.total == 1_543_628 and len(sv.h_points) == 401
    ok &= {k: len(v) for k, v in sv.patterns.items()} == {
        1: 95, 2: 370, 3: 55, 4: 14, 5: 162}
    ok &= sv.zprime_witness is None
    # the violating value: hom = 2 against the printed second simple
    table = hom_table(e8)
    second = (0, 1, 2, 1, 1, 1, 0, 1)
    ok &= table.hom_root((0, 0, 1, 0, 0, 0, 0, 0), second) == 2
    ok &= class_hom(table, red.witness, second) == 2
    # the CLI report agrees; neither it nor the report runs the survey
    data = run_cli_json(["nullcone", "--preset", "e8-notred"], capsys)
    ok &= len(data["components"]) == 9 and data["ci"] is True
    ok &= data["verdict"] == "not-reduced"
    cli_comps = sorted(
        sorted(tuple(r) for r, mult in c["parts"] for _ in range(mult))
        for c in data["components"])
    ok &= cli_comps == want
    elapsed = time.time() - t0
    ok &= elapsed <= 600
    assert report(1, ok, f"9 components, not-reduced, {elapsed:.0f}s")


def test_criterion_2_e6_bfunction(e6, capsys):
    """E6 example at n = m = 2: the printed 7-term family, exactly."""
    t0 = time.time()
    alpha = E6_ALPHA(2, 2)
    t = generic_decomposition(e6, alpha)
    p = perp_simples(e6, t)
    fam = compute_bfunction(e6, alpha, p.simples)
    printed = [  # (printed gamma, a, b) with n = m = 2
        ((1, 0, 0, 0), 0, 4), ((0, 1, 0, 0), 0, 4),
        ((0, 0, 1, 0), 0, 2), ((0, 0, 0, 1), 0, 2),
        ((0, 0, 1, 1), 2, 6), ((0, 1, 1, 0), 4, 6), ((1, 0, 0, 1), 4, 6),
    ]
    perm = E6_ENGINE_TO_PRINTED
    expected = family_from_terms(4, [
        BracketTerm(tuple(g[perm[i] - 1] for i in range(4)), a, b)
        for g, a, b in printed
    ])
    ok = fam.offsets == expected.offsets
    data = run_cli_json(["bfunction", "--preset", "e6-ex1", "--n", "2",
                         "--m", "2"], capsys)
    cli_fam = family_from_terms(4, [
        BracketTerm(tuple(t_["gamma"]), t_["a"], t_["b"], t_["mult"])
        for t_ in data["terms"]])
    ok &= cli_fam.offsets == expected.offsets
    elapsed = time.time() - t0
    ok &= elapsed <= 10
    assert report(2, ok, f"family matches printed terms, {elapsed:.2f}s")


E8_POS_PRINTED = lambda n: [
    BracketTerm((0, 1), 0, 4 * n), BracketTerm((0, 1), n, 3 * n, 2),
    BracketTerm((0, 1), 2 * n, 4 * n), BracketTerm((1, 0), 0, n),
    BracketTerm((1, 1), n, 4 * n), BracketTerm((1, 2), 4 * n, 7 * n),
]


def test_criterion_3_e8_pos(e8, e8_alpha, capsys):
    """E8 positive-root example at n = 1: family, goodness, verdict."""
    t0 = time.time()
    spec = make_spec(e8, e8_alpha(1), (2, 4))
    fam = compute_bfunction(e8, e8_alpha(1), spec.selected_simples)
    ok = fam.offsets == family_from_terms(2, E8_POS_PRINTED(1)).offsets
    ok &= not is_good((9, -7), 2)
    v = rational_singularities_verdict(spec)
    ok &= v.kind == "not_certified"
    # the attached witness is a verified bad common zero of the b_c
    ok &= v.witness is not None and not is_good(v.witness, 2)
    ok &= membership_in_ztilde(fam, v.witness).kind == "member"
    data = run_cli_json(["bfunction", "--preset", "e8-pos", "--n", "1"], capsys)
    cli_fam = family_from_terms(2, [
        BracketTerm(tuple(t_["gamma"]), t_["a"], t_["b"], t_["mult"])
        for t_ in data["terms"]])
    ok &= cli_fam.offsets == fam.offsets
    data = run_cli_json(["singularities", "--preset", "e8-pos", "--n", "1"],
                        capsys)
    ok &= data["verdict"] == "not_certified" and data["witness"] is not None
    elapsed = time.time() - t0
    ok &= elapsed <= 10
    assert report(3, ok, f"family + goodness + verdict, {elapsed:.1f}s")


def test_criterion_3_paper_membership_value(e8, e8_alpha):
    """The printed membership value (8n+1, -6n-1), at n = 1 and n = 2.

    The source example prints (8n+1, -6n-1) as a bad member of Z(B~).  That
    is a slip: the point is not in Z(B~), and this test checks that value.

    By the definition of b_m, f*(d)^m f^{s+m} = b_m(s) f^s.  With c+ and c-
    the positive and negative parts of c, this gives
    f^{-c-} f*(d)^{c+} f^{s+c} = b_{c+}(s + c-) f^s.  Multiplying by
    prod_{c_i<0} binom(s_i, -c_i) shows that the generator
    b_c = b_{c+}(s + c-) * prod_{c_i<0} binom(s_i, -c_i), which the oracle
    ``oracles.generator_value`` evaluates, lies in B~ as Budur-Mustata-Saito define it ("Bernstein-Sato
    polynomials of arbitrary varieties", Compositio 2006).  So
    Z(B~) lies in Z(b_c) for every c with c_1 + c_2 = 1, whether or not the
    b_c generate B~.

    Take the printed family (the engine agrees with it), z = (8n+1, -6n-1)
    and c = (3n+1, -3n), i.e. t = 3n on the line c = (1+t, -t).  No factor
    of b_c vanishes at z:
    - the [s]^{01} brackets have depth gamma.c+ = 0;
    - the [s]^{10} factors are s_1 + i + j > 0;
    - binom(-6n-1, 3n) != 0;
    - the [s]^{11}_{n,4n} factors 2n - t + i + j vanish only when t >= 3n+1;
    - the [s]^{12}_{4n,7n} factors -4n-1 - 2t + i + j vanish only when
      t <= 3n-1.
    The generator at t = 3n falls between the two windows, so z is not in
    Z(B~).  What the package shows of the example's conclusion is weaker:
    Z_gen, the common zeros of the b_c, holds bad points, e.g. the
    verdict's witness (-4, 2) checked in test_criterion_3_e8_pos.  Whether
    Z_gen = Z(B~), and so whether (-4, 2) lies in Z(B~), is open.
    tests/test_bfunction_oracle.py checks the identity and the c- shift of
    the oracle's generators against a direct sympy computation.
    """
    for n in (1, 2):
        alpha = e8_alpha(n)
        spec = make_spec(e8, alpha, (2, 4))
        fam = compute_bfunction(e8, alpha, spec.selected_simples)
        assert fam.offsets == family_from_terms(2, E8_POS_PRINTED(n)).offsets
        z = (8 * n + 1, -6 * n - 1)
        c = (3 * n + 1, -3 * n)
        got = membership_in_ztilde(fam, z)
        value = generator_value(fam, c, z)
        report("3-paper-value", got.kind == "nonmember" and got.witness_c == c,
               f"n={n}: printed point is {got.kind}, witness c={got.witness_c}")
        assert got.kind == "nonmember", (
            f"{z} is a member of Z(B~), but b_c at c={c} is {value} there")
        assert got.witness_c == c
        assert value != 0


def test_criterion_4_e6_certification(e6):
    """E6 example certification at n = m = 2."""
    t0 = time.time()
    alpha = E6_ALPHA(2, 2)
    t = generic_decomposition(e6, alpha)
    p = perp_simples(e6, t)
    fam = compute_bfunction(e6, alpha, p.simples)
    out = certify_all_good(fam)
    ok = out.kind == "certificate"
    ok_check, msg = verify_certificate(fam, out.certificate)
    ok &= ok_check
    v = rational_singularities_verdict(make_spec(e6, alpha))
    ok &= v.kind == "rational_singularities"
    ok_check2, _ = verify_certificate(v.family, v.certificate)
    ok &= ok_check2
    elapsed = time.time() - t0
    ok &= elapsed <= 60
    assert report(4, ok, f"certificate verified, {elapsed:.0f}s")


def test_criterion_5_thm_dynk_suite(a3, d4):
    """Reducedness for every alpha with generic multiplicities >= N(Q),
    total dimension <= 24, on A3 and D4.  Exhaustive."""
    t0 = time.time()
    failures = []
    checked = 0
    for q, total_max in ((a3, 24), (d4, 24)):
        nq = reduced_bound(q)
        for alpha in itertools.product(range(total_max + 1), repeat=q.n):
            s = sum(alpha)
            if s == 0 or s > total_max:
                continue
            t = generic_decomposition(q, alpha)
            if not t.parts or any(mult < nq for _, mult in t.parts):
                continue
            perp = perp_simples(q, t)
            if perp.r == 0:
                continue
            rr = reducedness_report(make_spec(q, alpha))
            checked += 1
            if rr.verdict != "reduced":
                failures.append((q.n, alpha, rr.verdict))
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 300
    assert report(5, ok, f"{checked} nullcones reduced, {elapsed:.0f}s"), failures[:5]


def test_criterion_6_codim1_suite(a3, a4, d4):
    """Largest b-function root -1 with multiplicity one for every
    codimension-1 orbit-closure instance; integer roots in type A."""
    t0 = time.time()
    failures = []
    instances = 0
    for name, q in (("A3", a3), ("A4", a4), ("D4", d4)):
        table = hom_table(q)
        for alpha in itertools.product(range(21), repeat=q.n):
            s = sum(alpha)
            if s == 0 or s > 20:
                continue
            t = generic_decomposition(q, alpha)
            perp = perp_simples(q, t)
            if not perp.r:
                continue
            # the codimension-1 classes of alpha, shared by every simple
            codim1 = [c for c in enumerate_classes(q, alpha, max_self_ext=1)
                      if class_self_ext(table, c) == 1]
            for j in range(perp.r):
                sj = perp.simples[j]
                hits = [c for c in codim1 if class_hom(table, c, sj) > 0]
                if len(hits) != 1:
                    continue
                instances += 1
                fam = compute_bfunction(q, alpha, [sj])
                roots = single_variable_roots(fam)
                top, mult = roots[0]
                good = top == Fraction(-1) and mult == 1
                # all roots negative integers or half-integers
                good &= all(r < 0 and r.denominator in (1, 2) for r, _ in roots)
                if name in ("A3", "A4"):
                    good &= all(r.denominator == 1 for r, _ in roots)
                if not good:
                    failures.append((name, alpha, j, roots[:3]))
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 300
    assert report(6, ok, f"{instances} instances, {elapsed:.0f}s"), failures[:5]


def test_criterion_7_oracle_equivalences(a2, a3, d4, e6, e8):
    """(i) hom - ext = Euler form on all root pairs; (ii) decomposition vs
    exhaustive search; (iii) semi-invariant vanishing vs hom; (iv) bracket
    telescoping identity."""
    ok = True
    # (i)
    for q in (a2, a3, d4, e6, e8):
        t = hom_table(q)
        k = len(t.roots)
        ok &= all(
            t.hom[i][j] - t.ext[i][j] == euler_form(q, t.roots[i], t.roots[j])
            for i in range(k) for j in range(k)
        )
    # (ii) exhaustive ext-free decomposition search agrees and is unique
    def all_decomps(q, alpha):
        table = hom_table(q)
        roots = positive_roots(q)
        out = []

        def rec(rem, pos, acc):
            if not any(rem):
                out.append(tuple(acc))
                return
            for pp in range(pos, len(roots)):
                r = roots[pp]
                if all(a >= b for a, b in zip(rem, r)) and all(
                        table.ext_root(r, o) == 0 and table.ext_root(o, r) == 0
                        for o in acc):
                    acc.append(r)
                    rec(tuple(a - b for a, b in zip(rem, r)), pp, acc)
                    acc.pop()

        rec(alpha, 0, [])
        return out

    rng = random.Random(29)
    for q in (a3, d4):
        for _ in range(40):
            alpha = tuple(rng.randint(0, 16 // q.n + 2) for _ in range(q.n))
            if sum(alpha) == 0 or sum(alpha) > 16:
                continue
            sols = all_decomps(q, alpha)
            ok &= len(sols) == 1
            ok &= sorted(sols[0]) == \
                generic_decomposition(q, alpha).as_multiset()
    # (iii) vanishing of c_S on class representatives matches hom > 0
    for q in (a2, a3, d4):
        ok &= vanishing_mismatches(q, rng, 100) == []
    # (iv)
    for _ in range(50):
        d = rng.randint(0, 4)
        a = rng.randint(0, 6)
        b = a + rng.randint(0, 6)
        m = rng.randint(1, 4)
        ok &= bracket_identity_check(d, a, b, mults=((m,),))
    assert report(7, ok, "oracle equivalences")


def test_criterion_8_a2_end_to_end(a2):
    """A2: b = s + 1, Z(B~) = {-1}, rational singularities."""
    t0 = time.time()
    fam = compute_bfunction(a2, (1, 1), [(0, 1)])
    ok = fam.offsets == {((1,), 1): 1}
    # Z(B~) = {-1}: the single generator is s + 1
    ok &= membership_in_ztilde(fam, (-1,)).kind == "member"
    ok &= single_variable_roots(fam) == [(Fraction(-1), 1)]
    out = certify_all_good(fam)
    ok &= out.kind == "certificate"
    v = rational_singularities_verdict(make_spec(a2, (1, 1)))
    ok &= v.kind == "rational_singularities"
    elapsed = time.time() - t0
    ok &= elapsed <= 1
    assert report(8, ok, f"b = s+1, {elapsed:.2f}s")
