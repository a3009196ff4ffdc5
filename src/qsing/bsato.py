"""Bernstein-Sato linkage: generators b_c of the ideal associated with a
multi-variable b-function family, the good-root test, exact reduction
lemmas over rational LP, a case-split certification driver, an exact r = 2
refutation, and rational-singularity verdicts.

The generators b_c = b_{c+}(s + c-) * prod_{c_i<0} binom(s_i, -c_i),
e.c = 1, enter only through their zero sets: Z(B~) lies in Z_gen, the
common zeros of the b_c.  So a b_c is read by its root hyperplanes
g.s + k = 0 alone (``_roots``), as integer pairs read straight from the
family's offsets, and a point z = x/d as integers (``_point``).  No b_c is
evaluated here, and only the one-variable verdict, which needs the
multiplicity of the largest root, expands one (``single_variable_roots``);
the Fraction evaluator of b_c is the test suite's oracle.

The r = 2 refutation (``_refute``) has no search bound: the root lines of
b_{e_1} and b_{e_2} fix a finite candidate set that holds the least bad
member of Z_gen whenever there is one (``certify_all_good``).  It reads
integer points, and a whole line on its parallel factors (``_line_cover``).

The certification works branch by branch on a symbolic state: specialized
coordinates are stored as affine values in integer parameters (k1, k2, ...)
with box domains, so a branch like "z_3 = -k, k >= 1" is a single node.
The certifier and the independent checker split the work three ways:

* Rules, each written once and called by both: the leaves
  ``leaf_all_fixed``, ``leaf_empty_generator`` and ``leaf_last_var``, the
  cases of lemma (a) (``unit_root_cases``) and of lemma (b), J+ then J-
  (``sign_cases``), and ``branch_state``, which builds a case's state.
* Searches, certifier only: which rule to try, the LP multipliers of
  lemma (a) and the Farkas functional and cone memberships of lemma (b).
* Re-verification, checker only: the arithmetic of those multipliers,
  functionals and memberships.  The checker runs each rule on the state
  it rebuilds, and a node's branches must be exactly the rule's cases.

The values a node builds are plain: affine values, bracket terms and cases
are tuples, a box is a dict (``qsing.affine``, ``sym_term``), and a state
is a ``SymState`` that ``branch_state`` builds in one call, holding only
what the rules read.  Both sides hand the child every bracket the fixed
variable does not touch, and name a bracket in a certificate by its
signature, JSON text that ``signature`` writes directly.

The rules cover families whose brackets all have a >= 0, as those of
``compute_bfunction`` do: ``sym_state_from_family`` raises ValueError on
any other, so the certifier refuses it and the checker rejects its
certificates (``reduc_b`` says why).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import mul
from typing import NamedTuple

from .affine import (ZERO, aff_add, aff_from_json, aff_mul, aff_of, aff_sub,
                     aff_sym, aff_to_json, min_of, with_symbol)
from .brackets import BFunctionFamily, compute_bfunction, expand
from .fmlp import cone_membership, int_row, separating_functional, solve
from .orbits import (ZeroSetSpec, components, is_set_theoretic_ci,
                     reducedness_report)


def _roots(family: BFunctionFamily, c):
    """The distinct root hyperplanes g.s + k = 0 of
    b_c = b_{c+}(s + c-) * prod_{c_i<0} binom(s_i, -c_i), as a set of
    integer pairs (g, k).  The offset (g, i) of the family gives the factors
    g.s + k, k = i + g.c- .. i + g.c- + g.c+ - 1, so the k of one g are a
    union of intervals of equal length, read as merged runs over the sorted
    offsets.  binom(s_i, -c_i) vanishes on s_i = j, 0 <= j < -c_i.  The
    caller passes c as an integer r-vector with e.c = 1."""
    offsets = {}
    for (g, i), cnt in family.offsets.items():
        if cnt:
            offsets.setdefault(g, []).append(i)
    roots = set()
    for g, starts in offsets.items():
        depth = sum(gi * ci for gi, ci in zip(g, c) if ci > 0)
        shift = sum(gi * ci for gi, ci in zip(g, c) if ci < 0)
        runs = []  # [lo, hi): the merged runs of k
        for i in sorted(starts):
            if runs and i + shift <= runs[-1][1]:
                runs[-1][1] = i + shift + depth
            else:
                runs.append([i + shift, i + shift + depth])
        roots.update((g, k) for lo, hi in runs for k in range(lo, hi))
    for v, ci in enumerate(c):
        g = tuple(int(u == v) for u in range(len(c)))
        roots.update((g, -j) for j in range(-ci))
    return roots


def _point(z, r):
    """z as the integers (x_1, ..., x_r, d), z = x/d over the least common
    denominator d > 0.  Raises ValueError unless z has r entries, each an
    int or a Fraction: a bool, a float or a str is not read as a number."""
    z = tuple(z)
    if len(z) != r or not all(type(x) is int or isinstance(x, Fraction)
                              for x in z):
        raise ValueError(f"z = {z} is not a rational {r}-vector")
    d = math.lcm(*(x.denominator for x in z))
    return (*(x.numerator * (d // x.denominator) for x in z), d)


def _good(pt):
    """Goodness of z = x/d, pt = (*x, d), any d > 0: z = -e or e.z < -r."""
    *x, d = pt
    return all(v == -d for v in x) or sum(x) < -len(x) * d


def is_good(z, r) -> bool:
    """good: z = -e or e.z < -r."""
    return _good(_point(z, r))


@dataclass
class Membership:
    kind: str  # "member" | "nonmember" | "unknown"
    witness_c: tuple | None = None  # generator not vanishing at z


def _cover_check(intervals, tail_from, start):
    """Do the integer intervals (lo, hi|None) plus the tail {t >= tail_from}
    cover every integer t >= start?  Returns (covered, first gap).  One
    sweep over the intervals by increasing lo: t is the least integer not
    yet covered, and an interval starting above t leaves t uncovered."""
    t = start
    for lo, hi in sorted(intervals, key=lambda iv: iv[0]):
        if (tail_from is not None and t >= tail_from) or lo > t:
            break
        if hi is None:
            return True, None
        t = max(t, hi + 1)
    if tail_from is not None and t >= tail_from:
        return True, None
    return False, t


def _t_interval(conds):
    """The integers t >= 0 with a*t + b >= 0 for every integer pair (a, b)
    in conds, as (lo, hi|None), or None when there are none."""
    lo, hi = 0, None
    for a, b in conds:
        if a > 0:
            lo = max(lo, -(b // a))
        elif a < 0:
            hi = b // -a if hi is None else min(hi, b // -a)
        elif b < 0:
            return None
    if hi is not None and lo > hi:
        return None
    return lo, hi


def _half_line(values, tail):
    """The first t >= 0 whose b_c, c = (1+t, -t), of an r = 2 family does
    not vanish, or None when every one does.  Here c+ = (1+t, 0) and
    c- = (0, -t), so the offset (g, o) gives the factors g.s - g_2*t + o + j,
    j = 0 .. g_1*(1+t) - 1.  One vanishes iff w = -(g.z) - o is an integer
    with 0 <= w + g_2*t <= g_1*(1+t) - 1, a t-interval, and binom(s_2, t)
    vanishes for t >= tail = z_2 + 1 when z_2 is an integer >= 0.  The
    pairs (g, w) of ``values`` have w an integer (``_witness``)."""
    intervals = [_t_interval(((g[1], w), (g[0] - g[1], g[0] - 1 - w)))
                 for g, w in values]
    return _cover_check([iv for iv in intervals if iv], tail, 0)[1]


def _point_cover(offsets, x1, x2, d):
    """``_witness``'s (values, tails) at z = (x1, x2)/d: an offset (g, o)
    counts when d divides g.x, and the tail of z_i when d divides x_i >= 0."""
    values = [(g, -(g[0] * x1 + g[1] * x2) // d - o)
              for (g, o), cnt in offsets.items()
              if cnt and not (g[0] * x1 + g[1] * x2) % d]
    return values, [x // d + 1 if x >= 0 and not x % d else None
                    for x in (x2, x1)]


def _line_cover(offsets, a, b, c):
    """``_witness``'s (values, tails) on the whole line a*z_1 + b*z_2 + c
    = 0.  A factor across the line vanishes at one point of it, so b_c
    vanishes on it iff a factor parallel to it does: g = lam*(a, b), where
    g.z = -lam*c, so w = lam*c - o when lam*c is an integer.  There are no
    tails: binom(s_2, t) vanishes on the line only when a = 0, and then no
    factor of b_{e_1} (each has g_1 > 0) is parallel to it, so t = 0 is a
    gap; so for binom(s_1, t) and b_{e_2} when b = 0."""
    k, n = (0, a) if a else (1, b)  # lam = g[k] / n
    return [(g, g[k] * c // n - o) for (g, o), cnt in offsets.items()
            if cnt and g[0] * b == g[1] * a and not g[k] * c % n], (None, None)


def _witness(values, tails):
    """The first c on (1+t, -t), then (-t, 1+t), whose b_c does not vanish
    where ``values`` and ``tails`` were read, or None when every b_c does.
    (-t, 1+t) is (1+t, -t) with g and z swapped, which keeps w."""
    for flip, tail in zip((1, -1), tails):
        gap = _half_line([(g[::flip], w) for g, w in values], tail)
        if gap is not None:
            return (1 + gap, -gap)[::flip]
    return None


def membership_in_ztilde(family: BFunctionFamily, z, box_bound=8) -> Membership:
    """Does every generator b_c vanish at z?

    b_c vanishes at z = x/d (``_point``) iff one of its root hyperplanes
    does (``_roots``): g.x + k*d = 0 for some (g, k).  r <= 2 is decided
    exactly.  At r = 1 the only c is (1).  At r = 2 the c with
    c_1 + c_2 = 1 are the half-lines (1+t, -t) and (-t, 1+t), t >= 0, the
    second being the first with both coordinates swapped.  On each, every
    bracket's vanishing condition is a t-interval, so universal vanishing
    is a finite interval-cover check (``_half_line``).  For r > 2 a box
    |c_i| <= box_bound is scanned; absence of a counterexample there is
    reported as unknown, never as membership.  Raises ValueError unless z
    holds r ints or Fractions (``_point``).
    """
    r = family.r
    pt = _point(z, r)
    if r == 2:
        c = _witness(*_point_cover(family.offsets, *pt))
        return Membership("member" if c is None else "nonmember", c)
    *x, d = pt
    rng = range(-box_bound, box_bound + 1)
    for c in [(1,)] if r == 1 else itertools.product(rng, repeat=r):
        if sum(c) != 1:
            continue
        if not any(sum(map(mul, g, x)) + k * d == 0
                   for g, k in _roots(family, c)):
            return Membership("nonmember", witness_c=tuple(c))
    return Membership("member" if r == 1 else "unknown")


# -- symbolic branch state ----------------------------------------------------

def sym_term(gamma, a, b, mult=1):
    """The bracket [s]^gamma_{a,b} with multiplicity mult, a and b affine
    (b - a concrete), as a state's term: the plain tuple (gamma, a, b, mult,
    deg).  gamma stays over the family's variables, indexed by variable
    number (entry 0 is an unused 0), so specializing a variable the term
    does not touch keeps the term as it is, and the state's active
    variables select the entries that count.  deg is e.gamma over the
    active variables: 1 exactly for a unit bracket, as gamma >= 0."""
    return (0, *gamma), a, b, mult, sum(gamma)


def _affine_signature(a):
    """aff_to_json(a) as json.dumps(..., sort_keys=True) writes it.  The
    keys "coeffs" < "const" are in sorted order, and so are the symbols of
    a canonical affine value; each symbol (a str) is encoded by the encoder
    json.dumps itself uses, and the values are decimal strings that need
    no escaping."""
    const, coeffs = a
    if not coeffs:
        return '{"coeffs": {}, "const": "%s"}' % const
    coeffs = ", ".join(['%s: "%s"' % (encode_basestring_ascii(s), c)
                        for s, c in coeffs])
    return '{"coeffs": {%s}, "const": "%s"}' % (coeffs, const)


def signature(term, vars):
    """The name of a term in a certificate, on the active variables vars:
    the text of ``json.dumps([list(gamma over vars), aff_to_json(a),
    aff_to_json(b), mult], sort_keys=True)``, written directly by
    ``_affine_signature``, with no encoder built per call.  gamma and mult
    are ints (``family_from_terms`` admits nothing else), which json.dumps
    writes as ``str`` does."""
    g, a, b, mult, _ = term
    return "[[%s], %s, %s, %s]" % (
        ", ".join([str(g[v]) for v in vars]),
        _affine_signature(a), _affine_signature(b), mult)


class SymState(NamedTuple):
    """A branch, never changed once built: the active variables, their
    bracket terms, and what the rules read of the values fixed so far.
    K = -(sum of the fixed values) and ``clean`` (no fixed value came from
    a nat_sym case) are carried, not recomputed: the root has K = 0 and is
    clean, and ``branch_state`` hands its child K - value and the parent's
    clean and its case's.  A child shares every term its fixed variable
    does not touch."""
    vars: tuple  # original 1-based variable indices still active
    terms: tuple  # bracket terms (see sym_term) with deg >= 1
    r_global: int
    k_total: tuple  # K = -(sum of fixed values), affine
    clean: bool
    box: dict  # symbol -> least value, see qsing.affine
    not_neg_int: frozenset  # active vars known not to be negative integers


def specialize(terms, var, value):
    """The terms of s_var = value, those without s_var as they are, and
    the scalar brackets (a, b, mult) of the terms it leaves of degree 0."""
    new_terms, scalars = [], []
    for t in terms:
        gi = t[0][var]
        if not gi:
            new_terms.append(t)
            continue
        g, a, b, mult, deg = t
        shift = aff_mul(value, gi)
        a, b = aff_add(a, shift), aff_add(b, shift)
        if deg > gi:
            new_terms.append((g, a, b, mult, deg - gi))
        else:
            scalars.append((a, b, mult))
    return tuple(new_terms), scalars


def sym_state_from_family(family: BFunctionFamily) -> SymState:
    """The root state.  Raises ValueError on a bracket with a < 0, outside
    the rules' domain (see ``reduc_b``)."""
    terms = []
    for t in family.terms():
        if t.a < 0:
            raise ValueError(f"bracket {t} has a = {t.a} < 0")
        terms.append(sym_term(t.gamma, aff_of(t.a), aff_of(t.b), t.mult))
    return SymState(tuple(range(1, family.r + 1)), tuple(terms), family.r,
                    ZERO, True, {}, frozenset())


def check_form_assumption(family: BFunctionFamily) -> bool:
    """Every non-unit-vector bracket satisfies e.gamma <= a (required by the
    multiplicity-one-at-minus-e argument)."""
    degs = ((sum(t.gamma), t.a) for t in family.terms())
    return all(d == 1 or d <= a for d, a in degs)


# -- the rules: one definition each, called by the certifier and the checker --

class CertificateError(Exception):
    pass


def leaf_all_fixed(state: SymState):
    """Every variable specialized on a clean branch (all values negative
    integers), which is automatically good: the r fixed values are each
    <= -1, so e.z <= -r with equality only at z = -e.  Returns "clean" or
    None.  A dirty branch is no leaf: it fixed some z_v = k to a symbol
    k >= 0 that ``branch_state`` bounds from below only, and no other
    fixed value holds k, so e.z = -K has no upper bound on the box."""
    return "clean" if not state.vars and state.clean else None


def leaf_empty_generator(state: SymState, pos):
    """A generator that provably cannot vanish under the branch assumptions,
    for the active position pos: either no bracket involves s_i at all
    (b_{e^i} = 1, mode "no-terms"), or every bracket involving s_i is a
    plain unit bracket with nonnegative lower endpoint while z_i is known
    not to be a negative integer (mode "units-positive").  Returns (mode,
    the brackets involving s_i) or None."""
    var = state.vars[pos]
    touching = [t for t in state.terms if t[0][var] > 0]
    if not touching:
        return "no-terms", touching
    if var not in state.not_neg_int:
        return None
    for t in touching:
        if t[0][var] != 1 or t[4] != 1:  # not the unit bracket of s_i
            return None
        mn = min_of(state.box, t[1])
        if mn is None or mn < 0:
            return None
    return "units-positive", touching


def leaf_last_var(state: SymState):
    """r' = 1: every root of the single generator must be good.  Returns
    (bracket, gmu, g) for each bracket, with gmu/g the lower bound of
    K + (a+1)/g, or None.  A generator without brackets is an
    empty-generator leaf instead.

    The test runs on integers, scaled by g >= 1: the bound is gmu/g with
    gmu the minimum of g*K + a + 1, so it is >= r iff gmu >= g*r, and the
    clean branch's (a+1)/g >= 1 reads min(a+1) >= g.  The box's symbols
    range independently, so where K or a is a constant the minimum is
    g*min(K) + min(a) + 1, and g*K + a is built only when both hold a
    symbol, which may cancel between them."""
    if len(state.vars) != 1 or not state.terms:
        return None
    box, k_total, r = state.box, state.k_total, state.r_global
    var = state.vars[0]
    min_k = min_of(box, k_total)
    bounds = []
    for t in state.terms:
        g, a = t[0][var], t[1]
        min_a = min_of(box, a)
        if k_total[1] and a[1]:
            gmu = min_of(box, aff_add(aff_mul(k_total, g), a))
        elif min_k is None or min_a is None:
            gmu = None
        else:
            gmu = g * min_k + min_a
        if gmu is None or gmu + 1 < g * r:
            return None
        gmu += 1
        if gmu == g * r and not (state.clean and min_a is not None
                                 and min_a + 1 >= g):
            return None
        bounds.append((t, gmu, g))
    return bounds


def unit_root_cases(state: SymState, positions):
    """Lemma (a)'s cases on the index set I of active positions: z_i = -o
    for each root -o of a unit bracket [s_i]_{a,b}, o = a+1 .. b, by i in
    I and then by o.  None when an endpoint is symbolic or a root is not a
    negative integer."""
    cases = []
    units = [t for t in state.terms if t[4] == 1]
    for i in positions:
        var = state.vars[i]
        offsets = set()
        for g, a, b, _, _ in units:
            if g[var] == 1:
                if a[1] or b[1]:
                    return None
                offsets.update(range(a[0] + 1, b[0] + 1))
        if offsets and min(offsets) < 1:
            return None
        cases += [(var, "neg_int", (-o, ()), None, ()) for o in sorted(offsets)]
    return cases


def sign_cases(j_plus, j_minus, symbols):
    """Lemma (b)'s cases in order: z_v = -k, k >= 1, for each variable v in
    J+, then z_v = k, k >= 0, for each v in J-, each under the negations of
    the cases before it.  A case draws its symbol from the iterator
    ``symbols`` only when it is reached, and None once that runs out."""
    kinds = [(v, "neg_int_sym", -1, "not_neg_int") for v in j_plus] + \
            [(v, "nat_sym", 1, "not_nat") for v in j_minus]
    negations = ()
    for var, kind, sign, flag in kinds:
        sym = next(symbols, None)
        yield var, kind, aff_sym(sym, sign), sym, negations
        negations += ((var, flag),)


def branch_state(state: SymState, case):
    """The state on the branch of ``case``, built in one call, with the
    scalar brackets its specialization leaves: the variable is fixed to
    the value, the symbol is bound to its least value, and the variables
    negated as negative integers join ``not_neg_int``.

    A case is the plain tuple (var, kind, value, symbol, negations): the
    branch z_var = value, of kind "neg_int" (value -o for an integer
    o >= 1, symbol None), "neg_int_sym" (value -k for a new symbol k >= 1)
    or "nat_sym" (value k for a new symbol k >= 0), under the (var, flag)
    pairs of negations, never on the case's own var; no rule reads the
    flag "not_nat"."""
    var, kind, value, symbol, negations = case
    box = state.box
    if symbol is not None:
        if symbol in box:
            raise CertificateError(f"symbol {symbol} is already bound")
        box = with_symbol(box, symbol, 1 if kind == "neg_int_sym" else 0)
    pos = state.vars.index(var)
    terms, scalars = specialize(state.terms, var, value)
    not_neg_int = state.not_neg_int - {var} | {
        v for v, flag in negations if flag == "not_neg_int"}
    return SymState(state.vars[:pos] + state.vars[pos + 1:], terms,
                    state.r_global, aff_sub(state.k_total, value),
                    state.clean and kind != "nat_sym", box,
                    not_neg_int), scalars


def _gammas(state: SymState):
    """The distinct directions gamma of the non-unit brackets, sorted."""
    vars = state.vars
    return sorted({tuple([t[0][v] for v in vars])
                   for t in state.terms if t[4] != 1})


def _lemma_a_tuples(state: SymState, positions):
    """The tuples lemma (a) needs a certificate for: the distinct terms of
    each element of the product of the Gamma_i, i in I.  There are none
    when some Gamma_i is empty.  Two terms are the same bracket when they
    agree on the active variables, endpoints and multiplicity."""
    vars = state.vars
    nonunit = [t for t in state.terms if t[4] != 1]
    pools = [[t for t in nonunit if t[0][vars[i]] > 0] for i in positions]
    if not all(pools):
        return
    for combo in itertools.product(*pools):
        distinct = []
        for t in combo:
            if not any(u is t or (u[1:4] == t[1:4] and all(
                    u[0][v] == t[0][v] for v in vars)) for u in distinct):
                distinct.append(t)
        yield distinct


# -- the searches: certifier only ---------------------------------------------

def _reduc_a_tuple_cert(state: SymState, terms, solve=solve):
    """u >= 0 with sum u*gamma = e and (conservatively)
    sum u*(a+1) - sum(fixed) > r_global, as the certificate's entry
    {"tuple": the terms' signatures, "u": u as strings}; None if
    infeasible.  ``solve`` decides the integer LP system; the certifier
    passes its run's memo.

    When some coordinate d of e lies outside the support of every gamma,
    the row sum u*gamma_d = 1 reads 0 = 1, so the system is infeasible and
    None is returned before it is built."""
    rows = [[t[0][v] for t in terms] for v in state.vars]
    if not all(any(row) for row in rows):
        return None
    k = len(terms)
    mins = [min_of(state.box, t[1]) for t in terms]
    min_k = min_of(state.box, state.k_total)
    if min_k is None or None in mins:
        return None
    cons = [(row, "=", 1) for row in rows]
    cons += [([-int(i == j) for j in range(k)], "<=", 0) for i in range(k)]
    cons.append(([-w - 1 for w in mins], "<", min_k - state.r_global))
    point = solve(cons, k)
    if point is None:
        return None
    return {"tuple": [signature(t, state.vars) for t in terms],
            "u": [str(x) for x in point]}


def reduc_a(state: SymState, positions, solve=solve):
    """Lemma (a) on the index set I of active positions: an LP certificate
    for every tuple of ``_lemma_a_tuples``, and the unit-root cases.
    Returns (certs, cases), or None when some tuple has no certificate or
    ``unit_root_cases`` does not apply.  The tuples go first: most index
    sets fail at one of them, and then no case is built."""
    certs = []
    for terms in _lemma_a_tuples(state, positions):
        cert = _reduc_a_tuple_cert(state, terms, solve)
        if cert is None:
            return None
        certs.append(cert)
    cases = unit_root_cases(state, positions)
    if cases is None:
        return None
    return certs, cases


@dataclass
class ReducBData:
    j_set: tuple  # active positions in J
    j_plus: tuple
    j_minus: tuple
    farkas: tuple  # separating functional proving e not in E_J
    memberships: dict  # position -> (lambdas, mus, sign)


def reduc_b(state: SymState):
    """Lemma (b): maximal J with e outside cone(Gamma) + span(e^J), then the
    partition of the complement.  None when e is already in the cone.

    The split (``sign_cases``) assumes that a unit factor s_v + i, v in
    J+, vanishes only where z_v = -k, k >= 1: i >= 1, so every unit
    bracket [s_v]_{a,b} has a >= 0 on the box.  With a = -1 it misses
    z_v = 0, as on s_1*(s_2 + 1), whose (0, -1) lies in Z_gen.  The guard
    of ``sym_state_from_family`` keeps the assumption at the root.  A
    derived state need not keep it (z_1 = -k turns [s]^{(1,1)}_{0,b} into
    [s_2]_{-k,b-k}); whether the split is sound there is not proved."""
    rcur = len(state.vars)
    gammas = _gammas(state)
    e = (1,) * rcur

    def unit(i):
        return tuple(1 if d == i else 0 for d in range(rcur))

    if cone_membership(e, gammas) is not None:
        return None
    j_set = []
    for i in range(rcur):
        lines = [unit(j) for j in j_set] + [unit(i)]
        if cone_membership(e, gammas, lines) is None:
            j_set.append(i)
    lines = [unit(j) for j in j_set]
    farkas = separating_functional(e, gammas, lines)
    assert farkas is not None
    jc = [i for i in range(rcur) if i not in j_set]
    j_plus, j_minus, members = [], [], {}
    for i in jc:
        mp = cone_membership(e, gammas + [unit(i)], lines)
        mm = cone_membership(e, gammas + [tuple(-x for x in unit(i))], lines)
        # e outside E_J makes the two memberships exclusive (convexity)
        if mp is not None and mm is not None:
            raise AssertionError("J_plus and J_minus overlap; e in E_J?")
        if mp is not None:
            j_plus.append(i)
            members[i] = (mp[0], mp[1], +1)
        elif mm is not None:
            j_minus.append(i)
            members[i] = (mm[0], mm[1], -1)
        else:
            raise AssertionError("J not maximal: complement index in neither cone")
    return ReducBData(tuple(j_set), tuple(j_plus), tuple(j_minus),
                      tuple(farkas), members)


# -- case-split certification -------------------------------------------------

@dataclass
class CertNode:
    rule: str
    data: dict = field(default_factory=dict)
    branches: list = field(default_factory=list)  # (assumption dict, CertNode)


@dataclass
class CertifyOutcome:
    kind: str  # "certificate" | "refuted" | "inconclusive"
    certificate: CertNode | None = None
    witness: tuple | None = None
    reason: str = ""


def _leaf_node(state: SymState):
    """The node of the first leaf rule that holds on the state, or None."""
    mode = leaf_all_fixed(state)
    if mode is not None:
        return CertNode("leaf_all_fixed", {"mode": mode})
    for pos, var in enumerate(state.vars):
        got = leaf_empty_generator(state, pos)
        if got is not None:
            mode, touching = got
            data = {"var": var, "mode": mode}
            if touching:
                data["terms"] = [signature(t, state.vars) for t in touching]
            return CertNode("leaf_empty_generator", data)
    bounds = leaf_last_var(state)
    if bounds is not None:
        return CertNode("leaf_last_var", {
            "bounds": [(signature(t, state.vars), str(Fraction(gmu, g)))
                       for t, gmu, g in bounds]})
    return None


def _case_json(case, scalars):
    var, kind, value, symbol, negations = case
    out = {"var": var, "kind": kind, "value": aff_to_json(value)}
    if symbol is not None:
        out["symbol"] = symbol
        out["negations"] = [{"var": v, "flag": f} for v, f in negations]
    out["scalars"] = [(aff_to_json(a), aff_to_json(b), m) for a, b, m in scalars]
    return out


@dataclass
class _Run:
    """What one ``certify_all_good`` call shares across its branches: the
    iterator of fresh symbols and two memos.  ``reduc_b`` reads the state
    only through r' and the non-unit directions Gamma, and lemma (a)'s LP
    is a function of its integer system, so branches that agree on those
    reuse the answer.  Each call makes its own run; nothing outlives it."""
    symbols: object
    lemma_b: dict = field(default_factory=dict)  # (r', Gamma) -> ReducBData
    lps: dict = field(default_factory=dict)  # (nvars, system) -> point or None

    def reduc_b(self, state: SymState):
        key = (len(state.vars), tuple(_gammas(state)))
        if key not in self.lemma_b:
            self.lemma_b[key] = reduc_b(state)
        return self.lemma_b[key]

    def solve(self, cons, nvars):
        key = (nvars, tuple((tuple(c), rel, rhs) for c, rel, rhs in cons))
        if key not in self.lps:
            self.lps[key] = solve(cons, nvars)
        return self.lps[key]


def _close(state: SymState, node: CertNode, cases, run: _Run):
    """Certify the branch of each case in turn into node.branches; False
    at the first branch that does not close."""
    for case in cases:
        sub, scalars = branch_state(state, case)
        child = _certify(sub, run)
        if child is None:
            return False
        node.branches.append((_case_json(case, scalars), child))
    return True


def _certify(state: SymState, run: _Run):
    """A certificate tree for the state, or None when it does not close.

    The recursion ends without a depth bound: every case of either lemma
    fixes one active variable, and ``branch_state`` removes it from the
    branch's state, so a root-to-leaf path fixes distinct variables and
    is at most r long."""
    leaf = _leaf_node(state)
    if leaf is not None:
        return leaf
    rcur = len(state.vars)

    # reduc (a): try index sets small-first; commit to the first that closes
    for size in range(1, rcur + 1):
        for positions in itertools.combinations(range(rcur), size):
            got = reduc_a(state, positions, run.solve)
            if got is None or not (got[0] or got[1]):
                continue  # not applicable, or nothing to say
            certs, cases = got
            node = CertNode("reduc_a", {
                "I": [state.vars[i] for i in positions],
                "certs": certs,
            })
            if _close(state, node, cases, run):
                return node

    # reduc (b)
    rb = run.reduc_b(state)
    if rb is not None:
        node = CertNode("reduc_b", {
            "J": [state.vars[i] for i in rb.j_set],
            "Jplus": [state.vars[i] for i in rb.j_plus],
            "Jminus": [state.vars[i] for i in rb.j_minus],
            "farkas": [str(x) for x in rb.farkas],
            "memberships": {
                str(state.vars[i]): {
                    "lambdas": [str(x) for x in lm],
                    "mus": [str(x) for x in mu],
                    "sign": sg,
                } for i, (lm, mu, sg) in rb.memberships.items()
            },
        })
        cases = sign_cases(node.data["Jplus"], node.data["Jminus"], run.symbols)
        if _close(state, node, cases, run):
            return node
    return None


def _line(g, k):
    """The line g.z + k = 0 as its integer triple (a, b, c), gcd 1."""
    d = math.gcd(g[0], g[1], k)
    return g[0] // d, g[1] // d, k // d


def _meet(l1, l2):
    """The meet of two lines (a, b, c) as (x_1, x_2, d), z = x/d, d > 0 and
    gcd 1; None when they are parallel."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    det = a1 * b2 - a2 * b1
    if not det:
        return None
    x1, x2 = b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
    if det < 0:
        x1, x2, det = -x1, -x2, -det
    d = math.gcd(x1, x2, det)
    return x1 // d, x2 // d, det // d


def _contained_points(line, dirs, level):
    """The meets of a line with g.z = -v for each g in dirs across it and
    |v| <= l0, the level of the first bad point met.  A point at level l
    is one of them with |v| <= l, so they hold the line's least bad point.
    The caller passes a line that holds bad points, so the loop ends."""
    across = [g for g in dirs if g[0] * line[1] != g[1] * line[0]]
    points, top, v = [], None, 0
    while top is None or v <= top:
        for g in across:
            for w in {v, -v}:
                points.append(_meet(line, (g[0], g[1], w)))
                if top is None and not _good(points[-1]):
                    top = level(points[-1])
        v += 1
    return points


def _refute(family: BFunctionFamily):
    """The bad common zero of the generators b_c least in (level, z)
    order, or None when every common zero is good (see
    ``certify_all_good``); r = 2 only.  A member here is a point of Z_gen,
    where every b_c vanishes (``membership_in_ztilde``).  The level
    of z is the least |g.z| + |g'.z| over independent g, g' among the
    family's and the coordinate directions with both values integers."""
    if family.r != 2:
        return None
    dirs = sorted({g for (g, _), n in family.offsets.items() if n}
                  | {(1, 0), (0, 1)})
    pairs = [(g, h) for g, h in itertools.combinations(dirs, 2)
             if g[0] * h[1] != g[1] * h[0]]

    def level(pt):
        x1, x2, d = pt
        vals = {g: abs(g[0] * x1 + g[1] * x2) // d for g in dirs
                if not (g[0] * x1 + g[1] * x2) % d}
        return min(vals[g] + vals[h] for g, h in pairs
                   if g in vals and h in vals)

    lines = [{_line(g, k) for g, k in _roots(family, c)}
             for c in ((1, 0), (0, 1))]
    points = {_meet(l1, l2) for l1 in lines[0] for l2 in lines[1]}
    members = set()
    for line in lines[0] & lines[1]:
        c = _witness(*_line_cover(family.offsets, *line))
        if c is None:
            a, b, k = line
            if a != b or k <= 2 * a:  # else e.z < -2 on the whole line
                members.update(_contained_points(line, dirs, level))
            continue
        points.update(_meet(line, _line(g, k)) for g, k in _roots(family, c))
    points.discard(None)
    bad = sorted((level(pt), Fraction(pt[0], pt[2]), Fraction(pt[1], pt[2]), pt)
                 for pt in points | members if not _good(pt))
    for _, z1, z2, pt in bad:
        if pt in members or _witness(*_point_cover(family.offsets, *pt)) is None:
            return z1, z2
    return None


def certify_all_good(family: BFunctionFamily) -> CertifyOutcome:
    """Prove every element of Z(B~) is good, or exhibit a bad common zero
    of the generators b_c.

    Z(B~) lies in Z_gen, the common zeros of the b_c with e.c = 1, since
    each b_c lies in B~ (Budur-Mustata-Saito, Compositio 2006).  So a
    certificate that every member of Z_gen is good is sound for Z(B~); a
    refutation shows a bad member of Z_gen only, and whether Z_gen =
    Z(B~) is open.

    Alternates the reduction lemmas with integer case splits; a sound
    certificate tree is returned on success.  On failure at r = 2,
    ``_refute`` looks for a bad member of Z_gen among finitely many
    candidates, with no bound, and finds one whenever there is one:

    * Z_gen lies in Z(b_{e_1}) and in Z(b_{e_2}), finite unions of root
      lines (``_roots``), so a member is a meet of a line of each or lies
      on a line L both share.
    * b_c vanishes on all of L iff one of its factors parallel to L does,
      an interval cover on those factors alone (``_line_cover``).  If
      every b_c has one, L lies in Z_gen and ``_contained_points`` holds
      L's least bad point; if not, the first b_c without one, the witness,
      vanishes on L only where L meets its root lines (its factor lines
      and the binomial lines z_i = j, 0 <= j < -c_i), which hold every
      member on L.
    * Every member outside the candidates comes after a candidate in
      (level, z) order, so the least bad candidate that is a member is the
      least bad member, the witness the scan over levels once found.
    """
    state = sym_state_from_family(family)
    node = _certify(state, _Run(f"k{i}" for i in itertools.count(1)))
    if node is not None:
        return CertifyOutcome("certificate", certificate=node)
    witness = _refute(family)
    if witness is not None:
        return CertifyOutcome("refuted", witness=witness)
    return CertifyOutcome("inconclusive",
                          reason="case analysis exhausted without closing")


# -- the re-verification: checker only ----------------------------------------

def _var(var):
    """A variable the certificate names: an int, not a bool or a float,
    which would compare equal to one (a JSON true is not variable 1)."""
    if type(var) is not int:
        raise ValueError(f"{var!r} is not a variable")
    return var


def _position(state: SymState, var, rule):
    if _var(var) not in state.vars:
        raise CertificateError(f"{rule} on inactive variable {var}")
    return state.vars.index(var)


def _check_cases(state: SymState, rule, cases, branches) -> None:
    """The branches must be the rule's cases, in order, and each close."""
    if [(_var(a["var"]), a["kind"], aff_from_json(a["value"]), a.get("symbol"),
         tuple((_var(n["var"]), n["flag"]) for n in a.get("negations", ())))
            for a, _ in branches] != cases:
        raise CertificateError(f"{rule} branches are not the rule's cases")
    for case, (_, child) in zip(cases, branches):
        _check_node(branch_state(state, case)[0], child)


def _check_node(state: SymState, node) -> None:
    rule, data, branches = node["rule"], node["data"], node["branches"]
    rcur = len(state.vars)

    if rule == "leaf_all_fixed":
        if leaf_all_fixed(state) != "clean" or data["mode"] != "clean":
            raise CertificateError("leaf_all_fixed does not hold")
        return

    if rule == "leaf_empty_generator":
        got = leaf_empty_generator(state, _position(state, data["var"], rule))
        if got is None or got[0] != data["mode"]:
            raise CertificateError("leaf_empty_generator does not hold")
        return

    if rule == "leaf_last_var":
        if leaf_last_var(state) is None:
            raise CertificateError("leaf_last_var does not hold")
        return

    if rule == "reduc_a":
        positions = [_position(state, v, rule) for v in data["I"]]
        stored = {}
        for c in data["certs"]:
            key = tuple(sorted(c["tuple"]))
            stored[key] = (list(c["tuple"]), *int_row(c["u"]))  # u = ints/scale
        min_k = min_of(state.box, state.k_total)
        if min_k is None:
            raise CertificateError("unbounded K in reduc_a")
        for distinct in _lemma_a_tuples(state, positions):
            by_sig = {signature(t, state.vars): t for t in distinct}
            key = tuple(sorted(by_sig))
            if key not in stored:
                raise CertificateError("missing LP certificate for a tuple")
            sig_order, u, scale = stored[key]
            distinct = [by_sig[s] for s in sig_order]
            if len(u) != len(distinct) or any(x < 0 for x in u):
                raise CertificateError("bad multipliers")
            for v in state.vars:
                if sum(ux * t[0][v] for ux, t in zip(u, distinct)) != scale:
                    raise CertificateError("multipliers do not combine to e")
            total = 0
            for ux, t in zip(u, distinct):
                mn = min_of(state.box, t[1])
                if mn is None:
                    raise CertificateError("unbounded bracket endpoint")
                total += ux * (mn + 1)
            if not total + min_k * scale > state.r_global * scale:
                raise CertificateError("certificate bound not above r")
        cases = unit_root_cases(state, positions)
        if cases is None:
            raise CertificateError("reduc_a unit roots are symbolic or not negative")
        _check_cases(state, rule, cases, branches)
        return

    if rule == "reduc_b":
        gammas = _gammas(state)
        jvars = data["J"]
        jpos = [_position(state, v, rule) for v in jvars]
        y = int_row(data["farkas"])[0]  # a positive multiple
        if len(y) != rcur:
            raise CertificateError("farkas length mismatch")
        for g in gammas:
            if sum(a * b for a, b in zip(y, g)) > 0:
                raise CertificateError("farkas does not separate a gamma")
        for p in jpos:
            if y[p] != 0:
                raise CertificateError("farkas not orthogonal to J")
        if sum(y) <= 0:
            raise CertificateError("farkas does not separate e")
        jplus = [_var(v) for v in data["Jplus"]]
        jminus = [_var(v) for v in data["Jminus"]]
        comp = [v for v in state.vars if v not in jvars]
        if sorted(jplus + jminus) != sorted(comp) or set(jplus) & set(jminus):
            raise CertificateError("J_plus/J_minus is not a partition")
        for v in comp:
            ms = data["memberships"][str(v)]
            nl = len(ms["lambdas"])  # lambdas, mus = ints/scale
            row, scale = int_row([*ms["lambdas"], *ms["mus"]])
            lambdas, mus, sign = row[:nl], row[nl:], ms["sign"]
            if type(sign) is not int:
                raise ValueError(f"membership sign {sign!r} is not an integer")
            if (sign > 0) != (v in jplus):
                raise CertificateError("membership sign inconsistent")
            if any(x < 0 for x in lambdas):
                raise CertificateError("negative cone multiplier")
            p = state.vars.index(v)
            gens = list(gammas) + [tuple((1 if d == p else 0) * sign
                                         for d in range(rcur))]
            if len(lambdas) != len(gens) or len(mus) != len(jpos):
                raise CertificateError("membership certificate shape")
            for d in range(rcur):
                total = sum(l * g[d] for l, g in zip(lambdas, gens))
                total += sum(m for m, jp in zip(mus, jpos) if jp == d)
                if total != scale:
                    raise CertificateError("membership does not combine to e")
        symbols = iter([assume.get("symbol") for assume, _ in branches])
        _check_cases(state, rule, list(sign_cases(jplus, jminus, symbols)),
                     branches)
        return

    raise CertificateError(f"unknown rule {rule}")


def verify_certificate(family: BFunctionFamily, cert) -> tuple:
    """Re-verify a goodness certificate (a CertNode or its JSON form)
    against the family from scratch.  Returns (ok, message).  Node data
    that is missing or of the wrong type is a rejection too, with a
    message starting "malformed certificate"; so is a certificate nested
    deeper than the interpreter's recursion limit."""
    try:
        if isinstance(cert, CertNode):
            cert = cert_to_json(cert)
        _check_node(sym_state_from_family(family), cert)
        return True, "certificate verified"
    except CertificateError as exc:
        return False, str(exc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            ZeroDivisionError, RecursionError) as exc:
        return False, f"malformed certificate: {type(exc).__name__}: {exc}"


def cert_to_json(node: CertNode):
    return {
        "rule": node.rule,
        "data": node.data,
        "branches": [[assume, cert_to_json(child)]
                     for assume, child in node.branches],
    }


# -- rational singularities verdict -------------------------------------------

@dataclass
class Verdict:
    kind: str  # "rational_singularities" | "not_certified" | "not_applicable"
    reason: str = ""
    certificate: CertNode | None = None
    witness: tuple | None = None
    family: BFunctionFamily | None = None
    largest_root: Fraction | None = None
    largest_root_mult: int | None = None
    reducedness: object = None


def single_variable_roots(family: BFunctionFamily):
    """Roots of the expanded one-variable b-function at m = (1), with
    multiplicities, sorted descending."""
    if family.r != 1:
        raise ValueError(f"single-variable roots need r = 1, got r = {family.r}")
    roots = {}
    for (g, const), cnt in expand(family, (1,)).items():
        root = Fraction(-const, g[0])
        roots[root] = roots.get(root, 0) + cnt
    return sorted(roots.items(), reverse=True)


def rational_singularities_verdict(spec: ZeroSetSpec) -> Verdict:
    """Decision pipeline for rational singularities of ``spec``'s zero set,
    that of its selected fundamental semi-invariants.

    r = 1 (hypersurface): decided directly from the single-variable
    b-function (largest root -1 with multiplicity one).  r >= 2: the zero
    set must be a reduced set-theoretic complete intersection; then the
    good-root certification route applies, with the bracket-form condition
    e.gamma <= a required for the multiplicity-one argument at -e.
    """
    fam = compute_bfunction(spec.quiver, spec.alpha, spec.selected_simples)
    r = len(spec.selected)

    if r == 1:
        roots = single_variable_roots(fam)
        if not roots:
            return Verdict("not_applicable", reason="constant b-function",
                           family=fam)
        top, mult = roots[0]
        v = Verdict("rational_singularities" if (top == -1 and mult == 1)
                    else "not_certified",
                    family=fam, largest_root=top, largest_root_mult=mult)
        if v.kind == "not_certified":
            v.reason = f"largest root {top} (multiplicity {mult}) is not -1 simple"
        return v

    # the bracket form condition is cheap and already blocks certification,
    # so it is checked before the expensive orbit geometry
    if not check_form_assumption(fam):
        v = Verdict("not_certified", family=fam,
                    reason="bracket form condition e.gamma <= a fails")
        v.witness = _refute(fam)
        return v

    comps = components(spec)
    if not is_set_theoretic_ci(spec, comps):
        return Verdict("not_applicable", family=fam,
                       reason="zero set is not a set-theoretic complete intersection")
    red = reducedness_report(spec, comps)
    if red.verdict != "reduced":
        return Verdict("not_applicable", family=fam, reducedness=red,
                       reason=f"reducedness verdict: {red.verdict} ({red.reason})")

    out = certify_all_good(fam)
    if out.kind == "certificate":
        return Verdict("rational_singularities", family=fam, reducedness=red,
                       certificate=out.certificate)
    if out.kind == "refuted":
        return Verdict("not_certified", family=fam, reducedness=red,
                       witness=out.witness,
                       reason="bad common zero of the generators b_c")
    return Verdict("not_certified", family=fam, reducedness=red,
                   reason=out.reason)
