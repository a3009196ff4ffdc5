"""Bernstein-Sato linkage: generators b_c of the ideal associated with a
multi-variable b-function family, the good-root test, exact reduction
lemmas over rational LP, a case-split certification driver, and
rational-singularity verdicts.

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
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .affine import Affine, Box, aff_from_json, aff_to_json
from .brackets import BFunctionFamily, expand
from .fmlp import cone_membership, int_row, separating_functional, solve


def _binom_value(z, m):
    v = Fraction(1)
    for t in range(m):
        v *= Fraction(z) - t
    return v / math.factorial(m)


@dataclass
class GeneratorBc:
    c: tuple
    factors: dict  # (gamma, const) -> multiplicity; const is Fraction/int
    binomial_factors: tuple  # ((variable index i, order -c_i), ...)

    def value_at(self, z):
        val = Fraction(1)
        for (g, const), cnt in self.factors.items():
            lin = sum(Fraction(gi) * Fraction(zi) for gi, zi in zip(g, z)) + const
            val *= lin ** cnt
        for i, order in self.binomial_factors:
            val *= _binom_value(z[i - 1], order)
        return val


def generator_bc(family: BFunctionFamily, c) -> GeneratorBc:
    """b_c = b_{c+}(s + c-) * prod_{c_i<0} binom(s_i, -c_i), e.c = 1."""
    c = tuple(int(x) for x in c)
    if len(c) != family.r or sum(c) != 1:
        raise ValueError(f"c = {c} is not a {family.r}-vector with e.c = 1")
    cplus = tuple(max(x, 0) for x in c)
    cminus = tuple(x - p for x, p in zip(c, cplus))
    factors = {}
    for (g, const), cnt in expand(family, cplus).items():
        shift = sum(gi * mi for gi, mi in zip(g, cminus))
        key = (g, const + shift)
        factors[key] = factors.get(key, 0) + cnt
    binoms = tuple((i + 1, -c[i]) for i in range(len(c)) if c[i] < 0)
    return GeneratorBc(c, factors, binoms)


def is_good(z, r) -> bool:
    """good: z = -e or e.z < -r."""
    z = [Fraction(x) for x in z]
    if all(x == -1 for x in z):
        return True
    return sum(z) < -Fraction(r)


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


def _half_line(offsets, z):
    """The generators b_c with c = (1+t, -t), t >= 0, of an r = 2 family
    at z, from its offsets (g, o) of nonzero multiplicity.

    Here c+ = (1+t, 0) and c- = (0, -t), so the offset (g, o) gives the
    factors g.s - g_2*t + o + j, j = 0 .. g_1*(1+t) - 1.  One of them
    vanishes at z iff w = -(g.z) - o is an integer with
    0 <= w + g_2*t <= g_1*(1+t) - 1, a t-interval; the factor
    binom(s_2, t) vanishes iff z_2 is an integer with 0 <= z_2 < t.
    Returns the first t whose b_c does not vanish at z, or None when every
    one does.
    """
    intervals = []
    for g, o in offsets:
        w = -(g[0] * z[0] + g[1] * z[1]) - o
        if w.denominator != 1:
            continue
        w = int(w)
        iv = _t_interval(((g[1], w), (g[0] - g[1], g[0] - 1 - w)))
        if iv:
            intervals.append(iv)
    tail = int(z[1]) + 1 if z[1].denominator == 1 and z[1] >= 0 else None
    return _cover_check(intervals, tail, 0)[1]


def membership_in_ztilde(family: BFunctionFamily, z, box_bound=8) -> Membership:
    """Does every generator b_c vanish at z?

    r <= 2 is decided exactly: the c with c_1 + c_2 = 1 are the half-lines
    (1+t, -t) and (-t, 1+t), t >= 0, the second being the first with both
    coordinates swapped.  On each, every bracket's vanishing condition is a
    t-interval, so universal vanishing is a finite interval-cover check
    (``_half_line``).  For r > 2 a box |c_i| <= box_bound is scanned;
    absence of a counterexample there is reported as unknown, never as
    membership.
    """
    r = family.r
    z = tuple(Fraction(x) for x in z)
    if r == 1:
        gen = generator_bc(family, (1,))
        if gen.value_at(z) == 0:
            return Membership("member")
        return Membership("nonmember", witness_c=(1,))
    if r == 2:
        offsets = [g_o for g_o, cnt in family.offsets.items() if cnt]
        swapped = [((g[1], g[0]), o) for g, o in offsets]
        for side, offs, zz in (("pos", offsets, z), ("neg", swapped, z[::-1])):
            gap = _half_line(offs, zz)
            if gap is not None:
                c = (1 + gap, -gap)
                return Membership("nonmember",
                                  witness_c=c if side == "pos" else c[::-1])
        return Membership("member")

    # r > 2: box scan
    rng = range(-box_bound, box_bound + 1)
    for c in itertools.product(rng, repeat=r):
        if sum(c) != 1:
            continue
        if generator_bc(family, c).value_at(z) != 0:
            return Membership("nonmember", witness_c=tuple(c))
    return Membership("unknown")


# -- symbolic branch state ----------------------------------------------------

@dataclass(frozen=True)
class SymTerm:
    gamma: tuple  # over active variables
    a: Affine
    b: Affine  # b - a concrete
    mult: int = 1

    def signature(self):
        return json.dumps([list(self.gamma), aff_to_json(self.a),
                           aff_to_json(self.b), self.mult], sort_keys=True)


def _is_unit(gamma):
    return gamma.count(0) == len(gamma) - 1 and sum(gamma) == 1


@dataclass
class SymState:
    vars: tuple  # original 1-based variable indices still active
    terms: tuple  # SymTerm over the active variables
    fixed: tuple  # ((orig var, Affine value, clean_flag), ...) in fixing order
    box: Box
    flags: dict  # orig var -> frozenset of {"not_neg_int", "not_nat"}
    r_global: int
    k_total: Affine = field(init=False)  # K = -(sum of fixed values)

    def __post_init__(self):
        self.k_total = -sum((v for _, v, _ in self.fixed), Affine(0))

    @property
    def clean(self):
        return all(cl for _, _, cl in self.fixed)

    def specialize(self, pos, value: Affine, clean_flag):
        var = self.vars[pos]
        new_terms = []
        scalars = []
        for t in self.terms:
            gi = t.gamma[pos]
            g2 = t.gamma[:pos] + t.gamma[pos + 1:]
            if gi == 0:
                new_terms.append(SymTerm(g2, t.a, t.b, t.mult))
                continue
            shift = value * gi
            a, b = t.a + shift, t.b + shift
            if any(g2):
                new_terms.append(SymTerm(g2, a, b, t.mult))
            else:
                scalars.append((a, b, t.mult))
        flags = {v: f for v, f in self.flags.items() if v != var}
        st = SymState(self.vars[:pos] + self.vars[pos + 1:], tuple(new_terms),
                      self.fixed + ((var, value, clean_flag),), self.box,
                      flags, self.r_global)
        return st, scalars


def sym_state_from_family(family: BFunctionFamily) -> SymState:
    terms = tuple(
        SymTerm(t.gamma, Affine.of(t.a), Affine.of(t.b), t.mult)
        for t in family.terms()
    )
    return SymState(tuple(range(1, family.r + 1)), terms, (), Box(), {},
                    family.r)


def check_form_assumption(family: BFunctionFamily) -> bool:
    """Every non-unit-vector bracket satisfies e.gamma <= a (required by the
    multiplicity-one-at-minus-e argument)."""
    return all(_is_unit(t.gamma) or sum(t.gamma) <= t.a for t in family.terms())


# -- the rules: one definition each, called by the certifier and the checker --

class CertificateError(Exception):
    pass


def leaf_all_fixed(state: SymState):
    """Every variable specialized.  A clean branch (all values negative
    integers) is automatically good: the r fixed values are each <= -1, so
    e.z <= -r with equality only at z = -e.  A dirty branch needs the
    strict total bound.  Returns ("clean", None), ("strict", max of e.z)
    or None."""
    if state.vars:
        return None
    if state.clean:
        return "clean", None
    mn = state.box.min_of(state.k_total)  # e.z = -K
    if mn is not None and mn > state.r_global:
        return "strict", -mn
    return None


def leaf_empty_generator(state: SymState, pos):
    """A generator that provably cannot vanish under the branch assumptions,
    for the active position pos: either no bracket involves s_i at all
    (b_{e^i} = 1, mode "no-terms"), or every bracket involving s_i is a
    plain unit bracket with nonnegative lower endpoint while z_i is known
    not to be a negative integer (mode "units-positive").  Returns (mode,
    the brackets involving s_i) or None."""
    touching = [t for t in state.terms if t.gamma[pos] > 0]
    if not touching:
        return "no-terms", touching
    if "not_neg_int" not in state.flags.get(state.vars[pos], frozenset()):
        return None
    unit = tuple(1 if d == pos else 0 for d in range(len(state.vars)))
    for t in touching:
        if t.gamma != unit:
            return None
        mn = state.box.min_of(t.a)
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
    clean branch's (a+1)/g >= 1 reads min(a+1) >= g."""
    if len(state.vars) != 1 or not state.terms:
        return None
    k_total = state.k_total
    r = state.r_global
    bounds = []
    for t in state.terms:
        g = t.gamma[0]
        gmu = state.box.min_of(k_total * g + t.a + 1)
        if gmu is None or gmu < g * r:
            return None
        if gmu == g * r:
            lo = state.box.min_of(t.a + 1)
            if not (state.clean and lo is not None and lo >= g):
                return None
        bounds.append((t, gmu, g))
    return bounds


@dataclass(frozen=True)
class Case:
    """One branch of a case split: z_var = value.  The kinds are "neg_int"
    (value -o for an integer o >= 1), "neg_int_sym" (value -k for a new
    symbol k >= 1) and "nat_sym" (value k for a new symbol k >= 0).
    negations holds the (var, flag) pairs the branch assumes besides."""
    var: int
    kind: str
    value: Affine
    symbol: str | None = None
    negations: tuple = ()


def unit_root_cases(state: SymState, positions):
    """Lemma (a)'s cases on the index set I of active positions: z_i = -o
    for each root -o of a unit bracket [s_i]_{a,b}, o = a+1 .. b, by i in
    I and then by o.  None when an endpoint is symbolic or a root is not a
    negative integer."""
    cases = []
    units = [t for t in state.terms if _is_unit(t.gamma)]
    for i in positions:
        offsets = set()
        for t in units:
            if t.gamma[i] == 1:
                if t.a.coeffs or t.b.coeffs:
                    return None
                offsets.update(range(t.a.const + 1, t.b.const + 1))
        if offsets and min(offsets) < 1:
            return None
        cases += [Case(state.vars[i], "neg_int", Affine(-o))
                  for o in sorted(offsets)]
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
        yield Case(var, kind, Affine.sym(sym, sign), sym, negations)
        negations += ((var, flag),)


def branch_state(state: SymState, case: Case):
    """The state on the branch of ``case``, with the scalar brackets its
    specialization leaves: the negation flags are set, the symbol is bound
    to its domain, and the variable is fixed to the value."""
    box = state.box
    if case.symbol is not None:
        if any(s == case.symbol for s, _, _ in box.domains):
            raise CertificateError(f"symbol {case.symbol} is already bound")
        box = box.with_symbol(case.symbol, 1 if case.kind == "neg_int_sym" else 0)
    st, scalars = state.specialize(state.vars.index(case.var), case.value,
                                   case.kind != "nat_sym")
    st.box = box
    for var, flag in case.negations:  # the case's own var is never negated
        st.flags[var] = st.flags.get(var, frozenset()) | {flag}
    return st, scalars


def _gammas(state: SymState):
    """The distinct directions gamma of the non-unit brackets, sorted."""
    return sorted({t.gamma for t in state.terms if not _is_unit(t.gamma)})


def _lemma_a_tuples(state: SymState, positions):
    """The tuples lemma (a) needs a certificate for: the distinct terms of
    each element of the product of the Gamma_i, i in I.  There are none
    when some Gamma_i is empty."""
    nonunit = [t for t in state.terms if not _is_unit(t.gamma)]
    pools = [[t for t in nonunit if t.gamma[i] > 0] for i in positions]
    if not all(pools):
        return
    for combo in itertools.product(*pools):
        distinct = []
        for t in combo:
            if t not in distinct:
                distinct.append(t)
        yield distinct


# -- the searches: certifier only ---------------------------------------------

@dataclass
class ReducACert:
    tuple_sigs: tuple  # signatures of the distinct terms in the tuple
    u: tuple  # rational multipliers, same order


def _reduc_a_tuple_cert(state: SymState, terms, solve=solve):
    """u >= 0 with sum u*gamma = e and (conservatively)
    sum u*(a+1) - sum(fixed) > r_global; None if infeasible.  ``solve``
    decides the integer LP system; the certifier passes its run's memo."""
    rcur = len(state.vars)
    k = len(terms)
    mins = []
    for t in terms:
        mn = state.box.min_of(t.a)
        if mn is None:
            return None
        mins.append(mn + 1)
    min_k = state.box.min_of(state.k_total)
    if min_k is None:
        return None
    rhs = state.r_global - min_k
    cons = []
    for d in range(rcur):
        cons.append(([t.gamma[d] for t in terms], "=", 1))
    for i in range(k):
        coeffs = [0] * k
        coeffs[i] = -1
        cons.append((coeffs, "<=", 0))
    cons.append(([-w for w in mins], "<", -rhs))
    res = solve(cons, k)
    if not res.feasible:
        return None
    return ReducACert(tuple(t.signature() for t in terms), tuple(res.point))


def reduc_a(state: SymState, positions, solve=solve):
    """Lemma (a) on the index set I of active positions: an LP certificate
    for every tuple of ``_lemma_a_tuples``, and the unit-root cases.
    Returns (certs, cases), or None when some tuple has no certificate or
    ``unit_root_cases`` does not apply."""
    cases = unit_root_cases(state, positions)
    if cases is None:
        return None
    certs = []
    for terms in _lemma_a_tuples(state, positions):
        cert = _reduc_a_tuple_cert(state, terms, solve)
        if cert is None:
            return None
        certs.append(cert)
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
    partition of the complement.  None when e is already in the cone."""
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
    got = leaf_all_fixed(state)
    if got is not None:
        mode, mx = got
        data = {"mode": mode} if mx is None else {"mode": mode, "max": str(mx)}
        return CertNode("leaf_all_fixed", data)
    for pos, var in enumerate(state.vars):
        got = leaf_empty_generator(state, pos)
        if got is not None:
            mode, touching = got
            data = {"var": var, "mode": mode}
            if touching:
                data["terms"] = [t.signature() for t in touching]
            return CertNode("leaf_empty_generator", data)
    bounds = leaf_last_var(state)
    if bounds is not None:
        return CertNode("leaf_last_var", {
            "bounds": [(t.signature(), str(Fraction(gmu, g))) for t, gmu, g in bounds]})
    return None


def _case_json(case: Case, scalars):
    out = {"var": case.var, "kind": case.kind, "value": aff_to_json(case.value)}
    if case.symbol is not None:
        out["symbol"] = case.symbol
        out["negations"] = [{"var": v, "flag": f} for v, f in case.negations]
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
    lps: dict = field(default_factory=dict)  # (nvars, system) -> FMResult

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
                "certs": [{"tuple": list(c.tuple_sigs),
                           "u": [str(x) for x in c.u]} for c in certs],
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


def _refutation_candidates(family: BFunctionFamily, bound):
    """Intersections z of pairs of independent linear forms gamma.z = -v
    with integers |v_1|, |v_2| <= bound, each point once, ordered by
    (|v_1| + |v_2|, z) at the least level that reaches it.  Each level is
    built and sorted only once the previous one is used up."""
    gammas = {g for (g, _o) in family.offsets}
    gammas.update(tuple(int(d == i) for d in range(family.r)) for i in range(family.r))
    pairs = [(g1, g2, det) for g1, g2 in itertools.combinations(sorted(gammas), 2)
             if (det := g1[0] * g2[1] - g1[1] * g2[0])]
    seen = set()
    for level in range(2 * bound + 1):
        top = min(level, bound)
        vs = [(v1, v2) for v1 in range(-top, top + 1)
              for v2 in {level - abs(v1), abs(v1) - level}
              if abs(v2) <= bound]
        points = sorted({(Fraction(-v1 * g2[1] + v2 * g1[1], det),
                          Fraction(-v2 * g1[0] + v1 * g2[0], det))
                         for g1, g2, det in pairs for v1, v2 in vs} - seen)
        seen.update(points)
        yield from points


def _refute(family: BFunctionFamily, bound):
    """The first refutation candidate that is not good but lies in Z(B~),
    or None.  Only r = 2 has exact membership to refute with."""
    if family.r != 2:
        return None
    for z in _refutation_candidates(family, bound):
        if not is_good(z, family.r) and membership_in_ztilde(family, z).kind == "member":
            return z
    return None


def certify_all_good(family: BFunctionFamily, refute_bound=30) -> CertifyOutcome:
    """Prove every element of Z(B~) is good, or exhibit a bad member.

    Alternates the reduction lemmas with integer case splits; a sound
    certificate tree is returned on success.  On failure at r = 2 the
    exact membership test scans candidate intersection points for an
    explicit bad element of Z(B~).
    """
    state = sym_state_from_family(family)
    node = _certify(state, _Run(f"k{i}" for i in itertools.count(1)))
    if node is not None:
        return CertifyOutcome("certificate", certificate=node)
    witness = _refute(family, refute_bound)
    if witness is not None:
        return CertifyOutcome("refuted", witness=witness)
    return CertifyOutcome("inconclusive",
                          reason="case analysis exhausted without closing")


# -- the re-verification: checker only ----------------------------------------

def _position(state: SymState, var, rule):
    if var not in state.vars:
        raise CertificateError(f"{rule} on inactive variable {var}")
    return state.vars.index(var)


def _case_from_json(assume) -> Case:
    return Case(assume["var"], assume["kind"], aff_from_json(assume["value"]),
                assume.get("symbol"),
                tuple((n["var"], n["flag"]) for n in assume.get("negations", ())))


def _check_cases(state: SymState, rule, cases, branches) -> None:
    """The branches must be the rule's cases, in order, and each close."""
    if [_case_from_json(assume) for assume, _ in branches] != cases:
        raise CertificateError(f"{rule} branches are not the rule's cases")
    for case, (_, child) in zip(cases, branches):
        _check_node(branch_state(state, case)[0], child)


def _check_node(state: SymState, node) -> None:
    rule, data, branches = node["rule"], node["data"], node["branches"]
    rcur = len(state.vars)

    if rule == "leaf_all_fixed":
        got = leaf_all_fixed(state)
        if got is None or got[0] != data["mode"]:
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
        min_k = state.box.min_of(state.k_total)
        if min_k is None:
            raise CertificateError("unbounded K in reduc_a")
        for distinct in _lemma_a_tuples(state, positions):
            by_sig = {t.signature(): t for t in distinct}
            key = tuple(sorted(by_sig))
            if key not in stored:
                raise CertificateError("missing LP certificate for a tuple")
            sig_order, u, scale = stored[key]
            distinct = [by_sig[s] for s in sig_order]
            if len(u) != len(distinct) or any(x < 0 for x in u):
                raise CertificateError("bad multipliers")
            for d in range(rcur):
                if sum(ux * t.gamma[d] for ux, t in zip(u, distinct)) != scale:
                    raise CertificateError("multipliers do not combine to e")
            total = 0
            for ux, t in zip(u, distinct):
                mn = state.box.min_of(t.a)
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
        jplus, jminus = data["Jplus"], data["Jminus"]
        comp = [v for v in state.vars if v not in jvars]
        if sorted(jplus + jminus) != sorted(comp) or set(jplus) & set(jminus):
            raise CertificateError("J_plus/J_minus is not a partition")
        for v in comp:
            ms = data["memberships"][str(v)]
            nl = len(ms["lambdas"])  # lambdas, mus = ints/scale
            row, scale = int_row([*ms["lambdas"], *ms["mus"]])
            lambdas, mus, sign = row[:nl], row[nl:], ms["sign"]
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


def rational_singularities_verdict(q, alpha, selected=None,
                                   refute_bound=30) -> Verdict:
    """Decision pipeline for rational singularities of the zero set of the
    selected fundamental semi-invariants.

    r = 1 (hypersurface): decided directly from the single-variable
    b-function (largest root -1 with multiplicity one).  r >= 2: the zero
    set must be a reduced set-theoretic complete intersection; then the
    good-root certification route applies, with the bracket-form condition
    e.gamma <= a required for the multiplicity-one argument at -e.
    """
    from .brackets import compute_bfunction
    from .orbits import components, is_set_theoretic_ci, make_spec, \
        reducedness_report

    spec = make_spec(q, alpha, selected)
    fam = compute_bfunction(q, spec.alpha, spec.selected_simples)
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
        v.witness = _refute(fam, refute_bound)
        return v

    comps = components(spec)
    if not is_set_theoretic_ci(spec, comps):
        return Verdict("not_applicable", family=fam,
                       reason="zero set is not a set-theoretic complete intersection")
    red = reducedness_report(spec, comps)
    if red.verdict != "reduced":
        return Verdict("not_applicable", family=fam, reducedness=red,
                       reason=f"reducedness verdict: {red.verdict} ({red.reason})")

    out = certify_all_good(fam, refute_bound=refute_bound)
    if out.kind == "certificate":
        return Verdict("rational_singularities", family=fam, reducedness=red,
                       certificate=out.certificate)
    if out.kind == "refuted":
        return Verdict("not_certified", family=fam, reducedness=red,
                       witness=out.witness,
                       reason="explicit bad element of Z(B~)")
    return Verdict("not_certified", family=fam, reducedness=red,
                   reason=out.reason)
