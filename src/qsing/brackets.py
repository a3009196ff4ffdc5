"""Symbolic bracket algebra and the multi-variable b-function of selected
semi-invariants, computed by iterating the Coxeter reflection formula.

A bracket [s]^gamma_{a,b} stands for prod_{i=a+1}^{b} prod_{j=0}^{d-1}
(gamma.s + i + j) with inner depth d = gamma.m for the multiplicity tuple m
supplied at expansion time.  Families are stored as integer multiplicities
on single offsets (gamma, i), i in a+1..b, which makes the telescoping
cancellations of the reflection recursion exact multiset arithmetic; the
(gamma, a, b, mult) bracket form is recovered by maximal-run grouping.

The recursion: a pass holds alpha, one slot per selected perpendicular
simple and one offsets dict as plain values.  Slot j holds the dimension
vector beta^j of the current Auslander-Reiten translate of its simple.  One
Coxeter step emits, at every vertex x supported by a live slot, the offsets
between c(alpha)_x and alpha_x keyed by the vector of live
beta-coordinates at x, then replaces alpha by c(alpha) and each live
beta^j by c(beta^j).  A slot whose translate leaves N^n (its object became
projective) contributes its classical determinantal factors in its final
step and then drops out; the pass ends when every slot is dead.  alpha is
reflected through ``HomTable.coxeter_step``, one list reflected in place; a
live slot is always a positive root, so it advances by one lookup in
``HomTable.translates``.  When a step would need a negative bracket
endpoint, the pass drops that step's staged brackets and ``_terminal_walk``
walks the surviving slots down to simples by sink and source reflections,
carrying the orientation as a tuple of arrows and adding the classical
factors to the same dict.  A reflection there changes one coordinate, and
the walk sets that coordinate from the value its candidate scan computed.
``compute_bfunction`` runs the pass forward, then backward (with c^{-1})
when the forward pass fails.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .quiver import Quiver, dimension_vector, reflect_arrows
from .roots import hom_table


class TerminalRuleInapplicable(Exception):
    """The recursion reached a state it cannot handle soundly."""


class BracketTerm(NamedTuple):
    gamma: tuple  # length-r nonnegative integers
    a: int
    b: int  # a <= b; empty product when a == b or gamma == 0
    mult: int = 1


class BFunctionFamily:
    """Multiset of bracket factors over r semi-invariant variables.

    ``offsets`` maps (gamma, i) to an integer multiplicity; the bracket
    [s]^gamma_{a,b} contributes +1 at offsets i = a+1..b.
    """

    def __init__(self, r: int, offsets: dict, meta=None):
        self.r = r
        self.offsets = offsets
        self.meta = {} if meta is None else meta

    def terms(self):
        """Canonical bracket presentation: maximal runs of equal multiplicity,
        peeled layer by layer; deterministic."""
        by_gamma = {}
        for (g, i), m in sorted(self.offsets.items()):
            if m:
                by_gamma.setdefault(g, {})[i] = m
        out = []
        for g in sorted(by_gamma):
            counts = dict(by_gamma[g])
            if any(m < 0 for m in counts.values()):
                raise ValueError("family has negative offset multiplicities")
            while counts:
                run_start = None
                prev = None
                emitted = []
                for i in sorted(counts):
                    if run_start is None:
                        run_start = prev = i
                    elif i == prev + 1:
                        prev = i
                    else:
                        emitted.append((run_start, prev))
                        run_start = prev = i
                emitted.append((run_start, prev))
                for lo, hi in emitted:
                    mult = min(counts[i] for i in range(lo, hi + 1))
                    out.append(BracketTerm(g, lo - 1, hi, mult))
                    for i in range(lo, hi + 1):
                        counts[i] -= mult
                        if not counts[i]:
                            del counts[i]
        return out

    def term_multiset(self):
        return sorted((t.gamma, t.a, t.b, t.mult) for t in self.terms())


def family_from_terms(r, terms) -> BFunctionFamily:
    """The family of the given bracket terms over r variables.  Raises
    ValueError unless every gamma entry, a, b and mult of each term is an
    int (a bool is not), mult >= 1, gamma is a nonnegative r-vector and
    a <= b."""
    offs = {}
    for t in terms:
        g = tuple(t.gamma)
        if any(type(v) is not int for v in (*g, t.a, t.b, t.mult)):
            raise ValueError(f"term {t} has a field that is not an integer")
        if t.mult < 1:
            raise ValueError(f"term multiplicity {t.mult} is below 1")
        if len(g) != r or any(c < 0 for c in g):
            raise ValueError(f"term gamma {g} is not a nonnegative {r}-vector")
        if t.a > t.b:
            raise ValueError(f"term bracket a = {t.a} exceeds b = {t.b}")
        if not any(g):
            continue
        for i in range(t.a + 1, t.b + 1):
            offs[(g, i)] = offs.get((g, i), 0) + t.mult
    return BFunctionFamily(r, offs)


def expand(family: BFunctionFamily, m):
    """Multiset of linear forms (gamma, const) at multiplicity tuple m."""
    if len(m) != family.r or any(x < 0 for x in m):
        raise ValueError(f"m = {tuple(m)} is not a nonnegative {family.r}-vector")
    forms = {}
    for (g, i), cnt in family.offsets.items():
        if cnt == 0:
            continue
        d = sum(gi * mi for gi, mi in zip(g, m))
        for j in range(d):
            key = (g, i + j)
            forms[key] = forms.get(key, 0) + cnt
    return {k: v for k, v in forms.items() if v}


def render_term(t: BracketTerm) -> str:
    g = "".join(str(c) for c in t.gamma)
    rng = f"{t.b}" if t.a == 0 else f"{t.a},{t.b}"
    body = f"[s]^{{{g}}}_{{{rng}}}"
    return body if t.mult == 1 else f"({body})^{t.mult}"

def render_family(family: BFunctionFamily) -> str:
    ts = family.terms()
    return " * ".join(render_term(t) for t in ts) if ts else "1"


# -- the reflection recursion -------------------------------------------------

def _pass(q, table, alpha, betas, direction):
    """One run of the Coxeter reflection formula from alpha and the slots
    betas: the offsets it emits and the number of Coxeter steps it takes.

    Forward (direction +1): each step emits, at each vertex x supported by a
    live slot, the bracket offsets between c(alpha)_x and alpha_x keyed by
    the vector of live beta-coordinates at x (negative-direction ranges
    subtract and cancel by telescoping); then advances alpha and the live
    translates, dropping slots whose translate leaves N^n (projectives).

    Backward (direction -1): the same identity read toward c^{-1}(alpha);
    the emitted gammas use the advanced translates, and a slot dies before
    contributing when its inverse translate leaves N^n (injectives).

    c and c^{-1} are those of ``table.coxeter_step``: the simple reflections
    of the context's sink walk, applied forwards or backwards.  alpha takes
    that walk; a live slot is a positive root, so it advances by one lookup
    in the context's ``translates``, which also says when it dies.

    A step blocks when a supported vertex would need a negative bracket
    endpoint.  Its brackets are staged until every vertex has been checked,
    so a blocked step adds none; ``_terminal_walk`` then resolves the
    surviving slots from the state before that step.
    """
    offs = {}
    steps = 0
    advance = table.translates[direction]
    zero = (0,) * q.n
    live = len(betas) - betas.count(None)
    while live:
        alpha2 = table.coxeter_step(alpha, direction)
        betas2 = [None if b is None else advance[b] for b in betas]
        live = len(betas2) - betas2.count(None)
        # forward: gammas from the current translates; backward: from the
        # next.  A dead slot reads as the zero vector, so gamma_x is the
        # column x of the live slots
        columns = zip(*[zero if b is None else b
                        for b in (betas if direction > 0 else betas2)])
        staged = []
        for x, gamma in enumerate(columns):
            if not any(gamma):
                continue
            lo, hi, sign = alpha2[x], alpha[x], 1
            if lo > hi:
                lo, hi, sign = hi, lo, -1
            if lo < 0:
                _terminal_walk(q, alpha, betas, offs)
                return offs, steps
            staged.append((gamma, lo, hi, sign))
        for gamma, lo, hi, sign in staged:
            for i in range(lo + 1, hi + 1):
                key = (gamma, i)
                m = offs.get(key, 0) + sign
                if m:
                    offs[key] = m
                else:
                    del offs[key]
        alpha, betas = alpha2, betas2
        steps += 1
    return offs, steps


def _terminal_walk(q, alpha, betas, offs):
    """Resolve the slots that survive a blocked Coxeter chain, adding their
    classical factors to offs.

    A surviving slot whose object is the simple at a vertex x contributes the
    classical determinantal factor [s]^{e^j}_{0, alpha_x} (its semi-invariant
    is the determinant of a generic alpha_x by alpha_x concatenation of arrow
    blocks).  A surviving non-simple slot is walked down to a simple with
    sink and source reflections, which transform alpha and the live slots
    but contribute no brackets.

    The walk carries the orientation as its arrows tuple and reads the sinks
    and sources, and the Euler form <alpha, e_x>, from it.  A reflection at
    x changes coordinate x alone, and the neighbours that give it depend on
    the underlying graph only, so a candidate's legality and the height it
    leaves are read from that one coordinate of each vector.  The scan keeps
    the new coordinate of alpha and of each live slot for the best
    candidate, and the chosen reflection replaces coordinate x by it.

    Each step of the walk reads only the orientation, alpha and the slots,
    never the offsets, and a slot's death is irreversible.  So when that
    state repeats, the walk is periodic with no death in the period, and it
    raises TerminalRuleInapplicable at once.  The walk ends: on a Dynkin
    quiver the Weyl group is finite, so alpha and each slot have finitely
    many images, and there are finitely many orientations.
    """
    n, nbrs = q.n, q.adjacency
    arrows = q.arrows
    betas = list(betas)
    r = len(betas)
    seen = set()
    while True:
        for j in range(r):
            b = betas[j]
            if b is None or sum(b) != 1:
                continue
            x = b.index(1)
            if alpha[x] < 0:
                raise TerminalRuleInapplicable(
                    f"classical factor with negative size at vertex {x + 1}")
            # <alpha, e_x> on the current orientation
            if alpha[x] != sum(alpha[t - 1] for t, h in arrows if h == x + 1):
                raise TerminalRuleInapplicable(
                    "classical factor is not a square determinant")
            gamma = tuple(1 if t == j else 0 for t in range(r))
            for i in range(1, alpha[x] + 1):
                offs[(gamma, i)] = offs.get((gamma, i), 0) + 1
            betas[j] = None
        live = [b for b in betas if b is not None]
        if not live:
            return
        key = (arrows, alpha, tuple(betas))
        if key in seen:
            raise TerminalRuleInapplicable("terminal reflections did not converge")
        seen.add(key)
        # legal reflection at a sink or source x: the generic representation
        # must have no simple summand at x (the new coordinate x stays >= 0).
        # Among the legal ones, prefer the reflection that shrinks the
        # surviving slots fastest
        tails = {t for t, _ in arrows}
        heads = {h for _, h in arrows}
        best = None
        for x in ([v for v in range(1, n + 1) if v not in tails]
                  + [v for v in range(1, n + 1) if v not in heads]):
            around = nbrs[x - 1]
            new_alpha = sum(map(alpha.__getitem__, around)) - alpha[x - 1]
            if new_alpha < 0:
                continue
            height = 0
            news = []
            for b in live:
                new = sum(map(b.__getitem__, around)) - b[x - 1]
                if new < 0:
                    break
                height += sum(b) - b[x - 1] + new
                news.append(new)
            else:
                if best is None or (height, x) < best[:2]:
                    best = (height, x, new_alpha, news)
        if best is None:
            raise TerminalRuleInapplicable("no legal reflection available")
        _, x, new_alpha, news = best
        # legality kept coordinate x of every live slot >= 0, and no other
        # coordinate changes, so the slots stay positive roots
        alpha = _replaced(alpha, x - 1, new_alpha)
        news = iter(news)
        betas = [None if b is None else _replaced(b, x - 1, next(news))
                 for b in betas]
        arrows = reflect_arrows(arrows, x)


def _replaced(v, i, value):
    """The tuple v with coordinate i set to value."""
    return v[:i] + (value,) + v[i + 1:]


def compute_bfunction(q: Quiver, alpha, simples) -> BFunctionFamily:
    """Multi-variable b-function of the semi-invariants attached to the given
    perpendicular simples on Rep(Q, alpha).

    Runs ``_pass`` forward, and backward when the forward run raises
    TerminalRuleInapplicable; the first run that ends with no negative
    multiplicity and no nonpositive bracket constant gives the family, and
    ``meta["steps"]`` and ``meta["direction"]`` say how many Coxeter steps
    it took and which way.  On a Dynkin quiver the Coxeter transformation c
    has c^h = 1, h the Coxeter number, and no eigenvalue 1, so c^1 + ... +
    c^h = 0; a nonzero slot therefore leaves N^n within h steps, and a run
    ends within h steps.  If the chain blocks first (a supported vertex
    would need a negative endpoint), the surviving slots are resolved by
    ``_terminal_walk``.

    Raises NonDynkinError off Dynkin type, from the cached ``hom_table(q)``
    that every reflection step reads, and then ValueError when alpha is not
    a nonnegative n-vector of ints, or a simple is not a positive root of q
    or has an entry that is not an int (a float or a bool equal to a root
    is rejected, not kept in ``meta["simples"]``).
    When both runs fail, the backward run's TerminalRuleInapplicable is
    raised.
    """
    table = hom_table(q)
    alpha = dimension_vector(q, alpha)
    simples = [tuple(s) for s in simples]
    for s in simples:
        i = table.index.get(s)
        if i is None:
            raise ValueError(f"simple {s} is not a positive root of the quiver")
        # a float or bool entry compares and hashes equal to an int, so the
        # lookup alone would let it through; the context's own root tuples
        # (what ``perp_simples`` returns) hold ints and skip the scan
        if s is not table.roots[i] and set(map(type, s)) != {int}:
            raise ValueError(f"simple {s} has an entry that is not an int")
    # a slot whose matrix d^V_S is 0 x 0 is the constant semi-invariant 1;
    # it contributes no factors and drops out immediately
    betas = [s if sum(map(mul, alpha, s)) else None for s in simples]
    last_error = None
    for direction in (+1, -1):
        try:
            offs, steps = _pass(q, table, alpha, betas, direction)
            for (g, i), m in offs.items():
                if m < 0:
                    raise TerminalRuleInapplicable(
                        f"negative multiplicity survives at {(g, i)}")
                if i < 1:
                    raise TerminalRuleInapplicable(
                        f"nonpositive bracket constant at {(g, i)}")
        except TerminalRuleInapplicable as exc:
            last_error = exc
            continue
        return BFunctionFamily(
            len(simples), offs,
            {"quiver": q, "alpha": alpha, "simples": tuple(simples),
             "steps": steps, "direction": direction})
    raise last_error
