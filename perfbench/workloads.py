"""The four benchmark workloads, each run as one pass in the calling process.

A pass is: set-up (import ``qsing`` and build the Hom/Ext table of every
quiver the workload uses), then the query phase over the workload's fixed
input set in a seed-permuted order.  Each input is timed alone; right after
it, untimed, its output is reduced to a small record, from which the work
counters and the checks against ``expected.json`` are taken.

Every call a query makes into ``roots``, ``decomp``, ``orbits``,
``brackets`` or ``bsato`` goes through a ``Layers`` object.  Untraced, its
attributes are the library functions themselves; traced, each one is
wrapped in a span recorder.  Spans are taken from outside the library, so
a callee's own calls into other layers count inside its span.
"""

import hashlib
import inspect
import itertools
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# every library function a query calls; traced spans are named "module.function"
LAYER_FUNCTIONS = (
    ("roots", "hom_table"),
    ("decomp", "generic_decomposition"),
    ("decomp", "perp_simples"),
    ("orbits", "make_spec"),
    ("orbits", "components"),
    ("orbits", "is_set_theoretic_ci"),
    ("orbits", "survey"),
    ("orbits", "reducedness_report"),
    ("brackets", "compute_bfunction"),
    ("bsato", "certify_all_good"),
    ("bsato", "verify_certificate"),
)

DIMS = {"A3": 3, "D4": 4, "D5": 5, "E6": 6, "E8": 8}

# "full" is what the benchmark measures.  "tiny" runs the same code paths in
# a few seconds for the benchmark's own tests; its boxes lie inside the full
# ones, so one recorded expectation covers both.
SIZES = {
    "full": {
        # E8 vectors near e8-notred whose survey visits 14k-58k classes
        "nullcone-e8": [("E8", a) for a in (
            (1, 1, 5, 3, 3, 2, 1, 3), (1, 2, 5, 2, 2, 2, 1, 3), (1, 2, 6, 4, 1, 1, 1, 3),
            (1, 2, 6, 4, 2, 1, 1, 2), (1, 3, 6, 3, 2, 2, 1, 2), (1, 3, 7, 2, 1, 2, 1, 3),
            (1, 4, 5, 3, 3, 1, 1, 1), (1, 4, 5, 4, 2, 1, 1, 1), (1, 4, 6, 2, 3, 2, 1, 1),
            (1, 4, 6, 3, 2, 1, 1, 1), (1, 4, 7, 2, 1, 1, 1, 3), (2, 2, 4, 4, 1, 2, 1, 3),
            (2, 2, 5, 4, 1, 1, 1, 3), (2, 2, 5, 4, 1, 2, 1, 2), (2, 2, 5, 4, 3, 1, 1, 1),
            (2, 2, 6, 2, 2, 2, 1, 2), (2, 2, 6, 4, 1, 1, 1, 3), (2, 2, 6, 4, 1, 2, 1, 2),
        )],
        "reduced-sweep": {"A3": 18, "D4": 18},
        "bfunction-census": {"D4": 10, "D5": 5, "E6": 5},
        "certify-grid": [("e6-ex1", n, m) for n in range(1, 5) for m in range(1, 5)]
        + [("e8-pos", 1, 1)],
    },
    "tiny": {
        "nullcone-e8": [("E6", (1, 3, 3, 3, 1, 2)), ("E6", (1, 2, 3, 2, 1, 2))],
        "reduced-sweep": {"A3": 8, "D4": 8},
        "bfunction-census": {"D4": 4, "D5": 3, "E6": 3},
        "certify-grid": [("e6-ex1", 1, 1), ("e6-ex1", 2, 1), ("e8-pos", 1, 1)],
    },
}


def import_qsing():
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import qsing  # noqa: F401  (the package import is part of set-up)
    from qsing import brackets, bsato, decomp, orbits, presets, quiver, roots
    return {"roots": roots, "decomp": decomp, "orbits": orbits,
            "brackets": brackets, "bsato": bsato, "presets": presets,
            "quiver": quiver}


class Layers:
    """The library functions a query calls, optionally wrapped in spans.

    A span is (name, input index, start, end, raised).  Spans stay in
    memory and are summed when the pass ends.
    """

    def __init__(self, mods, traced):
        self.traced = traced
        self.spans = []
        self.current = -1  # index of the input being queried; -1 in set-up
        for mod, fn in LAYER_FUNCTIONS:
            f = getattr(mods[mod], fn)
            setattr(self, fn, self._wrap(f"{mod}.{fn}", f) if traced else f)

    def _wrap(self, name, f):
        clock = time.perf_counter
        spans = self.spans

        def call(*args, **kwargs):
            t0 = clock()
            raised = True
            try:
                out = f(*args, **kwargs)
                raised = False
                return out
            finally:
                spans.append((name, self.current, t0, clock(), raised))

        return call

    def metrics(self, factor):
        """Per function: busy seconds and call count, plus the seconds of
        calls that raised for the b-function recursion.  A span's time is
        multiplied by ``factor(input index)``."""
        out = {}
        for mod, fn in LAYER_FUNCTIONS:
            out[f"{mod}.{fn}.s"] = 0.0
            out[f"{mod}.{fn}.calls"] = 0
        out["brackets.compute_bfunction.failed_s"] = 0.0
        for name, i, t0, t1, raised in self.spans:
            busy = (t1 - t0) * factor(i)
            out[name + ".s"] += busy
            out[name + ".calls"] += 1
            if raised and name == "brackets.compute_bfunction":
                out[name + ".failed_s"] += busy
        return out


def quivers(mods):
    Q = mods["quiver"].Quiver
    return {
        "A3": Q(3, ((1, 2), (2, 3))),
        "D4": Q(4, ((1, 4), (2, 4), (3, 4))),
        "D5": Q(5, ((1, 5), (2, 5), (5, 3), (3, 4))),
        "E6": mods["presets"].E6_QUIVER,
        "E8": mods["presets"].E8_QUIVER,
    }


def box(bounds):
    """Every nonzero dimension vector with total at most the quiver's bound."""
    return [(name, alpha)
            for name, bound in sorted(bounds.items())
            for alpha in itertools.product(range(bound + 1), repeat=DIMS[name])
            if 0 < sum(alpha) <= bound]


def parts(cls):
    return sorted([list(r), m] for r, m in cls.parts)


def family_digest(fam):
    text = json.dumps(fam.term_multiset(), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cert_nodes(node):
    return 1 + sum(cert_nodes(child) for _assume, child in node.branches)


def _survey_stats(survey, mods):
    """(classes visited, classes kept, lists that hit h_cap) of one survey."""
    if survey is None:
        return None
    cap = inspect.signature(mods["orbits"].survey).parameters["h_cap"].default
    lists = [survey.h_points, *survey.patterns.values()]
    kept = sum(map(len, lists)) + (survey.zprime_witness is not None)
    return [survey.total, kept, sum(len(lst) >= cap for lst in lists)]


def _orbit_counters(recs):
    recs = [r for r in recs if "found" in r]
    verdicts = [r["verdict"] for r in recs]
    c = {"orbits.make_spec.calls": len(recs),
         "orbits.components.found": sum(r["found"] for r in recs)}
    for v in ("reduced", "not-reduced", "unverified"):
        c["orbits.reducedness_report." + v.replace("-", "_")] = verdicts.count(v)
    surveys = [r["survey"] for r in recs if r["survey"] is not None]
    if surveys:
        total, kept, capped = (sum(col) for col in zip(*surveys))
        c["orbits.survey.classes"] = total
        c["orbits.survey.kept_ratio"] = kept / total
        c["orbits.survey.capped"] = capped
    return c


class Nullcone:
    """``qsing nullcone`` on E8 dimension vectors: components, CI and
    reducedness, each with a survey pass over every class of alpha.

    A workload turns each input's output into a small record right after
    the input is timed: ``result`` is what ``expected.json`` holds for it,
    and the other fields feed the work counters.
    """

    name = "nullcone-e8"

    keep_none = True  # record inputs whose result is None

    def quiver_names(self, size):
        return sorted({name for name, _alpha in SIZES[size][self.name]})

    def inputs(self, size, ctx):
        return list(SIZES[size][self.name])

    def key(self, inp):
        return inp[0] + ":" + ",".join(map(str, inp[1]))

    def query(self, L, inp, ctx):
        name, alpha = inp
        spec = L.make_spec(ctx["quivers"][name], alpha)
        comps = L.components(spec)
        ci = L.is_set_theoretic_ci(spec, comps)
        # a traced pass times the survey on its own, only where the report
        # runs it; the report then takes it from the library's cache
        survey = L.survey(spec) if (L.traced and comps and ci) else None
        return {"comps": comps, "ci": ci, "survey": survey,
                "red": L.reducedness_report(spec, comps)}

    def summarize(self, out, ctx):
        red = out["red"]
        return {
            "result": {
                "components": sorted([parts(c.rep_class), c.codim]
                                     for c in out["comps"]),
                "ci": out["ci"],
                "verdict": red.verdict,
                "witness": parts(red.witness) if red.witness else None,
            },
            "found": len(out["comps"]),
            "verdict": red.verdict,
            "survey": _survey_stats(out["survey"], ctx["mods"]),
        }

    def missing(self, size, inputs, entry):
        return 0

    def check(self, inp, rec, entry):
        return rec["result"] == entry.get(self.key(inp))

    def undecided(self, rec):
        return rec.get("verdict") == "unverified"

    def counters(self, recs):
        return _orbit_counters(recs)


class ReducedSweep(Nullcone):
    """Acceptance criterion 5: every alpha in the boxes whose generic
    multiplicities are at least N(Q) and whose perpendicular category is
    nonzero gets a reducedness verdict, which must be "reduced"."""

    name = "reduced-sweep"

    keep_none = False  # only the members of the family are recorded

    def quiver_names(self, size):
        return sorted(SIZES[size][self.name])

    def inputs(self, size, ctx):
        return box(SIZES[size][self.name])

    def query(self, L, inp, ctx):
        name, alpha = inp
        q = ctx["quivers"][name]
        t = L.generic_decomposition(q, alpha)
        if not t.parts or any(m < ctx["nq"][name] for _, m in t.parts):
            return {"perp": False}
        if L.perp_simples(q, t).r == 0:
            return {"perp": True}
        out = super().query(L, inp, ctx)
        out["perp"] = True
        return out

    def summarize(self, out, ctx):
        if "red" not in out:
            return {"result": None, "perp": out["perp"]}
        rec = super().summarize(out, ctx)
        rec["result"] = rec["verdict"]
        rec["perp"] = True
        return rec

    def check(self, inp, rec, entry):
        return (rec["result"] == entry.get(self.key(inp))
                and rec["result"] in (None, "reduced"))

    def counters(self, recs):
        c = _orbit_counters(recs)
        c["decomp.generic_decomposition.calls"] = len(recs)
        c["decomp.perp_simples.calls"] = sum(r["perp"] for r in recs)
        return c


class Census(ReducedSweep):
    """``compute_bfunction`` with every perpendicular simple selected, on
    every alpha of the boxes that has at least one.  An input whose
    recursion raises ``TerminalRuleInapplicable`` has result None."""

    name = "bfunction-census"

    keep_none = True

    def inputs(self, size, ctx):
        # chosen before the timed phase; the choice is checked against the
        # recorded keys, so a changed decomposition shows as missing inputs
        gd = ctx["mods"]["decomp"].generic_decomposition
        perp = ctx["mods"]["decomp"].perp_simples
        qs = ctx["quivers"]
        return [(name, alpha) for name, alpha in box(SIZES[size][self.name])
                if perp(qs[name], gd(qs[name], alpha)).r]

    def query(self, L, inp, ctx):
        name, alpha = inp
        q = ctx["quivers"][name]
        spec = L.make_spec(q, alpha)
        try:
            return L.compute_bfunction(q, spec.alpha, spec.selected_simples)
        except ctx["mods"]["brackets"].TerminalRuleInapplicable:
            return None

    def summarize(self, fam, ctx):
        if fam is None:
            return {"result": None, "terms": 0}
        return {"result": family_digest(fam), "terms": len(fam.terms())}

    def missing(self, size, inputs, entry):
        inside = {self.key(inp) for inp in box(SIZES[size][self.name])}
        return len((inside & set(entry)) - {self.key(inp) for inp in inputs})

    def check(self, inp, rec, entry):
        """A family must match its recorded digest.  An input whose
        recursion raised when it was recorded may raise again or succeed."""
        k = self.key(inp)
        if k not in entry:
            return False
        return entry[k] is None or rec["result"] == entry[k]

    def undecided(self, rec):
        return rec["result"] is None

    def counters(self, recs):
        return {"orbits.make_spec.calls": len(recs),
                "brackets.compute_bfunction.failed":
                    sum(r["result"] is None for r in recs),
                "brackets.compute_bfunction.terms": sum(r["terms"] for r in recs)}


class CertifyGrid(Nullcone):
    """make_spec -> compute_bfunction -> certify_all_good ->
    verify_certificate on presets; no orbit geometry."""

    name = "certify-grid"

    def quiver_names(self, size):
        return sorted({"E8" if p.startswith("e8") else "E6"
                       for p, _n, _m in SIZES[size][self.name]})

    def inputs(self, size, ctx):
        return list(SIZES[size][self.name])

    def key(self, inp):
        return "%s:%d:%d" % inp

    def query(self, L, inp, ctx):
        q, alpha, sel, _branch = ctx["mods"]["presets"].preset(*inp)
        spec = L.make_spec(q, alpha, sel)
        fam = L.compute_bfunction(q, spec.alpha, spec.selected_simples)
        res = L.certify_all_good(fam)
        verified = None
        if res.kind == "certificate":
            verified = L.verify_certificate(fam, res.certificate)[0]
        return {"fam": fam, "res": res, "verified": verified}

    def summarize(self, out, ctx):
        """The checker must accept every certificate, and every refutation
        witness must be a bad member of Z(B~)."""
        res, fam = out["res"], out["fam"]
        valid = res.kind != "certificate" or out["verified"] is True
        if res.kind == "refuted":
            bsato = ctx["mods"]["bsato"]
            valid = (not bsato.is_good(res.witness, fam.r) and
                     bsato.membership_in_ztilde(fam, res.witness).kind == "member")
        return {"result": res.kind, "valid": valid, "terms": len(fam.terms()),
                "verified": out["verified"],
                "cert_nodes": cert_nodes(res.certificate) if res.certificate else 0}

    def check(self, inp, rec, entry):
        return rec["result"] == entry.get(self.key(inp)) and rec["valid"]

    def undecided(self, rec):
        return rec["result"] == "inconclusive"

    def counters(self, recs):
        kinds = [r["result"] for r in recs]
        c = {"orbits.make_spec.calls": len(recs),
             "brackets.compute_bfunction.failed": 0,
             "brackets.compute_bfunction.terms": sum(r["terms"] for r in recs),
             "bsato.certify_all_good.cert_nodes": sum(r["cert_nodes"] for r in recs),
             "bsato.verify_certificate.rejected":
                 sum(r["verified"] is False for r in recs)}
        for k in ("certificate", "refuted", "inconclusive"):
            c["bsato.certify_all_good." + k] = kinds.count(k)
        return c


WORKLOADS = {cls.name: cls() for cls in (Nullcone, ReducedSweep, Census, CertifyGrid)}


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)


# The shared host's CPU speed drifts by up to 2x over tens of seconds, which
# no run length here averages out.  So every timing is rescaled by the
# speed of a fixed reference loop measured on the same core just before and
# just after the timed stretch, every REF_EVERY_S during the query phase:
#     adjusted = measured * REF_NOMINAL_S / (mean of the two reference times)
REF_LOOPS = 300_000
REF_NOMINAL_S = 0.023  # the reference loop on an idle core of the baseline host
REF_EVERY_S = 0.25


def reference_s():
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t


def run_pass(workload, seed, size="full", traced=False, expected=None,
             setup_only=False):
    """One pass of a workload; returns a JSON-ready dict of its figures.

    ``expected`` is the recorded expectation (``expected.json`` by
    default); pass ``{}`` to record instead of checking.  Times ending in
    ``_s`` are adjusted by the reference loop; ``raw`` holds them unadjusted.
    """
    wl = WORKLOADS[workload]
    clock = time.perf_counter
    ref0 = reference_s()
    t0 = clock()
    mods = import_qsing()
    qs = quivers(mods)
    L = Layers(mods, traced)
    tables = [L.hom_table(qs[name]) for name in wl.quiver_names(size)]
    setup_raw = clock() - t0
    refs = [reference_s()]
    setup_factor = REF_NOMINAL_S / ((ref0 + refs[0]) / 2)
    setup_s = setup_raw * setup_factor
    if setup_only:
        return {"setup_s": setup_s, "raw": {"setup_s": setup_raw}}

    ctx = {"mods": mods, "quivers": qs,
           "nq": {n: mods["orbits"].reduced_bound(qs[n]) for n in ("A3", "D4")}}
    inputs = wl.inputs(size, ctx)
    random.Random(seed).shuffle(inputs)

    latencies = []
    before = []  # index of the reference sample taken before each input
    recs = []
    next_ref = clock() + REF_EVERY_S
    for i, inp in enumerate(inputs):
        L.current = i
        a = clock()
        out = wl.query(L, inp, ctx)
        latencies.append(clock() - a)
        before.append(len(refs) - 1)
        recs.append(wl.summarize(out, ctx))
        del out  # keep only the small record, so memory does not grow with the pass
        if clock() >= next_ref:
            refs.append(reference_s())
            next_ref = clock() + REF_EVERY_S
    refs.append(reference_s())
    factors = [REF_NOMINAL_S / ((refs[k] + refs[k + 1]) / 2) for k in before]
    adjusted = [lat * f for lat, f in zip(latencies, factors)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    res = {
        "setup_s": setup_s,
        "wall_s": sum(adjusted),
        "latencies_s": adjusted,
        "peak_rss_mb": peak_rss_mb,
        "undecided": sum(map(wl.undecided, recs)),
        "counters": wl.counters(recs),
        "raw": {"setup_s": setup_raw, "wall_s": sum(latencies),
                "reference_s": [ref0] + refs},
    }
    res["counters"]["roots.hom_table.pairs"] = sum(len(t.roots) ** 2 for t in tables)
    if traced:
        res["layers"] = L.metrics(lambda i: factors[i] if i >= 0 else setup_factor)
    if expected == {}:
        res["record"] = {wl.key(inp): rec["result"] for inp, rec in zip(inputs, recs)
                         if wl.keep_none or rec["result"] is not None}
        return res
    entry = (expected or load_expected())[workload]
    missing = wl.missing(size, inputs, entry)
    res["attempted"] = len(inputs) + missing
    res["failed"] = missing + sum(not wl.check(inp, rec, entry)
                                  for inp, rec in zip(inputs, recs))
    return res
