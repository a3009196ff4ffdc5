"""Command line interface.

Subcommands: decompose | nullcone | bfunction | singularities | hom |
verify-certificate.  Exit codes: 0 ok, 1 certificate REJECTED by
verify-certificate, 2 invalid input (an unknown option included), 3
non-Dynkin quiver, 4 b-function recursion out of its validated regime; for
2-4 stderr starts with an "error: ..." line.  The package checks the input
(``quiver.dimension_vector``, ``orbits.make_spec``), once per request.

``singularities`` takes no search bound: at r = 2 it refutes from the
finite candidate set of the family's root lines (``bsato._refute``), so it
finds a bad common zero of the generators b_c wherever one lies.  Its JSON
report is the certificate file that ``verify-certificate`` reads.
"""

from __future__ import annotations

import argparse
import json
import sys

from .brackets import (
    BFunctionFamily,
    TerminalRuleInapplicable,
    compute_bfunction,
    family_from_terms,
    BracketTerm,
    render_family,
)
from .bsato import (
    cert_to_json,
    rational_singularities_verdict,
    verify_certificate,
)
from .decomp import generic_decomposition, perp_simples
from .orbits import components, is_set_theoretic_ci, make_spec, reducedness_report
from .presets import PRESET_NAMES, preset
from .quiver import NonDynkinError, QuiverError, dimension_vector, parse_quiver_file
from .roots import hom_table

EXIT_BAD_INPUT = 2
EXIT_NON_DYNKIN = 3
EXIT_BFUNCTION = 4


class CliError(Exception):
    def __init__(self, message, code=EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


def _parse_ints(text, what):
    """A comma (or semicolon) separated int tuple; the package checks it."""
    try:
        return tuple(int(x) for x in text.replace(";", ",").split(","))
    except ValueError as exc:
        raise CliError(f"cannot parse {what} {text!r}: {exc}")


def _read_quiver(path):
    if not path:
        raise CliError("need --preset or --quiver FILE")
    try:
        with open(path) as fh:
            return parse_quiver_file(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read quiver file: {exc}")
    except QuiverError as exc:
        raise CliError(f"bad quiver file: {exc}")


def _load_request(args):
    """(quiver, alpha, spec, branch_last) from --preset or --quiver/--dim;
    spec is the one ``ZeroSetSpec`` of nullcone, bfunction and singularities,
    else None.  The package's ValueError is an input error; a QuiverError
    (NonDynkinError included) goes on to ``main``."""
    if args.preset:
        if args.preset not in PRESET_NAMES:
            raise CliError(f"unknown preset {args.preset!r}; "
                           f"available: {', '.join(PRESET_NAMES)}")
        q, alpha, selected, branch = preset(args.preset, n=args.n, m=args.m)
    else:
        if not args.quiver or not args.dim:
            raise CliError("need --preset or both --quiver FILE and --dim VECTOR")
        q = _read_quiver(args.quiver)
        alpha, selected, branch = _parse_ints(args.dim, "dimension vector"), None, False
    spec = None
    try:
        alpha = dimension_vector(q, alpha)
        if hasattr(args, "simples"):
            if args.simples is not None:  # an empty --simples is an error, not "all"
                selected = _parse_ints(args.simples, "--simples")
            spec = make_spec(q, alpha, selected)
    except QuiverError:
        raise
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return q, alpha, spec, branch


def _fmt_vec(v, branch_last):
    if branch_last:
        return "(" + ",".join(map(str, v[:-1])) + ";" + str(v[-1]) + ")"
    return "(" + ",".join(map(str, v)) + ")"


def _emit(report, args):
    if args.format == "json":  # the text lines are the text format's alone
        print(json.dumps({k: v for k, v in report.items() if k != "_text"},
                         indent=2, sort_keys=True))
    else:
        for line in report["_text"]:
            print(line)


def cmd_decompose(args):
    q, alpha, _spec, branch = _load_request(args)
    t = generic_decomposition(q, alpha)
    perp = perp_simples(q, t)
    text = [f"alpha = {_fmt_vec(alpha, branch)}", "generic decomposition:"]
    for r, mult in t.parts:
        text.append(f"  {_fmt_vec(r, branch)} x {mult}")
    text.append(f"perpendicular simples (r = {perp.r}):")
    for i, s in enumerate(perp.simples, 1):
        text.append(f"  [{i}] {_fmt_vec(s, branch)}")
    report = {
        "alpha": list(alpha),
        "parts": [[list(r), mult] for r, mult in t.parts],
        "simples": [list(s) for s in perp.simples],
        "r": perp.r,
        "_text": text,
    }
    _emit(report, args)


def cmd_nullcone(args):
    _q, alpha, spec, branch = _load_request(args)
    comps = components(spec)
    ci = is_set_theoretic_ci(spec, comps)
    red = reducedness_report(spec, comps)
    text = [f"alpha = {_fmt_vec(alpha, branch)}",
            f"selected semi-invariants: {list(spec.selected)}",
            f"components: {len(comps)}"]
    k = len(spec.selected)
    for c in comps:
        parts = " + ".join(f"{_fmt_vec(r, branch)}x{mult}" for r, mult in
                           c.rep_class.parts)
        if not c.gradient_a:
            rank = f"rule 1: rank < {k}"
        elif c.jacobian_minor is not None:
            rank = f"rule 2: rank {k}"
        else:
            rank = "rank: not decided"
        text.append(f"  codim {c.codim}  hom {list(c.hom_to_simples)}  "
                    f"(a):{str(c.gradient_a).lower()}  {rank}  {parts}")
    text.append(f"set-theoretic complete intersection: {str(ci).lower()}")
    text.append(f"verdict: {red.verdict}" + (f" ({red.reason})" if red.reason else ""))
    if red.witness is not None:
        text.append("witness component: " + " + ".join(
            f"{_fmt_vec(r, branch)}x{mult}" for r, mult in red.witness.parts))
    report = {
        "components": [
            {
                "parts": [[list(r), mult] for r, mult in c.rep_class.parts],
                "codim": c.codim,
                "hom_profile": list(c.hom_to_simples),
                "gradient_a": c.gradient_a,
                "jacobian_minor": [list(x) for x in c.jacobian_minor]
                if c.jacobian_minor is not None else None,
            }
            for c in comps
        ],
        "ci": ci,
        "verdict": red.verdict,
        "reason": red.reason,
        "witness": [[list(r), mult] for r, mult in red.witness.parts]
        if red.witness is not None else None,
        "_text": text,
    }
    _emit(report, args)


def _family_json(fam: BFunctionFamily):
    return [
        {"gamma": list(t.gamma), "a": t.a, "b": t.b, "mult": t.mult}
        for t in fam.terms()
    ]


def cmd_bfunction(args):
    q, alpha, spec, branch = _load_request(args)
    fam = compute_bfunction(q, alpha, spec.selected_simples)
    text = [f"alpha = {_fmt_vec(alpha, branch)}",
            "variables (selected simples, lexicographic):"]
    for pos, j in enumerate(spec.selected, 1):
        text.append(f"  s_{pos} <-> {_fmt_vec(spec.perp.simples[j - 1], branch)}")
    text.append("b(s) = " + render_family(fam))
    report = {
        "alpha": list(alpha),
        "selected": list(spec.selected),
        "variables": [list(spec.perp.simples[j - 1]) for j in spec.selected],
        "terms": _family_json(fam),
        "rendered": render_family(fam),
        "_text": text,
    }
    _emit(report, args)


def cmd_singularities(args):
    _q, alpha, spec, branch = _load_request(args)
    v = rational_singularities_verdict(spec)
    text = [f"alpha = {_fmt_vec(alpha, branch)}", f"verdict: {v.kind}"]
    if v.reason:
        text.append(f"reason: {v.reason}")
    if v.largest_root is not None:
        text.append(f"largest b-function root: {v.largest_root} "
                    f"(multiplicity {v.largest_root_mult})")
    if v.witness is not None:
        text.append(f"bad common zero of the generators b_c: ({', '.join(map(str, v.witness))})")
    report = {
        "verdict": v.kind,
        "reason": v.reason,
        "r": v.family.r,
        "terms": _family_json(v.family),
        "largest_root": str(v.largest_root) if v.largest_root is not None else None,
        "largest_root_mult": v.largest_root_mult,
        "witness": [str(x) for x in v.witness] if v.witness else None,
        "certificate": cert_to_json(v.certificate) if v.certificate else None,
        "_text": text,
    }
    _emit(report, args)


def cmd_hom(args):
    if args.preset:
        q, _alpha, _spec, branch = _load_request(args)
    else:
        q, branch = _read_quiver(args.quiver), False
    a = _parse_ints(args.a, "--a")
    b = _parse_ints(args.b, "--b")
    table = hom_table(q)
    if a not in table.index or b not in table.index:
        raise CliError("hom expects positive roots; use decompose for classes")
    h = table.hom_root(a, b)
    e = table.ext_root(a, b)
    report = {"hom": h, "ext": e,
              "_text": [f"hom{_fmt_vec(a, branch)}->{_fmt_vec(b, branch)} = {h}, "
                        f"ext = {e}"]}
    _emit(report, args)


def cmd_verify_certificate(args):
    try:
        with open(args.certificate) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"cannot read certificate: {exc}")
    try:
        r = payload["r"]
        if type(r) is not int or r < 1:
            raise ValueError(f"r = {r!r} is not an integer >= 1")
        terms = [BracketTerm(tuple(t["gamma"]), t["a"], t["b"], t["mult"])
                 for t in payload["terms"]]
        fam = family_from_terms(r, terms)
        cert = payload["certificate"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed certificate file: {exc!r}")
    if cert is None:
        raise CliError(f"the report holds no certificate (verdict "
                       f"{payload.get('verdict')!r})")
    ok, msg = verify_certificate(fam, cert)
    print(("accepted: " if ok else "REJECTED: ") + msg)
    if not ok:
        sys.exit(1)


class _Parser(argparse.ArgumentParser):
    """argparse's parser with the CLI's error line: a usage error prints
    "error: ..." and then the usage, and exits 2 like any bad input."""

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"error: {message}\n{self.format_usage()}")


def build_parser():
    p = _Parser(
        prog="qsing",
        description="semi-invariants of Dynkin quivers: decomposition, "
                    "nullcone geometry, b-functions, singularity certificates")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, simples=True):
        sp.add_argument("--quiver", help="quiver file (vertices n / arrow t h)")
        sp.add_argument("--dim", help="dimension vector, comma separated")
        sp.add_argument("--preset", help="e6-ex1 | e8-notred | e8-pos")
        sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--m", type=int, default=1)
        if simples:
            sp.add_argument("--simples",
                            help="comma separated 1-based indices of the "
                                 "perpendicular simples to select")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("decompose", help="generic decomposition and T-perp simples")
    common(sp, simples=False)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("nullcone", help="components, CI and reducedness verdict")
    common(sp)
    sp.set_defaults(func=cmd_nullcone)

    sp = sub.add_parser("bfunction", help="multi-variable b-function")
    common(sp)
    sp.set_defaults(func=cmd_bfunction)

    sp = sub.add_parser("singularities", help="rational singularities verdict")
    common(sp)
    sp.set_defaults(func=cmd_singularities)

    sp = sub.add_parser("hom", help="hom/ext dimensions between two roots")
    common(sp, simples=False)
    sp.add_argument("--a", required=True, help="first root")
    sp.add_argument("--b", required=True, help="second root")
    sp.set_defaults(func=cmd_hom)

    sp = sub.add_parser("verify-certificate", help="re-check a stored certificate")
    sp.add_argument("certificate", help="certificate JSON file")
    sp.set_defaults(func=cmd_verify_certificate)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.code)
    except NonDynkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_NON_DYNKIN)
    except TerminalRuleInapplicable as exc:
        print(f"error: b-function recursion failed: {exc}", file=sys.stderr)
        sys.exit(EXIT_BFUNCTION)
    except QuiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_BAD_INPUT)


if __name__ == "__main__":
    main()
