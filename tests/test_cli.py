import json
import subprocess
import sys
from fractions import Fraction

import pytest

from qsing import cli
from qsing.cli import main


def run_cli(args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "qsing.cli"] + args,
        capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_decompose_preset_text():
    proc = run_cli(["decompose", "--preset", "e6-ex1", "--n", "1", "--m", "1"])
    assert "(0,1,1,1,0;1) x 1" in proc.stdout
    assert "(1,2,2,2,1;1) x 1" in proc.stdout
    assert "r = 4" in proc.stdout


def test_decompose_file_json(tmp_path):
    qf = tmp_path / "a2.quiver"
    qf.write_text("vertices 2\narrow 1 2\n")
    proc = run_cli(["decompose", "--quiver", str(qf), "--dim", "1,1",
                    "--format", "json"])
    data = json.loads(proc.stdout)
    assert data["parts"] == [[[1, 1], 1]]
    assert data["simples"] == [[0, 1]]


def test_decompose_with_no_perpendicular_simple(tmp_path):
    """An alpha with no perpendicular simple still decomposes; the
    subcommands that select simples exit 2 on it
    (``test_bad_input_exits_2_without_traceback``)."""
    qf = tmp_path / "a3.quiver"
    qf.write_text(A3_FILE)
    proc = run_cli(["decompose", "--quiver", str(qf), "--dim", "1,2,3"])
    assert "perpendicular simples (r = 0):" in proc.stdout


def test_json_round_trip_matches_text(tmp_path):
    qf = tmp_path / "a2.quiver"
    qf.write_text("vertices 2\narrow 1 2\n")
    args = ["bfunction", "--quiver", str(qf), "--dim", "1,1"]
    as_json = json.loads(run_cli(args + ["--format", "json"]).stdout)
    as_text = run_cli(args).stdout
    assert as_json["rendered"] in as_text
    assert as_json["terms"] == [{"gamma": [1], "a": 0, "b": 1, "mult": 1}]


@pytest.mark.parametrize("command", [
    ["decompose"], ["nullcone"], ["bfunction"], ["singularities"],
    ["hom", "--a", "1,0", "--b", "1,1"]])
def test_json_output_carries_no_text_lines(tmp_path, capsys, command):
    """The text lines a report keeps for the text format stay out of its
    JSON."""
    qf = tmp_path / "a2.quiver"
    qf.write_text("vertices 2\narrow 1 2\n")
    main(command + ["--quiver", str(qf), "--dim", "1,1", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert data and "_text" not in data


def test_malformed_quiver_exits_2(tmp_path):
    qf = tmp_path / "bad.quiver"
    qf.write_text("vertices 2\nnonsense\n")
    proc = run_cli(["decompose", "--quiver", str(qf), "--dim", "1,1"],
                   check=False)
    assert proc.returncode == 2
    proc = run_cli(["decompose", "--quiver", str(qf) + ".missing",
                    "--dim", "1,1"], check=False)
    assert proc.returncode == 2
    qf.write_text("vertices 2\narrow 1 2\n")
    proc = run_cli(["decompose", "--quiver", str(qf), "--dim", "1,1,1"],
                   check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ["decompose", "--dim", "1,1"],
    ["nullcone", "--dim", "1,1"],
    ["bfunction", "--dim", "1,1"],
    ["singularities", "--dim", "1,1"],
    ["hom", "--a", "1,0", "--b", "0,1"]], ids=lambda args: args[0])
def test_non_dynkin_exits_3(tmp_path, args):
    qf = tmp_path / "kron.quiver"
    qf.write_text("vertices 2\narrow 1 2\narrow 1 2\n")
    proc = run_cli([args[0], "--quiver", str(qf)] + args[1:], check=False)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_nullcone_a2(tmp_path):
    qf = tmp_path / "a2.quiver"
    qf.write_text("vertices 2\narrow 1 2\n")
    proc = run_cli(["nullcone", "--quiver", str(qf), "--dim", "1,1",
                    "--format", "json"])
    data = json.loads(proc.stdout)
    assert data["verdict"] == "reduced" and data["reason"] == ""
    assert data["ci"] is True
    assert len(data["components"]) == 1
    assert data["components"][0]["codim"] == 1
    # X(a) = 0 at the component; the Jacobian minor is its one coordinate
    assert data["components"][0]["jacobian_minor"] == [[0, 0, 0]]
    assert "gradient_b" not in data["components"][0]
    text = run_cli(["nullcone", "--quiver", str(qf), "--dim", "1,1"]).stdout
    assert "(a):true  rule 2: rank 1  (0,1)x1 + (1,0)x1\n" in text
    assert "(b):" not in text


# the CLI mod 3 on representatives scaled by 3, as in test_orbits'
# inconclusive-rank test
SCALED_BY_3 = """
import sys
from qsing import jacobian
from qsing.cli import main
real = jacobian.realize
jacobian.P = 3
jacobian.realize = lambda q, root: (
    real(q, root)[0], [[[3 * x for x in row] for row in m] for m in real(q, root)[1]])
main(sys.argv[1:])
"""


def test_nullcone_json_gives_the_reason():
    """The verdict's reason comes out in JSON as in the text: empty for a
    reduced verdict from rule 2, and naming the component and the prime
    where rule 2 is inconclusive."""
    args = ["nullcone", "--preset", "e6-ex1", "--format", "json"]
    assert json.loads(run_cli(args).stdout)["reason"] == ""
    proc = subprocess.run([sys.executable, "-c", SCALED_BY_3] + args,
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    data = json.loads(proc.stdout)
    assert data["verdict"] == "unverified"
    assert data["reason"].startswith(
        "rule 2 is inconclusive mod p = 3 at the component (((0, 0, 0, 0, 0, 1), 1), ")


@pytest.mark.parametrize("dim", ["0,0,0", "1,1,0"])
def test_nullcone_with_no_nonconstant_semi_invariant(tmp_path, dim):
    # alpha = 0 has the empty generic class; at (1,1,0) the selected simples
    # give constant semi-invariants, so both zero sets come out empty
    qf = tmp_path / "a3.quiver"
    qf.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    out = run_cli(["nullcone", "--quiver", str(qf), "--dim", dim]).stdout
    assert "components: 0\n" in out
    assert "verdict: reduced (empty zero set)" in out
    data = json.loads(run_cli(["nullcone", "--quiver", str(qf), "--dim", dim,
                               "--format", "json"]).stdout)
    assert (data["verdict"], data["reason"]) == ("reduced", "empty zero set")


def test_bfunction_e6_preset():
    proc = run_cli(["bfunction", "--preset", "e6-ex1", "--n", "2", "--m", "2",
                    "--format", "json"])
    data = json.loads(proc.stdout)
    terms = {(tuple(t["gamma"]), t["a"], t["b"], t["mult"]) for t in data["terms"]}
    assert ((0, 0, 1, 1), 4, 6, 1) in terms
    assert ((1, 0, 0, 0), 0, 4, 1) in terms


def test_singularities_a2(tmp_path):
    qf = tmp_path / "a2.quiver"
    qf.write_text("vertices 2\narrow 1 2\n")
    proc = run_cli(["singularities", "--quiver", str(qf), "--dim", "1,1",
                    "--format", "json"])
    data = json.loads(proc.stdout)
    assert data["verdict"] == "rational_singularities"
    assert data["largest_root"] == "-1"


def test_singularities_e8_pos_beyond_the_old_box():
    """e8-pos at n = 9: the bad common zero (33, -35) of the generators b_c
    lies outside the box |v_1|, |v_2| <= 30 the refutation once scanned,
    and is found."""
    data = json.loads(run_cli(["singularities", "--preset", "e8-pos", "--n", "9",
                               "--format", "json"]).stdout)
    assert data["verdict"] == "not_certified"
    assert data["reason"] == "bad common zero of the generators b_c"
    assert data["witness"] == ["33", "-35"]


def write_report(path, *args):
    """The singularities JSON report for ``args``, written to ``path``: the
    certificate file ``verify-certificate`` reads."""
    path.write_text(run_cli(["singularities", *args, "--format", "json"]).stdout)
    return path


def test_singularities_certificate_file(tmp_path):
    cert = write_report(tmp_path / "cert.json",
                        "--preset", "e6-ex1", "--n", "2", "--m", "2")
    assert json.loads(cert.read_text())["r"] == 4
    proc = run_cli(["verify-certificate", str(cert)])
    assert proc.stdout == "accepted: certificate verified\n"
    # tamper and expect rejection
    payload = json.loads(cert.read_text())
    payload["certificate"]["branches"] = payload["certificate"]["branches"][1:]
    cert.write_text(json.dumps(payload))
    proc = run_cli(["verify-certificate", str(cert)], check=False)
    assert proc.returncode == 1 and proc.stdout.startswith("REJECTED: ")


def test_report_without_a_certificate_exits_2(tmp_path):
    """e8-pos at n = 1 is refuted, so its report's certificate is null."""
    cert = write_report(tmp_path / "e8-pos.json", "--preset", "e8-pos", "--n", "1")
    assert json.loads(cert.read_text())["certificate"] is None
    proc = run_cli(["verify-certificate", str(cert)], check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["nullcone", "bfunction", "singularities"])
def test_one_spec_per_request(monkeypatch, capsys, command):
    """A request that selects simples builds one ``ZeroSetSpec``, and alpha
    is decomposed there and nowhere else in the CLI."""
    calls = {"make_spec": 0, "generic_decomposition": 0}

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)

    counted("make_spec")
    counted("generic_decomposition")
    main([command, "--preset", "e6-ex1", "--format", "json"])
    assert json.loads(capsys.readouterr().out)
    assert calls == {"make_spec": 1, "generic_decomposition": 0}


def test_no_perpendicular_simple_names_the_cause(tmp_path):
    (tmp_path / "a3.quiver").write_text(A3_FILE)
    proc = run_cli(["nullcone", "--quiver", str(tmp_path / "a3.quiver"),
                    "--dim", "1,2,3"], check=False)
    assert proc.returncode == 2
    assert proc.stderr == ("error: dimension vector (1, 2, 3) has no perpendicular "
                           "simple, so there is no semi-invariant to select\n")


def test_hom_subcommand():
    proc = run_cli(["hom", "--preset", "e8-notred",
                    "--a", "0,0,1,0,0,0,0,0", "--b", "0,1,2,1,1,1,0,1"])
    assert "= 2" in proc.stdout


A3_FILE = "vertices 3\narrow 1 2\narrow 2 3\n"
# quiver files with a token that is not an integer
VERTICES_IN_WORDS = "vertices three\n"
ARROW_TO_A_LETTER = "vertices 2\narrow 1 x\n"

# a bracket [s]_{a,b} with a > b is not a term of any b-function family
REVERSED_TERM = {
    "terms": [{"gamma": [1, 0], "a": 3, "b": 1, "mult": 1},
              {"gamma": [0, 1], "a": 0, "b": 1, "mult": 1}],
    "r": 2,
    "certificate": {"rule": "reduc_a", "data": {}, "branches": []},
}


# term fields that are not integers: a bool gamma entry and a float
# multiplicity, and bools for a and b
NON_INT_TERMS = {
    "bool-gamma-float-mult": {"gamma": [True], "a": 0, "b": 1, "mult": 1.5},
    "bool-endpoints": {"gamma": [1], "a": False, "b": True, "mult": 1},
}


def certificate_with_term(term):
    return {"terms": [term], "r": 1, "certificate": {
        "rule": "leaf_last_var", "data": {}, "branches": []}}


# 600 nested reduc_a nodes, 1,800 levels of JSON nesting: more than json.load
# can read under the default recursion limit; written as text, because
# json.dumps cannot write it either
DEEP_CERTIFICATE = (
    '{"terms": [], "r": 2, "certificate": '
    + '{"rule": "reduc_a", "data": {}, "branches": [[{}, ' * 600
    + '{"rule": "leaf_last_var", "data": {}, "branches": []}'
    + ']]}' * 600 + '}')


# a certificate that closes on a family with no variables; r is checked
# before the family is built, so each r below is an input error
def certificate_with_r(r):
    return {"terms": [], "r": r, "certificate": {
        "rule": "leaf_all_fixed", "data": {"mode": "clean"}, "branches": []}}


BAD_R = {"r-zero": 0, "r-true": True, "r-false": False, "r-negative": -1,
         "r-float": 1.0, "r-string": "1", "r-null": None}


@pytest.mark.parametrize("args", [
    ["decompose", "--quiver", "{a3}", "--dim=-1,2,3"],
    ["decompose", "--preset", "e6-ex1", "--n", "-1"],
    ["nullcone", "--quiver", "{a3}", "--dim", "1,2,1", "--simples", "x"],
    ["nullcone", "--quiver", "{a3}", "--dim", "1,2,1", "--simples", "9"],
    ["nullcone", "--preset", "e6-ex1", "--simples", "9"],
    ["nullcone", "--quiver", "{a3}", "--dim", "1,2,1", "--simples", ""],
    ["singularities", "--quiver", "{a3}", "--dim", "1,2,1", "--box-bound", "-1"],
    ["hom", "--a", "1,0,0", "--b", "0,1,0"],
    ["hom", "--quiver", "{a3}", "--a", "1,0,1", "--b", "0,1,0"],
    ["decompose", "--preset", "nope"],
    ["verify-certificate", "{cert}"],
    ["verify-certificate", "{reversed}"],
    ["verify-certificate", "{deep}"],
    *[["verify-certificate", "{%s}" % name] for name in BAD_R],
    *[["verify-certificate", "{%s}" % name] for name in NON_INT_TERMS],
    ["singularities", "--preset", "e6-ex1", "--n", "2", "--m", "1",
     "--certificate-out", "{out}"],
    ["nullcone", "--quiver", "{words}", "--dim", "1,1"],
    ["nullcone", "--quiver", "{letter}", "--dim", "1,1"],
    ["nullcone", "--quiver", "{a3}", "--dim", "1,2,3"],
    ["bfunction", "--quiver", "{a3}", "--dim", "1,2,3"],
    ["singularities", "--quiver", "{a3}", "--dim", "1,2,3"],
    ["singularities", "--preset", "e8-pos", "--n", "0"],
    ["nullcone", "--preset", "e6-ex1", "--n", "0", "--m", "0"],
    ["decompose", "--preset", "e8-notred", "--n", "5", "--m", "9"],
    ["decompose", "--preset", "e8-notred", "--n", "5"],
    ["decompose", "--preset", "e8-pos", "--n", "1", "--m", "9"],
], ids=["negative-dim", "negative-preset-n", "simples-not-int",
        "simples-range-file", "simples-range-preset", "simples-empty",
        "box-bound-removed", "hom-no-quiver",
        "hom-not-a-root", "unknown-preset", "certificate-without-r",
        "certificate-term-a-above-b",
        "certificate-nested-past-json-recursion-limit",
        *("certificate-" + name for name in BAD_R),
        *("certificate-" + name for name in NON_INT_TERMS),
        "certificate-out-unknown-option", "quiver-vertices-not-int",
        "quiver-arrow-not-int", "nullcone-no-simple", "bfunction-no-simple",
        "singularities-no-simple", "preset-n-zero", "preset-n-m-zero",
        "preset-e8-notred-n-m", "preset-e8-notred-n", "preset-e8-pos-m"])
def test_bad_input_exits_2_without_traceback(tmp_path, args):
    (tmp_path / "a3.quiver").write_text(A3_FILE)
    (tmp_path / "cert.json").write_text(json.dumps({"terms": []}))
    (tmp_path / "reversed.json").write_text(json.dumps(REVERSED_TERM))
    (tmp_path / "deep.json").write_text(DEEP_CERTIFICATE)
    (tmp_path / "words.quiver").write_text(VERTICES_IN_WORDS)
    (tmp_path / "letter.quiver").write_text(ARROW_TO_A_LETTER)
    certs = {}
    for name, r in BAD_R.items():
        certs[name] = tmp_path / f"{name}.json"
        certs[name].write_text(json.dumps(certificate_with_r(r)))
    for name, term in NON_INT_TERMS.items():
        certs[name] = tmp_path / f"{name}.json"
        certs[name].write_text(json.dumps(certificate_with_term(term)))
    args = [a.format(a3=tmp_path / "a3.quiver", cert=tmp_path / "cert.json",
                     reversed=tmp_path / "reversed.json",
                     deep=tmp_path / "deep.json",
                     out=tmp_path / "out.json",
                     words=tmp_path / "words.quiver",
                     letter=tmp_path / "letter.quiver", **certs)
            for a in args]
    proc = run_cli(args, check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


MALFORMED_NODE = {
    "terms": [{"gamma": [1, 0], "a": 0, "b": 1, "mult": 1},
              {"gamma": [0, 1], "a": 0, "b": 1, "mult": 1}],
    "r": 2,
    "certificate": {"rule": "reduc_a", "data": {}, "branches": []},
}


def _e6_certificate(tmp_path):
    cert = write_report(tmp_path / "full.json",
                        "--preset", "e6-ex1", "--n", "2", "--m", "2")
    return json.loads(cert.read_text())


def _reduc_a_cert_without_u(tmp_path):
    payload = _e6_certificate(tmp_path)
    assert payload["certificate"]["rule"] == "reduc_a"
    del payload["certificate"]["data"]["certs"][0]["u"]
    return payload


def _cert_with_bool_case_values(tmp_path):
    """The certificate with each case value whose constant is "0" written
    with false, which is not an integer."""
    payload = _e6_certificate(tmp_path)
    stack = [payload["certificate"]]
    while stack:
        for assume, child in stack.pop()["branches"]:
            if assume["value"]["const"] == "0":
                assume["value"]["const"] = False
            stack.append(child)
    return payload


def _cert_with_a_bool_variable(tmp_path):
    """The certificate with variable 1 of its root's index set written as
    true, which is not a variable."""
    payload = _e6_certificate(tmp_path)
    index_set = payload["certificate"]["data"]["I"]
    index_set[index_set.index(1)] = True
    return payload


def _cert_with_float_multipliers(tmp_path):
    """The certificate with the multipliers u of its root's first lemma (a)
    system written as JSON floats, which are not rationals."""
    payload = _e6_certificate(tmp_path)
    u = payload["certificate"]["data"]["certs"][0]["u"]
    u[:] = [float(Fraction(x)) for x in u]
    return payload


@pytest.mark.parametrize("payload", [lambda _: MALFORMED_NODE,
                                     _reduc_a_cert_without_u,
                                     _cert_with_bool_case_values,
                                     _cert_with_a_bool_variable,
                                     _cert_with_float_multipliers],
                         ids=["reduc_a-empty-data", "reduc_a-missing-u",
                              "case-value-false", "variable-true",
                              "multiplier-float"])
def test_malformed_node_data_is_rejected_without_traceback(tmp_path, payload):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(payload(tmp_path)))
    proc = run_cli(["verify-certificate", str(cert)], check=False)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("REJECTED: malformed certificate: ")
    assert "Traceback" not in proc.stderr
