import json
import subprocess
import sys

import pytest

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


def test_singularities_certificate_file(tmp_path):
    cert = tmp_path / "cert.json"
    run_cli(["singularities", "--preset", "e6-ex1", "--n", "2", "--m", "2",
             "--certificate-out", str(cert)])
    proc = run_cli(["verify-certificate", str(cert)])
    assert "accepted" in proc.stdout
    # tamper and expect rejection
    payload = json.loads(cert.read_text())
    payload["certificate"]["branches"] = payload["certificate"]["branches"][1:]
    cert.write_text(json.dumps(payload))
    proc = run_cli(["verify-certificate", str(cert)], check=False)
    assert proc.returncode == 1 and "REJECTED" in proc.stdout


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


# 600 nested reduc_a nodes, 1,800 levels of JSON nesting: more than json.load
# can read under the default recursion limit; written as text, because
# json.dumps cannot write it either
DEEP_CERTIFICATE = (
    '{"terms": [], "r": 2, "certificate": '
    + '{"rule": "reduc_a", "data": {}, "branches": [[{}, ' * 600
    + '{"rule": "leaf_last_var", "data": {}, "branches": []}'
    + ']]}' * 600 + '}')


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
    ["singularities", "--preset", "e6-ex1", "--n", "2", "--m", "1",
     "--certificate-out", "{missing}/c.json"],
    ["nullcone", "--quiver", "{words}", "--dim", "1,1"],
    ["nullcone", "--quiver", "{letter}", "--dim", "1,1"],
    ["nullcone", "--quiver", "{a3}", "--dim", "1,2,3"],
    ["bfunction", "--quiver", "{a3}", "--dim", "1,2,3"],
    ["singularities", "--quiver", "{a3}", "--dim", "1,2,3"],
], ids=["negative-dim", "negative-preset-n", "simples-not-int",
        "simples-range-file", "simples-range-preset", "simples-empty",
        "box-bound-negative", "hom-no-quiver",
        "hom-not-a-root", "unknown-preset", "certificate-without-r",
        "certificate-term-a-above-b",
        "certificate-nested-past-json-recursion-limit",
        "certificate-out-missing-dir", "quiver-vertices-not-int",
        "quiver-arrow-not-int", "nullcone-no-simple", "bfunction-no-simple",
        "singularities-no-simple"])
def test_bad_input_exits_2_without_traceback(tmp_path, args):
    (tmp_path / "a3.quiver").write_text(A3_FILE)
    (tmp_path / "cert.json").write_text(json.dumps({"terms": []}))
    (tmp_path / "reversed.json").write_text(json.dumps(REVERSED_TERM))
    (tmp_path / "deep.json").write_text(DEEP_CERTIFICATE)
    (tmp_path / "words.quiver").write_text(VERTICES_IN_WORDS)
    (tmp_path / "letter.quiver").write_text(ARROW_TO_A_LETTER)
    args = [a.format(a3=tmp_path / "a3.quiver", cert=tmp_path / "cert.json",
                     reversed=tmp_path / "reversed.json",
                     deep=tmp_path / "deep.json",
                     missing=tmp_path / "missing",
                     words=tmp_path / "words.quiver",
                     letter=tmp_path / "letter.quiver")
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


def _reduc_a_cert_without_u(tmp_path):
    cert = tmp_path / "full.json"
    run_cli(["singularities", "--preset", "e6-ex1", "--n", "2", "--m", "2",
             "--certificate-out", str(cert)])
    payload = json.loads(cert.read_text())
    assert payload["certificate"]["rule"] == "reduc_a"
    del payload["certificate"]["data"]["certs"][0]["u"]
    return payload


@pytest.mark.parametrize("payload", [lambda _: MALFORMED_NODE,
                                     _reduc_a_cert_without_u],
                         ids=["reduc_a-empty-data", "reduc_a-missing-u"])
def test_malformed_node_data_is_rejected_without_traceback(tmp_path, payload):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(payload(tmp_path)))
    proc = run_cli(["verify-certificate", str(cert)], check=False)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("REJECTED: malformed certificate: ")
    assert "Traceback" not in proc.stderr
