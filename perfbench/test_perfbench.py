"""The benchmark's own tests: tiny runs of every workload, traced and not,
and output checks that catch a corrupted expectation.

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run(name, trace):
    proc = run_bench("--workload", name, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    # a traced run also compares its counters with the untraced pass's
    assert res["correct"] is True and res["failed"] == 0, proc.stderr
    assert res["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_seed_only_permutes():
    a = workloads.run_pass("bfunction-census", 1, size="tiny")
    b = workloads.run_pass("bfunction-census", 2, size="tiny")
    assert a["counters"] == b["counters"]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]) == (
        a["attempted"], 0)


def _corrupt_nullcone(exp):
    exp["nullcone-e8"]["E6:1,3,3,3,1,2"]["verdict"] = "not-reduced"


def _corrupt_sweep(exp):
    del exp["reduced-sweep"]["A3:2,2,2"]


def _corrupt_census(exp):
    entry = exp["bfunction-census"]
    k = next(k for k, v in sorted(entry.items()) if k.startswith("E6") and v)
    entry[k] = "0" * 16


def _corrupt_certify(exp):
    exp["certify-grid"]["e6-ex1:2:1"] = "inconclusive"


@pytest.mark.parametrize("name,corrupt", [
    ("nullcone-e8", _corrupt_nullcone),
    ("reduced-sweep", _corrupt_sweep),
    ("bfunction-census", _corrupt_census),
    ("certify-grid", _corrupt_certify),
])
def test_corrupted_expectation_is_failed(name, corrupt):
    expected = copy.deepcopy(workloads.load_expected())
    assert workloads.run_pass(name, 3, size="tiny", expected=expected)["failed"] == 0
    corrupt(expected)
    assert workloads.run_pass(name, 3, size="tiny", expected=expected)["failed"] == 1


def test_census_input_dropped_is_failed():
    """A recorded input that the census no longer selects counts as failed."""
    census = workloads.WORKLOADS["bfunction-census"]
    entry = workloads.load_expected()["bfunction-census"]
    inputs = workloads.box(workloads.SIZES["tiny"]["bfunction-census"])
    assert census.missing("tiny", inputs, entry) == 0
    assert census.missing("tiny", inputs[1:], entry) == 1


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
