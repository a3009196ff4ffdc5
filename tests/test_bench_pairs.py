"""``scripts/bench_pairs.py``'s summary on synthetic runs: the gain rule and
the bound check it stores per metric, the comparison of the two traced
runs' work counters and the span times it keeps of both; and the digest
of the package sources that names the code each side measured."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [("wall_s", "lower", 0.2), ("decided_frac", "higher", 0.02)]


def run(seed, side, wall_s=1.0, decided_frac=1.0):
    return {"workload": "w", "seed": seed, "side": side,
            "output": {"correct": True, "failed": 0, "metrics": {
                "wall_s": {"value": wall_s}, "decided_frac": {"value": decided_frac}}}}


def pairs(parent, change, metric="wall_s"):
    """One pair per seed, the parent's value then the change's."""
    return [run(seed, side, **{metric: v})
            for seed, (p, c) in enumerate(zip(parent, change))
            for side, v in (("parent", p), ("change", c))]


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045


@pytest.mark.parametrize("change, wins, met", [
    ([v - 0.2 for v in PARENT[:9]] + [1.5], 9, True),  # 9/10 wins, gap 0.2
    ([v - 0.2 for v in PARENT[:8]] + [1.5, 1.5], 8, False),  # 8/10 wins
    ([v - 0.01 for v in PARENT], 10, False),  # gap 0.01 inside the IQR
])
def test_gain_rule_on_a_lower_is_better_metric(change, wins, met):
    s = bench_pairs.summarize(pairs(PARENT, change), METRICS)["w"]["wall_s"]
    assert (s["pairs"], s["change_better_in"], s["gain_rule_met"]) == (10, wins, met)


def test_gain_rule_on_a_higher_is_better_metric():
    up = [v + 0.2 for v in PARENT]
    s = bench_pairs.summarize(pairs(PARENT, up, "decided_frac"), METRICS)["w"]
    assert (s["decided_frac"]["change_better_in"], s["decided_frac"]["gain_rule_met"]) == (10, True)
    # the same values read as a lower-is-better metric are a loss
    s = bench_pairs.summarize(pairs(PARENT, up), METRICS)["w"]
    assert (s["wall_s"]["change_better_in"], s["wall_s"]["gain_rule_met"]) == (0, False)


def test_unpaired_run_is_skipped():
    runs = pairs(PARENT, [v - 0.2 for v in PARENT])
    runs.append(run(99, "change", 5.0))  # its parent side never ran
    s = bench_pairs.summarize(runs, METRICS)["w"]
    assert s["wall_s"]["pairs"] == 10
    assert s["wall_s"]["change_better_in"] == 10
    assert s["wall_s"]["gain_rule_met"]
    assert s["all_correct"]
    assert bench_pairs.summarize([run(0, "parent", 1.0)], METRICS) == {}


@pytest.mark.parametrize("metric, change, within", [
    ("wall_s", [v * 1.19 for v in PARENT], True),  # 19% slower, bound 20%
    ("wall_s", [v * 1.21 for v in PARENT], False),
    ("decided_frac", [v * 0.99 for v in PARENT], True),  # 1% lower, bound 2%
    ("decided_frac", [v * 0.97 for v in PARENT], False),
])
def test_within_bound_is_a_fraction_of_the_parent_median(metric, change, within):
    s = bench_pairs.summarize(pairs(PARENT, change, metric), METRICS)["w"][metric]
    assert (s["within_bound"], s["gain_rule_met"]) == (within, False)
    # a gain is always within the bound
    gain = [2 * p - c for p, c in zip(PARENT, change)]
    assert bench_pairs.summarize(pairs(PARENT, gain, metric), METRICS)["w"][metric]["within_bound"]


def traced(side, **values):
    units = {"layer.s": "s", "layer.calls": "count", "layer.kept": "ratio",
             "trace.events": "count"}
    base = {"layer.s": 0.5, "layer.calls": 17, "layer.kept": 0.25,
            "trace.events": 3, **values}
    return {"workload": "w", "seed": 31, "side": side, "output": {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in base.items()}}}


@pytest.mark.parametrize("change, differ", [
    ({}, []),
    # a time and a trace.* figure may differ; work counters and ratios not
    ({"layer.s": 0.4, "trace.events": 4}, []),
    ({"layer.calls": 18}, ["layer.calls"]),
    ({"layer.kept": 0.5, "layer.calls": 16}, ["layer.calls", "layer.kept"]),
])
def test_traced_counters_are_compared(change, differ, capsys):
    runs = pairs(PARENT, PARENT)
    both = [traced("parent"), traced("change", **change)]
    s = bench_pairs.summarize(runs, METRICS, both)["w"]
    assert s["traced_counters_equal"] == (not differ)
    assert s["traced_counters_differ"] == differ
    bench_pairs.print_table({"w": s})
    line = [l for l in capsys.readouterr().out.splitlines() if "traced counters" in l]
    assert line == [f"w                 traced counters equal: {not differ}"
                    + (f" (differ: {', '.join(differ)})" if differ else "")]
    # untraced, or traced on one side only: nothing to compare
    for partial in ([], [traced("parent")]):
        assert "traced_counters_equal" not in bench_pairs.summarize(runs, METRICS, partial)["w"]


def traced_with(side, values):
    """A traced run whose metrics are ``values``, a name -> value dict; a
    name ending in ``s`` is a time, any other a count."""
    return {"workload": "w", "seed": 31, "side": side, "output": {"metrics": {
        k: {"value": v, "unit": "s" if k.endswith("s") else "count"}
        for k, v in values.items()}}}


def test_traced_spans_keep_both_sides_and_print_the_widest(capsys):
    """Every span time (``*.s``) of both traced runs is kept as [parent,
    change], one on a side alone with None on the other; the table prints
    the three whose values differ most, largest first."""
    par = {"roots.hom_table.s": 0.020, "orbits.components.s": 0.050,
           "orbits.survey.s": 0.180, "brackets.compute_bfunction.s": 0.002,
           "gone.s": 0.001, "roots.hom_table.pairs": 15696, "trace.wall_s": 0.4}
    chg = {"roots.hom_table.s": 0.006, "orbits.components.s": 0.049,
           "orbits.survey.s": 0.185, "brackets.compute_bfunction.s": 0.002,
           "new.s": 0.003, "roots.hom_table.pairs": 15696, "trace.wall_s": 0.39}
    runs = pairs(PARENT, PARENT)
    both = [traced_with("parent", par), traced_with("change", chg)]
    s = bench_pairs.summarize(runs, METRICS, both)["w"]
    assert s["traced_spans"] == {
        "roots.hom_table.s": [0.020, 0.006], "orbits.components.s": [0.050, 0.049],
        "orbits.survey.s": [0.180, 0.185], "brackets.compute_bfunction.s": [0.002, 0.002],
        "gone.s": [0.001, None], "new.s": [None, 0.003]}
    assert s["traced_counters_equal"]
    bench_pairs.print_table({"w": s})
    lines = [l for l in capsys.readouterr().out.splitlines() if "traced span" in l]
    assert lines == ["w                 traced span roots.hom_table.s: 0.02 -> 0.006 s",
                     "w                 traced span orbits.survey.s: 0.18 -> 0.185 s",
                     "w                 traced span new.s: - -> 0.003 s"]
    # traced on one side only: no spans
    assert "traced_spans" not in bench_pairs.summarize(runs, METRICS, both[:1])["w"]


def write_package(root, files):
    pkg = root / "src" / "qsing"
    pkg.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (pkg / name).write_text(text)
    return str(root)


def test_source_digest_reads_the_package_sources_alone(tmp_path):
    """The digest needs no git: it reads ``src/qsing/*.py`` and nothing else,
    and it changes with any of their names or bytes."""
    files = {"a.py": "x = 1\n", "b.py": "y = 2\n"}
    root = write_package(tmp_path / "one", files)
    digest = bench_pairs.source_digest(root)
    assert len(digest) == 64 and not (tmp_path / "one" / ".git").exists()
    # the same sources elsewhere, with other files and bytecode beside them
    other = write_package(tmp_path / "two", files)
    (tmp_path / "two" / "src" / "qsing" / "__pycache__").mkdir()
    (tmp_path / "two" / "src" / "qsing" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0")
    (tmp_path / "two" / "src" / "qsing" / "notes.txt").write_text("not a source")
    (tmp_path / "two" / "README.md").write_text("outside the package")
    assert bench_pairs.source_digest(other) == digest
    changed = [
        {"a.py": "x = 2\n", "b.py": "y = 2\n"},  # one byte edited
        {"a.py": "x = 1\n", "c.py": "y = 2\n"},  # a file renamed
        {"a.py": "x = 1\ny = 2\n", "b.py": ""},  # a line moved across files
        {"a.py": "x = 1\n"},  # a file deleted
    ]
    for i, variant in enumerate(changed):
        assert bench_pairs.source_digest(write_package(tmp_path / f"v{i}", variant)) != digest
