"""The FASTPATH bench harness: runner, report schema, and comparator.

The harness's job is to make the regression gate trustworthy: the
runner must produce deterministic counters, the report must round-trip
through JSON unchanged (it is diffed against a checked-in baseline),
and the comparator must land on exactly one of its four verdicts —
clean, counter-drift, counter-improvement, wall-clock-soft-fail — for
the right reasons.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import (
    CLEAN,
    COUNTER_DRIFT,
    COUNTER_IMPROVEMENT,
    EXPERIMENTS,
    SCHEMA,
    WALL_CLOCK_SOFT_FAIL,
    compare_reports,
    run_experiment,
    run_suite,
)
from repro.bench.__main__ import main

BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_baseline.json"


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def test_registry_covers_the_paper_suite():
    names = set(EXPERIMENTS)
    assert {f"e{i}" for i in range(1, 12)} == {n.split("_")[0] for n in names
                                              if n.startswith("e")}
    assert {f"f{i}" for i in range(1, 5)} == {n.split("_")[0] for n in names
                                             if n.startswith("f")}


def test_smoke_run_one_experiment_shape():
    section = run_experiment("e10_process_pairs", scale="smoke", repeats=2)
    counters = section["counters"]
    assert counters and all(isinstance(v, int) for v in counters.values()), (
        "deterministic counters must be ints (exact-compared)"
    )
    assert counters["takeovers"] == 1, "the mid-run CPU failure forces takeover"
    assert counters["checkpoints"] > 0
    assert section["wall_ms"]["repeats"] == 2
    assert section["wall_ms"]["median"] >= 0.0


def test_repeats_with_diverging_counters_raise(monkeypatch):
    from repro.bench import experiments as exp

    calls = iter([{"counters": {"x": 1}, "info": {}},
                  {"counters": {"x": 2}, "info": {}}])
    monkeypatch.setitem(exp.EXPERIMENTS, "e7_storage", lambda scale: next(calls))
    with pytest.raises(AssertionError, match="differ between repeats"):
        run_experiment("e7_storage", scale="smoke", repeats=2)


def test_run_suite_subset_and_schema(tmp_path):
    report = run_suite(scale="smoke", only=["e7_storage", "f1_hardware_paths"])
    assert report["schema"] == SCHEMA
    assert report["mode"] == "smoke"
    assert set(report["experiments"]) == {"e7_storage", "f1_hardware_paths"}
    # The report is diffed as JSON: it must round-trip unchanged.
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    assert json.loads(path.read_text()) == report


def test_run_suite_rejects_unknown_names():
    with pytest.raises(KeyError, match="e99"):
        run_suite(scale="smoke", only=["e99_nonsense"])


# ----------------------------------------------------------------------
# Comparator: the three verdicts
# ----------------------------------------------------------------------
def _report(wall=100.0, **counters):
    counters = counters or {"events": 1000, "commits": 10}
    return {
        "schema": SCHEMA,
        "mode": "smoke",
        "experiments": {
            "e_example": {
                "counters": dict(counters),
                "info": {},
                "wall_ms": {"median": wall, "repeats": 1},
            }
        },
    }


def test_verdict_clean():
    baseline = _report()
    comparison = compare_reports(baseline, copy.deepcopy(baseline))
    assert comparison.verdict == CLEAN
    assert comparison.ok
    assert not comparison.errors and not comparison.warnings


def test_verdict_counter_drift_is_hard():
    baseline = _report()
    current = _report()
    current["experiments"]["e_example"]["counters"]["commits"] = 11
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_DRIFT
    assert not comparison.ok
    assert any("baseline 10 != run 11" in e for e in comparison.errors)


def test_verdict_wall_clock_soft_fail():
    baseline = _report(wall=100.0)
    current = _report(wall=150.0)  # +50% > the 40% threshold
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == WALL_CLOCK_SOFT_FAIL
    assert comparison.ok, "wall-clock regressions must not fail the gate"
    assert comparison.warnings and not comparison.errors


def test_wall_clock_within_threshold_is_clean():
    comparison = compare_reports(_report(wall=100.0), _report(wall=135.0))
    assert comparison.verdict == CLEAN


def test_tiny_experiments_skip_wall_comparison():
    # Sub-50ms medians are interpreter noise; a 3x "regression" there
    # must not warn.
    comparison = compare_reports(_report(wall=5.0), _report(wall=15.0))
    assert comparison.verdict == CLEAN


def test_counter_drift_beats_soft_fail():
    baseline = _report(wall=100.0)
    current = _report(wall=200.0)
    # events going *up* is a cost regression: plain drift.
    current["experiments"]["e_example"]["counters"]["events"] = 1001
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_DRIFT
    assert comparison.warnings, "the wall regression is still reported"


def test_cost_counter_drop_is_an_improvement_not_drift():
    baseline = _report()
    current = _report()
    current["experiments"]["e_example"]["counters"]["events"] = 900
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_IMPROVEMENT
    assert not comparison.ok, "the baseline still has to be re-recorded"
    assert not comparison.errors
    assert any("cost counter improved" in line
               for line in comparison.improvements)


def test_improvement_plus_real_drift_is_drift():
    baseline = _report()
    current = _report()
    counters = current["experiments"]["e_example"]["counters"]
    counters["events"] = 900    # cost improved ...
    counters["commits"] = 11    # ... but outcomes changed too
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_DRIFT
    assert comparison.improvements, "the improvement is still reported"
    assert any("commits" in e for e in comparison.errors)


def test_outcome_counter_drop_is_still_drift():
    # commits is an outcome, not a cost: fewer commits is never "better".
    baseline = _report()
    current = _report()
    current["experiments"]["e_example"]["counters"]["commits"] = 9
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_DRIFT
    assert not comparison.improvements


def test_missing_and_extra_experiments_are_drift():
    baseline = _report()
    current = copy.deepcopy(baseline)
    current["experiments"]["e_new"] = current["experiments"].pop("e_example")
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_DRIFT
    assert any("missing from run" in e for e in comparison.errors)
    assert any("not in baseline" in e for e in comparison.errors)


def test_mode_mismatch_is_drift():
    baseline = _report()
    current = copy.deepcopy(baseline)
    current["mode"] = "full"
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_DRIFT


# ----------------------------------------------------------------------
# The committed baseline matches a fresh run (the actual CI gate).
# ----------------------------------------------------------------------
def test_committed_baseline_matches_fresh_run():
    baseline = json.loads(BASELINE.read_text())
    assert baseline["schema"] == SCHEMA
    # The whole smoke suite (about 2 s): every counter of every
    # experiment must match.
    comparison = compare_reports(baseline, run_suite(scale="smoke"))
    assert comparison.ok, (
        "simulated history drifted from the committed baseline — if the "
        "change is intentional, re-record with "
        "`python -m repro.bench --smoke --update-baseline`:\n"
        + "\n".join(comparison.errors + comparison.improvements)
    )


def _assert_compared_keys_only(baseline):
    assert sorted(baseline) == ["experiments", "mode", "schema"]
    for name, section in baseline["experiments"].items():
        assert sorted(section) == ["counters", "wall_ms"], name


def test_committed_baseline_holds_only_what_the_compare_reads():
    _assert_compared_keys_only(json.loads(BASELINE.read_text()))


def test_update_baseline_writes_only_what_the_compare_reads(tmp_path):
    baseline = tmp_path / "baseline.json"
    assert main(["--only", "e10_process_pairs", "--update-baseline",
                 "--baseline", str(baseline)]) == 0
    written = json.loads(baseline.read_text())
    _assert_compared_keys_only(written)
    assert list(written["experiments"]) == ["e10_process_pairs"]


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def test_full_run_skips_the_smoke_baseline(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["--full", "--only", "f1_hardware_paths",
                 "--baseline", str(BASELINE), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "no full baseline, skipping compare" in printed
    assert "f1_hardware_paths: single-module failure survey" in printed
    report = json.loads(out.read_text())
    assert report["mode"] == "full"
    assert report["experiments"]["f1_hardware_paths"]["rows"]


def test_partial_smoke_run_compares_clean(tmp_path, capsys):
    assert main(["--only", "e10_process_pairs", "--baseline", str(BASELINE),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert "verdict clean" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--full", "--update-baseline"],   # the baseline is a smoke report
    ["--threshold", "0.1"],            # the threshold is a constant
])
def test_rejected_options(tmp_path, argv):
    baseline = tmp_path / "baseline.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--only", "f1_hardware_paths", "--baseline", str(baseline),
                     "--out", str(tmp_path / "report.json")])
    assert exc.value.code == 2
    assert not baseline.exists()
