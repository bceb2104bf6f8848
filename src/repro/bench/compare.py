"""Baseline comparison for bench reports.

A report (see :func:`repro.bench.experiments.run_suite`) is compared
against the checked-in baseline with two very different standards:

* ``counters`` are deterministic — pure functions of the pinned seeds —
  so **any** difference is a hard failure (``counter-drift``).  This is
  the gate that lets performance work ship: prove the optimized
  simulator replays the exact same history.
* ``wall_ms`` is advisory — CI runners are noisy — so only a regression
  beyond a generous threshold (``WALL_THRESHOLD``, +40%) is surfaced, and
  even then only as a soft failure (``wall-clock-soft-fail``) that
  annotates the run without breaking it.

``rows`` (the paper tables) and ``info`` are never compared.

One refinement to the counter rule: a handful of counters are *costs*
(message round-trips, audit forces, checkpoint sends — see
``_COST_COUNTERS``/``_COST_PREFIXES``).  When such a counter **drops**
and nothing else drifts, the verdict is ``counter-improvement`` instead
of ``counter-drift``: the gate still fails (the baseline no longer
describes reality and must be re-recorded), but the report says plainly
that the history got *cheaper*, not merely *different* — exactly what a
batching change like BOXCAR produces.  Any non-cost mismatch, or a cost
counter going up, is ordinary drift.

Comparison only makes sense between like runs: a baseline recorded in
``smoke`` mode is not compared against a ``full`` run (mode mismatch is
reported as counter drift, since the counters cannot agree).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = [
    "CLEAN",
    "COUNTER_DRIFT",
    "COUNTER_IMPROVEMENT",
    "Comparison",
    "SCHEMA",
    "WALL_CLOCK_SOFT_FAIL",
    "WALL_THRESHOLD",
    "compare_reports",
]

#: report schema version; bump on any incompatible shape change.
SCHEMA = "repro.bench/1"

#: tolerated fractional wall-clock regression before a soft fail (0.40 =
#: the run may be up to 40% slower than the baseline).
WALL_THRESHOLD = 0.40

CLEAN = "clean"
COUNTER_DRIFT = "counter-drift"
COUNTER_IMPROVEMENT = "counter-improvement"
WALL_CLOCK_SOFT_FAIL = "wall-clock-soft-fail"

#: counters that measure *cost* — lower is strictly better.  A decrease
#: here (with no other drift) is an improvement, not ordinary drift.
_COST_COUNTERS = frozenset({
    "events",
    "msg_local",
    "msg_network",
    "audit_forces",
    "checkpoints",
    "block_reads",
    "block_writes",
    "lock_waits",
    "lock_timeouts",
    "restarts",
})
_COST_PREFIXES = ("audit_batches_", "net_msgs_")


def _is_cost_counter(key: str) -> bool:
    return key in _COST_COUNTERS or key.startswith(_COST_PREFIXES)


@dataclass
class Comparison:
    """Outcome of diffing a run against a baseline."""

    verdict: str
    #: hard problems — counter mismatches, missing experiments, schema
    #: or mode disagreement.  Non-empty iff verdict is counter-drift.
    errors: List[str] = field(default_factory=list)
    #: soft problems — wall-clock regressions beyond the threshold.
    warnings: List[str] = field(default_factory=list)
    #: cost counters that *dropped* — reported apart from drift so an
    #: intentional optimization reads as such.  Still gates the run:
    #: the baseline must be re-recorded.
    improvements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        # Both counter verdicts gate: the baseline no longer matches
        # reality.  Improvement just tells the operator *why*.
        return self.verdict not in (COUNTER_DRIFT, COUNTER_IMPROVEMENT)


def compare_reports(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> Comparison:
    """Diff ``current`` against ``baseline``."""
    errors: List[str] = []
    warnings: List[str] = []
    improvements: List[str] = []

    if baseline.get("schema") != current.get("schema"):
        errors.append(
            f"schema mismatch: baseline {baseline.get('schema')!r} "
            f"vs current {current.get('schema')!r}"
        )
    if baseline.get("mode") != current.get("mode"):
        errors.append(
            f"mode mismatch: baseline is {baseline.get('mode')!r}, "
            f"run is {current.get('mode')!r} — counters are not comparable"
        )

    base_exp = baseline.get("experiments", {})
    cur_exp = current.get("experiments", {})
    if not errors:
        for name in base_exp:
            if name not in cur_exp:
                errors.append(f"{name}: present in baseline, missing from run")
        for name, section in cur_exp.items():
            base = base_exp.get(name)
            if base is None:
                errors.append(f"{name}: not in baseline (re-record it)")
                continue
            _compare_counters(name, base["counters"], section["counters"],
                              errors, improvements)
            _compare_wall(name, base.get("wall_ms"), section.get("wall_ms"),
                          warnings)

    if errors:
        return Comparison(COUNTER_DRIFT, errors=errors, warnings=warnings,
                          improvements=improvements)
    if improvements:
        return Comparison(COUNTER_IMPROVEMENT, warnings=warnings,
                          improvements=improvements)
    if warnings:
        return Comparison(WALL_CLOCK_SOFT_FAIL, warnings=warnings)
    return Comparison(CLEAN)


def _compare_counters(
    name: str,
    base: Dict[str, int],
    current: Dict[str, int],
    errors: List[str],
    improvements: List[str],
) -> None:
    for key in sorted(set(base) | set(current)):
        if key not in current:
            errors.append(f"{name}.{key}: in baseline ({base[key]}), missing from run")
        elif key not in base:
            errors.append(f"{name}.{key}: new counter ({current[key]}) not in baseline")
        elif base[key] != current[key]:
            if _is_cost_counter(key) and current[key] < base[key]:
                saved = base[key] - current[key]
                improvements.append(
                    f"{name}.{key}: baseline {base[key]} -> run {current[key]} "
                    f"(-{saved}, cost counter improved)"
                )
            else:
                errors.append(
                    f"{name}.{key}: baseline {base[key]} != run {current[key]}"
                )


def _compare_wall(
    name: str,
    base: Any,
    current: Any,
    warnings: List[str],
) -> None:
    if not base or not current:
        return
    base_ms = base.get("median", 0.0)
    cur_ms = current.get("median", 0.0)
    if base_ms < 50.0:
        # Sub-50ms experiments are dominated by interpreter noise; a
        # meaningful regression there will also show up in the big ones.
        return
    ratio = cur_ms / base_ms
    if ratio > 1.0 + WALL_THRESHOLD:
        warnings.append(
            f"{name}: wall-clock {cur_ms:.1f}ms vs baseline {base_ms:.1f}ms "
            f"({ratio:.2f}x, threshold {1.0 + WALL_THRESHOLD:.2f}x)"
        )
