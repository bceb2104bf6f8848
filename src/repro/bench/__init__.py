"""The paper's experiments, with a regression gate.

``python -m repro.bench`` executes the repository's E1–E11/F1–F4
experiment registry (scaled-down "smoke" variants by default) at pinned
seeds and emits one schema-versioned report, ``BENCH_fastpath.json``.
``--full`` runs the figure-sized scenarios and prints each experiment's
paper table, as EXPERIMENTS.md quotes it and ``tests/test_paper_claims.py``
checks it.
Each experiment contributes two kinds of numbers:

* **deterministic counters** — events stepped, messages sent, commits,
  audit forces, takeovers ... — pure functions of the seed.  Any drift
  against the checked-in baseline means the simulated history changed
  and is a **hard failure** (exit code 1): performance work must leave
  behaviour byte-identical.
* **advisory wall-clock** — the median real time of N repeats.  A
  regression beyond a generous threshold (40%) is a **soft
  failure**: surfaced (and annotated in CI) but not fatal, because CI
  runners are noisy.

The comparator (:mod:`repro.bench.compare`) produces one of four
verdicts per run: ``clean``, ``counter-drift``, ``counter-improvement``
(cost counters dropped and nothing else drifted — still gates, but is
reported as an optimization rather than unexplained drift), and
``wall-clock-soft-fail``.

Like :mod:`repro.lint`, this package is *tooling*: it imports the stack
freely and nothing in the stack may import it.
"""

from .compare import (
    CLEAN,
    COUNTER_DRIFT,
    COUNTER_IMPROVEMENT,
    SCHEMA,
    WALL_CLOCK_SOFT_FAIL,
    Comparison,
    compare_reports,
)
from .experiments import (
    EXPERIMENTS,
    determinism_digests,
    run_experiment,
    run_suite,
)

__all__ = [
    "CLEAN",
    "COUNTER_DRIFT",
    "COUNTER_IMPROVEMENT",
    "Comparison",
    "EXPERIMENTS",
    "SCHEMA",
    "WALL_CLOCK_SOFT_FAIL",
    "compare_reports",
    "determinism_digests",
    "run_experiment",
    "run_suite",
]
