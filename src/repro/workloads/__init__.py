"""Synthetic workload generation and failure injection.

No 1981 Tandem production traces exist; these seeded generators drive
the identical code paths (locking, audit, commit, backout) with
controlled arrival processes, key skew, and failure schedules — the
substitution recorded in DESIGN.md.
"""

from .drivers import LoadResult, TransactionMetrics, run_closed_loop
from .failures import FailureEvent, FailureSchedule, random_failure_schedule
from .keys import KeyChooser

__all__ = [
    "FailureEvent",
    "FailureSchedule",
    "KeyChooser",
    "LoadResult",
    "TransactionMetrics",
    "random_failure_schedule",
    "run_closed_loop",
]
