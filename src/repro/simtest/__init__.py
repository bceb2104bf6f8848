"""SIMTEST: the paper's guarantees as checks over a simulated system.

* :mod:`repro.simtest.invariants` — one function per guarantee
  (agreement, durability, no stranded locks, the waits-for cycle
  search, Figure 3's edges), callable on any built system or test rig;
* :mod:`repro.simtest.watchdog` — the online :class:`Watchdog`, which
  runs those checks during a run and fires ``watchdog.alarm`` records.

Like :mod:`repro.lint` and :mod:`repro.bench`, this package is
*tooling*: it imports the stack freely and nothing in the stack may
import it.
"""

from .invariants import (
    agreement,
    check_durability_at_commits,
    deadlock_cycle,
    durability,
    figure3_edge,
    no_stranded_locks,
)
from .watchdog import Watchdog

__all__ = [
    "Watchdog",
    "agreement",
    "check_durability_at_commits",
    "deadlock_cycle",
    "durability",
    "figure3_edge",
    "no_stranded_locks",
]
