"""The online invariant watchdog: flag trouble *during* the run.

``Watchdog(system)``, attached to a built system, cross-checks the live
run against the paper's invariants and fires a structured
``watchdog.alarm`` record the moment one breaks (each alarm also lands
in :attr:`Watchdog.alarms` and in the XRAY report's ``watchdog``
section).  Two detectors ride the ``state_broadcast`` records:

* **Figure-3 violations** — every broadcast is checked with
  :func:`~repro.simtest.invariants.figure3_edge`, independently of the
  :class:`~repro.core.states.StateBroadcaster`'s own enforcement (a
  broadcast the broadcaster let through but the table forbids means the
  two have diverged);
* **images not durable** — at each ``ended`` broadcast,
  :func:`~repro.simtest.invariants.durability` must find every known
  audit image of the transaction on its trail.

Four more run every :data:`INTERVAL` ms:

* **stuck transactions** — a transaction sitting in ``ending`` or
  ``aborting`` beyond :data:`STUCK_HORIZON` (phase one hung, backout
  wedged);
* **over-horizon lock waits** — a waiter queued longer than
  :data:`LOCK_WAIT_HORIZON` (the timeout should have fired);
* **waits-for cycles** — a *global* deadlock monitor: every volume's
  waits-for edges, merged across nodes, go through
  :func:`~repro.simtest.invariants.deadlock_cycle`, cross-checking the
  decentralized timeout scheme;
* **audit-trail growth anomalies** — a trail growing by more than
  :data:`AUDIT_GROWTH_LIMIT` records per interval (runaway backout
  loop, audit storm).

Like the XRAY sampler, the watchdog is read-only: it changes no
simulated state, so a watched run replays the identical outcomes, but
its periodic checks are events of their own — no benchmark or golden
digest run attaches it.  It stops after :data:`MAX_CHECKS` checks so a
run-to-exhaustion simulation still terminates.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterator, List, Set, Tuple

from .invariants import TrailIndex, deadlock_cycle, durability, figure3_edge

__all__ = [
    "AUDIT_GROWTH_LIMIT",
    "INTERVAL",
    "LOCK_WAIT_HORIZON",
    "MAX_CHECKS",
    "STUCK_HORIZON",
    "Watchdog",
    "audit_growth",
    "audit_totals",
    "lock_waits_over",
]

INTERVAL = 250.0             # ms between periodic checks
STUCK_HORIZON = 5_000.0      # ms in ending/aborting before alarm
LOCK_WAIT_HORIZON = 2_000.0  # ms queued on a lock before alarm
AUDIT_GROWTH_LIMIT = 10_000  # trail records per check interval
MAX_CHECKS = 4_000           # bound for run-to-exhaustion sims


def _lock_managers(system: Any) -> Iterator[Tuple[str, str, Any]]:
    for node, tmf in sorted(system.tmf.items()):
        for volume, disc in sorted(tmf.disc_objects.items()):
            yield node, volume, disc.locks


def lock_waits_over(system: Any, now: float, horizon: float) -> List[Tuple[str, str, Any]]:
    """``(node, volume, waiter)`` for every lock waiter queued longer
    than ``horizon`` ms at ``now``."""
    return [
        (node, volume, waiter)
        for node, volume, locks in _lock_managers(system)
        for queue in locks._queues.values()
        for waiter in queue
        if not waiter.event.triggered and now - waiter.since > horizon
    ]


def audit_totals(system: Any) -> Dict[str, int]:
    """Records on each trail, keyed ``node:audit-process``."""
    return {
        f"{node}:{name}": audit.trail.total_records
        for node, tmf in sorted(system.tmf.items())
        for name, audit in sorted(tmf.audit_objects.items())
    }


def audit_growth(before: Dict[str, int], after: Dict[str, int], limit: int) -> Dict[str, int]:
    """Trails that grew by more than ``limit`` records between two
    :func:`audit_totals` readings, with their growth."""
    grown = {key: total - before.get(key, 0) for key, total in after.items()}
    return {key: grew for key, grew in grown.items() if grew > limit}


class Watchdog:
    """Subscribed and periodic invariant detectors over one system."""

    def __init__(self, system: Any):
        self.system = system
        self.env = system.cluster.env
        self.alarms: List[Dict[str, Any]] = []
        self.checks_run = 0
        #: audit images the durability detector has examined.
        self.images_examined = 0
        self._trails = TrailIndex()
        # (node, transid) -> (state, since) for non-terminal states.
        self._tx_state: Dict[Tuple[str, str], Tuple[str, float]] = {}
        # Each alarm fires once per offending condition.
        self._alarmed_stuck: Set[Tuple[str, str, str]] = set()
        self._alarmed_waits: Set[Tuple[str, str, str, str, float]] = set()
        self._alarmed_cycles: Set[Tuple[str, ...]] = set()
        self._audit_last = audit_totals(system)
        system.watchdog = self
        self.env.probe.subscribe(self._on_record)
        self.process = self.env.process(self._run(), name="watchdog")

    def _run(self) -> Generator:
        while self.checks_run < MAX_CHECKS:
            yield self.env.timeout(INTERVAL)
            self.check(self.env.now)

    # ------------------------------------------------------------------
    # Alarms
    # ------------------------------------------------------------------
    def _alarm(self, reason: str, **fields: Any) -> None:
        self.alarms.append({"time": self.env.now, "reason": reason, **fields})
        self.env.probe.emit("watchdog.alarm", reason=reason, **fields)

    def summary(self) -> Dict[str, Any]:
        """The XRAY report's ``watchdog`` section."""
        by_reason: Dict[str, int] = {}
        for alarm in self.alarms:
            by_reason[alarm["reason"]] = by_reason.get(alarm["reason"], 0) + 1
        return {
            "alarms": len(self.alarms),
            "by_reason": {k: by_reason[k] for k in sorted(by_reason)},
            "checks_run": self.checks_run,
            "images_examined": self.images_examined,
        }

    # ------------------------------------------------------------------
    # Broadcast detectors: Figure-3 edges and durability
    # ------------------------------------------------------------------
    def _on_record(self, record: Any) -> None:
        if record.kind != "state_broadcast":
            return
        node, transid, state = (
            record.fields["node"], record.fields["transid"], record.fields["state"]
        )
        key = (node, transid)
        current = self._tx_state.get(key)
        current_state = current[0] if current is not None else None
        if not figure3_edge(current_state, state):
            self._alarm(
                "illegal_transition", node=node, transid=transid,
                from_state=current_state, to_state=state,
            )
        if state == "ended":
            examined, missing = durability(
                self.system, node, transid, self._trails
            )
            self.images_examined += examined
            for image in missing:
                self._alarm(
                    "not_durable", node=node, transid=transid,
                    volume=image.volume, seq=image.seq,
                )
        if state in ("ended", "aborted"):
            self._tx_state.pop(key, None)
            self._alarmed_stuck.discard((node, transid, "ending"))
            self._alarmed_stuck.discard((node, transid, "aborting"))
        else:
            self._tx_state[key] = (state, record.time)

    # ------------------------------------------------------------------
    # Periodic detectors
    # ------------------------------------------------------------------
    def check(self, now: float) -> None:
        """Run every periodic detector once (read-only)."""
        self.checks_run += 1
        self._check_stuck(now)
        self._check_lock_waits(now)
        self._check_deadlock_cycles()
        self._check_audit_growth()

    def _check_stuck(self, now: float) -> None:
        for (node, transid), (state, since) in sorted(self._tx_state.items()):
            if state not in ("ending", "aborting"):
                continue
            if now - since <= STUCK_HORIZON:
                continue
            key = (node, transid, state)
            if key in self._alarmed_stuck:
                continue
            self._alarmed_stuck.add(key)
            self._alarm(
                "stuck_transaction", node=node, transid=transid,
                state=state, stuck_ms=now - since,
            )

    def _check_lock_waits(self, now: float) -> None:
        for node, volume, waiter in lock_waits_over(self.system, now, LOCK_WAIT_HORIZON):
            # Deterministic waiter identity (no id()): the same transid
            # cannot queue twice on one target at the same instant, so
            # this key is unique per wait.
            key = (node, volume, str(waiter.transid), repr(waiter.target), waiter.since)
            if key in self._alarmed_waits:
                continue
            self._alarmed_waits.add(key)
            self._alarm(
                "lock_wait_horizon", node=node, volume=volume,
                transid=str(waiter.transid), target=repr(waiter.target),
                waited_ms=now - waiter.since,
            )

    def _check_deadlock_cycles(self) -> None:
        # One global graph: a distributed deadlock spans volumes (and
        # nodes), which no single decentralized lock manager can see.
        cycle = deadlock_cycle(
            (str(waiter), str(owner))
            for _node, _volume, locks in _lock_managers(self.system)
            for waiter, owner in locks.waits_for_edges()
        )
        if cycle is None:
            return
        key = tuple(sorted(cycle))
        if key in self._alarmed_cycles:
            return
        self._alarmed_cycles.add(key)
        self._alarm("deadlock_cycle", transids=list(key), transid=key[0])

    def _check_audit_growth(self) -> None:
        totals = audit_totals(self.system)
        grown = audit_growth(self._audit_last, totals, AUDIT_GROWTH_LIMIT)
        self._audit_last = totals
        for key, grew in grown.items():
            self._alarm(
                "audit_growth", audit_process=key, grew=grew,
                limit=AUDIT_GROWTH_LIMIT, total_records=totals[key],
            )
