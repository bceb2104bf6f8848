"""The online invariant watchdog: flag trouble *during* the run.

Five detectors cross-check the live system against the paper's
invariants, firing a structured ``watchdog.alarm`` trace record the
moment one breaks (each alarm also lands in :attr:`Watchdog.alarms`
and in the XRAY report's ``watchdog`` section):

* **Figure-3 violations** — every ``state_broadcast`` record is checked
  against the legal-transition table, independently of the
  :class:`~repro.core.states.StateBroadcaster`'s own enforcement (a
  broadcast the broadcaster let through but the table forbids means the
  two have diverged);
* **stuck transactions** — a transaction sitting in ``ending`` or
  ``aborting`` beyond a configurable horizon (phase one hung, backout
  wedged);
* **over-horizon lock waits** — a waiter queued longer than the
  threshold (the timeout should have fired; the application is slower
  than its own deadlock story assumes);
* **waits-for cycles** — a *global* deadlock monitor: the per-volume
  lock managers' waits-for edges are merged across every volume and
  node and searched for cycles, cross-checking the decentralized
  timeout scheme against the ablation detector;
* **audit-trail growth anomalies** — a trail growing faster per check
  interval than the configured limit (runaway backout loop, audit
  storm).

Like the XRAY sampler, the watchdog is a *read-only* periodic process:
it observes accumulators and queues but changes no simulated state, so
a watched run replays the identical event history — and it is bounded
(``max_checks``) so a run-to-exhaustion simulation still terminates.

The module imports nothing from the stack: the legal-transition table
is *injected* by the system builder (``legal_transitions_by_name()``
from :mod:`repro.core.states`), so the one Figure-3 table stays at its
definition site and this module stays importable from any layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

__all__ = ["WatchdogConfig", "Watchdog"]


@dataclass(frozen=True)
class WatchdogConfig:
    """Thresholds and cadence of the watchdog's detectors."""

    interval: float = 250.0            # ms between periodic checks
    stuck_horizon: float = 5_000.0     # ms in ending/aborting before alarm
    lock_wait_horizon: float = 2_000.0 # ms queued on a lock before alarm
    audit_growth_limit: int = 10_000   # trail records per check interval
    max_checks: int = 4_000            # bound for run-to-exhaustion sims


class Watchdog:
    """Subscribed + periodic invariant detectors over one system."""

    def __init__(
        self,
        system: Any,
        config: WatchdogConfig,
        legal_transitions: Dict[Optional[str], Tuple[str, ...]],
    ):
        self.system = system
        self.env = system.env
        self.config = config
        self.alarms: List[Any] = []
        self.checks_run = 0
        self.process = None
        self._legal: Dict[Optional[str], Tuple[str, ...]] = dict(legal_transitions)
        # (node, transid) -> (state, since) for non-terminal states.
        self._tx_state: Dict[Tuple[str, str], Tuple[str, float]] = {}
        # Dedup sets: each alarm fires once per offending condition.
        self._alarmed_stuck: Set[Tuple[str, str, str]] = set()
        self._alarmed_waits: Set[Tuple[str, str, str, str, float]] = set()
        self._alarmed_cycles: Set[Tuple[str, ...]] = set()
        self._audit_last: Dict[str, int] = {}
        self.env.probe.subscribe(self._on_record)

    # ------------------------------------------------------------------
    def install(self):
        """Start the periodic check process on the system's environment."""
        if self.process is not None:
            return self.process
        for key, audit in sorted(self.system.audit_processes.items()):
            self._audit_last[key] = audit.trail.total_records
        self.process = self.env.process(self._run(), name="trace-watchdog")
        return self.process

    def _run(self) -> Generator:
        while self.checks_run < self.config.max_checks:
            yield self.env.timeout(self.config.interval)
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
        }

    # ------------------------------------------------------------------
    # Detector 1: Figure-3 edges (subscription — fires immediately)
    # ------------------------------------------------------------------
    def _on_record(self, record: Any) -> None:
        if record.kind != "state_broadcast":
            return
        fields = record.fields
        node, transid = fields.get("node"), fields.get("transid")
        state = fields.get("state")
        if node is None or transid is None or state is None:
            return
        key = (node, transid)
        current = self._tx_state.get(key)
        current_state = current[0] if current is not None else None
        legal = self._legal.get(current_state, ())
        if state not in legal:
            self._alarm(
                "illegal_transition", node=node, transid=transid,
                from_state=current_state, to_state=state,
            )
        if state in ("ended", "aborted"):
            self._tx_state.pop(key, None)
            self._alarmed_stuck.discard((node, transid, "ending"))
            self._alarmed_stuck.discard((node, transid, "aborting"))
        else:
            self._tx_state[key] = (state, record.time)

    # ------------------------------------------------------------------
    # Periodic detectors 2–5
    # ------------------------------------------------------------------
    def check(self, now: float) -> None:
        """Run every periodic detector once (read-only)."""
        self.checks_run += 1
        self._check_stuck(now)
        self._check_lock_waits(now)
        self._check_deadlock_cycles()
        self._check_audit_growth()

    def _check_stuck(self, now: float) -> None:
        horizon = self.config.stuck_horizon
        for (node, transid), (state, since) in sorted(self._tx_state.items()):
            if state not in ("ending", "aborting"):
                continue
            if now - since <= horizon:
                continue
            key = (node, transid, state)
            if key in self._alarmed_stuck:
                continue
            self._alarmed_stuck.add(key)
            self._alarm(
                "stuck_transaction", node=node, transid=transid,
                state=state, stuck_ms=now - since,
            )

    def _lock_managers(self):
        for (node, volume), dp in sorted(self.system.disc_processes.items()):
            yield node, volume, dp.locks

    def _check_lock_waits(self, now: float) -> None:
        horizon = self.config.lock_wait_horizon
        for node, volume, locks in self._lock_managers():
            for queue in locks._queues.values():
                for waiter in queue:
                    if waiter.event.triggered:
                        continue
                    waited = now - waiter.since
                    # Deterministic waiter identity (no id()): the same
                    # transid cannot queue twice on one target at the
                    # same instant, so this key is unique per wait.
                    key = (node, volume, str(waiter.transid),
                           repr(waiter.target), waiter.since)
                    if waited <= horizon or key in self._alarmed_waits:
                        continue
                    self._alarmed_waits.add(key)
                    self._alarm(
                        "lock_wait_horizon", node=node, volume=volume,
                        transid=str(waiter.transid),
                        target=repr(waiter.target), waited_ms=waited,
                    )

    def _check_deadlock_cycles(self) -> None:
        # Merge every volume's waits-for edges into one global graph:
        # a distributed deadlock spans volumes (and nodes), which no
        # single decentralized lock manager can see.
        graph: Dict[str, List[str]] = {}
        for _node, _volume, locks in self._lock_managers():
            for waiter, owner in locks.waits_for_edges():
                graph.setdefault(str(waiter), []).append(str(owner))
        cycle = _find_cycle(graph)
        if cycle is None:
            return
        key = tuple(sorted(cycle))
        if key in self._alarmed_cycles:
            return
        self._alarmed_cycles.add(key)
        self._alarm("deadlock_cycle", transids=sorted(cycle),
                    transid=sorted(cycle)[0])

    def _check_audit_growth(self) -> None:
        limit = self.config.audit_growth_limit
        for key, audit in sorted(self.system.audit_processes.items()):
            total = audit.trail.total_records
            grew = total - self._audit_last.get(key, 0)
            self._audit_last[key] = total
            if limit is not None and grew > limit:
                self._alarm(
                    "audit_growth", audit_process=key, grew=grew,
                    limit=limit, total_records=total,
                )


def _find_cycle(graph: Dict[str, List[str]]) -> Optional[List[str]]:
    """A cycle in the merged waits-for graph, or None (deterministic)."""
    visiting: Set[str] = set()
    done: Set[str] = set()
    stack: List[str] = []

    def visit(node: str) -> Optional[List[str]]:
        visiting.add(node)
        stack.append(node)
        for neighbour in graph.get(node, []):
            if neighbour in visiting:
                return stack[stack.index(neighbour):]
            if neighbour not in done:
                found = visit(neighbour)
                if found is not None:
                    return found
        visiting.discard(node)
        done.add(node)
        stack.pop()
        return None

    for node in sorted(graph):
        if node not in done:
            found = visit(node)
            if found is not None:
                return found
    return None
