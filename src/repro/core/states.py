"""The transaction state machine of Figure 3, and its broadcast tables.

States and legal transitions (paper, §Transaction State Change):

* **active** — after BEGIN-TRANSACTION; may go to *ending* or *aborting*;
* **ending** — END-TRANSACTION called, audit being forced (phase one);
  may go to *ended* or *aborting*;
* **ended** — commit record written to the Monitor Audit Trail; terminal
  (locks released during this state, then the transid leaves the system);
* **aborting** — the decision to back out has been taken; only *aborted*
  may follow;
* **aborted** — backout complete; terminal.

"All transaction state changes are broadcast, via the interprocessor
bus, to all processors within a single node ... regardless of which
processors actually participated."  The :class:`StateBroadcaster` keeps
a per-CPU state table per the paper, enforces legal transitions, and
counts broadcasts (the F3/E3 experiments read those counters).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..hardware import Node
from .transid import Transid

__all__ = [
    "TxState",
    "LEGAL_TRANSITIONS",
    "legal_transitions_by_name",
    "IllegalTransition",
    "StateBroadcaster",
]


class TxState(Enum):
    ACTIVE = "active"
    ENDING = "ending"
    ENDED = "ended"
    ABORTING = "aborting"
    ABORTED = "aborted"

    def __str__(self) -> str:
        return self.value


LEGAL_TRANSITIONS: Dict[Optional[TxState], Tuple[TxState, ...]] = {
    None: (TxState.ACTIVE,),
    TxState.ACTIVE: (TxState.ENDING, TxState.ABORTING),
    TxState.ENDING: (TxState.ENDED, TxState.ABORTING),
    TxState.ENDED: (),
    TxState.ABORTING: (TxState.ABORTED,),
    TxState.ABORTED: (),
}


def legal_transitions_by_name() -> Dict[Optional[str], Tuple[str, ...]]:
    """Figure 3's edges keyed by state *names* (``"active"`` etc.).

    The form consumed by layers that must not import this module — the
    TRACE watchdog receives it by injection from the system builder, so
    the one transition table stays here.
    """
    return {
        (str(current) if current is not None else None): tuple(
            str(state) for state in targets
        )
        for current, targets in LEGAL_TRANSITIONS.items()
    }


class IllegalTransition(RuntimeError):
    """A state change not present in Figure 3 was attempted."""

    def __init__(self, transid: Transid, current: Optional[TxState], new: TxState):
        super().__init__(f"{transid}: illegal transition {current} -> {new}")
        self.transid = transid
        self.current = current
        self.new = new


class StateBroadcaster:
    """Per-node transaction state tables, one per CPU, kept by broadcast.

    The table of a failed CPU is discarded (its memory is gone); a
    restored CPU is re-seeded from a surviving CPU's table at its next
    broadcast.  As long as one CPU survives, the node retains every
    transaction's state without any disc access — the property that lets
    TMF avoid crash-restart for single-module failures.
    """

    def __init__(self, node: Node):
        self.node = node
        self.env = node.env
        self.tables: Dict[int, Dict[Transid, TxState]] = {
            cpu.number: {} for cpu in node.cpus
        }
        self.broadcasts = 0
        for cpu in node.cpus:
            cpu.watch_failure(self._on_cpu_failure)

    def _on_cpu_failure(self, cpu) -> None:
        self.tables[cpu.number] = {}

    # ------------------------------------------------------------------
    def current_state(self, transid: Transid) -> Optional[TxState]:
        """The transid's state per the surviving CPUs (None if unknown)."""
        for cpu in self.node.cpus:
            if cpu.up:
                state = self.tables[cpu.number].get(transid)
                if state is not None:
                    return state
        return None

    def broadcast(self, transid: Transid, new_state: TxState) -> float:
        """Record ``new_state`` in every live CPU's table.

        Returns the bus time the caller should consume (one broadcast);
        raises :class:`IllegalTransition` for an edge not in Figure 3.
        Terminal states are removed from the tables after recording —
        "once the 'ended' state has completed, the transid leaves the
        system" — but the transition itself is validated and traced.
        """
        # Liveness is read once: the current state comes from the same
        # live tables, in CPU order, that the broadcast then writes.
        live = [self.tables[cpu.number] for cpu in self.node.alive_cpus()]
        current = None
        for table in live:
            current = table.get(transid)
            if current is not None:
                break
        if new_state not in LEGAL_TRANSITIONS[current]:
            raise IllegalTransition(transid, current, new_state)
        for table in live:
            if not table and current is not None:
                # Freshly restored CPU: re-seed from a survivor.
                source = next((other for other in live if other), None)
                if source is not None:
                    table.update(source)
            table[transid] = new_state
        self.broadcasts += 1
        # The broadcast rides the interprocessor bus pair.
        self.node.buses.record_transfer(self.node.latencies.bus_broadcast)
        probe = self.env.probe
        if probe.recording:
            probe.emit(
                "state_broadcast",
                node=self.node.name,
                transid=str(transid),
                state=str(new_state),
                cpus=len(live),
            )
        else:
            probe.count("state_broadcast")
        if new_state in (TxState.ENDED, TxState.ABORTED):
            for table in self.tables.values():
                table.pop(transid, None)
        return self.node.latencies.bus_broadcast

    def live_transids(self) -> List[Transid]:
        seen: Dict[Transid, TxState] = {}
        for cpu in self.node.cpus:
            if cpu.up:
                seen.update(self.tables[cpu.number])
        return sorted(seen)
