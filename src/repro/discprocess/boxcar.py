"""BOXCAR: group-commit batching policy for the audit forward path.

The paper's §Audit Trails has audit images *buffered* at the
AUDITPROCESS and "write-forced to disc as part of the two-phase
commit" — nothing reads them before phase one, so no operation needs a
forward round-trip of its own.  BOXCAR exploits that: the DISCPROCESS
accumulates unforwarded audit images (already checkpointed, so a
takeover re-forwards them) and ships them to the AUDITPROCESS in
batches, only when something needs them:

* a full boxcar — ``max_records`` images aboard — departs on its own,
  off the operation's critical path;
* phase one's ``ForceBoxcar`` drains it before the trail force;
* the quiesce that precedes a backout drains it, because backout reads
  the images back from the AUDITPROCESS;
* a takeover re-forwards whatever the new primary inherited.

That leaves two forces on the commit critical path — the boxcar drain
and the trail force — exactly the "which log forces matter" split of
Gray & Lamport's *Consensus on Transaction Commit*.

``resolve_boxcar`` normalizes the user-facing spellings (``True`` /
``False`` / a policy instance) used by ``SystemBuilder(boxcar=...)`` and
``DiscProcess(boxcar=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = [
    "BoxcarPolicy",
    "FLUSH_FORCE",
    "FLUSH_MAX_RECORDS",
    "FLUSH_TAKEOVER",
    "resolve_boxcar",
]

#: flush reasons, used as XRAY counter suffixes and TRACE fields.
FLUSH_MAX_RECORDS = "max_records"
FLUSH_FORCE = "force"
FLUSH_TAKEOVER = "takeover"


@dataclass(frozen=True)
class BoxcarPolicy:
    """When an asynchronous audit boxcar departs on its own.

    ``max_records`` bounds how many images wait aboard (and so how
    large one ``AppendAudit`` gets); below it, cargo waits for an
    explicit drain.
    """

    max_records: int = 16

    def __post_init__(self) -> None:
        if self.max_records < 1:
            raise ValueError("max_records must be >= 1")


def resolve_boxcar(boxcar: Any) -> Optional[BoxcarPolicy]:
    """Normalize a ``boxcar=`` argument to a policy (or None = synchronous).

    ``True`` means the default policy, ``False``/``None`` the legacy
    synchronous forward-per-operation behaviour, and a
    :class:`BoxcarPolicy` is taken as-is.
    """
    if boxcar is None or boxcar is False:
        return None
    if boxcar is True:
        return BoxcarPolicy()
    if isinstance(boxcar, BoxcarPolicy):
        return boxcar
    raise TypeError(
        f"boxcar must be True, False, None, or a BoxcarPolicy, not {boxcar!r}"
    )
