"""The Transaction Monitor Process (TMP) and its network protocol.

"Coordination of distributed transactions is one of the functions of the
'Transaction Monitor Process' (TMP), a process-pair which is configured
for each network node that participates in the distributed data base."
(paper, §Distributed Transaction Processing)

Message classes (paper, §Distributed Commit Protocol):

* **critical response** — the destination TMP must be accessible and
  reply affirmatively for the state change to proceed:
  :class:`TmpRemoteBegin` (remote transaction begin) and
  :class:`TmpPhase1` (transaction state change to *ending*);
* **safe delivery** — delivery is guaranteed-eventual but not
  time-critical; the reply only acknowledges receipt:
  :class:`TmpPhase2` (state change to *ended*, i.e. lock release) and
  :class:`TmpAbortRemote` (state change to *aborting*).

The TMP itself is a thin, concurrent dispatcher; the protocol logic
lives in :class:`repro.core.tmf.TmfNode`, which owns the node's
transaction table (conceptually replicated in every CPU by broadcast).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from ..guardian import Message, NodeOs, OsProcess, ProcessPair, bad_request
from .transid import Transid

__all__ = [
    "TmpCommit",
    "TmpAbort",
    "TmpRemoteBegin",
    "TmpPhase1",
    "TmpPhase2",
    "TmpAbortRemote",
    "TmpQuery",
    "TmpForceDisposition",
    "TmpProcess",
]


@dataclass(frozen=True)
class TmpCommit:
    """Home-node request: run the commit protocol for ``transid``."""

    transid: Transid


@dataclass(frozen=True)
class TmpAbort:
    """Request: abort and back out ``transid`` (voluntary or automatic)."""

    transid: Transid
    reason: str = "user abort"


@dataclass(frozen=True)
class TmpRemoteBegin:
    """Critical response: broadcast ``transid`` active on this node."""

    transid: Transid
    parent: str


@dataclass(frozen=True)
class TmpPhase1:
    """Critical response: force audit, propagate, vote yes/no."""

    transid: Transid


@dataclass(frozen=True)
class TmpPhase2:
    """Safe delivery: the transaction committed — release its locks."""

    transid: Transid


@dataclass(frozen=True)
class TmpAbortRemote:
    """Safe delivery: the transaction aborted — back out and release."""

    transid: Transid
    reason: str = "remote abort"


@dataclass(frozen=True)
class TmpQuery:
    """Disposition query (ROLLFORWARD negotiation, manual override)."""

    transid: Transid


@dataclass(frozen=True)
class TmpForceDisposition:
    """Manual override: operator forces a stranded transaction's fate."""

    transid: Transid
    disposition: str  # committed | aborted


class TmpProcess(ProcessPair):
    """The per-node TMP pair: dispatches protocol requests to TMF."""

    def __init__(
        self,
        node_os: NodeOs,
        name: str,
        primary_cpu: int,
        backup_cpu: int,
        tmf: Any,
    ):
        self.tmf = tmf
        super().__init__(node_os, name, primary_cpu, backup_cpu)

    def on_start(self, proc: OsProcess) -> None:
        # Safe deliveries, queued automatic aborts and the
        # unilateral-abort sweep each run as a coroutine of this primary
        # and die with it; the next primary starts whatever is still
        # queued.
        self.tmf.on_tmp_start(proc)

    def on_takeover(self) -> None:
        super().on_takeover()
        self.tmf.on_tmp_takeover()

    def serve_request(self, proc: OsProcess, message: Message) -> Generator:
        payload = message.payload
        tmf = self.tmf
        if isinstance(payload, TmpCommit):
            disposition = yield from tmf.do_commit(proc, payload.transid)
            return {"ok": True, "disposition": disposition}
        if isinstance(payload, (TmpAbort, TmpAbortRemote)):
            disposition = yield from tmf.do_abort(proc, payload.transid, payload.reason)
            return {"ok": True, "disposition": disposition}
        if isinstance(payload, TmpRemoteBegin):
            accepted = yield from tmf.do_remote_begin(payload.transid, payload.parent)
            return {"ok": accepted}
        if isinstance(payload, TmpPhase1):
            vote = yield from tmf.do_phase1(proc, payload.transid)
            return {"ok": True, "vote": vote}
        if isinstance(payload, TmpPhase2):
            yield from tmf.do_phase2(proc, payload.transid)
            return {"ok": True}
        if isinstance(payload, TmpQuery):
            return {"ok": True, **tmf.disposition_of(payload.transid)}
        if isinstance(payload, TmpForceDisposition):
            yield from tmf.do_force_disposition(
                proc, payload.transid, payload.disposition
            )
            return {"ok": True}
        return bad_request(payload)
