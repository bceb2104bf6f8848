"""The BACKOUTPROCESS: undoing a transaction from its before-images.

"Transaction backout is performed by the BACKOUTPROCESS (a
process-pair), using the transaction's before-images recorded in the
audit trails."  (paper, §Audit Trails)

The process collects the transaction's audit records from the
AUDITPROCESSes named in the request and applies the inverse of each, in
reverse order, through the owning DISCPROCESS (which generates *new*
audit images for the undo actions, so even a backout is itself
recoverable).  Undo application is idempotent, so a retry of a backout
interrupted by a CPU failure is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Tuple

from ..discprocess.ops import BackoutOp
from ..guardian import (
    FileSystem,
    FileSystemError,
    Message,
    NodeOs,
    OsProcess,
    ProcessPair,
    bad_request,
)
from .audit import GetAudit
from .transid import Transid

__all__ = ["BackoutProcess", "BackoutTx"]


@dataclass(frozen=True)
class BackoutTx:
    """Back out ``transid`` on this node.

    ``audit_processes`` — the AUDITPROCESS names holding its images;
    ``volumes`` — the participating DISCPROCESS names (sanity check).
    """

    transid: Transid
    audit_processes: Tuple[str, ...]
    volumes: Tuple[str, ...]


class BackoutProcess(ProcessPair):
    """Applies before-images to reverse an aborting transaction."""

    def __init__(
        self,
        node_os: NodeOs,
        name: str,
        primary_cpu: int,
        backup_cpu: int,
        filesystem: FileSystem,
    ):
        self.filesystem = filesystem
        super().__init__(node_os, name, primary_cpu, backup_cpu)

    def serve_request(self, proc: OsProcess, message: Message) -> Generator:
        payload = message.payload
        if not isinstance(payload, BackoutTx):
            return bad_request(payload)
        try:
            undone = yield from self._backout(proc, payload)
        except FileSystemError as exc:
            return {"ok": False, "error": "backout_failed", "detail": str(exc)}
        self._trace(
            "transaction_backed_out",
            transid=str(payload.transid),
            records=undone,
        )
        return {"ok": True, "undone": undone}

    def _backout(self, proc: OsProcess, payload: BackoutTx) -> Generator:
        records: List[Any] = []
        for audit_name in payload.audit_processes:
            reply = yield from self.filesystem.send(
                proc, audit_name, GetAudit(payload.transid), timeout=2000.0
            )
            if reply.get("ok"):
                records.extend(reply["records"])
        # The AUDITPROCESS answers with forward images only (never the
        # undo's own audit).  Reverse order per volume stream; global
        # reverse by (volume, seq) is safe because streams are
        # independent per volume.
        records.sort(key=lambda r: (r.volume, r.seq), reverse=True)
        undone = 0
        for record in records:
            reply = yield from self.filesystem.send(
                proc, record.volume, BackoutOp(record), timeout=5000.0
            )
            if not reply.get("ok"):
                raise FileSystemError(
                    record.volume, RuntimeError(reply.get("error", "backout op failed"))
                )
            undone += 1
        return undone
