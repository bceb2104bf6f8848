"""TMFCOM — the operator's utility interface to TMF.

The paper's manual-override procedure references "a TMF utility on the
home node to determine the transaction's disposition" and "the TMF
utility on the non-home node to force the disposition"; operating TMF
also involves taking online archives, running ROLLFORWARD, and managing
audit trails.  :class:`Tmfcom` gathers those operator verbs over one
node's TMF instance, mirroring the command surface of the historical
TMFCOM program:

* ``STATUS TMF``        → :meth:`status`
* ``STATUS TRANSACTIONS`` → :meth:`transactions`
* ``STATUS COUNTERS``   → :meth:`counters`
* ``INFO TRANSACTION``  → :meth:`disposition` / :meth:`trace`
* ``RESOLVE TRANSACTION`` (force) → :meth:`force_disposition`
* ``DUMP FILES``        → :meth:`dump_volume`
* ``RECOVER FILES``     → :meth:`recover_volume`
* ``DELETE AUDITDUMPS`` → :meth:`purge_audit`
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..guardian import FileSystemError, OsProcess
from .rollforward import (
    Rollforward,
    VolumeArchive,
    dump_volume,
    purge_audit_trails,
)
from .tmf import PHASE1_TIMEOUT, TMP_NAME, TmfNode
from .tmp import TmpForceDisposition, TmpQuery
from .transid import Transid

__all__ = ["Tmfcom"]


class Tmfcom:
    """Operator commands over one node's TMF."""

    def __init__(self, tmf: TmfNode, collector: Optional[Any] = None):
        self.tmf = tmf
        self.rollforward = Rollforward(tmf)
        # The TRACE collector, when the run is traced: INFO TRANSACTION
        # can then show the causal flight recording, not just the
        # disposition.  Optional — TMFCOM predates tracing.
        self.collector = collector

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """STATUS TMF: counters and component health."""
        tmf = self.tmf
        return {
            "node": tmf.node_name,
            "commits": tmf.commits,
            "aborts": tmf.aborts,
            "active_transactions": len(self.transactions(state="active")),
            "tmp_available": tmf.tmp.available,
            "backout_available": tmf.backout_process.available,
            "audit_processes": {
                name: {
                    "available": audit.available,
                    "trail_files": len(audit.trail.file_names),
                    "trail_records": audit.trail.total_records,
                    "buffered": len(audit.state.get("buffer", {})),
                }
                for name, audit in tmf.audit_objects.items()
            },
            "safe_delivery_backlog": len(tmf._safe_queue),
        }

    def counters(self) -> Dict[str, int]:
        """STATUS COUNTERS: the run's always-on counts, as XRAY reports them."""
        counts = self.tmf.env.probe.counts
        return {name: counts[name] for name in sorted(counts)}

    def transactions(self, state: Optional[str] = None) -> List[Dict[str, Any]]:
        """STATUS TRANSACTIONS: every transaction this node knows about."""
        rows = []
        for transid, record in sorted(self.tmf.records.items()):
            current = self.tmf.broadcaster.current_state(transid)
            current_name = str(current) if current is not None else (
                record.done or "gone"
            )
            if state is not None and current_name != state:
                continue
            rows.append({
                "transid": str(transid),
                "state": current_name,
                "home": record.home,
                "parent": record.parent,
                "children": sorted(record.children),
                "volumes": sorted(record.local_volumes),
                "phase1_acked": record.phase1_acked,
            })
        return rows

    def disposition(self, transid: Transid) -> Dict[str, Any]:
        """INFO TRANSACTION on this node (step 1 of the manual override)."""
        return {"transid": str(transid), **self.tmf.disposition_of(transid)}

    def trace(self, transid: Any) -> str:
        """INFO TRANSACTION, TRACE: the transaction's flight recording.

        Delegates to the run's trace collector; the screen is the
        :meth:`repro.trace.TransactionTrace.render` tree of serve/rpc
        spans with interleaved domain records.
        """
        if self.collector is None:
            return f"TRANSACTION {transid} — tracing not enabled on this run"
        if not self.collector.has_trace(transid):
            return f"TRANSACTION {transid} — no trace recorded"
        return self.collector.trace_of(transid).render()

    # ------------------------------------------------------------------
    # Resolution (generator helpers: run from an operator process)
    # ------------------------------------------------------------------
    def query_remote_disposition(self, proc: OsProcess, transid: Transid) -> Generator:
        """Ask the transaction's home node for the disposition."""
        if transid.home_node == self.tmf.node_name:
            return self.disposition(transid)
        try:
            reply = yield from self.tmf.filesystem.send(
                proc,
                f"\\{transid.home_node}.{TMP_NAME}",
                TmpQuery(transid),
                timeout=PHASE1_TIMEOUT,
            )
        except FileSystemError as exc:
            return {"transid": str(transid), "disposition": "unknown",
                    "error": str(exc)}
        return {"transid": str(transid), **{k: v for k, v in reply.items()
                                            if k != "ok"}}

    def force_disposition(self, proc: OsProcess, transid: Transid,
                          disposition: str) -> Generator:
        """RESOLVE TRANSACTION: force a stranded transaction's outcome.

        Step 3 of the paper's manual procedure — the operator has
        determined ``disposition`` at the home node out of band.
        """
        if disposition not in ("committed", "aborted"):
            raise ValueError(f"disposition must be committed/aborted, got {disposition!r}")
        yield from self.tmf.filesystem.send(
            proc, TMP_NAME, TmpForceDisposition(transid, disposition),
            timeout=30_000.0,
        )
        return self.disposition(transid)

    # ------------------------------------------------------------------
    # Archives and recovery
    # ------------------------------------------------------------------
    def dump_volume(self, volume_name: str) -> VolumeArchive:
        """DUMP FILES: online archive of one audited volume."""
        disc_process = self.tmf.disc_objects.get(volume_name)
        if disc_process is None:
            raise KeyError(f"no DISCPROCESS registered for {volume_name}")
        return dump_volume(disc_process)

    def recover_volume(self, proc: OsProcess, archive: VolumeArchive) -> Generator:
        """RECOVER FILES: ROLLFORWARD one volume from an archive."""
        disc_process = self.tmf.disc_objects.get(archive.volume)
        if disc_process is None:
            raise KeyError(f"no DISCPROCESS registered for {archive.volume}")
        self.rollforward.rebuild_dispositions()
        stats = yield from self.rollforward.recover_volume(
            proc, disc_process, archive
        )
        return stats

    def purge_audit(self, archives: List[VolumeArchive]) -> int:
        """DELETE AUDITDUMPS: reclaim trail files covered by archives."""
        return purge_audit_trails(self.tmf, archives)

    # ------------------------------------------------------------------
    def render_status(self) -> str:
        """A console-style status report."""
        status = self.status()
        lines = [
            f"TMF STATUS — node \\{status['node']}",
            f"  commits: {status['commits']}   aborts: {status['aborts']}   "
            f"active: {status['active_transactions']}",
            f"  TMP: {'up' if status['tmp_available'] else 'DOWN'}   "
            f"BACKOUT: {'up' if status['backout_available'] else 'DOWN'}",
        ]
        for name, info in status["audit_processes"].items():
            lines.append(
                f"  {name}: {'up' if info['available'] else 'DOWN'}, "
                f"{info['trail_files']} trail files, "
                f"{info['trail_records']} records durable, "
                f"{info['buffered']} buffered"
            )
        if status["safe_delivery_backlog"]:
            lines.append(
                f"  safe-delivery backlog: {status['safe_delivery_backlog']}"
            )
        return "\n".join(lines)
