"""TMF: the Transaction Monitoring Facility of one node.

This is the paper's primary contribution, assembled: transids, the
Figure 3 state machine with node-wide broadcast, distributed audit
trails, transaction backout, the Monitor Audit Trail, and both commit
protocols —

* the **abbreviated two-phase commit** for transactions that stay within
  a node: phase one forces all the transaction's audit records to disc,
  the commit record written to the Monitor Audit Trail is the commit
  point, and phase two releases locks;
* the **distributed two-phase commit**: phase one is a critical-response
  wave down the transid-transmission tree (each node polls its own
  children in parallel, forcing its local audit while their votes are
  on the way, so the wave costs one round trip per tree level); any
  participant can unilaterally abort until it acks phase one; after
  acking it must hold the transaction's locks until the disposition
  arrives (possibly after a partition heals, or by manual override);
  phase two and abort propagation are safe-delivery messages, sent to
  every child as soon as the outcome is decided and retried until
  received.

A :class:`TmfNode` exists per node; there is no network master — the
home node of each transaction coordinates that transaction only.  Every
request the coordinator makes of several participants at once (phase
one, lock release, abort quiesce) goes out as one fan-out
(:meth:`FileSystem.send_all`) and is joined once.

Each safe delivery, and each automatic abort queued for the TMP, runs as
its own coroutine of the TMP primary: deciding an outcome queues it for
each child and starts that child's worker, so END-TRANSACTION does not
wait for the acks, and one child's lost ack holds up no other child.  An
item leaves its queue only when done (a delivery when its child acks
it, an abort when it is settled), so a new primary restarts whatever its
predecessor left.  A worker whose child is unreachable retries every
:data:`RETRY_INTERVAL`; nothing else keeps a timer but the
unilateral-abort sweep, which runs while a non-home transaction has not
voted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from ..discprocess.ops import ForceBoxcar, QuiesceTransaction, ReleaseLocks
from ..guardian import (
    FileSystem,
    FileSystemError,
    NodeOs,
    OsProcess,
)
from ..sim import Event
from .audit import AuditProcess, AuditTrail, CompletionRecord, ForceAudit
from .backout import BackoutProcess, BackoutTx
from .states import StateBroadcaster, TxState
from .tmp import (
    TmpAbort,
    TmpAbortRemote,
    TmpCommit,
    TmpPhase1,
    TmpPhase2,
    TmpProcess,
    TmpRemoteBegin,
)
from .transid import Transid, TransidGenerator

__all__ = ["TmfNode", "TransactionAborted", "TransactionRecord"]

#: critical-response deadline (ms): phase one, remote begins and
#: disposition queries.
PHASE1_TIMEOUT = 2000.0
#: deadline (ms) of a local boxcar drain or audit force.
FORCE_TIMEOUT = 5000.0
#: period (ms) of a safe delivery's retries and of the unilateral-abort
#: sweep.
RETRY_INTERVAL = 200.0
#: completed-transaction records kept.
DONE_RETENTION = 10000
#: the registered names of every node's TMP and BACKOUTPROCESS pairs.
TMP_NAME = "$TMP"
BACKOUT_NAME = "$BACKOUT"


class TransactionAborted(Exception):
    """END-TRANSACTION was rejected: the transaction has been backed out."""

    def __init__(self, transid: Transid, reason: str = ""):
        super().__init__(f"{transid} aborted: {reason}")
        self.transid = transid
        self.reason = reason


@dataclass
class TransactionRecord:
    """Everything one node knows about one transaction."""

    transid: Transid
    home: bool
    parent: Optional[str] = None
    origin_cpu: int = 0
    local_volumes: Set[str] = field(default_factory=set)
    local_audit_processes: Set[str] = field(default_factory=set)
    children: Set[str] = field(default_factory=set)
    phase1_acked: bool = False
    done: Optional[str] = None          # committed | aborted
    abort_reason: str = ""
    settling: bool = False
    settled_event: Optional[Event] = None


class TmfNode:
    """The TMF instance of one node."""

    def __init__(
        self,
        node_os: NodeOs,
        filesystem: FileSystem,
        monitor_volume: Any,
        tmp_cpus: Tuple[int, int] = (0, 1),
    ):
        self.node_os = node_os
        self.env = node_os.env
        self.filesystem = filesystem
        self.node_name = node_os.node.name
        self.generator = TransidGenerator(self.node_name)
        self.broadcaster = StateBroadcaster(node_os.node)
        self.records: Dict[Transid, TransactionRecord] = {}
        self._done_order: List[Transid] = []
        # The Monitor Audit Trail: history of commit/abort records.
        self.monitor_trail = AuditTrail(monitor_volume, prefix="MM")
        self.dispositions: Dict[Transid, str] = {}
        # Registries for node-local housekeeping.
        self.audit_objects: Dict[str, AuditProcess] = {}
        self.disc_objects: Dict[str, Any] = {}
        # Safe-delivery queue (an item stays until its child acks it),
        # deferred automatic aborts, and the non-home transactions the
        # unilateral-abort sweep watches until they vote.
        self._safe_queue: List[Tuple[str, Any]] = []
        self._auto_aborts: List[Tuple[Transid, str]] = []
        self._unvoted: Dict[Transid, TransactionRecord] = {}
        # The TMP primary that runs their workers, once it serves.
        self._tmp_proc: Optional[OsProcess] = None
        self.tmp = TmpProcess(node_os, TMP_NAME, tmp_cpus[0], tmp_cpus[1], self)
        self.backout_process = BackoutProcess(
            node_os, BACKOUT_NAME, tmp_cpus[0], tmp_cpus[1], filesystem
        )
        # Wire automatic transid export into the File System.
        filesystem.transid_exporter = self.export_transid
        for cpu in node_os.node.cpus:
            cpu.watch_failure(self._on_cpu_failure)
        # Statistics for the experiments.
        self.commits = 0
        self.aborts = 0
        self.phase1_sent = 0
        self.phase2_sent = 0
        self.remote_begins_sent = 0

    # ------------------------------------------------------------------
    # Registration (node-local calls from DISCPROCESS / config)
    # ------------------------------------------------------------------
    def register_participant(
        self, transid: Transid, volume: str, audit_process: Optional[str]
    ) -> None:
        record = self.records.get(transid)
        if record is None:
            # A transid arrived at a DISCPROCESS before the remote begin
            # completed — should not happen (the File System exports the
            # transid first); register defensively as a remote orphan.
            record = self._new_record(transid, home=False)
        record.local_volumes.add(volume)
        if audit_process is not None:
            record.local_audit_processes.add(audit_process)

    def mutation_allowed(self, transid: Transid) -> bool:
        """DISCPROCESS hook: may this transid still perform updates?

        Consults the broadcast state table — only *active* transactions
        may generate new data base work; anything in ending/aborting (or
        already gone) is refused, which fences off servers that have not
        yet learned their transaction was aborted.
        """
        return self.broadcaster.current_state(transid) == TxState.ACTIVE

    def register_audit_process(self, name: str, audit_process: AuditProcess) -> None:
        self.audit_objects[name] = audit_process

    def register_disc_process(self, name: str, disc_process: Any) -> None:
        self.disc_objects[name] = disc_process

    def _new_record(self, transid: Transid, home: bool, parent: Optional[str] = None,
                    origin_cpu: int = 0) -> TransactionRecord:
        record = TransactionRecord(
            transid=transid, home=home, parent=parent, origin_cpu=origin_cpu
        )
        self.records[transid] = record
        if parent is not None:
            if not self._unvoted:
                self._start(self._sweep)
            self._unvoted[transid] = record
        return record

    def _broadcast_timed(
        self, transid: Transid, new_state: TxState, span_name: str
    ) -> Generator:
        """Broadcast a state change, consume its bus time, span it."""
        t0 = self.env.now
        yield self.env.timeout(self.broadcaster.broadcast(transid, new_state))
        probe = self.env.probe
        if probe.listening:
            probe.note(
                "phase", transid=transid, name=span_name, category="bus", start=t0
            )

    # ------------------------------------------------------------------
    # Application entry points (generator helpers)
    # ------------------------------------------------------------------
    def begin(self, proc: OsProcess) -> Generator:
        """BEGIN-TRANSACTION: new transid, broadcast 'active' node-wide."""
        transid = self.generator.next(proc.cpu.number)
        self._new_record(transid, home=True, origin_cpu=proc.cpu.number)
        probe = self.env.probe
        if probe.listening:
            # The collector opens the transaction's window and roots
            # (or re-roots, on restart) the caller's trace at this
            # transid; XRAY folds that tree when the window closes.
            probe.note("tx.begin", transid=transid)
        yield from self._broadcast_timed(transid, TxState.ACTIVE, "begin")
        self._trace("begin_transaction", transid=str(transid))
        return transid

    def end(self, proc: OsProcess, transid: Transid) -> Generator:
        """END-TRANSACTION: commit; raises :class:`TransactionAborted`."""
        try:
            reply = yield from self.filesystem.send(
                proc, TMP_NAME, TmpCommit(transid), timeout=60_000.0
            )
        except FileSystemError as exc:
            raise TransactionAborted(transid, f"TMP unavailable: {exc}") from exc
        if reply.get("disposition") != "committed":
            record = self.records.get(transid)
            reason = record.abort_reason if record else "aborted by system"
            raise TransactionAborted(transid, reason)

    def abort(self, proc: OsProcess, transid: Transid, reason: str = "user abort") -> Generator:
        """ABORT-TRANSACTION / RESTART-TRANSACTION: back out everywhere."""
        try:
            yield from self.filesystem.send(
                proc, TMP_NAME, TmpAbort(transid, reason), timeout=60_000.0
            )
        except FileSystemError:
            # TMP pair down: the abort will be queued when it returns.
            self._queue_abort(transid, reason)

    def status(self, transid: Transid) -> Optional[TransactionRecord]:
        return self.records.get(transid)

    def disposition_of(self, transid: Transid) -> Dict[str, Any]:
        state = self.broadcaster.current_state(transid)
        return {
            "disposition": self.dispositions.get(transid, "unknown"),
            "state": str(state) if state else "gone",
        }

    # ------------------------------------------------------------------
    # Transid export (File System hook): remote transaction begin
    # ------------------------------------------------------------------
    def export_transid(self, proc: OsProcess, transid: Transid, dest_node: str) -> Generator:
        record = self.records.get(transid)
        if record is None:
            raise TransactionAborted(transid, "unknown transid at export")
        if dest_node in record.children or dest_node == self.node_name:
            return
        # Critical response: the remote TMP must accept before any
        # transmission of the transid to that node.
        try:
            reply = yield from self.filesystem.send(
                proc,
                f"\\{dest_node}.{TMP_NAME}",
                TmpRemoteBegin(transid, parent=self.node_name),
                timeout=PHASE1_TIMEOUT,
            )
        except FileSystemError as exc:
            raise TransactionAborted(
                transid, f"remote begin to {dest_node} failed: {exc}"
            ) from exc
        if not reply.get("ok"):
            raise TransactionAborted(transid, f"remote begin rejected by {dest_node}")
        record.children.add(dest_node)
        self.remote_begins_sent += 1
        self._trace("remote_begin", transid=str(transid), dest=dest_node)

    # ------------------------------------------------------------------
    # Protocol handlers (run inside TMP sub-handlers)
    # ------------------------------------------------------------------
    def do_commit(self, proc: OsProcess, transid: Transid) -> Generator:
        record = self.records.get(transid)
        if record is None:
            return "aborted"
        proceed = yield from self._settle_guard(record)
        if not proceed:
            return record.done
        # A durable disposition, or an abort already broadcast, is the
        # decision of a coordinator that then died: _resume carries it
        # through.
        state = self.broadcaster.current_state(transid)
        decide = transid not in self.dispositions and state != TxState.ABORTING
        if decide:
            if state != TxState.ENDING:
                yield from self._broadcast_timed(
                    transid, TxState.ENDING, "commit-broadcast"
                )
            if (yield from self._phase1_here_and_below(proc, record)):
                # --- Commit point: the commit record reaches the Monitor
                # Audit Trail.  "A transaction commits at the time its
                # commit record is written to the Monitor Audit Trail."
                # Counted in the step the record is appended, so a
                # takeover during the write neither loses nor repeats it.
                self.commits += 1
                yield from self._write_completion(transid, "committed")
        disposition = yield from self._resume(proc, record, record.abort_reason)
        if decide and disposition == "committed":
            self._trace("commit", transid=str(transid), children=len(record.children))
        return disposition

    def do_abort(self, proc: OsProcess, transid: Transid, reason: str) -> Generator:
        """Abort ``transid`` — unless its commit record is already
        durable: then it IS committed, and phase two is completed."""
        record = self.records.get(transid)
        if record is None:
            return "aborted"
        proceed = yield from self._settle_guard(record)
        if not proceed:
            return record.done
        return (yield from self._resume(proc, record, reason))

    def do_remote_begin(self, transid: Transid, parent: str) -> Generator:
        record = self.records.get(transid)
        if record is None:
            record = self._new_record(transid, home=False, parent=parent)
            yield from self._broadcast_timed(transid, TxState.ACTIVE, "begin")
            self._trace("remote_begin_accepted", transid=str(transid), parent=parent)
        return True

    def do_phase1(self, proc: OsProcess, transid: Transid) -> Generator:
        record = self.records.get(transid)
        if record is None:
            return "no"
        while record.settling:
            yield from self._wait_settled(record)
        if record.done == "aborted":
            return "no"   # unilateral abort already happened: force consensus
        if record.done == "committed" or record.phase1_acked:
            return "yes"
        state = self.broadcaster.current_state(transid)
        if transid not in self.dispositions and state != TxState.ABORTING:
            if state != TxState.ENDING:
                yield from self._broadcast_timed(
                    transid, TxState.ENDING, "commit-broadcast"
                )
            if (yield from self._phase1_here_and_below(proc, record)):
                record.phase1_acked = True
                self._trace("phase1_acked", transid=str(transid))
                return "yes"
        # Phase one failed here or below, or a takeover interrupted this
        # node's settle of the transaction: _resume finishes it.
        if (yield from self._settle_guard(record)):
            yield from self._resume(proc, record, record.abort_reason)
        return "yes" if record.done == "committed" else "no"

    def do_phase2(self, proc: OsProcess, transid: Transid) -> Generator:
        record = self.records.get(transid)
        if record is None or record.done == "committed":
            return
        proceed = yield from self._settle_guard(record)
        if not proceed:
            return
        if self.dispositions.get(transid) != "committed":
            yield from self._write_completion(transid, "committed")
        yield from self._resume(proc, record, "")
        self._trace("phase2_applied", transid=str(transid))

    def do_force_disposition(self, proc: OsProcess, transid: Transid, disposition: str) -> Generator:
        """Manual override for a transaction stranded by a partition.

        The operator has determined the disposition at the home node
        (steps 1–2 of the paper's manual procedure); this applies it.
        """
        record = self.records.get(transid)
        if record is None or record.done is not None:
            return
        self._trace("manual_override", transid=str(transid), disposition=disposition)
        if disposition == "committed":
            yield from self.do_phase2(proc, transid)
        else:
            yield from self.do_abort(proc, transid, "manual override")

    # ------------------------------------------------------------------
    # Protocol internals
    # ------------------------------------------------------------------
    def _phase1_here_and_below(self, proc: OsProcess, record: TransactionRecord) -> Generator:
        """Force local audit and, with children, poll them in parallel."""
        if record.children:
            reason = yield from self._poll_children(proc, record)
        else:
            reason = yield from self._force_local(proc, record)
        if reason is None:
            return True
        record.abort_reason = reason
        return False

    def _poll_children(self, proc: OsProcess, record: TransactionRecord) -> Generator:
        """Critical-response phase 1 to the children, overlapped with the local force.

        Every child's ``TmpPhase1`` is posted first; while they travel
        (and poll their own children), this node drains its volumes'
        boxcars and forces its trail, then joins the children's votes.
        Returns the reason of a failure, or None: the first local one,
        else the first child's in name order.
        """
        children = sorted(record.children)
        with self.filesystem.post_all(
            proc,
            [(f"\\{child}.{TMP_NAME}", TmpPhase1(record.transid))
             for child in children],
            PHASE1_TIMEOUT,
        ) as votes:
            self.phase1_sent += len(children)
            reason = yield from self._force_local(proc, record)
            replies = yield from votes.join()
        if reason is not None:
            return reason
        for child, reply in zip(children, replies):
            if isinstance(reply, FileSystemError):
                return f"phase 1: {child} inaccessible ({reply})"
            if reply.get("vote") != "yes":
                return f"phase 1: {child} voted no"
        return None

    def _force_local(self, proc: OsProcess, record: TransactionRecord) -> Generator:
        """Drain the volumes' boxcars, then force the trails.

        Returns the reason of a failure, or None.  The boxcar drains go
        out together: images still aboard (or on the wire) must reach
        the AUDITPROCESS before the trail force can cover them.
        Node-local fast path: a registered DISCPROCESS with a
        provably-empty boxcar is skipped without a round-trip.
        """
        transid = record.transid
        drains = []
        for volume in sorted(record.local_volumes):
            disc = self.disc_objects.get(volume)
            if disc is None or disc.audit_drain_needed:
                drains.append((volume, ForceBoxcar(transid)))
        replies = yield from self.filesystem.send_all(proc, drains, FORCE_TIMEOUT)
        for reply in replies:
            if isinstance(reply, FileSystemError):
                return f"boxcar drain failed: {reply}"
            if not reply.get("ok"):
                return "boxcar drain rejected"
        forces = [
            (audit_name, ForceAudit(transid))
            for audit_name in sorted(record.local_audit_processes)
        ]
        replies = yield from self.filesystem.send_all(proc, forces, FORCE_TIMEOUT)
        for reply in replies:
            if isinstance(reply, FileSystemError):
                return f"audit force failed: {reply}"
            if not reply.get("ok"):
                return "audit force rejected"
        return None

    def _resume(self, proc: OsProcess, record: TransactionRecord, reason: str) -> Generator:
        """Carry a settling transaction to its end; return its disposition.

        The durable disposition on the Monitor Audit Trail decides;
        without one the transaction is backed out for ``reason``.  Every
        step is safe to repeat, so a new TMP primary resumes wherever the
        dead one stopped: a broadcast goes out only from the state it
        leaves, and the completion record is written (and counted) once.
        """
        transid = record.transid
        disposition = self.dispositions.get(transid)
        if disposition is None:
            disposition = "aborted"
            record.abort_reason = reason
            if self.broadcaster.current_state(transid) in (
                TxState.ACTIVE, TxState.ENDING
            ):
                yield from self._broadcast_timed(
                    transid, TxState.ABORTING, "abort-broadcast"
                )
            # Quiesce: the ABORTING broadcast stops *new* operations of
            # this transid; wait out any already in flight so the backout
            # sees their audit images.  A volume that cannot answer is
            # skipped.
            yield from self.filesystem.send_all(
                proc,
                [(volume, QuiesceTransaction(transid))
                 for volume in sorted(record.local_volumes)],
                30_000.0,
            )
            if record.local_volumes:
                try:
                    yield from self.filesystem.send(
                        proc,
                        BACKOUT_NAME,
                        BackoutTx(
                            transid,
                            tuple(sorted(record.local_audit_processes)),
                            tuple(sorted(record.local_volumes)),
                        ),
                        timeout=60_000.0,
                    )
                except FileSystemError as exc:
                    # Backout impossible (backout pair / volume down): the
                    # affected volume is crashed and will need
                    # ROLLFORWARD; the abort still completes for the rest
                    # of the system.
                    self._trace("backout_failed", transid=str(transid), error=str(exc))
            self.aborts += 1
            yield from self._write_completion(transid, "aborted")
        committed = disposition == "committed"
        state = self.broadcaster.current_state(transid)
        if committed and state == TxState.ENDING:
            yield from self._broadcast_timed(transid, TxState.ENDED, "commit-broadcast")
        elif not committed and state == TxState.ABORTING:
            yield from self._broadcast_timed(transid, TxState.ABORTED, "abort-broadcast")
        yield from self._release_local(proc, record, committed=committed)
        for child in sorted(record.children):
            if committed:
                self._queue_safe(child, TmpPhase2(transid))
                self.phase2_sent += 1
            else:
                self._queue_safe(child, TmpAbortRemote(transid, record.abort_reason))
        self._finish_settle(record, disposition)
        self._cleanup(record)
        if not committed:
            self._trace("abort", transid=str(transid), reason=record.abort_reason)
        return disposition

    def _write_completion(self, transid: Transid, disposition: str) -> Generator:
        """Force a completion record to the Monitor Audit Trail."""
        self.monitor_trail.append(CompletionRecord(transid, disposition))
        self.dispositions[transid] = disposition
        start = self.env.now
        yield self.env.timeout(self.node_os.node.latencies.disc_write / 2)
        probe = self.env.probe
        if probe.listening:
            probe.note(
                "phase", transid=transid, name="completion-write",
                category="audit", start=start,
            )

    def _release_local(self, proc: OsProcess, record: TransactionRecord, committed: bool) -> Generator:
        # A volume pair that is down fails its slot: its locks died with
        # it, and recovery (ROLLFORWARD) rebuilds a lock-free volume.
        release = ReleaseLocks(record.transid, committed=committed)
        yield from self.filesystem.send_all(
            proc, [(volume, release) for volume in sorted(record.local_volumes)],
            5000.0,
        )

    def _cleanup(self, record: TransactionRecord) -> None:
        for audit_name in record.local_audit_processes:
            audit_object = self.audit_objects.get(audit_name)
            if audit_object is not None:
                audit_object.forget_transaction(record.transid)
        self._done_order.append(record.transid)
        while len(self._done_order) > DONE_RETENTION:
            old = self._done_order.pop(0)
            self.records.pop(old, None)

    # ------------------------------------------------------------------
    # Settling (one commit/abort decision per transaction)
    # ------------------------------------------------------------------
    def _settle_guard(self, record: TransactionRecord) -> Generator:
        while record.settling:
            yield from self._wait_settled(record)
        if record.done is not None:
            return False
        record.settling = True
        return True

    def _wait_settled(self, record: TransactionRecord) -> Generator:
        if record.settled_event is None or record.settled_event.processed:
            record.settled_event = Event(self.env)
        yield record.settled_event

    def _finish_settle(self, record: TransactionRecord, done: str) -> None:
        probe = self.env.probe
        if probe.listening:
            probe.note("tx.end", transid=record.transid, outcome=done)
        record.done = done
        self._wake(record)

    def _wake(self, record: TransactionRecord) -> None:
        """End ``record``'s settle and wake whoever waits for it."""
        record.settling = False
        event, record.settled_event = record.settled_event, None
        if event is not None and not event.triggered:
            event.succeed()

    # ------------------------------------------------------------------
    # Total node failure
    # ------------------------------------------------------------------
    def reset_after_total_failure(self) -> None:
        """Cold-restart the node's TMF after every CPU failed and returned.

        The AUDITPROCESSes, the TMP, the BACKOUTPROCESS and the
        registered DISCPROCESSes restart in their configured CPUs, in
        that order, around this instance's own reset: all in-memory
        state is discarded (every CPU's copy is gone), and durable
        knowledge — the Monitor Audit Trail — is re-attached from its
        disc volume; dispositions are rebuilt from it by
        :meth:`repro.core.rollforward.Rollforward.rebuild_dispositions`.
        The volumes stay crashed until ROLLFORWARD reloads them.
        """
        for audit_process in self.audit_objects.values():
            audit_process.cold_restart(*audit_process.configured_cpus)
        for pair in (self.tmp, self.backout_process):
            pair.restart(*pair.configured_cpus)
        self.records.clear()
        self.dispositions.clear()
        self._done_order.clear()
        self._safe_queue.clear()
        self._auto_aborts.clear()
        self._unvoted.clear()
        self.monitor_trail.attach_existing(
            AuditTrail.discover_file_names(
                self.monitor_trail.volume, self.monitor_trail.prefix
            )
        )
        for disc_process in self.disc_objects.values():
            disc_process.cold_restart(*disc_process.configured_cpus)

    # ------------------------------------------------------------------
    # Automatic aborts, safe deliveries and the unilateral-abort sweep
    # ------------------------------------------------------------------
    def _on_cpu_failure(self, cpu) -> None:
        """Queue automatic aborts for transactions begun in a failed CPU.

        (Failures of *server* CPUs surface as SEND errors at the
        requester, which aborts and restarts; §Transaction Management.)
        """
        for record in self.records.values():
            if (
                record.home
                and record.done is None
                and not record.settling
                and record.origin_cpu == cpu.number
            ):
                self._queue_abort(record.transid, f"cpu {cpu.number} failed")

    def _queue_abort(self, transid: Transid, reason: str) -> None:
        item = (transid, reason)
        self._auto_aborts.append(item)
        self._start(self._run_abort, item)

    def _queue_safe(self, dest_node: str, payload: Any) -> None:
        """Queue a safe delivery; its own worker sends it in the next step."""
        item = (dest_node, payload)
        self._safe_queue.append(item)
        self._start(self._deliver, item)

    def _start(self, work: Callable[..., Generator], *args: Any) -> None:
        """Run ``work(proc, *args)`` as a coroutine of the serving TMP
        primary; with none serving, the next one's :meth:`on_tmp_start`
        starts it from the queues."""
        proc = self._tmp_proc
        if proc is not None and proc.alive:
            self.tmp.spawn(work(proc, *args), work.__name__)

    def on_tmp_start(self, proc: OsProcess) -> None:
        """A TMP primary is about to serve: start its background work.

        An item leaves its queue only when done, so whatever a dead or
        down primary left queued is started again here: interrupted
        settles (put first by :meth:`on_tmp_takeover`) and other
        automatic aborts, then unacked safe deliveries, then the sweep.
        """
        self._tmp_proc = proc
        for item in self._auto_aborts:
            self._start(self._run_abort, item)
        for item in self._safe_queue:
            self._start(self._deliver, item)
        if self._unvoted:
            self._start(self._sweep)

    def on_tmp_takeover(self) -> None:
        """The TMP primary died: adopt its in-progress decisions.

        Every transaction mid-commit/mid-abort at the moment of failure
        is released from ``settling`` and queued first for the new
        primary, whose :meth:`_resume` completes it from its durable
        disposition — "the backup ... carr[ies] through to completion
        any operation initiated by the primary".
        """
        interrupted = [
            record for record in self.records.values()
            if record.settling and record.done is None
        ]
        for record in interrupted:
            self._wake(record)
        self._auto_aborts[:0] = [
            (record.transid, "coordinator failed during commit/abort")
            for record in interrupted
        ]

    def _run_abort(self, proc: OsProcess, item: Tuple[Transid, str]) -> Generator:
        """One queued automatic abort; it leaves the queue once settled."""
        yield from self.do_abort(proc, *item)
        self._auto_aborts.remove(item)

    def _deliver(self, proc: OsProcess, item: Tuple[str, Any]) -> Generator:
        """One safe delivery: sent now and, "whenever transmission
        becomes possible", again every :data:`RETRY_INTERVAL` until its
        child acks it."""
        dest_node, payload = item
        while True:
            try:
                yield from self.filesystem.send(
                    proc, f"\\{dest_node}.{TMP_NAME}", payload,
                    timeout=PHASE1_TIMEOUT,
                )
            except FileSystemError:
                yield self.env.timeout(RETRY_INTERVAL)
            else:
                self._safe_queue.remove(item)
                return

    def _sweep(self, proc: OsProcess) -> Generator:
        """Unilateral-abort sweep, run while a non-home transaction has
        not voted: every :data:`RETRY_INTERVAL` it aborts those whose
        parent became unreachable ("complete loss of communication with
        a network node which participated in the transaction")."""
        while self._unvoted:
            yield self.env.timeout(RETRY_INTERVAL)
            for record in list(self._unvoted.values()):
                if record.done is not None or record.phase1_acked:
                    del self._unvoted[record.transid]
                elif not record.settling and not (
                    self.node_os.message_system.reachable(
                        self.node_name, record.parent
                    )
                ):
                    yield from self.do_abort(
                        proc,
                        record.transid,
                        f"lost communication with {record.parent}",
                    )

    def _trace(self, kind: str, **fields: Any) -> None:
        self.env.probe.emit(kind, node=self.node_name, **fields)

