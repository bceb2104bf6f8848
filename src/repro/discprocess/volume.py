"""The DISCPROCESS: a fault-tolerant storage server per disc volume.

"Implemented as an I/O process-pair per disc volume ... it protects the
structural integrity of individual files through active checkpointing of
process state and data, and recovery in the case of processor, I/O
channel, or disc drive failure ... The DISCPROCESS controls all access
to a logical disc volume."  (paper, §Data Base Management)

Fidelity notes:

* **Checkpoint-instead-of-WAL** (§Audit Trails): before an update's
  effects become visible, its audit images *and* the data blocks it
  wrote are checkpointed to the backup process.  Blocks written by an
  operation are *pinned* in the cache until that checkpoint completes,
  so a crash can never leave a half-applied operation on disc.  The
  backup (the new primary after takeover) therefore always holds either
  none or all of each operation's effects.
* **Locks live in the pair**: every grant/release is delta-checkpointed,
  so a takeover preserves all transaction locks (the paper's recovery is
  transparent to transactions not involved in the failed module).
* **Duplicate suppression**: the File System retries a request whose
  server died mid-operation, re-using the message id; completed replies
  are checkpointed so a retried-but-already-applied mutation answers
  from the record instead of re-executing.
* **Audit flow (BOXCAR)**: the paper's §Audit Trails has audit images
  *buffered* at the AUDITPROCESS and "write-forced to disc as part of
  the two-phase commit" — nothing reads them before phase one, so no
  operation needs a forward round-trip of its own.  Images are
  checkpointed into the pair's ``unforwarded`` table within each
  operation (so a takeover re-forwards them) and shipped to the
  volume's AUDITPROCESS in batches, only when something needs them:

  - a full boxcar — :data:`BOXCAR_RECORDS` images aboard — departs on
    its own, off the operation's critical path;
  - phase one's :class:`~.ops.ForceBoxcar` drains it before the trail
    force;
  - the quiesce that precedes a backout drains it, because backout
    reads the images back from the AUDITPROCESS;
  - a takeover re-forwards whatever the new primary inherited.

  A transaction therefore never completes phase one — and backout
  never runs — with its images still aboard.  That leaves two forces on
  the commit critical path, the boxcar drain and the trail force:
  exactly the "which log forces matter" split of Gray & Lamport's
  *Consensus on Transaction Commit*.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from ..guardian import FileSystem, FileSystemError, Message, NodeOs, OsProcess, ProcessPair
from ..hardware import MirroredVolume, VolumeUnavailable
from ..sim import Event, fast_deepcopy
from .blocks import BlockKey
from .cache import BlockCache, CachedVolumeStore
from .index import StructuredFile
from .keyseq import DuplicateKey, KeyNotFound
from .locks import LockManager, LockTimeout
from .ops import (
    AppendAudit,
    AppendEntry,
    AppendSlot,
    AuditRecord,
    BackoutOp,
    CreateFile,
    DeleteRecord,
    FlushCache,
    ForceBoxcar,
    InsertRecord,
    LockFile,
    LockRecord,
    QuiesceTransaction,
    ReadEntry,
    ReadRecord,
    ReadSlot,
    ReadViaIndex,
    ReleaseLocks,
    ScanEntries,
    ScanRecords,
    UpdateRecord,
    VolumeStats,
    WriteSlot,
    op_name,
)
from .records import ENTRY_SEQUENCED, KEY_SEQUENCED, RELATIVE
from .relative import SlotError

__all__ = ["DiscProcess"]

_COMPLETED_LIMIT = 2048  # retained duplicate-suppression entries

#: images aboard at which a boxcar departs on its own (and so the
#: largest ``AppendAudit`` a full boxcar sends).
BOXCAR_RECORDS = 16

#: flush reasons, carried by ``boxcar_flush`` records.
FLUSH_MAX_RECORDS = "max_records"
FLUSH_FORCE = "force"
FLUSH_TAKEOVER = "takeover"


def _err(code: str, **extra: Any) -> Dict[str, Any]:
    reply = {"ok": False, "error": code}
    reply.update(extra)
    return reply


class DiscProcess(ProcessPair):
    """The process-pair controlling one logical disc volume."""

    # Stored blocks are never edited in place (the structured files
    # path-copy what they change, headers included), so the backup
    # shares the primary's dirty block images.
    shared_tables = frozenset({"dirty"})

    def __init__(
        self,
        node_os: NodeOs,
        name: str,
        primary_cpu: int,
        backup_cpu: int,
        volume: MirroredVolume,
        filesystem: FileSystem,
        audit_process: Optional[str] = None,
        tmf_registry: Any = None,
        cache_capacity: int = 256,
    ):
        self.volume = volume
        self.filesystem = filesystem
        self.audit_process = audit_process
        self.tmf_registry = tmf_registry
        self.cache_capacity = cache_capacity
        self.crashed = False
        self._flushed_keys: List[BlockKey] = []
        self._forwarded_seqs: List[int] = []
        self._completed_order: Deque[int] = deque(maxlen=_COMPLETED_LIMIT)
        #: plain counters surfaced by VolumeStats: AppendAudit batches
        #: shipped and the images they carried (records/batches > 1 is
        #: the boxcar's round-trip saving).
        self.audit_batches_sent = 0
        self.audit_records_forwarded = 0
        # Boxcar runtime (volatile; reset by _build_runtime on takeover):
        # the departure event of the batch currently on the wire (None =
        # idle).
        self._forward_event: Optional[Event] = None
        # In-flight audited mutations per transid (volatile: handlers die
        # with the primary).  Lets QuiesceTransaction order backout after
        # every straggling operation of an aborting transaction.
        self._inflight: Dict[str, int] = {}
        # The physical disc serves one request at a time (single
        # actuator); concurrent operations queue FCFS.  Cache hits are
        # CPU-side and do not queue.
        self._disc_free_at = 0.0
        #: accumulated physical-disc service time (ms) and in-flight
        #: request count; the XRAY sampler derives utilization and
        #: queue depth from these.
        self.busy_ms = 0.0
        self.pending_requests = 0
        # Built by _build_runtime, which a takeover runs again.
        self.cache: Optional[BlockCache] = None
        self.store: Optional[CachedVolumeStore] = None
        self.locks: Optional[LockManager] = None
        super().__init__(
            node_os, name, primary_cpu, backup_cpu, allowed_cpus=(primary_cpu, backup_cpu)
        )
        self._apply_state_defaults()
        self._build_runtime()

    def state_defaults(self) -> Dict[str, Any]:
        return {
            "files": {},
            "dirty": {},
            "locks": {},
            "completed": {},
            "unforwarded": {},
            "audit_seq": 0,
        }

    @property
    def audited(self) -> bool:
        return self.audit_process is not None

    # ------------------------------------------------------------------
    # Runtime (volatile) structures: cache, store, files, lock manager
    # ------------------------------------------------------------------
    def _build_runtime(self) -> None:
        previous_cache, previous_store = self.cache, self.store
        self.cache = BlockCache(self.cache_capacity)
        self.store = CachedVolumeStore(
            self.cache,
            physical_read=self._physical_read,
            physical_write=self._physical_write,
            physical_delete=self._physical_delete,
            list_blocks=self._list_physical,
        )
        self.store.pin_writes = True
        if previous_store is not None:
            # The volume's statistics outlive the primary that kept them.
            self.cache.stats = previous_cache.stats
            self.store.counters = previous_store.counters
        self._flushed_keys = []
        self._forwarded_seqs = []
        # Blocks checkpointed but not yet on disc: the new primary's
        # knowledge of the data base beyond the platters.
        for key, block in self.state.get("dirty", {}).items():
            self.cache.install(key, block, dirty=True)
        self.files: Dict[str, StructuredFile] = {}
        for file_name, schema in self.state.get("files", {}).items():
            self.files[file_name] = StructuredFile(self.store, schema, create=False)
        self.locks = self._new_lock_manager()
        for target, owner in self.state.get("locks", {}).items():
            self.locks._grant(owner, target)
        known = sorted(self.state.get("completed", {}))
        self._completed_order = deque(known, maxlen=_COMPLETED_LIMIT)
        for old in known[: max(0, len(known) - _COMPLETED_LIMIT)]:
            self.state["completed"].pop(old, None)
            self.backup_state.get("completed", {}).pop(old, None)
        # The unforwarded table is append-only by seq while a primary
        # lives — _forward_audit relies on that (it ships .values() in
        # insertion order).  Checkpoint mirroring preserves the order,
        # but re-establish it defensively after a takeover/restart.
        unforwarded = self.state.get("unforwarded")
        if unforwarded:
            self.state["unforwarded"] = dict(sorted(unforwarded.items()))
        # Boxcar coroutines died with the old primary.
        self._forward_event = None

    def _physical_read(self, key: BlockKey) -> Any:
        return self.volume.read_block(key)

    def _physical_write(self, key: BlockKey, block: Any) -> None:
        self.volume.write_block(key, block)
        if self.state["dirty"].get(key) is block:
            del self.state["dirty"][key]
            self._flushed_keys.append(key)

    def _new_lock_manager(self) -> LockManager:
        """An empty lock table that keeps counting the volume's waits and timeouts."""
        locks = LockManager(self.env, self.name)
        if self.locks is not None:
            locks.waits, locks.timeouts = self.locks.waits, self.locks.timeouts
        return locks

    def _physical_delete(self, key: BlockKey) -> None:
        self.volume.delete_block(key)

    def _list_physical(self, file_name: str) -> List[BlockKey]:
        return [key for key in self.volume.block_ids() if key[0] == file_name]

    def on_takeover(self) -> None:
        super().on_takeover()
        self._build_runtime()

    def on_start(self, proc: OsProcess) -> None:
        if self.state.get("unforwarded"):
            self.spawn(self._reforward(proc), "reforward")

    def _reforward(self, proc: OsProcess) -> Generator:
        """Re-ship images a takeover inherited (checkpointed, unforwarded)."""
        try:
            yield from self._drain_boxcar(proc, FLUSH_TAKEOVER)
        except VolumeUnavailable:
            pass  # self-crash recorded; pending requests see volume_down

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def serve_request(self, proc: OsProcess, message: Message) -> Generator:
        if self.crashed:
            proc.reply(message, _err("volume_down"))
            return
        recorded = self.state["completed"].get(message.msg_id)
        if recorded is not None:
            proc.reply(message, recorded)
            return
        self.pending_requests += 1
        try:
            snapshot = self._io_snapshot()
            try:
                reply = yield from self._dispatch(proc, message)
            except LockTimeout:
                reply = _err("lock_timeout")
            except DuplicateKey:
                reply = _err("duplicate_key")
            except _NoSuchFile as exc:
                reply = _err("no_such_file", file=str(exc))
            except _AuditedWithoutTransaction:
                reply = _err("audit_requires_transaction")
            except _TxNotActive as exc:
                reply = _err("tx_not_active", transid=str(exc))
            except _SecurityViolation as exc:
                reply = _err("security_violation", detail=str(exc))
            except (KeyNotFound, SlotError):
                reply = _err("not_found")
            except VolumeUnavailable:
                self.crashed = True
                self._trace("volume_crashed")
                proc.reply(message, _err("volume_down"))
                return
            io_start = self.env.now
            yield from self._charge_io(snapshot)
            probe = self.env.probe
            probe.count(f"disc.ops.{op_name(message.payload)}")
            if probe.listening and self.env.now > io_start:
                probe.note(
                    "phase", transid=message.transid, name="disc-io",
                    category="disc", start=io_start, histogram="disc.op_ms",
                )
            proc.reply(message, reply)
        finally:
            self.pending_requests -= 1

    _TRACKED_OPS = (
        InsertRecord,
        UpdateRecord,
        DeleteRecord,
        WriteSlot,
        AppendSlot,
        AppendEntry,
        ReadRecord,
        ReadSlot,
        LockRecord,
        LockFile,
    )

    def _dispatch(self, proc: OsProcess, message: Message) -> Generator:
        payload = message.payload
        if message.transid is not None and isinstance(payload, self._TRACKED_OPS):
            # Track the operation so an abort can quiesce behind it.
            tx_key = str(message.transid)
            self._inflight[tx_key] = self._inflight.get(tx_key, 0) + 1
            try:
                reply = yield from self._dispatch_inner(proc, message)
            finally:
                remaining = self._inflight.get(tx_key, 1) - 1
                if remaining <= 0:
                    self._inflight.pop(tx_key, None)
                else:
                    self._inflight[tx_key] = remaining
            return reply
        reply = yield from self._dispatch_inner(proc, message)
        return reply

    _READ_OPS = (ReadRecord, ScanRecords, ReadViaIndex, ReadSlot, ReadEntry, ScanEntries)
    _WRITE_OPS = (
        InsertRecord, UpdateRecord, DeleteRecord, WriteSlot, AppendSlot,
        AppendEntry, LockRecord, LockFile,
    )

    def _check_security(self, message: Message) -> None:
        """Enforce the file's access controls against the requester.

        The principal is the requesting process's network identity
        (node + process name), checked per function (read vs write) —
        §Data Base Management feature 5.
        """
        payload = message.payload
        if isinstance(payload, self._READ_OPS):
            function = "read"
        elif isinstance(payload, self._WRITE_OPS):
            function = "write"
        else:
            return  # system/administrative operations
        file = self.files.get(payload.file)
        if file is None:
            return  # existence errors handled downstream
        principal = f"{message.source_node}.{message.source_name}"
        if not file.schema.security.allows(function, principal):
            raise _SecurityViolation(
                f"{principal} may not {function} {payload.file}"
            )

    def _dispatch_inner(self, proc: OsProcess, message: Message) -> Generator:
        payload = message.payload
        self._check_security(message)
        if isinstance(payload, CreateFile):
            reply = yield from self._create_file(payload)
        elif isinstance(payload, ReadRecord):
            reply = yield from self._read_record(proc, message, payload)
        elif isinstance(payload, InsertRecord):
            reply = yield from self._insert(proc, message, payload)
        elif isinstance(payload, UpdateRecord):
            reply = yield from self._update(proc, message, payload)
        elif isinstance(payload, DeleteRecord):
            reply = yield from self._delete(proc, message, payload)
        elif isinstance(payload, ScanRecords):
            file = self._file(payload.file, KEY_SEQUENCED)
            rows = file.scan(payload.low, payload.high, payload.limit)
            reply = {"ok": True, "rows": fast_deepcopy(rows)}
        elif isinstance(payload, ReadViaIndex):
            file = self._file(payload.file, KEY_SEQUENCED)
            records = file.read_via_index(payload.field, payload.value)
            reply = {"ok": True, "records": fast_deepcopy(records)}
        elif isinstance(payload, (LockRecord, LockFile)):
            reply = yield from self._explicit_lock(proc, message, payload)
        elif isinstance(payload, ReadSlot):
            reply = yield from self._read_record(proc, message, payload)
        elif isinstance(payload, WriteSlot):
            reply = yield from self._write_slot(proc, message, payload)
        elif isinstance(payload, AppendSlot):
            reply = yield from self._append_slot(proc, message, payload)
        elif isinstance(payload, AppendEntry):
            reply = yield from self._append_entry(proc, message, payload)
        elif isinstance(payload, ReadEntry):
            file = self._file(payload.file, ENTRY_SEQUENCED)
            reply = {"ok": True, "record": fast_deepcopy(file.read_entry(payload.esn))}
        elif isinstance(payload, ScanEntries):
            file = self._file(payload.file, ENTRY_SEQUENCED)
            reply = {
                "ok": True,
                "rows": fast_deepcopy(
                    file.scan_entries(payload.start_esn, payload.limit)
                ),
            }
        elif isinstance(payload, QuiesceTransaction):
            reply = yield from self._quiesce(proc, payload)
        elif isinstance(payload, ForceBoxcar):
            reply = yield from self._force_boxcar(proc, payload)
        elif isinstance(payload, ReleaseLocks):
            reply = yield from self._release_locks(payload)
        elif isinstance(payload, BackoutOp):
            reply = yield from self._backout(proc, message, payload)
        elif isinstance(payload, VolumeStats):
            reply = self._stats()
        elif isinstance(payload, FlushCache):
            written = self.store.flush()
            reply = {"ok": True, "blocks_written": written}
        else:
            reply = _err("bad_request", detail=repr(payload))
        return reply

    # ------------------------------------------------------------------
    # File management
    # ------------------------------------------------------------------
    def _create_file(self, payload: CreateFile) -> Generator:
        schema = payload.schema
        if schema.name in self.files:
            return _err("file_exists")
        if schema.audited and not self.audited:
            return _err(
                "bad_request",
                detail=f"audited file {schema.name} on unaudited volume {self.name}",
            )
        self.files[schema.name] = StructuredFile(self.store, schema, create=True)
        journal = self._take_journal()
        yield from self.checkpoint_update(
            "files", updates={schema.name: schema}
        )
        yield from self.checkpoint_update("dirty", updates=journal, _charge=False)
        self.store.unpin(journal)
        return {"ok": True}

    def _file(self, file_name: str, organization: Optional[str] = None) -> StructuredFile:
        file = self.files.get(file_name)
        if file is None:
            raise _NoSuchFile(file_name)
        if organization is not None and file.schema.organization != organization:
            raise _NoSuchFile(f"{file_name} is not {organization}")
        return file

    # ------------------------------------------------------------------
    # Reads and explicit locks
    # ------------------------------------------------------------------
    def _read_record(self, proc: OsProcess, message: Message, payload: Any) -> Generator:
        """A ReadRecord (key-sequenced) or ReadSlot (relative), maybe locking."""
        if isinstance(payload, ReadSlot):
            file = self._file(payload.file, RELATIVE)
            key, read = payload.record_number, file.read_slot
        else:
            file = self._file(payload.file, KEY_SEQUENCED)
            key, read = payload.key, file.read
        lock_delta = {}
        if payload.lock:
            if message.transid is None:
                return _err("bad_request", detail="lock requires a transaction")
            self._check_tx_active(message.transid)
            self._register(message.transid)
            target = ("rec", payload.file, key)
            yield from self.locks.acquire_record(
                message.transid, payload.file, key, payload.lock_timeout
            )
            lock_delta[target] = message.transid
        record = read(key)
        if lock_delta:
            yield from self.checkpoint_update("locks", updates=lock_delta)
        return {"ok": True, "record": fast_deepcopy(record)}

    def _explicit_lock(self, proc: OsProcess, message: Message, payload: Any) -> Generator:
        if message.transid is None:
            return _err("bad_request", detail="lock requires a transaction")
        self._check_tx_active(message.transid)
        self._register(message.transid)
        if isinstance(payload, LockFile):
            target: Tuple[Any, ...] = ("file", payload.file)
            yield from self.locks.acquire_file(
                message.transid, payload.file, payload.lock_timeout
            )
        else:
            target = ("rec", payload.file, payload.key)
            yield from self.locks.acquire_record(
                message.transid, payload.file, payload.key, payload.lock_timeout
            )
        yield from self.checkpoint_update("locks", updates={target: message.transid})
        return {"ok": True}

    # ------------------------------------------------------------------
    # Mutations (key-sequenced)
    # ------------------------------------------------------------------
    def _insert(self, proc: OsProcess, message: Message, payload: InsertRecord) -> Generator:
        file = self._file(payload.file, KEY_SEQUENCED)
        transid = yield from self._mutation_preamble(file, message)
        record = fast_deepcopy(payload.record)
        file.schema.check_record(record)
        key = file.schema.key_of(record)
        lock_delta = {}
        if transid is not None:
            # "TMF automatically generates locks on all new records
            # inserted by a transaction."
            target = ("rec", payload.file, key)
            yield from self.locks.acquire_record(
                transid, payload.file, key, payload.lock_timeout
            )
            lock_delta[target] = transid
        file.insert(record)
        audit = self._make_audit(transid, file, "insert", key, None, record)
        reply = {"ok": True, "key": key}
        yield from self._finish_mutation(proc, message, audit, lock_delta, reply)
        return reply

    def _update(self, proc: OsProcess, message: Message, payload: UpdateRecord) -> Generator:
        file = self._file(payload.file, KEY_SEQUENCED)
        transid = yield from self._mutation_preamble(file, message)
        record = fast_deepcopy(payload.record)
        file.schema.check_record(record)
        key = file.schema.key_of(record)
        if transid is not None and not self._holds_lock(transid, payload.file, key):
            # "TMF verifies that all records updated or deleted by a
            # transaction have been previously locked."
            return _err("not_locked", key=key)
        old = file.update(record)
        audit = self._make_audit(transid, file, "update", key, old, record)
        reply = {"ok": True}
        yield from self._finish_mutation(proc, message, audit, {}, reply)
        return reply

    def _delete(self, proc: OsProcess, message: Message, payload: DeleteRecord) -> Generator:
        file = self._file(payload.file, KEY_SEQUENCED)
        transid = yield from self._mutation_preamble(file, message)
        if transid is not None and not self._holds_lock(transid, payload.file, payload.key):
            return _err("not_locked", key=payload.key)
        old = file.delete(payload.key)
        # The lock on the deleted key's value stays held by the transid
        # (it was acquired at read time) until release — exactly the
        # paper's "locks on the primary key values of all records
        # deleted".
        audit = self._make_audit(transid, file, "delete", payload.key, old, None)
        reply = {"ok": True, "record": fast_deepcopy(old)}
        yield from self._finish_mutation(proc, message, audit, {}, reply)
        return reply

    # ------------------------------------------------------------------
    # Mutations (relative / entry-sequenced)
    # ------------------------------------------------------------------
    def _write_slot(self, proc: OsProcess, message: Message, payload: WriteSlot) -> Generator:
        file = self._file(payload.file, RELATIVE)
        transid = yield from self._mutation_preamble(file, message)
        lock_delta = {}
        if transid is not None:
            target = ("rec", payload.file, payload.record_number)
            yield from self.locks.acquire_record(
                transid, payload.file, payload.record_number, payload.lock_timeout
            )
            lock_delta[target] = transid
        record = fast_deepcopy(payload.record)
        old = file.write_slot(payload.record_number, record)
        audit = self._make_audit(
            transid, file, "write_slot", payload.record_number, old, record
        )
        reply = {"ok": True, "old": fast_deepcopy(old)}
        yield from self._finish_mutation(proc, message, audit, lock_delta, reply)
        return reply

    def _append_slot(self, proc: OsProcess, message: Message, payload: AppendSlot) -> Generator:
        file = self._file(payload.file, RELATIVE)
        transid = yield from self._mutation_preamble(file, message)
        record = fast_deepcopy(payload.record)
        number = file.base.next_record_number
        lock_delta = {}
        if transid is not None:
            target = ("rec", payload.file, number)
            yield from self.locks.acquire_record(
                transid, payload.file, number, payload.lock_timeout
            )
            lock_delta[target] = transid
        file.write_slot(number, record)
        audit = self._make_audit(transid, file, "write_slot", number, None, record)
        reply = {"ok": True, "record_number": number}
        yield from self._finish_mutation(proc, message, audit, lock_delta, reply)
        return reply

    def _append_entry(self, proc: OsProcess, message: Message, payload: AppendEntry) -> Generator:
        file = self._file(payload.file, ENTRY_SEQUENCED)
        transid = yield from self._mutation_preamble(file, message)
        record = fast_deepcopy(payload.record)
        esn = file.append_entry(record)
        lock_delta = {}
        if transid is not None:
            target = ("rec", payload.file, esn)
            self.locks.try_acquire_record(transid, payload.file, esn)
            lock_delta[target] = transid
        audit = self._make_audit(transid, file, "append_entry", esn, None, record)
        reply = {"ok": True, "esn": esn}
        yield from self._finish_mutation(proc, message, audit, lock_delta, reply)
        return reply

    # ------------------------------------------------------------------
    # Transaction support
    # ------------------------------------------------------------------
    def _mutation_preamble(self, file: StructuredFile, message: Message) -> Generator:
        """Validate transactionality; returns the lock owner (or None)."""
        transid = message.transid
        if file.schema.audited:
            if transid is None:
                raise _AuditedWithoutTransaction()
            if not self.audited:
                raise VolumeUnavailable(
                    f"audited file {file.name} on unaudited volume {self.name}"
                )
            self._check_tx_active(transid)
            self._register(transid)
        elif transid is not None:
            self._check_tx_active(transid)
            self._register(transid)
        return transid
        yield  # pragma: no cover - generator marker

    def _check_tx_active(self, transid: Any) -> None:
        """Reject work for a transaction no longer in 'active' state.

        This is what the node-wide state broadcast of §Transaction State
        Change buys: every DISCPROCESS can locally see that a transid has
        entered 'ending'/'aborting' and refuse late updates from servers
        that have not yet learned of the failure.
        """
        if self.tmf_registry is None:
            return
        allowed = getattr(self.tmf_registry, "mutation_allowed", None)
        if allowed is not None and not allowed(transid):
            raise _TxNotActive(str(transid))

    def _quiesce(self, proc: OsProcess, payload: QuiesceTransaction) -> Generator:
        """Wait out in-flight operations of an aborting transaction."""
        tx_key = str(payload.transid)
        waited = 0.0
        while self._inflight.get(tx_key, 0) > 0 and waited < 10_000.0:
            yield self.env.timeout(2.0)
            waited += 2.0
        # Backout fetches the aborting transaction's images via GetAudit,
        # so they must be *at* the AUDITPROCESS, not aboard the boxcar.
        yield from self._drain_boxcar(proc, FLUSH_FORCE)
        return {"ok": True, "waited": waited}

    def _register(self, transid: Any) -> None:
        if self.tmf_registry is not None:
            self.tmf_registry.register_participant(
                transid, volume=self.name, audit_process=self.audit_process
            )

    def _holds_lock(self, transid: Any, file_name: str, key: Any) -> bool:
        return (
            self.locks.holder_of_record(file_name, key) == transid
            or self.locks.holder_of_file(file_name) == transid
        )

    def _make_audit(
        self,
        transid: Any,
        file: StructuredFile,
        op: str,
        key: Any,
        before: Any,
        after: Any,
    ) -> List[Any]:
        """Audit records for one logical update (audited files only)."""
        if not file.schema.audited or transid is None:
            return []
        seq = self.state["audit_seq"]
        self.state["audit_seq"] = seq + 1
        return [
            AuditRecord(
                transid=transid,
                volume=self.name,
                file=file.name,
                op=op,
                key=key,
                before=fast_deepcopy(before),
                after=fast_deepcopy(after),
                seq=seq,
            )
        ]

    def _finish_mutation(
        self,
        proc: OsProcess,
        message: Message,
        audit_records: List[Any],
        lock_delta: Dict[Any, Any],
        reply: Dict[str, Any],
    ) -> Generator:
        """Checkpoint, load the boxcar — the WAL-equivalent tail of an op."""
        journal = self._take_journal()
        prune = [key for key in self._flushed_keys if key not in journal]
        self._flushed_keys = []
        forwarded, self._forwarded_seqs = self._forwarded_seqs, []
        audit_updates = {record.seq: record for record in audit_records}
        # One physical checkpoint message carries data blocks, the
        # completed-reply record, lock grants, audit images (and the
        # removal of images forwarded since the last one), and the
        # audit cursor.
        parts: List[Tuple[str, Optional[Dict[Any, Any]], Any]] = [
            ("dirty", journal, prune),
            ("completed", {message.msg_id: reply}, ()),
        ]
        if lock_delta:
            parts.append(("locks", lock_delta, ()))
        if audit_updates or forwarded:
            parts.append(("unforwarded", audit_updates, forwarded))
        scalars = None
        if audit_updates:
            scalars = {"audit_seq": self.state["audit_seq"]}
        yield from self.checkpoint_multi(parts, scalars=scalars)
        self._remember_completed(message.msg_id)
        self.store.unpin(journal)
        if audit_updates:
            self._boxcar_note(proc)

    def _take_journal(self) -> Dict[BlockKey, Any]:
        journal = dict(self.store.journal)
        self.store.journal.clear()
        return journal

    def _remember_completed(self, msg_id: int) -> None:
        order = self._completed_order
        if len(order) == _COMPLETED_LIMIT:
            old = order[0]  # evicted by the append below (maxlen ring)
            self.state["completed"].pop(old, None)
            self.backup_state.get("completed", {}).pop(old, None)
        order.append(msg_id)

    # ------------------------------------------------------------------
    # BOXCAR: asynchronous batched audit forwarding
    # ------------------------------------------------------------------
    @property
    def audit_drain_needed(self) -> bool:
        """True while audit images are aboard the boxcar or on the wire.

        TMF's phase one consults this (node-local fast path) to skip the
        ForceBoxcar round-trip when there is provably nothing to drain.
        """
        return self._forward_event is not None or bool(self.state["unforwarded"])

    def _boxcar_note(self, proc: OsProcess) -> None:
        """Note freshly-checkpointed cargo; send a full boxcar on its way.

        Never blocks the operation that loaded the cargo — that is the
        point: the forward round-trip leaves the operation's critical
        path, and only an explicit force (phase one, quiesce) waits for
        the AUDITPROCESS.  Cargo below :data:`BOXCAR_RECORDS` waits for
        that force.
        """
        pending = self.state["unforwarded"]
        probe = self.env.probe
        if probe.listening:
            probe.note("observe", name="boxcar.occupancy", value=len(pending))
        if len(pending) >= BOXCAR_RECORDS and self._forward_event is None:
            self.spawn(self._flush_once(proc, FLUSH_MAX_RECORDS), "boxcar")

    def _flush_once(self, proc: OsProcess, reason: str) -> Generator:
        try:
            yield from self._forward_audit(proc, reason)
        except VolumeUnavailable:
            pass  # self-crash recorded; pending requests see volume_down

    def _drain_boxcar(self, proc: OsProcess, reason: str) -> Generator:
        """Flush until nothing is aboard or on the wire; returns the count."""
        flushed = 0
        while self._forward_event is not None or self.state["unforwarded"]:
            flushed += yield from self._forward_audit(proc, reason)
        return flushed

    def _force_boxcar(self, proc: OsProcess, payload: ForceBoxcar) -> Generator:
        """Serve ForceBoxcar: phase one's explicit drain (group commit)."""
        start = self.env.now
        flushed = yield from self._drain_boxcar(proc, FLUSH_FORCE)
        probe = self.env.probe
        probe.count("boxcar.forces")
        if probe.listening:
            probe.note(
                "phase", transid=payload.transid, name="boxcar-drain",
                category="disc", start=start,
            )
        return {"ok": True, "flushed": flushed}

    def _forward_audit(self, proc: OsProcess, reason: str) -> Generator:
        """Ship every unforwarded audit image to the AUDITPROCESS.

        Single-flight: if a batch is already on the wire, wait for it to
        land and re-examine.  Concurrent callers therefore never
        interleave AppendAudit messages, and because ``unforwarded`` is
        append-only by seq, ``.values()`` is already the wire order — no
        sort.  Returns the number of images shipped by *this* call.

        The primary drops the shipped images at once; their removal
        reaches the backup with the next write's checkpoint.  A takeover
        before that re-forwards them, and the AUDITPROCESS discards the
        repeats by sequence number.
        """
        if self.audit_process is None:
            return 0
        while self._forward_event is not None:
            yield self._forward_event
        pending = self.state["unforwarded"]
        if not pending:
            return 0
        batch = tuple(pending.values())
        departed = self._forward_event = Event(self.env)
        try:
            result = yield from self.filesystem.send(
                proc,
                self.audit_process,
                AppendAudit(volume=self.name, records=batch),
                timeout=2000.0,
            )
        except FileSystemError as exc:
            # The AUDITPROCESS pair is down: a multi-module failure.  The
            # volume can no longer guarantee recoverability of audited
            # updates, so it crashes itself (ROLLFORWARD territory).
            self.crashed = True
            self._trace("volume_crashed", reason=f"audit unavailable: {exc}")
            raise VolumeUnavailable(str(exc)) from exc
        finally:
            # Cleared first, so no waiter can attach after this point.
            self._forward_event = None
            if departed.callbacks:
                departed.succeed()
        if result.get("ok"):
            pending = self.state["unforwarded"]
            for record in batch:
                pending.pop(record.seq, None)
                self._forwarded_seqs.append(record.seq)
            self.audit_batches_sent += 1
            self.audit_records_forwarded += len(batch)
            probe = self.env.probe
            if probe.listening:
                probe.note("observe", name="boxcar.batch_records", value=len(batch))
            self._trace("boxcar_flush", reason=reason, records=len(batch))
        return len(batch)

    # ------------------------------------------------------------------
    # Lock release (phase two) and backout
    # ------------------------------------------------------------------
    def _release_locks(self, payload: ReleaseLocks) -> Generator:
        targets = self.locks.locks_held(payload.transid)
        released = self.locks.release_all(payload.transid)
        if targets:
            yield from self.checkpoint_update("locks", removals=list(targets))
        self._trace(
            "locks_released",
            transid=str(payload.transid),
            count=released,
            committed=payload.committed,
        )
        return {"ok": True, "released": released}

    def _backout(self, proc: OsProcess, message: Message, payload: BackoutOp) -> Generator:
        """Apply the inverse of one audit record (idempotently)."""
        record = payload.audit_record
        file = self._file(record.file)
        transid = record.transid
        op = record.op
        undone = True
        if op == "insert":
            try:
                file.delete(record.key)
            except KeyNotFound:
                undone = False  # already undone (retry after takeover)
        elif op == "update":
            try:
                file.update(fast_deepcopy(record.before))
            except KeyNotFound:
                undone = False
        elif op == "delete":
            try:
                file.insert(fast_deepcopy(record.before))
            except DuplicateKey:
                undone = False
        elif op == "write_slot":
            file.write_slot(record.key, fast_deepcopy(record.before))
        elif op == "append_entry":
            file.base.void(record.key)
        else:
            return _err("bad_request", detail=f"cannot back out op {op!r}")
        audit = self._make_audit(
            transid, file, "backout", record.key, record.after, record.before
        )
        reply = {"ok": True, "undone": undone}
        yield from self._finish_mutation(proc, message, audit, {}, reply)
        return reply

    # ------------------------------------------------------------------
    # Total-failure recovery support (used by ROLLFORWARD)
    # ------------------------------------------------------------------
    def cold_restart(self, primary_cpu: int, backup_cpu: Optional[int] = None) -> None:
        """Restart a pair whose both halves died.

        All process memory (checkpoint images included) is gone; only
        the platters survive.  The volume stays ``crashed`` until
        ROLLFORWARD reloads its contents.
        """
        self.state = {}
        self._apply_state_defaults()
        self.backup_state = fast_deepcopy(self.state)
        self.crashed = True
        self.restart(primary_cpu, backup_cpu)

    def load_contents(
        self,
        schemas: Dict[str, Any],
        content: Dict[str, Dict[Any, Any]],
        next_numbers: Dict[str, int],
        audit_seq: int,
    ) -> int:
        """Install reconstructed file contents (ROLLFORWARD's last step).

        Returns the number of physical block writes performed.
        """
        writes_before = self.store.counters.writes
        for file_name in sorted(set(schemas) | set(self.files)):
            for key in self._list_physical(file_name):
                self.volume.delete_block(key)
        self.cache.clear()
        self.store.journal.clear()
        self.files = {}
        self.state["files"] = dict(schemas)
        self.state["dirty"] = {}
        self.state["locks"] = {}
        self.state["completed"] = {}
        self.state["unforwarded"] = {}
        self.state["audit_seq"] = audit_seq
        self.locks = self._new_lock_manager()
        for file_name, schema in schemas.items():
            structured = StructuredFile(self.store, schema, create=True)
            self.files[file_name] = structured
            rows = content.get(file_name, {})
            organization = schema.organization
            if organization == KEY_SEQUENCED:
                for key in sorted(rows):
                    if rows[key] is not None:
                        structured.base.insert(key, fast_deepcopy(rows[key]))
            elif organization == RELATIVE:
                for number in sorted(rows):
                    structured.base.write(number, fast_deepcopy(rows[number]))
                if next_numbers.get(file_name, 0) > structured.base.next_record_number:
                    header = list(structured.base._header())
                    header[1] = next_numbers[file_name]
                    structured.base.store.put(file_name, 0, header)
            else:
                top = next_numbers.get(file_name, 0)
                if rows:
                    top = max(top, max(rows) + 1)
                for esn in range(top):
                    structured.base.append(fast_deepcopy(rows.get(esn)))
        # Rebuild alternate indices (reload used base.insert directly, so
        # index maintenance did not run).
        for file_name, structured in self.files.items():
            if structured.schema.organization != KEY_SEQUENCED:
                continue
            for field_name, index in structured.indices.items():
                for key, record in structured.scan():
                    index.add(record, key)
        self.store.flush()
        self.store.journal.clear()
        self.cache.unpin(list(self.cache._entries))
        self.backup_state = fast_deepcopy(self.state)
        self.crashed = False
        self._trace("volume_recovered", files=sorted(schemas))
        return self.store.counters.writes - writes_before

    # ------------------------------------------------------------------
    # Statistics and I/O time
    # ------------------------------------------------------------------
    def _stats(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "volume": self.name,
            "cache": {
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "hit_ratio": self.cache.stats.hit_ratio,
                "evictions": self.cache.stats.evictions,
                "size": len(self.cache),
            },
            "physical_reads": self.store.counters.reads,
            "physical_writes": self.store.counters.writes,
            "locks_held": self.locks.held_count(),
            "lock_waits": self.locks.waits,
            "lock_timeouts": self.locks.timeouts,
            "files": {
                name: file.record_count for name, file in self.files.items()
            },
            "compression": self._compression_stats(),
            "dirty_blocks": len(self.state["dirty"]),
            "takeovers": self.takeovers,
            "audit": {
                "batches_sent": self.audit_batches_sent,
                "records_forwarded": self.audit_records_forwarded,
                "unforwarded": len(self.state["unforwarded"]),
            },
        }

    def _compression_stats(self) -> Dict[str, float]:
        """Prefix-compression ratio of each key-sequenced file's keys.

        (Sampled over the first 1000 keys; §Data Base Management's
        "data and index compression" accounting.)
        """
        from .compress import compress_keys, encoded_key_size, plain_key_size

        ratios: Dict[str, float] = {}
        for name, file in self.files.items():
            if file.schema.organization != KEY_SEQUENCED:
                continue
            rows = file.scan(limit=1000)
            if not rows:
                continue
            keys = [key for key, _record in rows]
            plain = plain_key_size(keys)
            packed = encoded_key_size(compress_keys(keys))
            if packed:
                ratios[name] = plain / packed
        return ratios

    def _io_snapshot(self) -> Tuple[int, int, int]:
        return (
            self.cache.stats.hits,
            self.store.counters.reads,
            self.store.counters.writes,
        )

    def _charge_io(self, snapshot: Tuple[int, int, int]) -> Generator:
        hits, reads, writes = snapshot
        latencies = self.node_os.node.latencies
        physical = (
            (self.store.counters.reads - reads) * latencies.disc_read
            + (self.store.counters.writes - writes) * latencies.disc_write
        )
        if physical > 0:
            self.busy_ms += physical
            start = max(self.env.now, self._disc_free_at)
            self._disc_free_at = start + physical
            # Queueing delay + service time behind earlier requests.
            yield self.env.timeout(self._disc_free_at - self.env.now)
        hit_cost = (self.cache.stats.hits - hits) * latencies.cache_hit
        if hit_cost > 0:
            # Cache hits cost CPU in the DISCPROCESS's processor, not
            # disc-arm time.
            if self.primary_cpu is not None:
                self.node_os.node.cpus[self.primary_cpu].charge(hit_cost)
            yield self.env.timeout(hit_cost)


class _AuditedWithoutTransaction(Exception):
    pass


class _NoSuchFile(Exception):
    pass


class _TxNotActive(Exception):
    pass


class _SecurityViolation(Exception):
    pass
