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
  server died mid-operation, re-using the message id; each mutation's
  reply rides in its checkpoint (the pair's ``reply_part``), so a
  retried-but-already-applied mutation is answered from the record by
  :class:`ProcessPair` instead of re-executing — even by a volume
  marked crashed since.
* **Audit flow (BOXCAR)**: the paper's §Audit Trails has audit images
  *buffered* at the AUDITPROCESS and "write-forced to disc as part of
  the two-phase commit" — nothing reads them before phase one, so no
  operation needs a forward round-trip of its own.  Images are
  checkpointed into the pair's ``unforwarded`` table within each
  operation (so a takeover re-forwards them) and shipped to the
  volume's AUDITPROCESS in batches, only when something needs them:

  - a full boxcar — :data:`BOXCAR_RECORDS` images aboard — departs on
    its own, off the operation's critical path;
  - phase one's boxcar force ships the transaction's images (with
    whatever else is aboard) before the trail force;
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

from typing import Any, Callable, Dict, Generator, List, NamedTuple, Optional, Tuple

from ..guardian import (
    FileSystem,
    FileSystemError,
    Message,
    NodeOs,
    OsProcess,
    ProcessPair,
    bad_request,
)
from ..hardware import MirroredVolume, VolumeUnavailable
from ..sim import Event, Process, fast_deepcopy
from .blocks import BlockKey, BlockStore
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
)
from .records import ENTRY_SEQUENCED, KEY_SEQUENCED, RELATIVE
from .relative import SlotError

__all__ = ["DiscProcess"]

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
        #: plain counters surfaced by the volume statistics: AppendAudit
        #: batches shipped and the images they carried (records/batches
        #: > 1 is the boxcar's round-trip saving).
        self.audit_batches_sent = 0
        self.audit_records_forwarded = 0
        # Boxcar runtime (volatile; reset by _build_runtime on takeover):
        # the departure event of the batch currently on the wire (None =
        # idle).
        self._forward_event: Optional[Event] = None
        # In-flight audited mutations per transid (volatile: handlers die
        # with the primary).  Lets an abort's quiesce order backout after
        # every straggling operation of an aborting transaction.
        self._inflight: Dict[str, int] = {}
        # Physical reads and writes made by each request being served,
        # and how many of those writes it waits for, keyed by its
        # handler process (volatile).  An access counts for the handler
        # running when it is made, so a request that yields is not
        # charged for what other requests do meanwhile.
        self._io_made: Dict[Optional[Process], List[int]] = {}
        # Built by _build_runtime, which a takeover runs again.
        self.cache: Optional[BlockCache] = None
        self.store: Optional[CachedVolumeStore] = None
        self.locks: Optional[LockManager] = None
        super().__init__(
            node_os, name, primary_cpu, backup_cpu, allowed_cpus=(primary_cpu, backup_cpu)
        )
        self._build_runtime()

    def state_defaults(self) -> Dict[str, Any]:
        return {
            "files": {},
            "dirty": {},
            "locks": {},
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
        block = self.volume.read_block(key)
        io = self._io_made.get(self.env.active_process)
        if io is not None:
            io[0] += 1
        return block

    def _physical_write(self, key: BlockKey, block: Any) -> None:
        self.volume.write_block(key, block)
        io = self._io_made.get(self.env.active_process)
        if io is not None:
            io[1] += 1
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
    # Request dispatch: one row of the op table (see _OPS) per request
    # type says which checks run before its handler.
    # ------------------------------------------------------------------
    def serve_request(self, proc: OsProcess, message: Message) -> Generator:
        if self.crashed:
            return _err("volume_down")
        payload = message.payload
        op = _OPS.get(payload.__class__) or _unknown_op(payload)
        hits = self.cache.stats.hits
        handler = self.env.active_process
        io = self._io_made[handler] = [0, 0, 0]
        try:
            reply = yield from self._dispatch(proc, message, op)
        except _Refused as refusal:
            reply = refusal.reply
        except LockTimeout:
            reply = _err("lock_timeout")
        except DuplicateKey:
            reply = _err("duplicate_key")
        except (KeyNotFound, SlotError):
            reply = _err("not_found")
        except VolumeUnavailable:
            self.crashed = True
            self._trace("volume_crashed")
            return _err("volume_down")
        finally:
            del self._io_made[handler]
        io_start = self.env.now
        yield from self._charge_io(io, hits)
        probe = self.env.probe
        probe.count(op.counter)
        if probe.listening and self.env.now > io_start:
            probe.note(
                "phase", transid=message.transid, name="disc-io",
                category="disc", start=io_start, histogram="disc.op_ms",
            )
        return reply

    def _dispatch(self, proc: OsProcess, message: Message, op: _Op) -> Generator:
        """Check a request against its op row, then run the row's handler.

        Security comes first, and only for a file that exists (the
        principal is the requester's network identity, node + process
        name, checked per function: §Data Base Management feature 5).
        Then the file must exist with the row's organization, and the
        handler receives it.  A handler returns its reply, or a generator
        that finishes with it.
        """
        payload = message.payload
        file = None
        if op.function is not None:
            file = self.files.get(payload.file)
            if file is not None:
                principal = f"{message.source_node}.{message.source_name}"
                if not file.schema.security.allows(op.function, principal):
                    raise _Refused(
                        "security_violation",
                        detail=f"{principal} may not {op.function} {payload.file}",
                    )
            organization = op.organization
            if organization is not None:
                if file is None:
                    raise _Refused("no_such_file", file=payload.file)
                if (
                    organization != ANY_ORGANIZATION
                    and file.schema.organization != organization
                ):
                    raise _Refused(
                        "no_such_file", file=f"{payload.file} is not {organization}"
                    )
        reply = op.handler(self, proc, message, payload, file)
        if reply.__class__ is dict:
            return reply
        if not op.tracked or message.transid is None:
            return (yield from reply)
        # Track the operation so an abort can quiesce behind it.
        tx_key = str(message.transid)
        inflight = self._inflight
        inflight[tx_key] = inflight.get(tx_key, 0) + 1
        try:
            return (yield from reply)
        finally:
            remaining = inflight.get(tx_key, 1) - 1
            if remaining <= 0:
                inflight.pop(tx_key, None)
            else:
                inflight[tx_key] = remaining

    # ------------------------------------------------------------------
    # File management and browse reads
    # ------------------------------------------------------------------
    def _create_file(self, proc, message, payload, file) -> Generator:
        schema = payload.schema
        if schema.name in self.files:
            raise _Refused("file_exists")
        if schema.audited and not self.audited:
            raise _Refused(
                "bad_request",
                detail=f"audited file {schema.name} on unaudited volume {self.name}",
            )
        self.files[schema.name] = StructuredFile(self.store, schema, create=True)
        journal = self._take_journal()
        yield from self.checkpoint_multi((
            ("files", {schema.name: schema}, ()),
            ("dirty", journal, ()),
        ))
        self.store.unpin(journal)
        return {"ok": True}

    def _scan_records(self, proc, message, payload, file) -> Dict[str, Any]:
        rows = file.scan(payload.low, payload.high, payload.limit)
        return {"ok": True, "rows": fast_deepcopy(rows)}

    def _read_via_index(self, proc, message, payload, file) -> Dict[str, Any]:
        records = file.read_via_index(payload.field, payload.value)
        return {"ok": True, "records": fast_deepcopy(records)}

    def _read_entry(self, proc, message, payload, file) -> Dict[str, Any]:
        return {"ok": True, "record": fast_deepcopy(file.read_entry(payload.esn))}

    def _scan_entries(self, proc, message, payload, file) -> Dict[str, Any]:
        rows = file.scan_entries(payload.start_esn, payload.limit)
        return {"ok": True, "rows": fast_deepcopy(rows)}

    def _flush_cache(self, proc, message, payload, file) -> Dict[str, Any]:
        written = self.store.flush()
        # A flush replies once its writes are on the platters.
        self._io_made[self.env.active_process][2] += written
        return {"ok": True, "blocks_written": written}

    # ------------------------------------------------------------------
    # Keyed reads and explicit locks
    # ------------------------------------------------------------------
    def _read_record(self, proc, message, payload, file) -> Generator:
        return self._read(message, payload, file.read, payload.key)

    def _read_slot(self, proc, message, payload, file) -> Generator:
        return self._read(message, payload, file.read_slot, payload.record_number)

    def _read(self, message: Message, payload: Any, read: Any, key: Any) -> Generator:
        """Read the record at ``key``, first locking it if the request asks."""
        lock_delta = {}
        if payload.lock:
            transid = self._lock_owner(message)
            lock_delta = yield from self._take_record_lock(
                transid, payload.file, key, payload.lock_timeout
            )
        record = read(key)
        if lock_delta:
            yield from self.checkpoint_update("locks", updates=lock_delta)
        return {"ok": True, "record": fast_deepcopy(record)}

    def _lock_record(self, proc, message, payload, file) -> Generator:
        transid = self._lock_owner(message)
        lock_delta = yield from self._take_record_lock(
            transid, payload.file, payload.key, payload.lock_timeout
        )
        yield from self.checkpoint_update("locks", updates=lock_delta)
        return {"ok": True}

    def _lock_file(self, proc, message, payload, file) -> Generator:
        transid = self._lock_owner(message)
        yield from self.locks.acquire_file(transid, payload.file, payload.lock_timeout)
        yield from self.checkpoint_update("locks", updates={("file", payload.file): transid})
        return {"ok": True}

    # ------------------------------------------------------------------
    # Mutations (key-sequenced)
    # ------------------------------------------------------------------
    def _insert(self, proc, message, payload, file) -> Generator:
        transid = self._mutation_owner(file, message)
        record = fast_deepcopy(payload.record)
        file.schema.check_record(record)
        key = file.schema.key_of(record)
        # "TMF automatically generates locks on all new records inserted
        # by a transaction."
        lock_delta = yield from self._take_record_lock(
            transid, payload.file, key, payload.lock_timeout
        )
        file.insert(record)
        audit = self._make_audit(transid, file, "insert", key, None, record)
        reply = {"ok": True, "key": key}
        return (yield from self._finish_mutation(proc, message, audit, lock_delta, reply))

    def _update(self, proc, message, payload, file) -> Generator:
        transid = self._mutation_owner(file, message)
        record = fast_deepcopy(payload.record)
        file.schema.check_record(record)
        key = file.schema.key_of(record)
        self._require_lock(transid, payload.file, key)
        old = file.update(record)
        audit = self._make_audit(transid, file, "update", key, old, record)
        return (yield from self._finish_mutation(proc, message, audit, {}, {"ok": True}))

    def _delete(self, proc, message, payload, file) -> Generator:
        transid = self._mutation_owner(file, message)
        self._require_lock(transid, payload.file, payload.key)
        old = file.delete(payload.key)
        # The lock on the deleted key's value stays held by the transid
        # (it was acquired at read time) until release — exactly the
        # paper's "locks on the primary key values of all records
        # deleted".
        audit = self._make_audit(transid, file, "delete", payload.key, old, None)
        reply = {"ok": True, "record": fast_deepcopy(old)}
        return (yield from self._finish_mutation(proc, message, audit, {}, reply))

    # ------------------------------------------------------------------
    # Mutations (relative / entry-sequenced)
    # ------------------------------------------------------------------
    def _write_slot(self, proc, message, payload, file) -> Generator:
        transid = self._mutation_owner(file, message)
        number = payload.record_number
        lock_delta = yield from self._take_record_lock(
            transid, payload.file, number, payload.lock_timeout
        )
        record = fast_deepcopy(payload.record)
        old = file.write_slot(number, record)
        audit = self._make_audit(transid, file, "write_slot", number, old, record)
        reply = {"ok": True, "old": fast_deepcopy(old)}
        return (yield from self._finish_mutation(proc, message, audit, lock_delta, reply))

    def _append_slot(self, proc, message, payload, file) -> Generator:
        transid = self._mutation_owner(file, message)
        record = fast_deepcopy(payload.record)
        number = file.base.next_record_number
        lock_delta = yield from self._take_record_lock(
            transid, payload.file, number, payload.lock_timeout
        )
        file.write_slot(number, record)
        audit = self._make_audit(transid, file, "write_slot", number, None, record)
        reply = {"ok": True, "record_number": number}
        return (yield from self._finish_mutation(proc, message, audit, lock_delta, reply))

    def _append_entry(self, proc, message, payload, file) -> Generator:
        transid = self._mutation_owner(file, message)
        record = fast_deepcopy(payload.record)
        esn = file.append_entry(record)
        lock_delta = yield from self._take_record_lock(transid, payload.file, esn, None)
        audit = self._make_audit(transid, file, "append_entry", esn, None, record)
        reply = {"ok": True, "esn": esn}
        return (yield from self._finish_mutation(proc, message, audit, lock_delta, reply))

    # ------------------------------------------------------------------
    # Transaction support
    # ------------------------------------------------------------------
    def _mutation_owner(self, file: StructuredFile, message: Message) -> Any:
        """Validate transactionality; returns the lock owner (or None)."""
        transid = message.transid
        if file.schema.audited:
            if transid is None:
                raise _Refused("audit_requires_transaction")
            if not self.audited:
                raise VolumeUnavailable(
                    f"audited file {file.name} on unaudited volume {self.name}"
                )
        if transid is not None:
            self._join(transid)
        return transid

    def _lock_owner(self, message: Message) -> Any:
        """The transid a lock request locks for (a lock needs one)."""
        transid = message.transid
        if transid is None:
            raise _Refused("bad_request", detail="lock requires a transaction")
        self._join(transid)
        return transid

    def _join(self, transid: Any) -> None:
        """Admit work of ``transid``: refuse it unless 'active', then make
        this volume a participant.

        The refusal is what the node-wide state broadcast of §Transaction
        State Change buys: every DISCPROCESS can locally see that a
        transid has entered 'ending'/'aborting' and refuse late updates
        from servers that have not yet learned of the failure.
        """
        registry = self.tmf_registry
        if registry is None:
            return
        if not registry.mutation_allowed(transid):
            raise _Refused("tx_not_active", transid=str(transid))
        registry.register_participant(
            transid, volume=self.name, audit_process=self.audit_process
        )

    def _take_record_lock(
        self, transid: Any, file_name: str, key: Any, timeout: Optional[float]
    ) -> Generator:
        """Lock one record for ``transid`` (if any); returns the ``locks``
        checkpoint delta.

        ``timeout=None`` is for an entry the operation itself just
        appended (the request carries no lock timeout): the grant is
        tried once, without waiting, and a lock another transaction
        already holds on the entry is neither taken nor checkpointed.
        """
        if transid is None:
            return {}
        if timeout is None:
            if not self.locks.try_acquire_record(transid, file_name, key):
                return {}
        else:
            yield from self.locks.acquire_record(transid, file_name, key, timeout)
        return {("rec", file_name, key): transid}

    def _require_lock(self, transid: Any, file_name: str, key: Any) -> None:
        """Refuse to update or delete a record ``transid`` has not locked.

        "TMF verifies that all records updated or deleted by a
        transaction have been previously locked."
        """
        locks = self.locks
        if transid is not None and not (
            locks.holder_of_record(file_name, key) == transid
            or locks.holder_of_file(file_name) == transid
        ):
            raise _Refused("not_locked", key=key)

    def _quiesce(self, proc, message, payload, file) -> Generator:
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
        """Checkpoint, load the boxcar — the WAL-equivalent tail of an op.

        Returns ``reply``, which the checkpoint records for duplicate
        suppression (the pair's :meth:`reply_part`).
        """
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
            self.reply_part(message, reply),
        ]
        if lock_delta:
            parts.append(("locks", lock_delta, ()))
        if audit_updates or forwarded:
            parts.append(("unforwarded", audit_updates, forwarded))
        scalars = None
        if audit_updates:
            scalars = {"audit_seq": self.state["audit_seq"]}
        yield from self.checkpoint_multi(parts, scalars=scalars)
        self.store.unpin(journal)
        if audit_updates:
            self._boxcar_note(proc)
        return reply

    def _take_journal(self) -> Dict[BlockKey, Any]:
        journal = dict(self.store.journal)
        self.store.journal.clear()
        return journal

    # ------------------------------------------------------------------
    # BOXCAR: asynchronous batched audit forwarding
    # ------------------------------------------------------------------
    @property
    def audit_drain_needed(self) -> bool:
        """True while audit images are aboard the boxcar or on the wire.

        TMF's phase one consults this (node-local fast path) to skip the
        boxcar-force round-trip when there is provably nothing to drain.
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

    def _drain_boxcar(
        self, proc: OsProcess, reason: str, transid: Any = None
    ) -> Generator:
        """Flush until none of ``transid``'s images — of any
        transaction's, if None — is aboard or on the wire; returns the
        count this call shipped."""
        flushed = 0
        while self._carries(transid):
            if self._forward_event is not None:
                yield self._forward_event
            else:
                flushed += yield from self._forward_audit(proc, reason)
        return flushed

    def _carries(self, transid: Any) -> bool:
        """True while images of ``transid`` (of any, if None) are aboard
        or on the wire: a shipped image leaves ``unforwarded`` only once
        its batch has landed."""
        if transid is None:
            return self.audit_drain_needed
        return any(
            record.transid == transid
            for record in self.state["unforwarded"].values()
        )

    def _force_boxcar(self, proc, message, payload, file) -> Generator:
        """Phase one's drain of the transaction's images (group commit).

        Its images leave with whatever else is aboard, but a batch that
        carries none of them is not waited for.
        """
        start = self.env.now
        flushed = yield from self._drain_boxcar(proc, FLUSH_FORCE, payload.transid)
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
    def _release_locks(self, proc, message, payload, file) -> Generator:
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

    def _backout(self, proc, message, payload, file) -> Generator:
        """Apply the inverse of one audit record (idempotently)."""
        record = payload.audit_record
        file = self.files.get(record.file)
        if file is None:
            raise _Refused("no_such_file", file=record.file)
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
            raise _Refused("bad_request", detail=f"cannot back out op {op!r}")
        audit = self._make_audit(
            transid, file, "backout", record.key, record.after, record.before
        )
        reply = {"ok": True, "undone": undone}
        return (yield from self._finish_mutation(proc, message, audit, {}, reply))

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
        store = _StatsStore(self.cache, self.volume)
        files = {
            name: StructuredFile(store, file.schema) for name, file in self.files.items()
        }
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
            "files": {name: file.record_count for name, file in files.items()},
            "compression": self._compression_stats(files),
            "dirty_blocks": len(self.state["dirty"]),
            "takeovers": self.takeovers,
            "audit": {
                "batches_sent": self.audit_batches_sent,
                "records_forwarded": self.audit_records_forwarded,
                "unforwarded": len(self.state["unforwarded"]),
            },
        }

    def _compression_stats(self, files: Dict[str, StructuredFile]) -> Dict[str, float]:
        """Prefix-compression ratio of each key-sequenced file's keys.

        (Sampled over the first 1000 keys; §Data Base Management's
        "data and index compression" accounting.)
        """
        from .compress import compress_keys, encoded_key_size, plain_key_size

        ratios: Dict[str, float] = {}
        for name, file in files.items():
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

    def _charge_io(self, io: List[int], hits: int) -> Generator:
        """Wait out the request's own disc accesses, then its cache hits.

        ``io`` holds the physical reads and writes the request made, and
        how many of those writes are its own (an explicit flush's).  They
        run on the volume's arms in the order the cache makes them, the
        reads, then the own writes, then the write-backs of the dirty
        blocks it evicted, each behind the accesses already booked on
        its arm.  The request waits only until its reads and own writes
        end: the write-backs are written behind, booked on the arms (so
        later requests queue behind them) but not waited for.  The
        platters changed when the block was evicted, so this moves only
        who waits, not what any read sees.
        """
        reads, writes, own_writes = io
        latencies = self.node_os.node.latencies
        now = self.env.now
        if reads or writes:
            end = self.volume.book(
                now, reads, latencies.disc_read, own_writes, latencies.disc_write
            )
            if writes > own_writes:
                self.volume.book(
                    end, writes=writes - own_writes, write_ms=latencies.disc_write
                )
            if end > now:
                yield self.env.timeout(end - now)
        hit_cost = (self.cache.stats.hits - hits) * latencies.cache_hit
        if hit_cost > 0:
            # Cache hits cost CPU in the DISCPROCESS's processor, not
            # disc-arm time.
            if self.primary_cpu is not None:
                self.node_os.node.cpus[self.primary_cpu].charge(hit_cost)
            start = self.env.now
            yield self.env.timeout(hit_cost)
            probe = self.env.probe
            if probe.listening:
                probe.note(
                    "phase", transid=None, name="cache-hits", category="cpu",
                    start=start,
                )


class _StatsStore(BlockStore):
    """A DISCPROCESS's blocks as its statistics read them: from the cache
    when it holds the block, else from the disc, without moving the
    cache's LRU order or counting a hit, a miss or a physical access,
    so reading the statistics leaves the run unchanged."""

    def __init__(self, cache: BlockCache, volume: MirroredVolume):
        self.cache = cache
        self.volume = volume

    def get(self, file_name: str, block_number: int) -> Any:
        key = (file_name, block_number)
        if key in self.cache:
            return self.cache.peek(key)
        return self.volume.read_block(key)


class _Refused(Exception):
    """A request the DISCPROCESS refuses: its reply is ``_err(code, **extra)``."""

    def __init__(self, code: str, **extra: Any):
        super().__init__(code)
        self.reply = _err(code, **extra)


#: access classes of an op row: a read, a read that may lock, a write;
#: the last two are tracked in flight.
READ, LOCK, WRITE = "read", "lock", "write"
#: the organization of an op row whose file must exist, whatever its
#: organization (an explicit lock)
ANY_ORGANIZATION = "any"
#: the security function each access class checks
_FUNCTION = {READ: "read", LOCK: "read", WRITE: "write", None: None}


class _Op(NamedTuple):
    """What the DISCPROCESS does with one request type."""

    handler: Callable[..., Any]    # (dp, proc, message, payload, file)
    organization: Optional[str]    # the named file must exist with it
    function: Optional[str]        # "read"/"write": the security check
    tracked: bool                  # counted in flight, for an abort's quiesce
    counter: str                   # disc.ops.<request type>


def _op_table(rows: Dict[type, Tuple[Any, Optional[str], Optional[str]]]) -> Dict[type, _Op]:
    return {
        kind: _Op(
            handler,
            organization,
            _FUNCTION[access],
            access in (LOCK, WRITE),
            f"disc.ops.{kind.__name__}",
        )
        for kind, (handler, organization, access) in rows.items()
    }


def _refuse_unknown(dp, proc, message, payload, file) -> Dict[str, Any]:
    return bad_request(payload)


def _unknown_op(payload: Any) -> _Op:
    return _Op(_refuse_unknown, None, None, False, f"disc.ops.{type(payload).__name__}")


#: The op table: per request type, its handler, the organization its
#: file must have (None: the handler looks up no file; ANY_ORGANIZATION:
#: the file must exist), and its access class (None: a system or
#: administrative request, unchecked).
_OPS = _op_table({
    CreateFile: (DiscProcess._create_file, None, None),
    ReadRecord: (DiscProcess._read_record, KEY_SEQUENCED, LOCK),
    InsertRecord: (DiscProcess._insert, KEY_SEQUENCED, WRITE),
    UpdateRecord: (DiscProcess._update, KEY_SEQUENCED, WRITE),
    DeleteRecord: (DiscProcess._delete, KEY_SEQUENCED, WRITE),
    ScanRecords: (DiscProcess._scan_records, KEY_SEQUENCED, READ),
    ReadViaIndex: (DiscProcess._read_via_index, KEY_SEQUENCED, READ),
    LockRecord: (DiscProcess._lock_record, ANY_ORGANIZATION, WRITE),
    LockFile: (DiscProcess._lock_file, ANY_ORGANIZATION, WRITE),
    ReadSlot: (DiscProcess._read_slot, RELATIVE, LOCK),
    WriteSlot: (DiscProcess._write_slot, RELATIVE, WRITE),
    AppendSlot: (DiscProcess._append_slot, RELATIVE, WRITE),
    AppendEntry: (DiscProcess._append_entry, ENTRY_SEQUENCED, WRITE),
    ReadEntry: (DiscProcess._read_entry, ENTRY_SEQUENCED, READ),
    ScanEntries: (DiscProcess._scan_entries, ENTRY_SEQUENCED, READ),
    QuiesceTransaction: (DiscProcess._quiesce, None, None),
    ForceBoxcar: (DiscProcess._force_boxcar, None, None),
    ReleaseLocks: (DiscProcess._release_locks, None, None),
    BackoutOp: (DiscProcess._backout, None, None),
    VolumeStats: (lambda dp, *request: dp._stats(), None, None),
    FlushCache: (DiscProcess._flush_cache, None, None),
})
