"""Audit trails and the AUDITPROCESS.

"TMF maintains distributed audit trails of logical data base record
updates on mirrored disc volumes.  An audit trail is a numbered sequence
of disc files ...  Each DISCPROCESS ... automatically provides
'before-images' and 'after-images' of data base updates ... to an
AUDITPROCESS (of which several, each a process-pair, are configurable),
which writes to an audit trail. ... For transactions that span data
bases on multiple nodes of a network, all audit images for records
residing on a particular node are contained in audit trails at that
node."  (paper, §Audit Trails)

The :class:`AuditTrail` is the durable representation: a numbered
sequence of entry-sequenced files on a mirrored audit volume.  The
:class:`AuditProcess` pair buffers incoming images in (checkpointed)
memory and forces them to the trail during phase one of commit — and on
request returns a transaction's images to the BACKOUTPROCESS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterable, Iterator, List, Optional, Tuple

from ..discprocess.blocks import VolumeBlockStore
from ..discprocess.entryseq import EntrySequencedFile
# The audit image carriers are defined at the layer that produces them
# (the DISCPROCESS) and re-exported here for the consumers above.
from ..discprocess.ops import AppendAudit, AuditRecord
from ..guardian import Message, NodeOs, OsProcess, ProcessPair, bad_request
from ..hardware import MirroredVolume
from ..sim import register_immutable
from .transid import Transid

__all__ = [
    "AuditChain",
    "AuditRecord",
    "CompletionRecord",
    "AuditTrail",
    "AuditProcess",
    "AppendAudit",
    "ForceAudit",
    "GetAudit",
]


@dataclass(frozen=True)
class CompletionRecord:
    """Monitor Audit Trail entry: a transaction's final disposition."""

    transid: Transid
    disposition: str           # committed | aborted


# ---------------------------------------------------------------------------
# Request payloads understood by the AUDITPROCESS (AppendAudit lives in
# discprocess.ops with its producer; the TMF-side requests live here)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ForceAudit:
    transid: Optional[Transid] = None


@dataclass(frozen=True)
class GetAudit:
    transid: Transid


@register_immutable
class AuditChain:
    """One transaction's audit images: an immutable linked list, newest first.

    Appending an image links it to the chain so far, so checkpointing an
    append ships only the new links, which the backup shares, however
    large the transaction.  Iterating yields the images oldest first.
    """

    __slots__ = ("prev", "record")

    def __init__(self, prev: Optional["AuditChain"], record: AuditRecord):
        self.prev = prev
        self.record = record

    def __iter__(self) -> Iterator[AuditRecord]:
        records = []
        link: Optional[AuditChain] = self
        while link is not None:
            records.append(link.record)
            link = link.prev
        return reversed(records)


class AuditTrail:
    """A numbered sequence of audit files on a mirrored volume."""

    def __init__(
        self,
        volume: MirroredVolume,
        prefix: str = "AA",
        records_per_file: int = 512,
        entries_per_block: int = 32,
    ):
        self.volume = volume
        self.prefix = prefix
        self.records_per_file = records_per_file
        self.entries_per_block = entries_per_block
        self.store = VolumeBlockStore(volume)
        self.file_names: List[str] = []
        self._current: Optional[EntrySequencedFile] = None
        self.total_records = 0

    def _file_name(self, number: int) -> str:
        return f"{self.prefix}{number:06d}"

    def _roll_if_needed(self) -> EntrySequencedFile:
        if (
            self._current is None
            or self._current.record_count >= self.records_per_file
        ):
            name = self._file_name(len(self.file_names) + 1)
            self.file_names.append(name)
            self._current = EntrySequencedFile(
                self.store,
                name,
                entries_per_block=self.entries_per_block,
                create=True,
            )
        return self._current

    def append(self, record: Any) -> Tuple[str, int]:
        """Durably append one record; returns (file, esn) position."""
        current = self._roll_if_needed()
        esn = current.append(record)
        self.total_records += 1
        return current.name, esn

    def append_many(self, records: Iterable[Any]) -> int:
        """Durably append records; returns the number of physical writes.

        Writes are coalesced per block (group commit): a batch touching
        one data block and the header costs two physical writes, not two
        per record.
        """
        records = list(records)
        if not records:
            return 0
        coalescer = _CoalescingStore(self.store)
        real_store, self.store = self.store, coalescer
        try:
            for record in records:
                self.append(record)
                # ``append`` may roll to a new trail file, whose
                # EntrySequencedFile was built against the coalescer;
                # rebind it to the real store afterwards.
        finally:
            self.store = real_store
            if self._current is not None:
                self._current.store = real_store
        return coalescer.flush()

    def scan_all(self) -> List[Any]:
        """Every durable record, oldest first (used by ROLLFORWARD)."""
        out: List[Any] = []
        for name in self.file_names:
            trail_file = EntrySequencedFile(
                self.store, name, entries_per_block=self.entries_per_block
            )
            out.extend(record for _esn, record in trail_file.scan())
        return out

    def purge(self, watermarks: Dict[str, int]) -> int:
        """Delete trail files fully covered by archives.

        "An audit trail is a numbered sequence of disc files whose ...
        creation and purging is managed by TMF."  A file may be purged
        when every image in it belongs to a volume with an archive whose
        watermark is beyond the image's sequence — i.e. the archive
        already reflects it, so ROLLFORWARD will never need it.  The
        active (latest) file is never purged.  Returns files purged.
        """
        purged = 0
        for name in list(self.file_names[:-1]):
            trail_file = EntrySequencedFile(
                self.store, name, entries_per_block=self.entries_per_block
            )
            records = [record for _esn, record in trail_file.scan()]
            covered = all(
                isinstance(record, AuditRecord)
                and record.volume in watermarks
                and record.seq < watermarks[record.volume]
                for record in records
            )
            if not covered:
                continue
            for key in list(self.store.blocks_of(name)):
                self.store.delete(*key)
            self.file_names.remove(name)
            self.total_records -= len(records)
            purged += 1
        return purged

    @staticmethod
    def discover_file_names(volume: MirroredVolume, prefix: str = "AA") -> List[str]:
        """Trail files present on a volume (restart after total failure)."""
        names = {
            key[0]
            for key in volume.block_ids()
            if isinstance(key[0], str) and key[0].startswith(prefix)
        }
        return sorted(names)

    def attach_existing(self, file_names: List[str]) -> None:
        """Adopt trail files already present on the volume (restart)."""
        self.file_names = list(file_names)
        self._current = None
        if self.file_names:
            self._current = EntrySequencedFile(
                self.store,
                self.file_names[-1],
                entries_per_block=self.entries_per_block,
            )
        self.total_records = sum(
            EntrySequencedFile(
                self.store, name, entries_per_block=self.entries_per_block
            ).record_count
            for name in self.file_names
        )


class _CoalescingStore:
    """Write-coalescing wrapper used inside one append batch."""

    def __init__(self, backing: VolumeBlockStore):
        self.backing = backing
        self._pending: Dict[Tuple[str, int], Any] = {}

    def get(self, file_name: str, block_number: int) -> Any:
        key = (file_name, block_number)
        if key in self._pending:
            return self._pending[key]
        return self.backing.get(file_name, block_number)

    def put(self, file_name: str, block_number: int, block: Any) -> None:
        self._pending[(file_name, block_number)] = block

    def flush(self) -> int:
        for (file_name, block_number), block in self._pending.items():
            self.backing.put(file_name, block_number, block)
        return len(self._pending)


class AuditProcess(ProcessPair):
    """The AUDITPROCESS: buffers audit images, forces them at phase one.

    Checkpointed state:

    * ``buffer``   — images received but not yet on the trail, keyed by
      arrival index (order preserved);
    * ``by_tx``    — per-transid :class:`AuditChain` of the images
      backout may have to undo (buffered *and* durable), used to answer
      the BACKOUTPROCESS.  Backout's own compensation images go to the
      trail only: they may arrive after the aborted transaction was
      forgotten, and indexing them would revive its entry for good;
    * ``high_seq`` — per-volume highest audit sequence seen (suppresses
      duplicates re-forwarded after a DISCPROCESS takeover).
    """

    def __init__(
        self,
        node_os: NodeOs,
        name: str,
        primary_cpu: int,
        backup_cpu: int,
        trail: AuditTrail,
    ):
        self.trail = trail
        super().__init__(node_os, name, primary_cpu, backup_cpu)
        self.forces = 0
        self.forced_block_writes = 0

    def state_defaults(self) -> Dict[str, Any]:
        return {
            "buffer": {},
            "by_tx": {},
            "high_seq": {},
            "next_index": 0,
        }

    # ------------------------------------------------------------------
    def serve_request(self, proc: OsProcess, message: Message) -> Generator:
        payload = message.payload
        if isinstance(payload, AppendAudit):
            return (yield from self._append(payload))
        if isinstance(payload, ForceAudit):
            return (yield from self._force(message))
        if isinstance(payload, GetAudit):
            return {"ok": True, "records": tuple(self._records_for(payload.transid))}
        return bad_request(payload)

    def _append(self, payload: AppendAudit) -> Generator:
        high = self.state["high_seq"].get(payload.volume, -1)
        fresh = [r for r in payload.records if r.seq > high]
        if fresh:
            buffer_updates = {}
            by_tx = self.state["by_tx"]
            tx_updates: Dict[str, AuditChain] = {}
            for record in fresh:
                index = self.state["next_index"]
                self.state["next_index"] = index + 1
                buffer_updates[index] = record
                if record.op == "backout":
                    continue
                tx_key = str(record.transid)
                tx_updates[tx_key] = AuditChain(
                    tx_updates.get(tx_key) or by_tx.get(tx_key), record
                )
            # One physical checkpoint message carries all the tables.
            yield from self.checkpoint_multi(
                [
                    ("buffer", buffer_updates, ()),
                    ("high_seq", {payload.volume: max(r.seq for r in fresh)}, ()),
                    ("by_tx", tx_updates, ()),
                ],
                scalars={"next_index": self.state["next_index"]},
            )
            # A transaction forgotten while the checkpoint was in flight
            # stays forgotten: the late mirror must not revive its entry.
            backup_by_tx = self.backup_state.get("by_tx", {})
            for tx_key in tx_updates:
                if tx_key not in by_tx:
                    backup_by_tx.pop(tx_key, None)
        return {"ok": True, "accepted": len(fresh)}

    def _force(self, message: Message) -> Generator:
        """Write every buffered image to the trail (group commit).

        The images are claimed from the buffer before the disc wait, so
        a force arriving meanwhile does not write them again; it queues
        behind this write instead and so never replies before it ends.
        """
        t0 = self.env.now
        buffer: Dict[int, AuditRecord] = self.state["buffer"]
        indices = sorted(buffer)
        records = [buffer.pop(i) for i in indices]
        batch_writes = self.trail.append_many(records)
        self.forced_block_writes += batch_writes
        # Physical write time: sequential trail writes (an empty force
        # still costs one rotation to write the commit-fence block) at
        # one disc_write per two blocks, booked as one write on the trail
        # volume's arms, so concurrent forces queue behind each other.
        blocks = batch_writes if records else 1
        cost = blocks * self.node_os.node.latencies.disc_write / 2
        now = self.env.now
        end = self.trail.volume.book(now, writes=1, write_ms=cost)
        yield self.env.timeout(end - now)
        if records:
            # The primary's buffer already lost the indices above.
            yield from self.checkpoint_multi([("buffer", None, indices)])
        self.forces += 1
        probe = self.env.probe
        if probe.listening:
            probe.note(
                "phase", transid=getattr(message.payload, "transid", None),
                name="audit-force", category="audit", start=t0,
                histogram="audit.force_ms",
            )
        return {"ok": True, "trail_records": self.trail.total_records}

    def _records_for(self, transid: Transid) -> List[AuditRecord]:
        return list(self.state["by_tx"].get(str(transid), ()))

    # ------------------------------------------------------------------
    def cold_restart(self, primary_cpu: int, backup_cpu: Optional[int] = None) -> None:
        """Restart after both halves died: only the trail volume survives."""
        self.state = {}
        self.backup_state = {}
        self.trail.attach_existing(
            AuditTrail.discover_file_names(self.trail.volume, self.trail.prefix)
        )
        by_tx: Dict[str, AuditChain] = {}
        high_seq: Dict[str, int] = {}
        for record in self.trail.scan_all():
            if isinstance(record, AuditRecord):
                if record.op != "backout":
                    tx_key = str(record.transid)
                    by_tx[tx_key] = AuditChain(by_tx.get(tx_key), record)
                high_seq[record.volume] = max(
                    high_seq.get(record.volume, -1), record.seq
                )
        self.backup_state = {
            "buffer": {},
            "by_tx": by_tx,
            "high_seq": high_seq,
            "next_index": 0,
        }
        self.restart(primary_cpu, backup_cpu)

    def forget_transaction(self, transid: Transid) -> None:
        """Drop the per-transid index once the transaction left the system."""
        self.state["by_tx"].pop(str(transid), None)
        self.backup_state.get("by_tx", {}).pop(str(transid), None)
