"""Client-side file access: the application's view of the data base.

Application servers do not talk to DISCPROCESSes directly; they use a
:class:`FileClient`, which plays the role of the file-system record
interface in the paper:

* resolves a file name through the data dictionary to the partition
  (volume, node) holding the requested key — "partitioning of files by
  key value range across multiple disc volumes (possibly on multiple
  nodes)" is invisible to the caller;
* sends the request through the File System, which appends the caller's
  current transid and handles retry over DISCPROCESS takeovers;
* converts error replies into typed exceptions
  (:class:`LockTimeoutError` is the one applications act on — it is the
  presumed-deadlock signal that should trigger RESTART-TRANSACTION).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..guardian import FileSystem, FileSystemError, OsProcess
from .ops import (
    AppendEntry,
    AppendSlot,
    CreateFile,
    DEFAULT_LOCK_TIMEOUT,
    DeleteRecord,
    FlushCache,
    InsertRecord,
    LockFile,
    LockRecord,
    ReadEntry,
    ReadRecord,
    ReadSlot,
    ReadViaIndex,
    ScanEntries,
    ScanRecords,
    UpdateRecord,
    VolumeStats,
    WriteSlot,
)
from .records import FileSchema, PartitionSpec

__all__ = [
    "DataDictionary",
    "FileClient",
    "FileError",
    "LockTimeoutError",
    "NotLockedError",
    "DuplicateKeyError",
    "NotFoundError",
    "FileUnavailableError",
    "SecurityViolationError",
]

#: deadline (ms) of one request to a DISCPROCESS.
REQUEST_TIMEOUT = 5000.0


class FileError(Exception):
    """Base class for data-base access failures."""

    def __init__(self, code: str, detail: Any = None):
        super().__init__(f"{code}: {detail}" if detail is not None else code)
        self.code = code
        self.detail = detail


class LockTimeoutError(FileError):
    """Presumed deadlock — the application should restart the transaction."""


class NotLockedError(FileError):
    """Update/delete without holding the record's lock (TMF protocol violation)."""


class DuplicateKeyError(FileError):
    pass


class NotFoundError(FileError):
    pass


class FileUnavailableError(FileError):
    """Volume down (drives or its AUDITPROCESS lost) or file missing."""


class SecurityViolationError(FileError):
    """The requesting process is not authorized for this function."""


_ERROR_CLASSES = {
    "lock_timeout": LockTimeoutError,
    "not_locked": NotLockedError,
    "tx_not_active": FileError,
    "security_violation": SecurityViolationError,
    "duplicate_key": DuplicateKeyError,
    "not_found": NotFoundError,
    "no_such_file": FileUnavailableError,
    "volume_down": FileUnavailableError,
    "audit_requires_transaction": FileError,
    "file_exists": FileError,
    "bad_request": FileError,
}


def _check(reply: Dict[str, Any]) -> Dict[str, Any]:
    if reply.get("ok"):
        return reply
    code = reply.get("error", "bad_request")
    raise _ERROR_CLASSES.get(code, FileError)(code, reply.get("detail"))


class DataDictionary:
    """The cluster-wide catalog of file schemas (static per run)."""

    def __init__(self) -> None:
        self._schemas: Dict[str, FileSchema] = {}

    def define(self, schema: FileSchema) -> FileSchema:
        if schema.name in self._schemas:
            raise ValueError(f"file {schema.name} already defined")
        self._schemas[schema.name] = schema
        return schema

    def schema(self, file_name: str) -> FileSchema:
        try:
            return self._schemas[file_name]
        except KeyError:
            raise FileUnavailableError("no_such_file", file_name) from None

    def files(self) -> List[str]:
        return sorted(self._schemas)


class FileClient:
    """Record-level data base access for one node's processes."""

    def __init__(self, filesystem: FileSystem, dictionary: DataDictionary):
        self.filesystem = filesystem
        self.dictionary = dictionary

    # ------------------------------------------------------------------
    # Destination resolution
    # ------------------------------------------------------------------
    def _destination(self, spec: PartitionSpec) -> str:
        if spec.node == self.filesystem.node_name:
            return spec.volume
        return f"\\{spec.node}.{spec.volume}"

    def _dest_for_key(self, schema: FileSchema, key: Tuple[Any, ...]) -> str:
        return self._destination(schema.partition_for(key))

    def _single_partition(self, schema: FileSchema) -> str:
        if schema.partitioned:
            raise FileError(
                "bad_request",
                f"{schema.name}: operation not supported on partitioned files",
            )
        return self._destination(schema.partitions[0])

    def _send(self, proc: OsProcess, destination: str, payload: Any, transid: Any) -> Generator:
        try:
            reply = yield from self.filesystem.send(
                proc, destination, payload, transid=transid, timeout=REQUEST_TIMEOUT
            )
        except FileSystemError as exc:
            # The DISCPROCESS pair (or the path to it) is gone — the
            # multi-module failure case.
            raise FileUnavailableError("volume_down", str(exc)) from exc
        return _check(reply)

    # ------------------------------------------------------------------
    # Key-sequenced operations
    # ------------------------------------------------------------------
    def read(
        self,
        proc: OsProcess,
        file_name: str,
        key: Tuple[Any, ...],
        transid: Any = None,
        lock: bool = False,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
    ) -> Generator:
        """Read one record by primary key (optionally locking it)."""
        schema = self.dictionary.schema(file_name)
        destination = self._dest_for_key(schema, key)
        reply = yield from self._send(
            proc,
            destination,
            ReadRecord(file_name, key, lock=lock, lock_timeout=lock_timeout),
            transid,
        )
        return reply["record"]

    def insert(self, proc: OsProcess, file_name: str, record: Dict[str, Any], transid: Any = None) -> Generator:
        schema = self.dictionary.schema(file_name)
        key = schema.key_of(record)
        reply = yield from self._send(
            proc, self._dest_for_key(schema, key), InsertRecord(file_name, record), transid
        )
        return reply["key"]

    def update(self, proc: OsProcess, file_name: str, record: Dict[str, Any], transid: Any = None) -> Generator:
        schema = self.dictionary.schema(file_name)
        key = schema.key_of(record)
        yield from self._send(
            proc, self._dest_for_key(schema, key), UpdateRecord(file_name, record), transid
        )

    def delete(self, proc: OsProcess, file_name: str, key: Tuple[Any, ...], transid: Any = None) -> Generator:
        schema = self.dictionary.schema(file_name)
        reply = yield from self._send(
            proc, self._dest_for_key(schema, key), DeleteRecord(file_name, key), transid
        )
        return reply["record"]

    def lock_record(
        self,
        proc: OsProcess,
        file_name: str,
        key: Tuple[Any, ...],
        transid: Any,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
    ) -> Generator:
        schema = self.dictionary.schema(file_name)
        yield from self._send(
            proc,
            self._dest_for_key(schema, key),
            LockRecord(file_name, key, lock_timeout),
            transid,
        )

    def lock_file(
        self,
        proc: OsProcess,
        file_name: str,
        transid: Any,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
    ) -> Generator:
        """Lock every partition of the file, in partition order."""
        schema = self.dictionary.schema(file_name)
        for spec in schema.partitions:
            yield from self._send(
                proc,
                self._destination(spec),
                LockFile(file_name, lock_timeout),
                transid,
            )

    def scan(
        self,
        proc: OsProcess,
        file_name: str,
        low: Optional[Tuple[Any, ...]] = None,
        high: Optional[Tuple[Any, ...]] = None,
        limit: Optional[int] = None,
        transid: Any = None,
    ) -> Generator:
        """Browse records across all partitions covering [low, high]."""
        schema = self.dictionary.schema(file_name)
        rows: List[Tuple[Tuple[Any, ...], Dict[str, Any]]] = []
        for spec in schema.partitions:
            if limit is not None and len(rows) >= limit:
                break
            remaining = None if limit is None else limit - len(rows)
            reply = yield from self._send(
                proc,
                self._destination(spec),
                ScanRecords(file_name, low, high, remaining),
                transid,
            )
            rows.extend(reply["rows"])
        return rows

    def read_via_index(
        self, proc: OsProcess, file_name: str, field: str, value: Any, transid: Any = None
    ) -> Generator:
        """All records (across partitions) whose alternate key matches."""
        schema = self.dictionary.schema(file_name)
        records: List[Dict[str, Any]] = []
        for spec in schema.partitions:
            reply = yield from self._send(
                proc, self._destination(spec), ReadViaIndex(file_name, field, value), transid
            )
            records.extend(reply["records"])
        return records

    # ------------------------------------------------------------------
    # Relative / entry-sequenced operations (single-partition files)
    # ------------------------------------------------------------------
    def read_slot(
        self,
        proc: OsProcess,
        file_name: str,
        record_number: int,
        transid: Any = None,
        lock: bool = False,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
    ) -> Generator:
        schema = self.dictionary.schema(file_name)
        reply = yield from self._send(
            proc,
            self._single_partition(schema),
            ReadSlot(file_name, record_number, lock, lock_timeout),
            transid,
        )
        return reply["record"]

    def write_slot(
        self, proc: OsProcess, file_name: str, record_number: int, record: Any, transid: Any = None
    ) -> Generator:
        schema = self.dictionary.schema(file_name)
        reply = yield from self._send(
            proc,
            self._single_partition(schema),
            WriteSlot(file_name, record_number, record),
            transid,
        )
        return reply["old"]

    def append_slot(self, proc: OsProcess, file_name: str, record: Any, transid: Any = None) -> Generator:
        schema = self.dictionary.schema(file_name)
        reply = yield from self._send(
            proc, self._single_partition(schema), AppendSlot(file_name, record), transid
        )
        return reply["record_number"]

    def append_entry(self, proc: OsProcess, file_name: str, record: Any, transid: Any = None) -> Generator:
        schema = self.dictionary.schema(file_name)
        reply = yield from self._send(
            proc, self._single_partition(schema), AppendEntry(file_name, record), transid
        )
        return reply["esn"]

    def read_entry(self, proc: OsProcess, file_name: str, esn: int, transid: Any = None) -> Generator:
        schema = self.dictionary.schema(file_name)
        reply = yield from self._send(
            proc, self._single_partition(schema), ReadEntry(file_name, esn), transid
        )
        return reply["record"]

    def scan_entries(
        self,
        proc: OsProcess,
        file_name: str,
        start_esn: int = 0,
        limit: Optional[int] = None,
        transid: Any = None,
    ) -> Generator:
        schema = self.dictionary.schema(file_name)
        reply = yield from self._send(
            proc,
            self._single_partition(schema),
            ScanEntries(file_name, start_esn, limit),
            transid,
        )
        return reply["rows"]

    # ------------------------------------------------------------------
    # Administration
    # ------------------------------------------------------------------
    def create_file(self, proc: OsProcess, schema: FileSchema) -> Generator:
        """Create the file on every partition volume (DDL)."""
        for spec in schema.partitions:
            yield from self._send(
                proc, self._destination(spec), CreateFile(schema), None
            )

    def volume_stats(self, proc: OsProcess, destination: str) -> Generator:
        reply = yield from self._send(proc, destination, VolumeStats(), None)
        return reply

    def flush_volume(self, proc: OsProcess, destination: str) -> Generator:
        reply = yield from self._send(proc, destination, FlushCache(), None)
        return reply["blocks_written"]
