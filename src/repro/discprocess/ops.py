"""Request payloads and error vocabulary of the DISCPROCESS protocol.

Every interaction with a DISCPROCESS is a request/reply exchange whose
payload is one of the frozen dataclasses below.  Replies are dicts:
``{"ok": True, ...}`` on success, ``{"ok": False, "error": <code>}`` on
failure, with the error codes of :data:`ERROR_CODES`.  The client-side
wrapper (:mod:`repro.discprocess.client`) converts error replies into
typed exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..sim import register_immutable
from .records import FileSchema

__all__ = [
    "CreateFile",
    "QuiesceTransaction",
    "ReadRecord",
    "InsertRecord",
    "UpdateRecord",
    "DeleteRecord",
    "ScanRecords",
    "ReadViaIndex",
    "LockFile",
    "LockRecord",
    "ReadSlot",
    "WriteSlot",
    "AppendSlot",
    "AppendEntry",
    "ReadEntry",
    "ScanEntries",
    "ReleaseLocks",
    "BackoutOp",
    "AuditRecord",
    "AppendAudit",
    "ForceBoxcar",
    "VolumeStats",
    "FlushCache",
    "ERROR_CODES",
]


#: every error code a DISCPROCESS reply may carry
ERROR_CODES = (
    "lock_timeout",        # deadlock presumed: restart the transaction
    "not_locked",          # update/delete without a prior record lock
    "tx_not_active",       # transid not in 'active' state (per the
                           # broadcast state table): op rejected
    "security_violation",  # the file's read/write security refuses the
                           # requesting process
    "duplicate_key",
    "not_found",
    "no_such_file",
    "file_exists",
    "audit_requires_transaction",
    "volume_down",         # both drives, or the volume's AUDITPROCESS
                           # pair, lost
    "bad_request",
)

DEFAULT_LOCK_TIMEOUT = 400.0  # ms; "the interval being specified as part
                              # of the lock request"


@dataclass(frozen=True)
class CreateFile:
    schema: FileSchema


@dataclass(frozen=True)
class ReadRecord:
    file: str
    key: Tuple[Any, ...]
    lock: bool = False
    lock_timeout: float = DEFAULT_LOCK_TIMEOUT


@dataclass(frozen=True)
class InsertRecord:
    file: str
    record: Any
    lock_timeout: float = DEFAULT_LOCK_TIMEOUT


@dataclass(frozen=True)
class UpdateRecord:
    file: str
    record: Any


@dataclass(frozen=True)
class DeleteRecord:
    file: str
    key: Tuple[Any, ...]


@dataclass(frozen=True)
class ScanRecords:
    """Browse access: no locks, may see uncommitted data (paper clause
    (d) of §Concurrency Control is recommended, not enforced)."""

    file: str
    low: Optional[Tuple[Any, ...]] = None
    high: Optional[Tuple[Any, ...]] = None
    limit: Optional[int] = None


@dataclass(frozen=True)
class ReadViaIndex:
    file: str
    field: str
    value: Any


@dataclass(frozen=True)
class LockFile:
    file: str
    lock_timeout: float = DEFAULT_LOCK_TIMEOUT


@dataclass(frozen=True)
class LockRecord:
    file: str
    key: Tuple[Any, ...]
    lock_timeout: float = DEFAULT_LOCK_TIMEOUT


@dataclass(frozen=True)
class ReadSlot:
    file: str
    record_number: int
    lock: bool = False
    lock_timeout: float = DEFAULT_LOCK_TIMEOUT


@dataclass(frozen=True)
class WriteSlot:
    file: str
    record_number: int
    record: Any
    lock_timeout: float = DEFAULT_LOCK_TIMEOUT


@dataclass(frozen=True)
class AppendSlot:
    file: str
    record: Any
    lock_timeout: float = DEFAULT_LOCK_TIMEOUT


@dataclass(frozen=True)
class AppendEntry:
    file: str
    record: Any


@dataclass(frozen=True)
class ReadEntry:
    file: str
    esn: int


@dataclass(frozen=True)
class ScanEntries:
    file: str
    start_esn: int = 0
    limit: Optional[int] = None


@dataclass(frozen=True)
class QuiesceTransaction:
    """Wait until no operation of ``transid`` is in flight on this volume.

    Sent by TMF after broadcasting the *aborting* state (which stops new
    operations) and before backout, so the BACKOUTPROCESS sees the
    complete audit stream.
    """

    transid: Any


@dataclass(frozen=True)
class ReleaseLocks:
    """Phase two: drop every lock the transaction holds on this volume."""

    transid: Any
    committed: bool


@dataclass(frozen=True)
class BackoutOp:
    """Apply the inverse of one audit record (BACKOUTPROCESS only)."""

    audit_record: Any


@register_immutable
@dataclass(frozen=True)
class AuditRecord:
    """One before/after image of a logical data base update.

    Produced by the DISCPROCESS ("Each DISCPROCESS ... automatically
    provides 'before-images' and 'after-images' of data base updates"),
    consumed by the AUDITPROCESS and ROLLFORWARD above it — which is why
    the carrier lives here, at the layer that writes it.

    An immutable value: its images are private copies made when the
    DISCPROCESS builds it, and whoever applies an image (backout,
    ROLLFORWARD) copies it first, so checkpoints, buffers and the trail
    share one record instead of copying it.
    """

    transid: Any               # core.transid.Transid (typed Any: the
                               # DISCPROCESS never inspects it)
    volume: str
    file: str
    op: str                    # insert | update | delete | write_slot |
                               # append_entry | backout
    key: Any                   # primary key tuple / record number / esn
    before: Any                # record image prior to the update (or None)
    after: Any                 # record image after the update (or None)
    seq: int                   # per-volume audit sequence number


@dataclass(frozen=True)
class AppendAudit:
    """Ship a batch of audit images to an AUDITPROCESS."""

    volume: str
    records: Tuple[AuditRecord, ...]


@dataclass(frozen=True)
class ForceBoxcar:
    """Drain the volume's audit boxcar (phase one's force).

    The reply arrives once no audit image of ``transid`` is aboard or on
    the wire: each has been accepted by the AUDITPROCESS, which is what
    lets TMF's subsequent ``ForceAudit`` guarantee the trail holds the
    committing transaction's images.  Its images leave together with
    everything else aboard (that is the group-commit effect: one
    transaction's force pays the forward cost for everyone's cargo), but
    the drain does not wait for cargo that boarded after they left.
    With no ``transid`` the drain is volume-wide: it returns once
    nothing is aboard or on the wire.
    """

    transid: Any = None


@dataclass(frozen=True)
class VolumeStats:
    pass


@dataclass(frozen=True)
class FlushCache:
    pass
