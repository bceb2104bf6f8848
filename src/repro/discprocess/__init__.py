"""The ENCOMPASS data-base manager: DISCPROCESS and structured files.

Key-sequenced (B-tree), relative and entry-sequenced file organizations
with automatically-maintained alternate-key indices, prefix/value
compression, key-range partitioning, a write-back block cache, exclusive
record/file locking with timeout deadlock detection — all served by a
fault-tolerant DISCPROCESS process-pair per mirrored disc volume.
"""

from .blocks import BlockStore, MemoryBlockStore, VolumeBlockStore
from .cache import BlockCache, CachedVolumeStore, CacheStats
from .ddl import DdlError, install_ddl, parse_ddl
from .client import (
    DataDictionary,
    DuplicateKeyError,
    FileClient,
    FileError,
    FileUnavailableError,
    LockTimeoutError,
    NotFoundError,
    NotLockedError,
    SecurityViolationError,
)
from .entryseq import EntrySequencedFile
from .index import AlternateIndex, StructuredFile, TOP
from .keyseq import DuplicateKey, KeyNotFound, KeySequencedFile
from .locks import LockManager, LockTimeout
from .records import (
    ENTRY_SEQUENCED,
    KEY_SEQUENCED,
    RELATIVE,
    FileSchema,
    PartitionSpec,
    RecordError,
    SecuritySpec,
)
from .ops import ForceBoxcar
from .relative import RelativeFile, SlotError
from .volume import DiscProcess

__all__ = [
    "AlternateIndex",
    "BlockCache",
    "BlockStore",
    "CacheStats",
    "CachedVolumeStore",
    "DataDictionary",
    "DdlError",
    "DiscProcess",
    "DuplicateKey",
    "DuplicateKeyError",
    "ENTRY_SEQUENCED",
    "EntrySequencedFile",
    "FileClient",
    "FileError",
    "FileSchema",
    "FileUnavailableError",
    "ForceBoxcar",
    "KEY_SEQUENCED",
    "KeyNotFound",
    "KeySequencedFile",
    "LockManager",
    "LockTimeout",
    "LockTimeoutError",
    "MemoryBlockStore",
    "NotFoundError",
    "NotLockedError",
    "PartitionSpec",
    "RELATIVE",
    "RecordError",
    "RelativeFile",
    "SecuritySpec",
    "SecurityViolationError",
    "SlotError",
    "StructuredFile",
    "TOP",
    "VolumeBlockStore",
    "install_ddl",
    "parse_ddl",
]
