"""Alternate-key (secondary) indices with automatic maintenance.

"Multi-key access to records with automatic maintenance of the indices
during file update."  (paper, §Data Base Management)

Each alternate key of a key-sequenced file is backed by its own B-tree
whose keys are ``(alternate_value, primary_key)`` — non-unique by
construction — mapping to the primary key.  :class:`StructuredFile`
wraps a base file and its indices and keeps them consistent across
insert / update / delete.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .blocks import BlockStore
from .entryseq import EntrySequencedFile
from .keyseq import KeySequencedFile
from .records import (
    ENTRY_SEQUENCED,
    KEY_SEQUENCED,
    RELATIVE,
    FileSchema,
    Record,
)
from .relative import RelativeFile

__all__ = ["AlternateIndex", "StructuredFile", "TOP"]

Key = Tuple[Any, ...]


class _TopType:
    """A sentinel that compares greater than every other value.

    Used as the last component of a range bound so an index scan over
    ``(value, primary_key)`` entries stops right after the last entry for
    ``value`` instead of walking to the end of the tree.
    """

    def __lt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return other is TOP

    def __gt__(self, other: Any) -> bool:
        return other is not TOP

    def __ge__(self, other: Any) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<TOP>"


TOP = _TopType()


class AlternateIndex:
    """One alternate-key index over a key-sequenced base file."""

    def __init__(self, store: BlockStore, base_name: str, field: str, create: bool = False):
        self.field = field
        self.tree = KeySequencedFile(
            store, f"{base_name}#{field}", create=create
        )

    def entry_key(self, record: Record, primary_key: Key) -> Key:
        return (record[self.field], primary_key)

    def add(self, record: Record, primary_key: Key) -> None:
        self.tree.insert(self.entry_key(record, primary_key), primary_key)

    def remove(self, record: Record, primary_key: Key) -> None:
        self.tree.delete(self.entry_key(record, primary_key))

    def lookup(self, value: Any) -> List[Key]:
        """Primary keys of records whose indexed field equals ``value``."""
        rows = self.tree.scan(low=(value,), high=(value, TOP))
        return [primary_key for _entry, primary_key in rows]


class StructuredFile:
    """A schema-typed file plus its automatically-maintained indices.

    This is the object a DISCPROCESS holds per resident file (or file
    partition).  For key-sequenced files it returns *undo/redo images*
    from each mutation so the caller can generate TMF audit records.
    """

    def __init__(self, store: BlockStore, schema: FileSchema, create: bool = False):
        self.schema = schema
        self.store = store
        self.indices: Dict[str, AlternateIndex] = {}
        if schema.organization == KEY_SEQUENCED:
            self.base: Any = KeySequencedFile(store, schema.name, create=create)
            for field in schema.alternate_keys:
                self.indices[field] = AlternateIndex(
                    store, schema.name, field, create=create
                )
        elif schema.organization == RELATIVE:
            self.base = RelativeFile(store, schema.name, create=create)
        else:
            self.base = EntrySequencedFile(store, schema.name, create=create)

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def record_count(self) -> int:
        return self.base.record_count

    # ------------------------------------------------------------------
    # Key-sequenced operations (with index maintenance)
    # ------------------------------------------------------------------
    def read(self, key: Key) -> Optional[Record]:
        self._require(KEY_SEQUENCED)
        return self.base.read(key)

    def insert(self, record: Record) -> Key:
        self._require(KEY_SEQUENCED)
        self.schema.check_record(record)
        key = self.schema.key_of(record)
        self.base.insert(key, record)
        for index in self.indices.values():
            index.add(record, key)
        return key

    def update(self, record: Record) -> Record:
        """Replace the record with this primary key; returns the old one."""
        self._require(KEY_SEQUENCED)
        self.schema.check_record(record)
        key = self.schema.key_of(record)
        old = self.base.update(key, record)
        for index in self.indices.values():
            if old[index.field] != record[index.field]:
                index.remove(old, key)
                index.add(record, key)
        return old

    def delete(self, key: Key) -> Record:
        self._require(KEY_SEQUENCED)
        old = self.base.delete(key)
        for index in self.indices.values():
            index.remove(old, key)
        return old

    def scan(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        limit: Optional[int] = None,
    ) -> List[Tuple[Key, Record]]:
        self._require(KEY_SEQUENCED)
        return self.base.scan(low, high, limit)

    def read_via_index(self, field: str, value: Any) -> List[Record]:
        """All records whose alternate key ``field`` equals ``value``."""
        self._require(KEY_SEQUENCED)
        index = self.indices[field]
        return [self.base.read(pk) for pk in index.lookup(value)]

    # ------------------------------------------------------------------
    # Relative / entry-sequenced operations
    # ------------------------------------------------------------------
    def read_slot(self, record_number: int) -> Optional[Record]:
        self._require(RELATIVE)
        return self.base.read(record_number)

    def write_slot(self, record_number: int, record: Optional[Record]) -> Optional[Record]:
        self._require(RELATIVE)
        return self.base.write(record_number, record)

    def append_slot(self, record: Record) -> int:
        self._require(RELATIVE)
        return self.base.append(record)

    def append_entry(self, record: Record) -> int:
        self._require(ENTRY_SEQUENCED)
        return self.base.append(record)

    def read_entry(self, esn: int) -> Optional[Record]:
        self._require(ENTRY_SEQUENCED)
        return self.base.read(esn)

    def scan_entries(self, start_esn: int = 0, limit: Optional[int] = None):
        self._require(ENTRY_SEQUENCED)
        return self.base.scan(start_esn, limit)

    def scan_slots(self, limit: Optional[int] = None):
        self._require(RELATIVE)
        return self.base.scan(limit)

    # ------------------------------------------------------------------
    def _require(self, organization: str) -> None:
        if self.schema.organization != organization:
            raise TypeError(
                f"{self.name} is {self.schema.organization}, "
                f"operation requires {organization}"
            )
