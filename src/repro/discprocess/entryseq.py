"""Entry-sequenced files: append-only logs of records.

The third ENCOMPASS file organization, used for history/journal data
(and, internally, for TMF's audit-trail files).  Each appended record
gets a monotonically increasing *entry sequence number* (ESN); records
are never moved, and reads are by ESN or sequential scan.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .blocks import BlockStore

__all__ = ["EntrySequencedFile"]

_HEADER = 0
# header: ["H", next_esn]
# data block n (numbered n+1): ["E", [record, ...]]


class EntrySequencedFile:
    """An append-only file over a block store."""

    def __init__(
        self,
        store: BlockStore,
        name: str,
        entries_per_block: int = 32,
        create: bool = False,
    ):
        if entries_per_block < 1:
            raise ValueError("entries_per_block must be >= 1")
        self.store = store
        self.name = name
        self.entries_per_block = entries_per_block
        if create:
            self.store.put(name, _HEADER, ["H", 0])

    def _header(self) -> List[Any]:
        header = self.store.get(self.name, _HEADER)
        if header is None:
            raise KeyError(f"file {self.name} does not exist")
        return header

    @property
    def record_count(self) -> int:
        return self._header()[1]

    def append(self, record: Any) -> int:
        """Add ``record`` at the end; returns its ESN."""
        esn = self._header()[1]
        block_number = esn // self.entries_per_block + 1
        block = self.store.get(self.name, block_number)
        if block is None:
            block = ["E", []]
        new_block = ["E", list(block[1]) + [record]]
        self.store.put(self.name, block_number, new_block)
        self.store.put(self.name, _HEADER, ["H", esn + 1])
        return esn

    def void(self, esn: int) -> Optional[Any]:
        """Tombstone the entry at ``esn`` (transaction backout of an append).

        Entry-sequenced files are append-only for applications; the
        record stays physically allocated but reads as absent.  Returns
        the old record.
        """
        if esn < 0 or esn >= self._header()[1]:
            raise KeyError(f"{self.name}: esn {esn} out of range")
        block_number = esn // self.entries_per_block + 1
        block = self.store.get(self.name, block_number)
        if block is None:
            return None
        offset = esn % self.entries_per_block
        if offset >= len(block[1]):
            return None
        old = block[1][offset]
        new_block = ["E", list(block[1])]
        new_block[1][offset] = None
        self.store.put(self.name, block_number, new_block)
        return old

    def read(self, esn: int) -> Optional[Any]:
        """The record with entry sequence number ``esn``, or None."""
        if esn < 0 or esn >= self._header()[1]:
            return None
        block_number = esn // self.entries_per_block + 1
        block = self.store.get(self.name, block_number)
        if block is None:
            return None
        offset = esn % self.entries_per_block
        if offset >= len(block[1]):
            return None
        return block[1][offset]

    def scan(
        self, start_esn: int = 0, limit: Optional[int] = None
    ) -> List[Tuple[int, Any]]:
        """(esn, record) pairs from ``start_esn`` onward."""
        out: List[Tuple[int, Any]] = []
        end = self._header()[1]
        for esn in range(max(start_esn, 0), end):
            record = self.read(esn)
            if record is not None:
                out.append((esn, record))
                if limit is not None and len(out) >= limit:
                    break
        return out
