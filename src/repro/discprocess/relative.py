"""Relative files: records addressed by record number.

The second ENCOMPASS file organization.  Record numbers map directly to
(block, slot) positions, so access is a single block probe.  Writing
past the end extends the file; deleted slots read as None and may be
rewritten.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .blocks import BlockStore

__all__ = ["RelativeFile", "SlotError"]

_HEADER = 0
# header: ["H", next_record_number, record_count]
# data block n (numbered n+1): ["R", [slot, ...]] of length slots_per_block


class SlotError(KeyError):
    """Access to a record number that is out of range or empty."""


class RelativeFile:
    """A record-number addressed file over a block store."""

    def __init__(
        self,
        store: BlockStore,
        name: str,
        slots_per_block: int = 16,
        create: bool = False,
    ):
        if slots_per_block < 1:
            raise ValueError("slots_per_block must be >= 1")
        self.store = store
        self.name = name
        self.slots_per_block = slots_per_block
        if create:
            self.store.put(name, _HEADER, ["H", 0, 0])

    def _header(self) -> List[Any]:
        header = self.store.get(self.name, _HEADER)
        if header is None:
            raise SlotError(f"file {self.name} does not exist")
        return header

    def _locate(self, record_number: int) -> Tuple[int, int]:
        if record_number < 0:
            raise SlotError(f"{self.name}: negative record number {record_number}")
        block_number = record_number // self.slots_per_block + 1
        slot = record_number % self.slots_per_block
        return block_number, slot

    @property
    def record_count(self) -> int:
        return self._header()[2]

    @property
    def next_record_number(self) -> int:
        return self._header()[1]

    def read(self, record_number: int) -> Optional[Any]:
        """The record at ``record_number``, or None if empty/past EOF."""
        block_number, slot = self._locate(record_number)
        block = self.store.get(self.name, block_number)
        if block is None:
            return None
        return block[1][slot]

    def write(self, record_number: int, record: Any) -> Optional[Any]:
        """Store ``record`` at ``record_number``; returns the old value."""
        header = list(self._header())
        block_number, slot = self._locate(record_number)
        block = self.store.get(self.name, block_number)
        if block is None:
            block = ["R", [None] * self.slots_per_block]
        old = block[1][slot]
        new_block = ["R", list(block[1])]
        new_block[1][slot] = record
        self.store.put(self.name, block_number, new_block)
        if old is None and record is not None:
            header[2] += 1
        elif old is not None and record is None:
            header[2] -= 1
        if record_number >= header[1]:
            header[1] = record_number + 1
        self.store.put(self.name, _HEADER, header)
        return old

    def append(self, record: Any) -> int:
        """Store ``record`` at the next free record number; returns it."""
        number = self._header()[1]
        self.write(number, record)
        return number

    def delete(self, record_number: int) -> Any:
        """Empty the slot; returns the old record (raises if empty)."""
        old = self.read(record_number)
        if old is None:
            raise SlotError(f"{self.name}: slot {record_number} is empty")
        self.write(record_number, None)
        return old

    def scan(self, limit: Optional[int] = None) -> List[Tuple[int, Any]]:
        """All (record_number, record) pairs in position order."""
        out: List[Tuple[int, Any]] = []
        for number in range(self._header()[1]):
            record = self.read(number)
            if record is not None:
                out.append((number, record))
                if limit is not None and len(out) >= limit:
                    break
        return out
