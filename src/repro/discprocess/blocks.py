"""Block-level storage interfaces.

All structured files (key-sequenced, relative, entry-sequenced) are
organized as *blocks* identified by ``(file_name, block_number)``.  The
data structures are written against the small :class:`BlockStore`
interface so the same B-tree code runs over a plain dict in unit tests
and over the DISCPROCESS cache + mirrored discs in the full system.

Stores count logical reads and writes; the DISCPROCESS converts those
counts into simulated I/O time and cache traffic.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

__all__ = [
    "BlockStore",
    "MemoryBlockStore",
    "VolumeBlockStore",
    "BlockKey",
    "IoCounters",
]

BlockKey = Tuple[str, int]


class IoCounters:
    """Read/write tallies for one store."""

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0

    def __repr__(self) -> str:
        return f"<IoCounters reads={self.reads} writes={self.writes}>"


class BlockStore:
    """Abstract block container."""

    def get(self, file_name: str, block_number: int) -> Any:
        raise NotImplementedError

    def put(self, file_name: str, block_number: int, block: Any) -> None:
        raise NotImplementedError

    def delete(self, file_name: str, block_number: int) -> None:
        raise NotImplementedError

    def blocks_of(self, file_name: str) -> Iterator[BlockKey]:
        raise NotImplementedError


class VolumeBlockStore(BlockStore):
    """A block store writing directly to a mirrored disc volume.

    Every ``get``/``put`` is a *physical* disc operation (counted in
    ``counters``); used where durability is wanted per write — audit
    trails, archives — as opposed to the DISCPROCESS's write-back cache.
    """

    def __init__(self, volume: Any):
        self.volume = volume
        self.counters = IoCounters()

    def get(self, file_name: str, block_number: int) -> Any:
        self.counters.reads += 1
        return self.volume.read_block((file_name, block_number))

    def put(self, file_name: str, block_number: int, block: Any) -> None:
        self.counters.writes += 1
        self.volume.write_block((file_name, block_number), block)

    def delete(self, file_name: str, block_number: int) -> None:
        self.volume.delete_block((file_name, block_number))

    def blocks_of(self, file_name: str) -> Iterator[BlockKey]:
        return iter(
            [key for key in self.volume.block_ids() if key[0] == file_name]
        )


class MemoryBlockStore(BlockStore):
    """A dict-backed store for unit tests and in-memory structures."""

    def __init__(self) -> None:
        self._blocks: Dict[BlockKey, Any] = {}
        self.counters = IoCounters()

    def get(self, file_name: str, block_number: int) -> Any:
        self.counters.reads += 1
        return self._blocks.get((file_name, block_number))

    def put(self, file_name: str, block_number: int, block: Any) -> None:
        self.counters.writes += 1
        self._blocks[(file_name, block_number)] = block

    def delete(self, file_name: str, block_number: int) -> None:
        self._blocks.pop((file_name, block_number), None)

    def blocks_of(self, file_name: str) -> Iterator[BlockKey]:
        return iter([key for key in self._blocks if key[0] == file_name])

    def __len__(self) -> int:
        return len(self._blocks)
