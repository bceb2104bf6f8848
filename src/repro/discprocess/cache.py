"""The DISCPROCESS block cache.

"A cache buffering scheme designed to keep the most recently referenced
blocks of data in main memory."  (paper, §Data Base Management)

The cache is a write-back LRU sitting between the structured-file code
and the mirrored disc: reads hit the cache when possible; writes dirty
the cached copy and reach the platters on eviction or an explicit flush.
The platters change at once; the DISCPROCESS books the time on the
volume's arms, and a dirty block evicted to make room is written behind:
the request whose miss evicted it waits only for its own read, while
later requests queue behind the write on the arms.  Block images are
never edited in place, so the evicted image is final.
TMF is what makes write-back safe — an update is recoverable from its
audit images (checkpointed to the backup DISCPROCESS before the update,
forced to the audit trail at commit), so the data block itself need not
be forced.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Tuple

from .blocks import BlockKey, BlockStore, IoCounters

__all__ = ["BlockCache", "CacheStats", "CachedVolumeStore"]


class CacheStats:
    """Hit/miss/eviction tallies."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_writebacks = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"<CacheStats hits={self.hits} misses={self.misses} "
            f"ratio={self.hit_ratio:.3f} evictions={self.evictions}>"
        )


class BlockCache:
    """An LRU cache of blocks with dirty tracking."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[BlockKey, Any]" = OrderedDict()
        self._dirty: set = set()
        self._pinned: set = set()
        self.stats = CacheStats()

    def __contains__(self, key: BlockKey) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: BlockKey) -> Tuple[bool, Any]:
        """Return (hit, block)."""
        entries = self._entries
        block = entries.get(key)
        if block is not None or key in entries:
            entries.move_to_end(key)
            self.stats.hits += 1
            return True, block
        self.stats.misses += 1
        return False, None

    def peek(self, key: BlockKey) -> Any:
        """The cached block, without moving it in the LRU order or
        counting a hit; ``key`` must be cached."""
        return self._entries[key]

    def install(
        self, key: BlockKey, block: Any, dirty: bool, pin: bool = False
    ) -> List[Tuple[BlockKey, Any]]:
        """Insert/refresh a block; returns dirty blocks evicted to disc.

        Pinned blocks are never evicted: the DISCPROCESS pins the blocks
        an in-flight operation writes until their images have been
        checkpointed to the backup, so a half-checkpointed operation can
        never leak partial state onto the platters.  The cache may
        temporarily exceed capacity while pins are outstanding.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = block
        if dirty:
            self._dirty.add(key)
        if pin:
            self._pinned.add(key)
        return self._enforce_capacity()

    def unpin(self, keys) -> List[Tuple[BlockKey, Any]]:
        """Release pins; returns dirty blocks evicted if over capacity."""
        for key in keys:
            self._pinned.discard(key)
        return self._enforce_capacity()

    def _enforce_capacity(self) -> List[Tuple[BlockKey, Any]]:
        evicted: List[Tuple[BlockKey, Any]] = []
        if len(self._entries) <= self.capacity:
            return evicted
        for old_key in list(self._entries):
            if len(self._entries) <= self.capacity:
                break
            if old_key in self._pinned:
                continue
            old_block = self._entries.pop(old_key)
            self.stats.evictions += 1
            if old_key in self._dirty:
                self._dirty.discard(old_key)
                self.stats.dirty_writebacks += 1
                evicted.append((old_key, old_block))
        return evicted

    def discard(self, key: BlockKey) -> None:
        self._entries.pop(key, None)
        self._dirty.discard(key)
        self._pinned.discard(key)

    def dirty_entries(self) -> List[Tuple[BlockKey, Any]]:
        return [(key, self._entries[key]) for key in list(self._dirty)]

    def mark_clean(self, key: BlockKey) -> None:
        self._dirty.discard(key)

    def clear(self) -> None:
        """Lose all cached content (CPU failure)."""
        self._entries.clear()
        self._dirty.clear()
        self._pinned.clear()


class CachedVolumeStore(BlockStore):
    """A :class:`BlockStore` over cache + a physical backing store.

    ``physical_read``/``physical_write`` callbacks let the owner count
    actual disc operations (for simulated I/O time) while the structured
    file code stays synchronous and oblivious.
    """

    def __init__(
        self,
        cache: BlockCache,
        physical_read: Callable[[BlockKey], Any],
        physical_write: Callable[[BlockKey, Any], None],
        physical_delete: Callable[[BlockKey], None],
        list_blocks: Callable[[str], List[BlockKey]],
    ):
        self.cache = cache
        self._physical_read = physical_read
        self._physical_write = physical_write
        self._physical_delete = physical_delete
        self._list_blocks = list_blocks
        self.counters = IoCounters()
        #: blocks written since the caller last cleared it — the
        #: DISCPROCESS uses this as the per-operation write journal it
        #: checkpoints to its backup.  Valid because an operation's
        #: apply phase is synchronous (no interleaving).
        self.journal: Dict[BlockKey, Any] = {}
        self.pin_writes = False

    def get(self, file_name: str, block_number: int) -> Any:
        key = (file_name, block_number)
        hit, block = self.cache.lookup(key)
        if hit:
            return block
        self.counters.reads += 1
        block = self._physical_read(key)
        if block is not None:
            for old_key, old_block in self.cache.install(key, block, dirty=False):
                self.counters.writes += 1
                self._physical_write(old_key, old_block)
        return block

    def put(self, file_name: str, block_number: int, block: Any) -> None:
        key = (file_name, block_number)
        self.journal[key] = block
        for old_key, old_block in self.cache.install(
            key, block, dirty=True, pin=self.pin_writes
        ):
            self.counters.writes += 1
            self._physical_write(old_key, old_block)

    def unpin(self, keys) -> None:
        """Release write pins after their checkpoint completed."""
        for old_key, old_block in self.cache.unpin(keys):
            self.counters.writes += 1
            self._physical_write(old_key, old_block)

    def delete(self, file_name: str, block_number: int) -> None:
        key = (file_name, block_number)
        self.cache.discard(key)
        self._physical_delete(key)

    def blocks_of(self, file_name: str):
        # Union of cached and on-disc blocks for this file.
        on_disc = set(self._list_blocks(file_name))
        cached = {key for key in self.cache._entries if key[0] == file_name}
        return iter(sorted(on_disc | cached))

    def flush(self) -> int:
        """Force every dirty block to disc; returns blocks written."""
        written = 0
        for key, block in self.cache.dirty_entries():
            self.counters.writes += 1
            self._physical_write(key, block)
            self.cache.mark_clean(key)
            written += 1
        return written
