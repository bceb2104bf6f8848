"""Key-sequenced files: a block-oriented B-tree.

The primary structured-file organization of ENCOMPASS.  Records are
stored in primary-key order in leaf blocks; internal blocks hold
separator keys.  Blocks live in a :class:`~repro.discprocess.blocks.BlockStore`
so the same code runs over a plain dict (unit tests) or the DISCPROCESS
cache + mirrored disc (full system), with physical I/O counted by the
store.

A block that overflows splits at its midpoint, except where a key is
appended past the last key of the file's rightmost block: there it
splits at the insertion point, so the old block keeps every key it held
and the new one starts with the appended key.  An ascending load (how
files are populated) therefore leaves its blocks full, not half empty.

Deletion is *lazy* (common in production engines): records are removed
from their leaf but underfull leaves are not merged; an empty leaf is
reclaimed only when the tree root collapses.  All invariants that matter
to correctness — sorted leaves, consistent separators, every record
reachable — are preserved and property-tested.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, List, Optional, Tuple

from .blocks import BlockStore

__all__ = ["KeySequencedFile", "DuplicateKey", "KeyNotFound"]

Key = Tuple[Any, ...]

# Block layouts (plain lists; a stored block is never edited in place —
# every change, header included, puts a fresh copy):
#   header (block 0):  ["H", root_id, next_block_number, record_count]
#   internal:          ["I", [sep_key, ...], [child_id, ...]]  (len(children) == len(keys)+1)
#   leaf:              ["L", [key, ...], [record, ...]]
_HEADER = 0


class DuplicateKey(KeyError):
    """Insert of a primary key that already exists."""


class KeyNotFound(KeyError):
    """Update/delete of a primary key that does not exist."""


class KeySequencedFile:
    """A B-tree keyed file over a block store."""

    def __init__(
        self,
        store: BlockStore,
        name: str,
        leaf_capacity: int = 16,
        fanout: int = 16,
        create: bool = False,
    ):
        if leaf_capacity < 2 or fanout < 3:
            raise ValueError("leaf_capacity >= 2 and fanout >= 3 required")
        self.store = store
        self.name = name
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout
        if create:
            root = ["L", [], []]
            self.store.put(name, 1, root)
            self.store.put(name, _HEADER, ["H", 1, 2, 0])

    # ------------------------------------------------------------------
    # Header helpers
    # ------------------------------------------------------------------
    def _header(self) -> List[Any]:
        header = self.store.get(self.name, _HEADER)
        if header is None:
            raise KeyNotFound(f"file {self.name} does not exist")
        return header

    def _save_header(self, header: List[Any]) -> None:
        self.store.put(self.name, _HEADER, header)

    def _alloc(self, header: List[Any]) -> int:
        number = header[2]
        header[2] += 1
        return number

    @property
    def record_count(self) -> int:
        return self._header()[3]

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def read(self, key: Key) -> Optional[Any]:
        """The record stored under ``key``, or None."""
        block = self._find_leaf(self._header()[1], key)
        keys = block[1]
        idx = bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            return block[2][idx]
        return None

    def insert(self, key: Key, record: Any) -> None:
        """Store a new record; raises :class:`DuplicateKey` if present."""
        header = list(self._header())  # copy-on-write
        split = self._insert(header, header[1], key, record, True)
        if split is not None:
            sep_key, new_child, _at_end = split
            new_root = self._alloc(header)
            self.store.put(self.name, new_root, ["I", [sep_key], [header[1], new_child]])
            header[1] = new_root
        header[3] += 1
        self._save_header(header)

    def update(self, key: Key, record: Any) -> Any:
        """Replace the record under ``key``; returns the old record."""
        leaf_id, block = self._find_leaf_id(self._header()[1], key)
        keys = block[1]
        idx = bisect_left(keys, key)
        if idx >= len(keys) or keys[idx] != key:
            raise KeyNotFound(f"{self.name}: {key}")
        old = block[2][idx]
        new_block = ["L", list(keys), list(block[2])]
        new_block[2][idx] = record
        self.store.put(self.name, leaf_id, new_block)
        return old

    def delete(self, key: Key) -> Any:
        """Remove the record under ``key``; returns it."""
        header = list(self._header())  # copy-on-write
        leaf_id, block = self._find_leaf_id(header[1], key)
        keys = block[1]
        idx = bisect_left(keys, key)
        if idx >= len(keys) or keys[idx] != key:
            raise KeyNotFound(f"{self.name}: {key}")
        old = block[2][idx]
        new_block = ["L", list(keys), list(block[2])]
        del new_block[1][idx]
        del new_block[2][idx]
        self.store.put(self.name, leaf_id, new_block)
        header[3] -= 1
        self._save_header(header)
        return old

    def upsert(self, key: Key, record: Any) -> Optional[Any]:
        """Insert or replace; returns the old record if one existed."""
        try:
            return self.update(key, record)
        except KeyNotFound:
            self.insert(key, record)
            return None

    # ------------------------------------------------------------------
    # Range operations
    # ------------------------------------------------------------------
    def scan(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        limit: Optional[int] = None,
    ) -> List[Tuple[Key, Any]]:
        """Records with low <= key <= high, in key order."""
        out: List[Tuple[Key, Any]] = []
        self._scan(self._header()[1], low, high, limit, out)
        return out

    def keys(self) -> List[Key]:
        return [key for key, _record in self.scan()]

    def first(self) -> Optional[Tuple[Key, Any]]:
        rows = self.scan(limit=1)
        return rows[0] if rows else None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _find_leaf(self, block_id: int, key: Key) -> List[Any]:
        return self._find_leaf_id(block_id, key)[1]

    def _find_leaf_id(self, block_id: int, key: Key) -> Tuple[int, List[Any]]:
        block = self.store.get(self.name, block_id)
        while block[0] == "I":
            idx = bisect_right(block[1], key)
            block_id = block[2][idx]
            block = self.store.get(self.name, block_id)
        return block_id, block

    def _insert(
        self, header: List[Any], block_id: int, key: Key, record: Any,
        rightmost: bool,
    ) -> Optional[Tuple[Key, int, bool]]:
        """Insert below ``block_id``; if the block split, return the
        separator, the new block and whether the split was at the end.

        ``rightmost`` says the block is the file's last at its level.  A
        key past its last key (an append to the file) splits the leaf at
        the end, and each block above that it overflows splits there too.
        """
        block = self.store.get(self.name, block_id)
        if block[0] == "L":
            keys = block[1]
            idx = bisect_left(keys, key)
            if idx < len(keys) and keys[idx] == key:
                raise DuplicateKey(f"{self.name}: {key}")
            new_block = ["L", list(keys), list(block[2])]
            new_block[1].insert(idx, key)
            new_block[2].insert(idx, record)
            if len(new_block[1]) <= self.leaf_capacity:
                self.store.put(self.name, block_id, new_block)
                return None
            at_end = rightmost and idx == len(keys)
            mid = idx if at_end else len(new_block[1]) // 2
            right = ["L", new_block[1][mid:], new_block[2][mid:]]
            left = ["L", new_block[1][:mid], new_block[2][:mid]]
            right_id = self._alloc(header)
            self.store.put(self.name, block_id, left)
            self.store.put(self.name, right_id, right)
            return right[1][0], right_id, at_end

        idx = bisect_right(block[1], key)
        split = self._insert(
            header, block[2][idx], key, record, rightmost and idx == len(block[1])
        )
        if split is None:
            return None
        sep_key, new_child, at_end = split
        new_block = ["I", list(block[1]), list(block[2])]
        new_block[1].insert(idx, sep_key)
        new_block[2].insert(idx + 1, new_child)
        if len(new_block[1]) < self.fanout:
            self.store.put(self.name, block_id, new_block)
            return None
        mid = idx if at_end else len(new_block[1]) // 2
        up_key = new_block[1][mid]
        right = ["I", new_block[1][mid + 1:], new_block[2][mid + 1:]]
        left = ["I", new_block[1][:mid], new_block[2][:mid + 1]]
        right_id = self._alloc(header)
        self.store.put(self.name, block_id, left)
        self.store.put(self.name, right_id, right)
        return up_key, right_id, at_end

    def _scan(
        self,
        block_id: int,
        low: Optional[Key],
        high: Optional[Key],
        limit: Optional[int],
        out: List[Tuple[Key, Any]],
    ) -> bool:
        """Collect in-range rows; returns False when the scan should stop."""
        block = self.store.get(self.name, block_id)
        if block[0] == "L":
            keys = block[1]
            start = 0 if low is None else bisect_left(keys, low)
            for idx in range(start, len(keys)):
                if high is not None and keys[idx] > high:
                    return False
                out.append((keys[idx], block[2][idx]))
                if limit is not None and len(out) >= limit:
                    return False
            return True
        seps = block[1]
        start = 0 if low is None else bisect_right(seps, low)
        for idx in range(start, len(block[2])):
            if idx > 0 and high is not None and seps[idx - 1] > high:
                return False
            if not self._scan(block[2][idx], low, high, limit, out):
                return False
        return True

    # ------------------------------------------------------------------
    # Introspection / invariant checking (used by property tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Walk the whole tree and assert structural invariants."""
        header = self._header()
        count = self._check_block(header[1], None, None)
        assert count == header[3], (
            f"{self.name}: header count {header[3]} != actual {count}"
        )

    def _check_block(self, block_id: int, low: Optional[Key], high: Optional[Key]) -> int:
        block = self.store.get(self.name, block_id)
        assert block is not None, f"{self.name}: dangling block {block_id}"
        if block[0] == "L":
            keys = block[1]
            assert keys == sorted(keys), f"{self.name}: unsorted leaf {block_id}"
            assert len(keys) == len(set(keys)), f"{self.name}: dup keys in {block_id}"
            assert len(keys) <= self.leaf_capacity
            for key in keys:
                assert low is None or key >= low, f"{self.name}: leaf key below range"
                assert high is None or key < high, f"{self.name}: leaf key above range"
            return len(keys)
        seps = block[1]
        children = block[2]
        assert len(children) == len(seps) + 1
        assert seps == sorted(seps)
        assert len(seps) <= self.fanout
        total = 0
        bounds = [low] + list(seps) + [high]
        for idx, child in enumerate(children):
            total += self._check_block(child, bounds[idx], bounds[idx + 1])
        return total

    def depth(self) -> int:
        depth = 1
        block = self.store.get(self.name, self._header()[1])
        while block[0] == "I":
            depth += 1
            block = self.store.get(self.name, block[2][0])
        return depth
