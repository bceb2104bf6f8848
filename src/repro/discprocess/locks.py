"""Per-volume lock manager.

"Two granularities of locking are provided ...: file and record.
Record level locking operates on the primary key ... All locks are
exclusive mode.  Each DISCPROCESS maintains the locking control
information for those records and files resident on its volume only.
Thus, concurrency control ... is decentralized ...; no central lock
manager exists.  Deadlock detection is by timeout, the interval being
specified as part of the lock request."  (paper, §Data Base Management)

The manager is sim-integrated: ``acquire_record``/``acquire_file`` are
generator helpers that suspend the caller until the lock is granted or
the caller's timeout expires (:class:`LockTimeout` — the signal that
drives RESTART-TRANSACTION at the application level).  A timed wait is
one event, the waiter's own: a release succeeds it with the grant and
disarms the deadline's timer, which otherwise fails it, so a lock is
never granted to a waiter that has already timed out, and a granted
wait's deadline costs no engine event.

The waits-for edges are also exposed, *not* used by the reproduction's
normal path: :func:`repro.simtest.invariants.deadlock_cycle` searches
them, the ablation baseline of bench E4.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..sim import Environment, Event

__all__ = ["LockManager", "LockTimeout", "LockTarget"]

# ('rec', file_name, key) or ('file', file_name)
LockTarget = Tuple[Any, ...]


class LockTimeout(Exception):
    """A lock request waited past its timeout (presumed deadlock)."""

    def __init__(self, transid: Any, target: LockTarget):
        super().__init__(f"lock timeout: {transid} waiting for {target}")
        self.transid = transid
        self.target = target


class _Waiter:
    __slots__ = ("event", "transid", "target", "since", "deadline")

    def __init__(self, event: Event, transid: Any, target: LockTarget,
                 since: float = 0.0):
        self.event = event
        self.transid = transid
        self.target = target
        self.since = since  # enqueue time (the watchdog's wait horizon)
        self.deadline: Optional[Event] = None

    def expire(self, _deadline: Event) -> None:
        """Deadline timer callback: time the wait out (a grant disarms it)."""
        self.event.fail(LockTimeout(self.transid, self.target))


class LockManager:
    """Exclusive record and file locks for one disc volume."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._record_owners: Dict[Tuple[str, Any], Any] = {}
        self._file_owners: Dict[str, Any] = {}
        self._records_per_file: Dict[str, Counter] = {}
        self._held: Dict[Any, Set[LockTarget]] = {}
        self._queues: Dict[LockTarget, Deque[_Waiter]] = {}
        self.grants = 0
        self.waits = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # Conflict rules (exclusive mode only)
    # ------------------------------------------------------------------
    def _record_conflict(self, transid: Any, file_name: str, key: Any) -> Optional[Any]:
        file_owner = self._file_owners.get(file_name)
        if file_owner is not None and file_owner != transid:
            return file_owner
        record_owner = self._record_owners.get((file_name, key))
        if record_owner is not None and record_owner != transid:
            return record_owner
        return None

    def _file_conflict(self, transid: Any, file_name: str) -> Optional[Any]:
        file_owner = self._file_owners.get(file_name)
        if file_owner is not None and file_owner != transid:
            return file_owner
        for other, count in self._records_per_file.get(file_name, Counter()).items():
            if other != transid and count > 0:
                return other
        return None

    def _conflict(self, transid: Any, target: LockTarget) -> Optional[Any]:
        if target[0] == "rec":
            return self._record_conflict(transid, target[1], target[2])
        return self._file_conflict(transid, target[1])

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def acquire_record(self, transid: Any, file_name: str, key: Any, timeout: float):
        """Acquire an exclusive record lock.  (Generator helper.)"""
        yield from self._acquire(transid, ("rec", file_name, key), timeout)

    def acquire_file(self, transid: Any, file_name: str, timeout: float):
        """Acquire an exclusive file lock.  (Generator helper.)"""
        yield from self._acquire(transid, ("file", file_name), timeout)

    def try_acquire_record(self, transid: Any, file_name: str, key: Any) -> bool:
        """Non-blocking record-lock attempt."""
        if self._record_conflict(transid, file_name, key) is not None:
            return False
        self._grant(transid, ("rec", file_name, key))
        return True

    def _acquire(self, transid: Any, target: LockTarget, timeout: float):
        conflict = self._conflict(transid, target)
        if conflict is None:
            self._grant(transid, target)
            return
        if timeout <= 0:
            self.timeouts += 1
            raise LockTimeout(transid, target)
        self.waits += 1
        waiter = _Waiter(Event(self.env), transid, target, since=self.env.now)
        self._queues.setdefault(target, deque()).append(waiter)
        self._trace("lock_wait", transid=str(transid), target=target)
        waiter.deadline = self.env.timeout(timeout)
        waiter.deadline.callbacks.append(waiter.expire)
        try:
            yield waiter.event
        except LockTimeout:
            self._remove_waiter(waiter)
            self.timeouts += 1
            self._trace("lock_timeout", transid=str(transid), target=target)
            self._observe_wait(transid, waiter.since)
            raise
        self._observe_wait(transid, waiter.since)

    def _observe_wait(self, transid: Any, wait_start: float) -> None:
        probe = self.env.probe
        if probe.listening:
            probe.note(
                "phase", transid=transid, name="lock-wait", category="lock",
                start=wait_start, histogram="lock.wait_ms",
            )

    def _grant(self, transid: Any, target: LockTarget) -> None:
        if target[0] == "rec":
            _tag, file_name, key = target
            self._record_owners[(file_name, key)] = transid
            self._records_per_file.setdefault(file_name, Counter())[transid] += 1
        else:
            self._file_owners[target[1]] = transid
        self._held.setdefault(transid, set()).add(target)
        self.grants += 1

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------
    def release_all(self, transid: Any) -> int:
        """Release every lock held by ``transid``; returns count released.

        Iteration is in a canonical order (targets sorted by repr): the
        wake order decides which waiter is granted first, and set order
        is hash-randomized across processes — the simulation must not be.
        """
        targets = sorted(self._held.pop(transid, set()), key=repr)
        files_touched: Set[str] = set()
        for target in targets:
            if target[0] == "rec":
                _tag, file_name, key = target
                self._record_owners.pop((file_name, key), None)
                counter = self._records_per_file.get(file_name)
                if counter is not None:
                    counter[transid] -= 1
                    if counter[transid] <= 0:
                        del counter[transid]
                files_touched.add(file_name)
            else:
                self._file_owners.pop(target[1], None)
                files_touched.add(target[1])
        for target in targets:
            self._wake(target)
        # A released file lock may unblock record waiters; re-check every
        # queue touching the released files (canonical order again).
        for target in sorted(self._queues, key=repr):
            if target[1] in files_touched:
                self._wake(target)
        return len(targets)

    def _wake(self, target: LockTarget) -> None:
        queue = self._queues.get(target)
        if not queue:
            self._queues.pop(target, None)
            return
        while queue:
            waiter = queue[0]
            if waiter.event.triggered:
                queue.popleft()  # timed out meanwhile
                continue
            if self._conflict(waiter.transid, waiter.target) is not None:
                break
            queue.popleft()
            self._grant(waiter.transid, waiter.target)
            # Disarm the deadline: its timer stays queued as a tombstone
            # the engine skips without counting an event.
            waiter.deadline.callbacks = None
            waiter.event.succeed()
            self._trace("lock_granted_after_wait", transid=str(waiter.transid),
                        target=waiter.target)
        if not queue:
            self._queues.pop(target, None)

    def _remove_waiter(self, waiter: _Waiter) -> None:
        queue = self._queues.get(waiter.target)
        if queue is None:
            return
        try:
            queue.remove(waiter)
        except ValueError:
            pass
        if not queue:
            self._queues.pop(waiter.target, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def holder_of_record(self, file_name: str, key: Any) -> Optional[Any]:
        return self._record_owners.get((file_name, key))

    def holder_of_file(self, file_name: str) -> Optional[Any]:
        return self._file_owners.get(file_name)

    def locks_held(self, transid: Any) -> Set[LockTarget]:
        return set(self._held.get(transid, set()))

    def held_count(self) -> int:
        return sum(len(targets) for targets in self._held.values())

    # ------------------------------------------------------------------
    # Waits-for graph (the ablation baseline of bench E4)
    # ------------------------------------------------------------------
    def waits_for_edges(self) -> List[Tuple[Any, Any]]:
        """(waiter_transid, owner_transid) edges of the waits-for graph."""
        edges = []
        for queue in self._queues.values():
            for waiter in queue:
                if waiter.event.triggered:
                    continue
                owner = self._conflict(waiter.transid, waiter.target)
                if owner is not None:
                    edges.append((waiter.transid, owner))
        return edges

    def _trace(self, kind: str, **fields: Any) -> None:
        self.env.probe.emit(kind, volume=self.name, **fields)
