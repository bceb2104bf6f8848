"""The one observability channel of a simulation run.

Every :class:`~repro.sim.Environment` carries a :class:`Probe` as
``env.probe``, so every layer reaches it without plumbing.  It has
three verbs:

* :meth:`Probe.count` -- an always-on named counter, a plain dict
  increment into ``probe.counts``;
* :meth:`Probe.emit` -- one structured occurrence: it counts ``kind``
  and, when records are kept or a subscriber listens, builds a
  :class:`TraceRecord` stamped with the simulated time;
* :meth:`Probe.note` -- an uncounted, unkept occurrence of
  :data:`NOTE_KINDS` for the subscribers only.  A site tests
  ``probe.listening`` first, so a run with no subscriber pays one
  attribute read per site.

The TRACE collector (:mod:`repro.trace`), which builds each
transaction's span tree for the XRAY registry (:mod:`repro.measure`) to
fold, the invariant watchdog (:mod:`repro.simtest`) and test captures
subscribe to the stream; the stack imports none of them.  The benchmark
harness, the XRAY report and TMFCOM read the counts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["NOTE_KINDS", "Probe", "TraceRecord"]

#: kinds of :meth:`Probe.note`, with their fields.
NOTE_KINDS = frozenset({
    "tx.begin",      # transid: a transaction began on its home node
    "tx.end",        # transid, outcome: a participant settled it
    "phase",         # transid, name, category, start, histogram: a timed
                     # phase that ends now: a state broadcast (bus), a
                     # lock wait (lock), a request's disc accesses and
                     # boxcar drain (disc) and cache hits (cpu), an audit
                     # force and a completion write (audit), a checkpoint
                     # message (bus)
    "observe",       # name, value: one histogram sample
    "rpc.send",      # message, transit, medium: a request leaves its
                     # requester for ``transit`` ms on ``medium`` (cpu,
                     # bus or network)
    "rpc.done",      # message: the requester stops waiting for it
    "serve.begin",   # message, node, proc, cpu: a server takes a request
    "serve.end",     # message: it has finished with it
})


class TraceRecord:
    """One traced occurrence; its ``fields`` also read as attributes."""

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: Optional[Dict[str, Any]] = None):
        self.time = time
        self.kind = kind
        self.fields = {} if fields is None else fields

    def __getattr__(self, name: str) -> Any:
        # Reached only for a name that is not a set slot.  Dunder lookups
        # (``__deepcopy__``, ``__setstate__``, ...) and ``fields`` itself
        # (unset on a half-built instance) must fail fast: delegating
        # them would recurse through ``self.fields`` forever.
        if name == "fields" or (name.startswith("__") and name.endswith("__")):
            raise AttributeError(name)
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def __reduce__(self) -> Any:
        return (TraceRecord, (self.time, self.kind, self.fields))

    def __repr__(self) -> str:
        return f"TraceRecord(time={self.time!r}, kind={self.kind!r}, fields={self.fields!r})"


class Probe:
    """Counters and the record stream of one simulation run.

    Recording full records can be disabled (the owning cluster sets
    ``keep_records = False``) for long benchmark runs where only the
    counters matter.
    """

    def __init__(self, env: Any):
        self.env = env
        self.keep_records = True
        #: every count of the run: event kinds and named counters alike
        self.counts: Dict[str, int] = {}
        self.records: List[TraceRecord] = []
        # Replaced, never mutated, by (un)subscribe: an emit iterates the
        # tuple it started with, so a subscriber may unsubscribe inside
        # its callback without making the next one miss the record.
        self._subscribers: Tuple[Callable[[TraceRecord], None], ...] = ()
        #: True while any subscriber is registered.
        self.listening = False
        # Per-kind index over ``records``: experiment assertions select by
        # kind over and over, and a linear scan of a long run's full
        # record list per assertion is O(total records) each time.
        self._by_kind: Dict[str, List[TraceRecord]] = {}

    @property
    def recording(self) -> bool:
        """True when :meth:`emit` builds a record: records are kept or a
        subscriber listens.  A hot site that would format fields only
        for the record tests this first and otherwise just counts."""
        return self.keep_records or self.listening

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        counts = self.counts
        counts[name] = counts.get(name, 0) + n

    def emit(self, kind: str, **fields: Any) -> None:
        """Count an occurrence of ``kind`` and stream it at the current time."""
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        if not self.keep_records and not self.listening:
            return
        record = TraceRecord(self.env._now, kind, fields)
        if self.keep_records:
            self.records.append(record)
            self._by_kind.setdefault(kind, []).append(record)
        for subscriber in self._subscribers:
            subscriber(record)

    def note(self, kind: str, **fields: Any) -> None:
        """Stream an uncounted, unkept occurrence to the subscribers.

        ``kind`` is one of :data:`NOTE_KINDS`.  Callers test
        ``listening`` first, so an unobserved run builds nothing.
        """
        record = TraceRecord(self.env._now, kind, fields)
        for subscriber in self._subscribers:
            subscriber(record)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Invoke ``callback`` for every future record and note."""
        self._subscribers += (callback,)
        self.listening = True

    def unsubscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Stop invoking ``callback``.  Unknown callbacks are ignored.

        Dropping the last subscriber matters on ``keep_records=False``
        runs: while any subscriber is registered every emit must
        materialize a :class:`TraceRecord`, so a stale subscriber
        silently re-enables the record-allocation cost that
        ``keep_records=False`` was meant to avoid.
        """
        subscribers = list(self._subscribers)
        if callback in subscribers:
            subscribers.remove(callback)
            self._subscribers = tuple(subscribers)
        self.listening = bool(subscribers)

    @contextmanager
    def capture(self, kind: Optional[str] = None,
                **criteria: Any) -> Iterator[List[TraceRecord]]:
        """Collect the matching records streamed while active::

            with env.probe.capture("takeover", node="alpha") as records:
                ...  # run some simulation
            assert len(records) == 1

        The subscription is removed on exit, so captures are safe on
        ``keep_records=False`` runs.
        """
        records: List[TraceRecord] = []

        def collect(record: TraceRecord) -> None:
            if (kind is None or record.kind == kind) and _matches(record, criteria):
                records.append(record)

        self.subscribe(collect)
        try:
            yield records
        finally:
            self.unsubscribe(collect)

    def select(self, kind: str, **criteria: Any) -> List[TraceRecord]:
        """Records of ``kind`` whose fields match all ``criteria``."""
        return list(self.iter(kind, **criteria))

    def iter(self, kind: Optional[str] = None, **criteria: Any) -> Iterator[TraceRecord]:
        pool = self.records if kind is None else self._by_kind.get(kind, [])
        for record in pool:
            if _matches(record, criteria):
                yield record

    def clear(self) -> None:
        self.records.clear()
        self.counts.clear()
        self._by_kind.clear()


def _matches(record: TraceRecord, criteria: Dict[str, Any]) -> bool:
    return all(record.fields.get(k) == v for k, v in criteria.items())
