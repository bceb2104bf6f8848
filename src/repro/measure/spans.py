"""Per-transaction spans and critical-path accounting.

A *span* is one timed phase of a transaction's life — "begin",
"disc-io", "lock-wait", "audit-force", "commit-broadcast" — tagged with
a cost *category* (``cpu``, ``bus``, ``disc``, ``lock``, ``audit``,
``other``).  Spans nest: a span recorded while its transaction is open
attaches to the transaction's root span (or to an explicit parent), so
the tree mirrors where simulated time was actually spent.

When a transaction ends, the tree is folded into a *breakdown* along
its critical path.  Each span owns part of its parent's time: where
siblings overlap (a commit drains several volumes and polls its child
nodes at once), the shared time belongs only to the sibling that ends
last, the one the parent waited for.  A span charges to its category the
owned time its own children do not cover, and root time not covered by
any child is attributed to ``cpu`` — in this simulator, un-annotated
transaction time is request processing on some CPU.  Every instant of a
transaction is charged once, so its shares sum to 1.  The per-category
totals accumulate across transactions, which is exactly the data the
XRAY report renders as "where did the latency go".

No imports from the rest of ``repro`` — this module must be importable
from any layer without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "SpanLog", "CATEGORIES"]

#: canonical cost categories, in report order
CATEGORIES = ("cpu", "bus", "disc", "lock", "audit", "other")

#: open-transaction cap — transactions force-dropped beyond this bound
#: (defensive: a workload that begins but never ends transactions must
#: not grow memory without limit)
MAX_OPEN_TX = 4096


class Span:
    """One timed phase: [start, end) in simulation milliseconds."""

    __slots__ = ("key", "name", "category", "start", "end", "children")

    def __init__(
        self,
        key: str,
        name: str,
        category: str,
        start: float,
        end: Optional[float] = None,
    ):
        self.key = key
        self.name = name
        self.category = category if category in CATEGORIES else "other"
        self.start = start
        self.end = end
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return max(self.end - self.start, 0.0)

    def self_time(self) -> float:
        """Duration not covered by the union of the child spans."""
        owned = [(self.start, self.start + self.duration)]
        for child in self.children:
            owned = _minus(owned, child.start, child.start + child.duration)
        return _length(owned)

    def __repr__(self) -> str:
        return (
            f"<Span {self.name}/{self.category} key={self.key} "
            f"[{self.start}, {self.end})>"
        )


class TxRecord:
    """A finished transaction: its root span, outcome, and breakdown."""

    __slots__ = ("key", "root", "outcome", "breakdown")

    def __init__(self, key: str, root: Span, outcome: str):
        self.key = key
        self.root = root
        self.outcome = outcome
        self.breakdown = _fold(root)

    @property
    def latency(self) -> float:
        return self.root.duration

    def shares(self) -> Dict[str, float]:
        """Category shares of total latency (sum to 1 for nonzero latency)."""
        total = self.latency
        if total <= 0:
            return {category: 0.0 for category in CATEGORIES}
        return {
            category: self.breakdown.get(category, 0.0) / total
            for category in CATEGORIES
        }


def _fold(root: Span) -> Dict[str, float]:
    """Per-category critical-path totals over the span tree.

    A span's owned time is handed to its children latest-ending first,
    each taking what it covers of what is left; the rest is the span's
    own.  The root's own time goes to ``cpu`` regardless of its nominal
    category: uncovered transaction time is request processing.
    """
    breakdown = {category: 0.0 for category in CATEGORIES}
    stack = [(root, "cpu", [(root.start, root.start + root.duration)])]
    while stack:
        span, category, owned = stack.pop()
        # Stable: of two siblings ending together, the earlier recorded
        # one ends last.
        for child in sorted(span.children, key=lambda c: -(c.start + c.duration)):
            end = child.start + child.duration
            taken = _minus(owned, float("-inf"), child.start)
            taken = _minus(taken, end, float("inf"))
            stack.append((child, child.category, taken))
            owned = _minus(owned, child.start, end)
        breakdown[category] += _length(owned)
    return breakdown


def _minus(
    intervals: List[Tuple[float, float]], start: float, end: float
) -> List[Tuple[float, float]]:
    """Disjoint ``intervals`` less ``[start, end)``."""
    if end <= start:
        return intervals
    left = []
    for lo, hi in intervals:
        if hi <= start or lo >= end:
            left.append((lo, hi))
            continue
        if lo < start:
            left.append((lo, start))
        if hi > end:
            left.append((end, hi))
    return left


def _length(intervals: List[Tuple[float, float]]) -> float:
    return sum(hi - lo for lo, hi in intervals)


class SpanLog:
    """Records spans per transaction and folds them at transaction end."""

    def __init__(self) -> None:
        self._open: Dict[str, Span] = {}       # key -> open root span
        self.finished = 0
        self.dropped = 0
        # Aggregates across all finished transactions:
        self.totals: Dict[str, float] = {c: 0.0 for c in CATEGORIES}
        self.total_latency = 0.0
        self.outcomes: Dict[str, int] = {}
        # Spans recorded outside any open transaction (background work):
        self.unattributed: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def begin_tx(self, key: str, t: float) -> None:
        """Open the root span for transaction ``key`` at time ``t``."""
        if key in self._open:
            return                                 # idempotent — first begin wins
        if len(self._open) >= MAX_OPEN_TX:
            self.dropped += 1
            return
        self._open[key] = Span(key, "transaction", "other", t)

    def is_open(self, key: str) -> bool:
        return key in self._open

    def record(
        self,
        key: str,
        name: str,
        category: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
    ) -> Optional[Span]:
        """Attach a finished phase span to its transaction (or parent).

        Spans for transactions that are not open (background work, e.g.
        a group audit force with no requesting transaction) accumulate
        per-name in ``unattributed``.
        """
        span = Span(key, name, category, start, end)
        if parent is not None:
            parent.children.append(span)
            return span
        root = self._open.get(key)
        if root is None:
            self.unattributed[name] = (
                self.unattributed.get(name, 0.0) + span.duration
            )
            return None
        root.children.append(span)
        return span

    def end_tx(self, key: str, t: float, outcome: str = "committed"):
        """Close transaction ``key``; returns its :class:`TxRecord`.

        Safe to call from every participant of a distributed transaction
        — the first closer wins, later calls are ignored (return None).
        """
        root = self._open.pop(key, None)
        if root is None:
            return None
        root.end = t
        record = TxRecord(key, root, outcome)
        self.finished += 1
        self.total_latency += record.latency
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        for category, value in record.breakdown.items():
            self.totals[category] += value
        return record

    # ------------------------------------------------------------------
    def aggregate(self) -> Dict[str, Any]:
        """JSON-friendly totals: per-category time and latency shares."""
        total = self.total_latency
        shares = {
            category: (self.totals[category] / total if total > 0 else 0.0)
            for category in CATEGORIES
        }
        return {
            "transactions": self.finished,
            "outcomes": {k: self.outcomes[k] for k in sorted(self.outcomes)},
            "total_latency_ms": total,
            "category_ms": {c: self.totals[c] for c in CATEGORIES},
            "category_share": shares,
            "unattributed_ms": {
                k: self.unattributed[k] for k in sorted(self.unattributed)
            },
            "open": len(self._open),
            "dropped": self.dropped,
        }
