"""Measured-only metrics: log-scale histograms and critical-path totals.

The XRAY measurement subsystem's data model.  A :class:`MetricsRegistry`
holds what only a measured run keeps.  It reads the run's ``env.probe``
stream through the TRACE collector (:class:`repro.trace.TraceCollector`),
the one probe subscriber that builds span trees: the collector hands it
each histogram sample the ``phase`` and ``observe`` notes carry, and
each transaction's window as it closes, when the registry folds the
transaction's tree along the critical path (:func:`fold`) into the
run's per-category totals.  Counts are not kept here: every run counts
through the always-on probe.

The :class:`Histogram` uses fixed log-scale buckets (a configurable
number per decade), so p50/p90/p99 are computed without storing samples:
any reported quantile is within one bucket's relative width of the exact
sample quantile, and count/mean/min/max are exact.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["CATEGORIES", "Histogram", "MetricsRegistry", "fold"]

#: the cost categories of a transaction's time, in report order:
#: ``cpu``/``bus``/``network`` are the media a request crosses (and CPU
#: work such as cache hits), ``queue`` a request waiting for its server,
#: ``unattributed`` time that no span explains.
CATEGORIES = (
    "cpu", "bus", "network", "disc", "lock", "audit", "queue", "unattributed",
)

_INF = float("inf")


class Histogram:
    """Fixed-bucket log-scale histogram with exact count/sum/min/max.

    Values are assigned to geometric buckets between ``lo`` and ``hi``
    (``buckets_per_decade`` per factor of ten).  Quantiles are read back
    as the geometric midpoint of the bucket holding the requested rank,
    clamped to the observed [min, max] — so the relative error of any
    percentile is bounded by half a bucket width
    (``10**(0.5/buckets_per_decade) - 1``; ~2.3% at the default 50).
    """

    __slots__ = (
        "name", "lo", "hi", "buckets_per_decade", "_log_growth",
        "_bucket_count", "counts", "count", "total", "min", "max",
    )

    def __init__(
        self,
        name: str = "",
        lo: float = 1e-3,
        hi: float = 1e7,
        buckets_per_decade: int = 50,
    ):
        if not (lo > 0 and hi > lo and buckets_per_decade >= 1):
            raise ValueError("need 0 < lo < hi and buckets_per_decade >= 1")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.buckets_per_decade = buckets_per_decade
        self._log_growth = math.log(10.0) / buckets_per_decade
        self._bucket_count = (
            int(math.ceil(math.log10(hi / lo) * buckets_per_decade)) + 2
        )
        # Sparse: bucket index -> count.  Index 0 is the underflow bucket
        # (v <= lo); the last index is the overflow bucket (v >= hi).
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    def _index_of(self, value: float) -> int:
        if value <= self.lo:
            return 0
        if value >= self.hi:
            return self._bucket_count - 1
        # Bucket i (1-based) covers (lo * g**(i-1), lo * g**i].
        index = 1 + int(math.log(value / self.lo) / self._log_growth)
        return min(max(index, 1), self._bucket_count - 2)

    def bucket_bounds(self, index: int) -> tuple:
        """(low, high] value bounds of bucket ``index``."""
        if index <= 0:
            return (0.0, self.lo)
        if index >= self._bucket_count - 1:
            return (self.hi, math.inf)
        return (
            self.lo * math.exp((index - 1) * self._log_growth),
            self.lo * math.exp(index * self._log_growth),
        )

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = self._index_of(value)
        self.counts[index] = self.counts.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]), within one bucket's resolution."""
        if self.count == 0:
            return 0.0
        q = min(max(q, 0.0), 1.0)
        rank = min(max(int(math.ceil(q * self.count)), 1), self.count)
        if rank == self.count:
            return self.max
        cumulative = 0
        index = 0
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            if cumulative >= rank:
                break
        low, high = self.bucket_bounds(index)
        if not math.isfinite(high):          # overflow bucket
            return self.max
        representative = math.sqrt(max(low, self.lo * 1e-12) * high)
        return min(max(representative, self.min), self.max)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` (same bucket layout) into this histogram."""
        if (other.lo, other.hi, other.buckets_per_decade) != (
            self.lo, self.hi, self.buckets_per_decade
        ):
            raise ValueError("cannot merge histograms with different buckets")
        for index, n in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:
        return (
            f"<Histogram {self.name or '?'} count={self.count} "
            f"mean={self.mean:.3f}>"
        )


def _end(span: Any) -> float:
    return span.end if span.end is not None else _INF    # None: in flight


def _last_first(span: Any) -> Tuple[float, float]:
    return (-_end(span), -span.start)


def fold(roots: Sequence[Any], begin: float, end: float) -> Dict[str, float]:
    """Charge each instant of [begin, end) once, to one category.

    The window is handed to the ``roots`` of a transaction's span tree,
    and each span's owned time to its children, the latest-ending first
    (of those ending together, the one nested in the others): each takes
    what it covers of what is left, so the sibling that ends last (the
    one its parent waited for) owns the shared time.  The siblings taken
    before a span end no earlier, so they cover it from the earliest of
    their starts on, and what a span owns is one interval.  A span
    charges the time it keeps to its category, except a request's (rpc)
    span: its transit each way (until ``start + transit``, and after its
    serve span ended) goes to the medium it crossed, the rest of its
    wait to ``queue``.  Window time that no root covers is
    ``unattributed``.
    """
    breakdown = {category: 0.0 for category in CATEGORIES}
    stack: List[Tuple[Any, Sequence[Any], float, float]] = [
        (None, roots, begin, end)
    ]
    while stack:
        span, children, lo, hi = stack.pop()
        own = hi - lo
        covered_from = _INF
        for child in sorted(children, key=_last_first):
            start = child.start
            stop = child.end if child.end is not None else _INF
            if stop > covered_from:
                stop = covered_from
            if start < covered_from:
                covered_from = start
            if start < lo:
                start = lo
            if stop > hi:
                stop = hi
            if stop <= start:
                continue
            own -= stop - start
            if child.children or child.kind == "rpc":
                stack.append((child, child.children, start, stop))
            else:
                breakdown[child.category] += stop - start
        own = max(own, 0.0)                  # less float residue
        if span is None:
            breakdown["unattributed"] += own
        elif span.kind == "rpc":
            # Its one child is the serve span.
            first, served = (
                (children[0].start, _end(children[0])) if children else (hi, _INF)
            )
            there = min(hi, first, span.start + span.transit) - lo
            transit = max(there, 0.0) + max(hi - max(lo, served), 0.0)
            breakdown[span.category] += transit
            breakdown["queue"] += max(own - transit, 0.0)
        else:
            breakdown[span.category] += own
    return breakdown


class MetricsRegistry:
    """The measured-only state of one run: histograms, samples and the
    critical-path totals of the transactions ``collector`` saw end.

    It reads the stream through the collector, the run's one span-tree
    builder, as its ``metrics``: each histogram sample the notes carry
    (:meth:`sample`) and each transaction window as it closes
    (:meth:`fold_window`).
    """

    def __init__(self, collector: Any):
        self.histograms: Dict[str, Histogram] = {}
        self.samples: list = []          # appended by measure.sampler
        self.collector = collector
        self.transactions = 0
        self.outcomes: Dict[str, int] = {}
        self.total_latency = 0.0
        self.category_ms: Dict[str, float] = {c: 0.0 for c in CATEGORIES}
        collector.metrics = self

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name)
        return hist

    def sample(self, name: str, value: float) -> None:
        """One sample of the named histogram."""
        self.histogram(name).record(value)

    def fold_window(self, trace_id: str, window: Any) -> None:
        """Fold a transaction's tree inside its window, as it closes."""
        latency = window.end - window.begin
        self.transactions += 1
        self.total_latency += latency
        self.outcomes[window.outcome] = self.outcomes.get(window.outcome, 0) + 1
        self.histogram("tx.latency_ms").record(latency)
        roots = self.collector.forest(trace_id)
        for category, ms in fold(roots, window.begin, window.end).items():
            self.category_ms[category] += ms

    def aggregate(self) -> Dict[str, Any]:
        """JSON-friendly totals: per-category time and latency shares."""
        total = self.total_latency
        background = self.collector.background
        return {
            "transactions": self.transactions,
            "outcomes": {k: self.outcomes[k] for k in sorted(self.outcomes)},
            "total_latency_ms": total,
            "category_ms": dict(self.category_ms),
            "category_share": {
                category: (ms / total if total > 0 else 0.0)
                for category, ms in self.category_ms.items()
            },
            "background_ms": {k: background[k] for k in sorted(background)},
            "open": sum(
                1 for window in self.collector.windows.values()
                if window.end is None
            ),
        }
