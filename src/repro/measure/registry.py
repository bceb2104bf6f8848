"""Measured-only metrics: log-scale histograms and spans.

The XRAY measurement subsystem's data model.  A :class:`MetricsRegistry`
holds what only a measured run keeps.  ``SystemBuilder(measure=True)``
subscribes :meth:`MetricsRegistry.on_record` to the run's
``env.probe``, where it folds the ``tx.begin``/``tx.end``, ``phase``
and ``observe`` notes into the span log and the histograms.  Counts are
not kept here: every run counts through the always-on probe.

The :class:`Histogram` uses fixed log-scale buckets (a configurable
number per decade), so p50/p90/p99 are computed without storing samples:
any reported quantile is within one bucket's relative width of the exact
sample quantile, and count/mean/min/max are exact.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from .spans import SpanLog

__all__ = ["Histogram", "MetricsRegistry"]


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


class MetricsRegistry:
    """The measured-only state of one run: histograms, spans, samples."""

    def __init__(self):
        self.histograms: Dict[str, Histogram] = {}
        self.samples: list = []          # appended by measure.sampler
        self.spans = SpanLog()

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name)
        return hist

    def on_record(self, record: Any) -> None:
        """Fold one note of the probe stream; other records pass by.

        A ``phase`` ending now is one sample of its ``histogram`` (when
        named) and, for a transaction and a nonzero duration, one span
        of the transaction's tree.
        """
        kind = record.kind
        if kind == "phase":
            fields = record.fields
            start = fields["start"]
            histogram = fields.get("histogram")
            if histogram is not None:
                self.histogram(histogram).record(record.time - start)
            transid = fields["transid"]
            if transid is not None and record.time > start:
                self.spans.record(
                    str(transid), fields["name"], fields["category"],
                    start, record.time,
                )
        elif kind == "observe":
            self.histogram(record.fields["name"]).record(record.fields["value"])
        elif kind == "tx.begin":
            self.spans.begin_tx(str(record.fields["transid"]), record.time)
        elif kind == "tx.end":
            fields = record.fields
            # The first settler closes the tree; later settlers of a
            # distributed transaction no-op.
            finished = self.spans.end_tx(
                str(fields["transid"]), record.time, fields["outcome"]
            )
            if finished is not None:
                self.histogram("tx.latency_ms").record(finished.latency)
