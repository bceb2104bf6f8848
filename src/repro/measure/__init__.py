"""XRAY: the online measurement subsystem.

Simulation-time observability for the reproduction, named for Tandem's
XRAY performance monitor (the tool ENCOMPASS operators used to watch
CPU, bus, disc, and process activity on a live system):

* :mod:`repro.measure.registry` — log-scale histograms
  (p50/p90/p99 without storing samples);
* :mod:`repro.measure.spans` — per-transaction phase spans and the
  critical-path breakdown of where latency went;
* :mod:`repro.measure.sampler` — periodic component-utilization
  sampling;
* :mod:`repro.measure.report` — deterministic JSON run reports and the
  human-readable "XRAY screen".

Enable it with ``SystemBuilder(measure=True)``, which subscribes a
:class:`MetricsRegistry` to the run's one stream, ``env.probe``
(:class:`repro.sim.Probe`).  Counts are always on in every run: the
report's ``counters`` section reads ``env.probe.counts``.
"""

from .registry import Histogram, MetricsRegistry
from .report import build_report, render_report, to_json, write_report
from .sampler import Sampler
from .spans import CATEGORIES, Span, SpanLog
from .tables import format_table

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Sampler",
    "Span",
    "SpanLog",
    "CATEGORIES",
    "build_report",
    "format_table",
    "render_report",
    "to_json",
    "write_report",
]
