"""XRAY: the online measurement subsystem.

Simulation-time observability for the reproduction, named for Tandem's
XRAY performance monitor (the tool ENCOMPASS operators used to watch
CPU, bus, disc, and process activity on a live system):

* :mod:`repro.measure.registry` — log-scale histograms
  (p50/p90/p99 without storing samples) and the critical-path fold of
  each transaction's span tree into where its latency went (cpu, bus,
  network, disc, lock, audit, queue, or unattributed);
* :mod:`repro.measure.sampler` — periodic component-utilization
  sampling;
* :mod:`repro.measure.report` — deterministic JSON run reports and the
  human-readable "XRAY screen".

Enable it with ``SystemBuilder(measure=True)``: a :class:`MetricsRegistry`
reads the run's one stream, ``env.probe`` (:class:`repro.sim.Probe`),
through the TRACE collector (:mod:`repro.trace`), whose span trees it
folds.  Counts are always on in every run: the report's ``counters``
section reads ``env.probe.counts``.
"""

from .registry import CATEGORIES, Histogram, MetricsRegistry, fold
from .report import build_report, render_report, to_json, write_report
from .sampler import Sampler
from .tables import format_table

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Sampler",
    "CATEGORIES",
    "fold",
    "build_report",
    "format_table",
    "render_report",
    "to_json",
    "write_report",
]
