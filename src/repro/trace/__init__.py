"""TRACE — causal end-to-end transaction tracing over the simulated stack.

Where the XRAY measurement subsystem (:mod:`repro.measure`) answers
"where did the time go", TRACE answers "what happened to transaction T,
in causal order, across processes and nodes": XRAY aggregates, TRACE
narrates.

* :mod:`repro.trace.collect` — the :class:`TraceCollector`, a
  subscriber of ``env.probe`` like the XRAY registry: it opens and
  closes spans on the stream's request, serve and transaction-begin
  notes, stamps each request's span onto its
  :class:`repro.guardian.message.Message`, and pins the domain records
  to the span they were emitted in (``system.trace_of(transid)``);
* :mod:`repro.trace.export` — deterministic Chrome ``trace_event``
  timelines (``system.write_timeline(path)``) and the plain-text
  flight-recorder screen;
* :mod:`repro.trace.watchdog` — online invariant detectors firing
  structured ``watchdog.alarm`` records during the run.

Build with ``SystemBuilder(trace=True)`` (and ``watchdog=True`` for the
detectors); see the README's "Tracing a transaction" section.
"""

from .collect import Span, TraceCollector, TransactionTrace
from .export import timeline, timeline_json, write_timeline
from .watchdog import Watchdog, WatchdogConfig

__all__ = [
    "Span",
    "TraceCollector",
    "TransactionTrace",
    "Watchdog",
    "WatchdogConfig",
    "timeline",
    "timeline_json",
    "write_timeline",
]
