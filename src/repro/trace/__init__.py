"""TRACE — causal end-to-end transaction tracing over the simulated stack.

TRACE answers "what happened to transaction T, in causal order, across
processes and nodes"; the XRAY measurement subsystem
(:mod:`repro.measure`) folds the same trees into "where did the time
go": TRACE narrates, XRAY aggregates.  The collector is the run's one
span-tree builder.

* :mod:`repro.trace.collect` — the :class:`TraceCollector`, a
  subscriber of ``env.probe``: it opens and closes spans on the
  stream's request, serve and transaction notes, makes each ``phase``
  note a leaf span with its cost category, keeps each transaction's
  window, stamps each request's span onto its
  :class:`repro.guardian.message.Message`, and pins the domain records
  to the span they were emitted in (``system.trace_of(transid)``);
* :mod:`repro.trace.export` — deterministic Chrome ``trace_event``
  timelines (``system.write_timeline(path)``) and the plain-text
  flight-recorder screen.

Build with ``SystemBuilder(trace=True)`` (or ``measure=True``, which
folds the collector's trees); see the README's "Tracing a transaction"
section.
"""

from .collect import Span, TraceCollector, TransactionTrace
from .export import timeline, timeline_json, write_timeline

__all__ = [
    "Span",
    "TraceCollector",
    "TransactionTrace",
    "timeline",
    "timeline_json",
    "write_timeline",
]
