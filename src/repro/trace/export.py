"""Timeline export: deterministic Chrome ``trace_event`` JSON.

:func:`timeline` converts assembled traces into the Trace Event Format
understood by ``chrome://tracing`` and Perfetto: one *process* row per
simulated node, one *thread* row per simulated process, ``"X"``
(complete) events for spans (requests, serves and the timed phases
within them, each with its cost category) and ``"i"`` (instant) events
for span-bound annotations and watchdog alarms.  Simulated milliseconds
map to the format's microseconds (``ts = ms * 1000``).

Serialization is canonical — sorted keys, floats rounded, events in a
deterministic order — so two same-seed traced runs write byte-identical
files (the property the determinism tests pin, mirroring the XRAY
report's guarantees).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = ["timeline", "timeline_json", "write_timeline"]


def _round(value: float) -> float:
    rounded = round(value, 3)
    return 0.0 if rounded == 0 else rounded


def timeline(collector: Any, transids: Optional[List[Any]] = None) -> Dict[str, Any]:
    """The ``{"traceEvents": [...]}`` dict for some (or all) transactions."""
    if transids is None:
        traces = collector.traces()
    else:
        traces = [collector.trace_of(t) for t in sorted(str(t) for t in transids)]

    # Stable pid/tid maps: nodes and (node, proc) pairs, sorted.
    nodes: List[str] = sorted(
        {span.node for trace in traces for span in trace.spans if span.node}
    )
    pids = {node: index + 1 for index, node in enumerate(nodes)}
    tracks = sorted(
        {(span.node, _track_name(span)) for trace in traces
         for span in trace.spans if span.node}
    )
    tids: Dict[Any, int] = {}
    for node in nodes:
        for index, track in enumerate(t for t in tracks if t[0] == node):
            tids[track] = index + 1

    events: List[Dict[str, Any]] = []
    for node in nodes:
        events.append({
            "ph": "M", "name": "process_name", "pid": pids[node], "tid": 0,
            "args": {"name": f"\\{node}"},
        })
    for (node, track), tid in sorted(tids.items()):
        events.append({
            "ph": "M", "name": "thread_name", "pid": pids[node], "tid": tid,
            "args": {"name": track},
        })

    spans_events: List[Dict[str, Any]] = []
    for trace in traces:
        for span in trace.spans:
            if not span.node or span.end is None:
                continue
            pid = pids[span.node]
            tid = tids[(span.node, _track_name(span))]
            spans_events.append({
                "ph": "X", "cat": span.kind, "name": span.name,
                "pid": pid, "tid": tid,
                "ts": _round(span.start * 1000.0),
                "dur": _round((span.end - span.start) * 1000.0),
                "args": {
                    "trace_id": trace.transid, "span": span.span_id,
                    "hop": span.hop, "cpu": span.cpu,
                    "category": span.category,
                },
            })
            for record in span.annotations:
                spans_events.append({
                    "ph": "i", "s": "t", "cat": "annotation",
                    "name": record.kind, "pid": pid, "tid": tid,
                    "ts": _round(record.time * 1000.0),
                    "args": {"trace_id": trace.transid, "span": span.span_id},
                })
        for record in trace.loose_annotations:
            if record.kind != "watchdog.alarm":
                continue
            node = record.fields.get("node")
            pid = pids.get(node, 0)
            spans_events.append({
                "ph": "i", "s": "g", "cat": "watchdog",
                "name": f"watchdog.alarm:{record.fields.get('reason', '?')}",
                "pid": pid, "tid": 0,
                "ts": _round(record.time * 1000.0),
                "args": {"trace_id": trace.transid},
            })
    spans_events.sort(
        key=lambda e: (e["ts"], e["pid"], e["tid"], e["args"].get("span", 0))
    )
    events.extend(spans_events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _track_name(span: Any) -> str:
    # A serve span sits on the serving process's own track; an rpc span
    # sits on the *requesting* process's track (where the caller waits),
    # and a phase span on the track of the process it ran in.
    if span.kind in ("rpc", "phase"):
        return span.requester or "requests"
    return span.name or "tx"


def timeline_json(collector: Any, transids: Optional[List[Any]] = None) -> str:
    """Canonical JSON: same run state -> same bytes."""
    return json.dumps(timeline(collector, transids), sort_keys=True, indent=2)


def write_timeline(collector: Any, path: str,
                   transids: Optional[List[Any]] = None) -> str:
    """Write the timeline JSON to ``path``; returns ``path``."""
    with open(path, "w") as handle:
        handle.write(timeline_json(collector, transids))
        handle.write("\n")
    return path
