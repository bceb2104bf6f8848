"""Trace assembly: fold the record stream into per-transaction trees.

The :class:`TraceCollector` subscribes to the run's
:class:`repro.sim.Probe` and buckets records by trace id:

* ``trace.root`` / ``trace.send`` / ``trace.rpc`` / ``trace.serve``
  records (emitted by the :class:`~repro.trace.context.TraceHub`)
  become :class:`Span` objects;
* every *other* record emitted while a traced context was active —
  state broadcasts, lock waits, audit forces, watchdog alarms — is kept
  as an annotation pinned to the enclosing span, so the tree narrates
  what the aggregate counters only count.

``trace_of(transid)`` assembles the bucket into a
:class:`TransactionTrace`: a causally ordered forest of spans with
process/node/CPU attribution, renderable as the plain-text
"transaction flight recorder" screen (TMFCOM ``INFO TRANSACTION``
spirit) and exportable as a Chrome ``trace_event`` timeline (see
:mod:`repro.trace.export`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "TransactionTrace", "TraceCollector"]


class Span:
    """One causally-placed unit of work within a transaction."""

    __slots__ = (
        "span_id", "parent_id", "trace_id", "kind", "name", "node",
        "cpu", "hop", "start", "end", "children", "annotations",
        "requester",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        trace_id: str,
        kind: str,
        name: str,
        node: str,
        cpu: int,
        hop: int,
        start: float,
        end: Optional[float] = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.kind = kind              # "tx" | "rpc" | "serve"
        self.name = name
        self.node = node
        self.cpu = cpu
        self.hop = hop
        self.start = start
        self.end = end                # None: still in flight at run end
        self.children: List["Span"] = []
        self.annotations: List[Any] = []
        self.requester = ""           # rpc spans: the waiting process

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.span_id} {self.kind} {self.name!r} "
            f"{self.start}..{self.end}>"
        )


class TransactionTrace:
    """The assembled causal tree(s) of one transaction."""

    def __init__(self, transid: str, roots: List[Span], spans: List[Span],
                 loose_annotations: List[Any]):
        self.transid = transid
        self.roots = roots            # causally ordered forest
        self.spans = spans            # every span, topological+time order
        #: records mentioning the transid but emitted outside any span
        #: (e.g. the TMP pump settling the transaction in background).
        self.loose_annotations = loose_annotations

    @property
    def nodes(self) -> List[str]:
        """Every node the transaction touched, sorted."""
        names = {span.node for span in self.spans if span.node}
        for span in self.spans:
            if span.kind == "rpc":
                names.add(span.name.split(".", 1)[0].lstrip("\\"))
        return sorted(n for n in names if n)

    @property
    def processes(self) -> List[str]:
        """Every process name that appears as a span endpoint, sorted."""
        names = set()
        for span in self.spans:
            if span.kind == "serve" and span.name:
                names.add(span.name)
            elif span.kind == "rpc":
                names.add(span.name.split(".", 1)[1]
                          if "." in span.name else span.name)
        return sorted(names)

    def render(self) -> str:
        """The transaction flight-recorder screen (plain text)."""
        lines = [
            f"TRANSACTION {self.transid} — {len(self.spans)} spans, "
            f"{len(self.nodes)} nodes ({', '.join(self.nodes) or '-'})"
        ]

        def fmt(span: Span, depth: int) -> None:
            pad = "  " * (depth + 1)
            end = f"{span.end:.2f}" if span.end is not None else "…"
            where = f"\\{span.node}" if span.node else ""
            lines.append(
                f"{pad}[{span.kind}] {where}.{span.name} cpu{span.cpu} "
                f"{span.start:.2f}..{end}"
                if span.kind == "serve" else
                f"{pad}[{span.kind}] {span.name} {span.start:.2f}..{end}"
            )
            for record in span.annotations:
                lines.append(f"{pad}    · {record.time:.2f} {record.kind}")
            for child in span.children:
                fmt(child, depth + 1)

        for root in self.roots:
            fmt(root, 0)
        for record in self.loose_annotations:
            lines.append(f"  · {record.time:.2f} {record.kind}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TransactionTrace {self.transid} spans={len(self.spans)}>"


class TraceCollector:
    """Subscribes to the probe's stream and buckets records per trace id.

    Collection is pure observation: no simulated state is read or
    written, so a traced run replays the identical event history of an
    untraced one (the determinism tests pin this).
    """

    _SPAN_KINDS = ("trace.root", "trace.send", "trace.rpc", "trace.serve")

    def __init__(self, hub: Any):
        self.hub = hub
        # trace_id -> [(record, span_id_or_None)] in emission order.
        self._buckets: Dict[str, List[Tuple[Any, Optional[int]]]] = {}
        hub.env.probe.subscribe(self._on_record)

    # ------------------------------------------------------------------
    def _on_record(self, record: Any) -> None:
        fields = record.fields
        if record.kind in self._SPAN_KINDS or record.kind == "watchdog.alarm":
            trace_id = fields.get("trace_id") or fields.get("transid")
            if trace_id is not None:
                span = fields.get("span")
                self._buckets.setdefault(trace_id, []).append((record, span))
            return
        # Domain record: attribute to the emitting context when one is
        # active, else to the record's own transid field when present.
        ctx = self.hub.current()
        if ctx is not None and ctx.trace_id is not None:
            self._buckets.setdefault(ctx.trace_id, []).append(
                (record, ctx.span_id)
            )
            return
        transid = fields.get("transid")
        if isinstance(transid, str):
            self._buckets.setdefault(transid, []).append((record, None))

    # ------------------------------------------------------------------
    def trace_ids(self) -> List[str]:
        return sorted(self._buckets)

    def has_trace(self, transid: Any) -> bool:
        return str(transid) in self._buckets

    def trace_of(self, transid: Any) -> TransactionTrace:
        """Assemble the causal tree for ``transid`` (str or Transid)."""
        trace_id = str(transid)
        entries = self._buckets.get(trace_id, [])
        spans: Dict[int, Span] = {}
        annotations: List[Tuple[Any, Optional[int]]] = []
        order: Dict[int, int] = {}
        for seq, (record, span_id) in enumerate(entries):
            fields = record.fields
            kind = record.kind
            if kind == "trace.root":
                spans[fields["span"]] = Span(
                    fields["span"], None, trace_id, "tx",
                    name="begin-transaction", node="", cpu=0, hop=0,
                    start=record.time, end=None,
                )
                order.setdefault(fields["span"], seq)
            elif kind == "trace.send":
                span = Span(
                    fields["span"], fields.get("parent"), trace_id, "rpc",
                    name=f"{fields['dest']}.{fields['dest_proc']}",
                    node=fields["source"], cpu=fields.get("source_cpu", 0),
                    hop=fields.get("hop", 0), start=record.time, end=None,
                )
                span.requester = fields.get("source_proc", "")
                spans[fields["span"]] = span
                order.setdefault(fields["span"], seq)
            elif kind == "trace.rpc":
                span = spans.get(fields["span"])
                if span is not None:
                    span.end = record.time
            elif kind == "trace.serve":
                spans[fields["span"]] = Span(
                    fields["span"], fields.get("parent"), trace_id, "serve",
                    name=fields["proc"], node=fields["node"],
                    cpu=fields.get("cpu", 0), hop=fields.get("hop", 0),
                    start=fields["start"], end=record.time,
                )
                order.setdefault(fields["span"], seq)
            else:
                annotations.append((record, span_id))

        # Serve records arrive at span *end*; a parent serve span can
        # therefore be recorded after its children.  Sort every span by
        # (start, first-seen sequence) and link children to parents.
        ordered = sorted(
            spans.values(), key=lambda s: (s.start, order.get(s.span_id, 0))
        )
        roots: List[Span] = []
        for span in ordered:
            parent = spans.get(span.parent_id) if span.parent_id is not None else None
            if parent is not None:
                parent.children.append(span)
            else:
                roots.append(span)
        loose: List[Any] = []
        for record, span_id in annotations:
            span = spans.get(span_id) if span_id is not None else None
            if span is not None:
                span.annotations.append(record)
            else:
                loose.append(record)
        # A tx root with no recorded end stretches to its last descendant.
        for span in ordered:
            if span.kind == "tx" and span.end is None:
                ends = [s.end for s in spans.values() if s.end is not None]
                last_ann = [r.time for r in loose] + [
                    r.time for s in ordered for r in s.annotations
                ]
                candidates = ends + last_ann + [span.start]
                span.end = max(candidates)
        return TransactionTrace(trace_id, roots, ordered, loose)

    def traces(self) -> List[TransactionTrace]:
        """Every assembled trace, ordered by trace id."""
        return [self.trace_of(trace_id) for trace_id in self.trace_ids()]
