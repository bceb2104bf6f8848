"""TRACE: one probe subscriber that builds per-transaction span trees.

The :class:`TraceCollector` reads two things from the run's
:class:`repro.sim.Probe` stream.  On the boundary notes (``tx.begin``,
``rpc.send``/``rpc.done``, ``serve.begin``/``serve.end``) it opens and
closes :class:`Span` objects.  A span is also the causal context its
work carries: a trace is rooted at a transid (trace id
``str(transid)``), a request's span rides on ``message.trace_ctx``, and
the serving side's span is its child, so the TCP → server → DISCPROCESS
→ audit → TMP chain links up even across nodes.  Every other record
emitted inside a traced span (state broadcasts, lock waits, watchdog
alarms) is pinned to it as an annotation.

``trace_of(transid)`` links the spans into a :class:`TransactionTrace`,
renderable as the plain-text "transaction flight recorder" screen
(TMFCOM ``INFO TRANSACTION``) and exportable as a Chrome
``trace_event`` timeline (:mod:`repro.trace.export`).  Span ids come
from a per-collector counter, not the global message and process ids,
which keep counting across the runs of one Python process.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from ..sim.probe import NOTE_KINDS

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
        parent: Optional["Span"],
        trace_id: Optional[str],
        kind: str,
        name: str,
        node: str,
        cpu: int,
        start: float,
    ):
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else None
        #: None on a serve span whose request carried no trace yet: a
        #: transaction begun inside it adopts it (see ``tx.begin``).
        self.trace_id = trace_id
        self.kind = kind              # "tx" | "rpc" | "serve"
        self.name = name
        self.node = node
        self.cpu = cpu
        self.hop = parent.hop + 1 if parent is not None else 0
        self.start = start
        self.end: Optional[float] = None   # None: in flight at run end
        self.children: List["Span"] = []
        self.annotations: List[Any] = []
        self.requester = ""           # rpc spans: the waiting process

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
        #: (e.g. a TMP worker settling the transaction in background).
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
    """Builds spans from the probe's notes and pins records to them.

    Collection is pure observation: no simulated state is read or
    written, so a traced run replays the identical event history of an
    untraced one (the determinism tests pin this).
    """

    def __init__(self, env: Any):
        self.env = env
        self._span_ids = itertools.count(1)
        # The open tx or serve span of each simulation process.  Serve
        # spans leave on serve.end; tx spans live as long as their
        # process object — per-run state, like the probe.
        self._active: Dict[Any, Span] = {}
        # message -> the serve span handling it.
        self._serving: Dict[Any, Span] = {}
        # trace_id -> its spans (added when the span is recorded: a tx
        # or rpc span at its start, a serve span at its end) and its
        # (record, span_id) annotations, in stream order.
        self._buckets: Dict[str, List[Any]] = {}
        self._notes = {
            "tx.begin": self._adopt,
            "rpc.send": self._send,
            "rpc.done": self._rpc_done,
            "serve.begin": self._serve_begin,
            "serve.end": self._serve_end,
        }
        env.probe.subscribe(self._on_record)

    # ------------------------------------------------------------------
    def _on_record(self, record: Any) -> None:
        kind = record.kind
        if kind in NOTE_KINDS:
            handler = self._notes.get(kind)
            if handler is not None:
                handler(record)
            return
        fields = record.fields
        if kind == "watchdog.alarm":
            transid = fields.get("transid")
            if transid is not None:
                self._buckets.setdefault(transid, []).append((record, None))
            return
        # Domain record: attribute to the emitting span when one is
        # active, else to the record's own transid field when present.
        span = self._current()
        if span is not None and span.trace_id is not None:
            self._buckets.setdefault(span.trace_id, []).append((record, span.span_id))
            return
        transid = fields.get("transid")
        if isinstance(transid, str):
            self._buckets.setdefault(transid, []).append((record, None))

    def _current(self) -> Optional[Span]:
        """The span bound to the currently executing process."""
        proc = self.env.active_process
        if proc is None:
            return None
        return self._active.get(proc)

    # ------------------------------------------------------------------
    # Boundary notes
    # ------------------------------------------------------------------
    def _adopt(self, record: Any) -> None:
        """``tx.begin``: root the executing process's work at the transid.

        A serve span (a TCP unit, first run or restarted) is re-labelled
        and becomes the root.  Otherwise (a driver process that holds no
        span or a previous transaction's) a fresh root "tx" span opens,
        so the commit fan-out still hangs off one root.
        """
        proc = self.env.active_process
        if proc is None:
            return
        trace_id = str(record.fields["transid"])
        span = self._active.get(proc)
        if span is not None and span.kind == "serve":
            span.trace_id = trace_id
            return
        span = Span(
            next(self._span_ids), None, trace_id, "tx", "begin-transaction",
            node="", cpu=0, start=record.time,
        )
        self._active[proc] = span
        self._buckets.setdefault(trace_id, []).append(span)

    def _send(self, record: Any) -> None:
        """``rpc.send``: open the request's span and stamp it on the message.

        The trace id is the message's transid, else its payload's (TMP
        protocol messages), else the sender's active span's; a message
        with none is background chatter and stays untraced.
        """
        message = record.fields["message"]
        parent = self._current()
        trace_id: Optional[str] = None
        if message.transid is not None:
            trace_id = str(message.transid)
        else:
            payload_transid = getattr(message.payload, "transid", None)
            if payload_transid is not None:
                trace_id = str(payload_transid)
            elif parent is not None:
                trace_id = parent.trace_id
        if trace_id is None:
            return
        span = Span(
            next(self._span_ids), parent, trace_id, "rpc",
            f"{message.dest_node}.{message.dest_name}",
            node=message.source_node, cpu=message.source_cpu, start=record.time,
        )
        span.requester = message.source_name
        message.trace_ctx = span
        self._buckets.setdefault(trace_id, []).append(span)

    def _rpc_done(self, record: Any) -> None:
        """``rpc.done``: the requester-observed end (reply/error/kill)."""
        span = record.fields["message"].trace_ctx
        if span is not None:
            span.end = record.time

    def _serve_begin(self, record: Any) -> None:
        """``serve.begin``: open a serve span, child of the send span.

        Opened even for an untraced message (``trace_id`` None): a
        transaction begun inside the handler adopts it.
        """
        fields = record.fields
        message = fields["message"]
        sent = message.trace_ctx
        span = Span(
            next(self._span_ids), sent, sent.trace_id if sent is not None else None,
            "serve", fields["proc"], node=fields["node"], cpu=fields["cpu"],
            start=record.time,
        )
        proc = self.env.active_process
        if proc is not None:
            self._active[proc] = span
        self._serving[message] = span

    def _serve_end(self, record: Any) -> None:
        """``serve.end`` (also at a mid-request kill): close the span."""
        span = self._serving.pop(record.fields["message"], None)
        if span is None:
            return
        proc = self.env.active_process
        if proc is not None and self._active.get(proc) is span:
            del self._active[proc]
        if span.trace_id is None:
            return
        span.end = record.time
        self._buckets.setdefault(span.trace_id, []).append(span)

    # ------------------------------------------------------------------
    def trace_ids(self) -> List[str]:
        return sorted(self._buckets)

    def has_trace(self, transid: Any) -> bool:
        return str(transid) in self._buckets

    def trace_of(self, transid: Any) -> TransactionTrace:
        """Link the spans of ``transid`` (str or Transid) into its tree.

        The spans are the collector's own: every call re-links them and
        derives a tx root's end afresh.
        """
        trace_id = str(transid)
        spans: Dict[int, Span] = {}            # in recording order
        annotations: List[Tuple[Any, Optional[int]]] = []
        for entry in self._buckets.get(trace_id, ()):
            if isinstance(entry, Span):
                entry.children = []
                entry.annotations = []
                spans[entry.span_id] = entry
            else:
                annotations.append(entry)

        # A serve span is recorded at its *end*, so a parent serve span
        # can be recorded after its children.  Sort every span by start
        # (stable: ties keep recording order) and link children to parents.
        ordered = sorted(spans.values(), key=lambda s: s.start)
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
        # A tx root has no end of its own: it lasts until the last end or
        # annotation recorded in its trace.
        latest = max(
            [s.end for s in ordered if s.kind != "tx" and s.end is not None]
            + [record.time for record, _span_id in annotations],
            default=float("-inf"),
        )
        for span in ordered:
            if span.kind == "tx":
                span.end = max(latest, span.start)
        return TransactionTrace(trace_id, roots, ordered, loose)

    def traces(self) -> List[TransactionTrace]:
        """Every assembled trace, ordered by trace id."""
        return [self.trace_of(trace_id) for trace_id in self.trace_ids()]
