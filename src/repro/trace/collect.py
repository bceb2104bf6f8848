"""TRACE: the one probe subscriber that builds per-transaction span trees.

The :class:`TraceCollector` reads the run's :class:`repro.sim.Probe`
stream.  On the boundary notes (``tx.begin``, ``rpc.send``/``rpc.done``,
``serve.begin``/``serve.end``) it opens and closes :class:`Span`
objects.  A span is also the causal context its work carries: a trace
is rooted at a transid (trace id ``str(transid)``), a request's span
rides on ``message.trace_ctx``, and the serving side's span is its
child, so the TCP → server → DISCPROCESS → audit → TMP chain links up
even across nodes.  Each ``phase`` note (a lock wait, a disc access, a
checkpoint message, a completion write) becomes a leaf span under the
emitting process's span, or under its transid's root when that process
has none (a TMP worker).  Every other record emitted inside a traced
span (state broadcasts, lock waits, watchdog alarms) is pinned to it as
an annotation.

A span's *category* is where the time its children leave is charged: a
phase's own, a request's medium (``cpu`` on one processor, ``bus``
within a node, ``network`` between nodes), ``unattributed`` for the
transaction and serve spans that only contain work.  The collector also
keeps each transid's :class:`Window`, [``tx.begin``, first ``tx.end``]:
on a measured run the XRAY registry (:mod:`repro.measure`) folds the
tree inside it as it closes.

``trace_of(transid)`` assembles a :class:`TransactionTrace`, renderable
as the plain-text "transaction flight recorder" screen (TMFCOM ``INFO
TRANSACTION``) and exportable as a Chrome ``trace_event`` timeline
(:mod:`repro.trace.export`).  Span ids come from a per-collector
counter, not the global message and process ids, which keep counting
across the runs of one Python process.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["Span", "TransactionTrace", "TraceCollector", "Window"]


class Span:
    """One causally-placed unit of work within a transaction.

    It joins its parent's children as it opens (a phase span as it
    ends): the tree is linked as the notes arrive.
    """

    __slots__ = (
        "span_id", "trace_id", "kind", "name", "category", "node", "cpu",
        "hop", "start", "end", "children", "annotations", "requester",
        "transit",
    )

    def __init__(self, span_id: int, parent: Optional["Span"],
                 trace_id: Optional[str], kind: str, name: str,
                 category: str, node: str, cpu: int, start: float):
        self.span_id = span_id
        #: None on a serve span whose request carried no trace yet: a
        #: transaction begun inside it adopts it (see ``tx.begin``).
        self.trace_id = trace_id
        self.kind = kind              # "tx" | "rpc" | "serve" | "phase"
        self.name = name
        self.category = category
        self.node = node
        self.cpu = cpu
        self.start = start
        self.end: Optional[float] = None   # None: in flight
        # Most spans are leaves: an empty tuple costs no object.
        self.children: Sequence["Span"] = ()
        self.annotations: Sequence[Any] = ()
        #: the process an rpc span waits in, or a phase span ran in
        self.requester = ""
        #: rpc spans: the request's one-way transit (ms)
        self.transit = 0.0
        self.hop = 0
        if parent is not None:
            self.hop = parent.hop + 1
            if parent.children:
                parent.children.append(self)
            else:
                parent.children = [self]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.span_id} {self.kind} {self.name!r} "
            f"{self.start}..{self.end}>"
        )


class Window:
    """A transaction's life: from ``tx.begin`` to its first ``tx.end``."""

    __slots__ = ("begin", "end", "outcome", "root")

    def __init__(self, begin: float, root: Span):
        self.begin = begin
        self.end: Optional[float] = None   # None: still open
        self.outcome: Optional[str] = None
        self.root = root                   # the span tx.begin rooted


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
            if span.kind == "serve":
                label = f"{where}.{span.name} cpu{span.cpu}"
            elif span.kind == "phase":
                label = f"{span.name} ({span.category})"
            else:
                label = span.name
            lines.append(f"{pad}[{span.kind}] {label} {span.start:.2f}..{end}")
            for record in span.annotations:
                lines.append(f"{pad}    · {record.time:.2f} {record.kind}")
            for child in span.children:
                if child.trace_id == self.transid:
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
        # trace_id -> the spans with no parent in the trace (the others
        # hang below them), and the trace's records emitted outside any
        # span, in stream order.
        self._roots: Dict[str, List[Span]] = {}
        self._loose: Dict[str, List[Any]] = {}
        #: trace_id -> the transaction's window
        self.windows: Dict[str, Window] = {}
        #: phase name -> ms of phase notes that fell in no open window
        self.background: Dict[str, float] = {}
        #: on a measured run, the XRAY registry: it takes the stream's
        #: histogram samples and folds each window as it closes
        self.metrics: Any = None
        self._notes = {
            "tx.begin": self._adopt,
            "tx.end": self._close,
            "phase": self._phase,
            "observe": self._observe,
            "rpc.send": self._send,
            "rpc.done": self._rpc_done,
            "serve.begin": self._serve_begin,
            "serve.end": self._serve_end,
        }
        env.probe.subscribe(self._on_record)

    # ------------------------------------------------------------------
    def _on_record(self, record: Any) -> None:
        kind = record.kind
        handler = self._notes.get(kind)
        if handler is not None:
            handler(record)
            return
        fields = record.fields
        if kind == "watchdog.alarm":
            transid = fields.get("transid")
            if transid is not None:
                self._loose.setdefault(transid, []).append(record)
            return
        # Domain record: attribute to the emitting span when one is
        # active, else to the record's own transid field when present.
        span = self._current()
        if span is not None and span.trace_id is not None:
            if span.annotations:
                span.annotations.append(record)
            else:
                span.annotations = [record]
            return
        transid = fields.get("transid")
        if isinstance(transid, str):
            self._loose.setdefault(transid, []).append(record)

    def _current(self) -> Optional[Span]:
        """The span bound to the currently executing process."""
        proc = self.env.active_process
        return self._active.get(proc) if proc is not None else None

    def _open(self, parent: Optional[Span], trace_id: Optional[str],
              kind: str, name: str, category: str, node: str, cpu: int,
              start: float) -> Span:
        """A new span: under ``parent`` when that is in its trace, else
        one of its trace's roots (none for a span with no trace yet)."""
        if parent is not None and parent.trace_id != trace_id:
            parent = None
        span = Span(next(self._span_ids), parent, trace_id, kind, name,
                    category, node, cpu, start)
        if parent is None and trace_id is not None:
            self._roots.setdefault(trace_id, []).append(span)
        return span

    # ------------------------------------------------------------------
    # Transaction notes
    # ------------------------------------------------------------------
    def _adopt(self, record: Any) -> None:
        """``tx.begin``: root the executing process's work at the transid.

        A serve span (a TCP unit, first run or restarted) is re-labelled
        and becomes the root.  Otherwise (a driver process that holds no
        span or a previous transaction's) a fresh root "tx" span opens,
        so the commit fan-out still hangs off one root.  The begin opens
        the transaction's window.
        """
        trace_id = str(record.fields["transid"])
        proc = self.env.active_process
        span = self._current()
        if span is not None and span.kind == "serve":
            span.trace_id = trace_id
            self._roots.setdefault(trace_id, []).append(span)
        else:
            span = self._open(None, trace_id, "tx", "begin-transaction",
                              "unattributed", "", 0, record.time)
            if proc is not None:
                self._active[proc] = span
        self.windows[trace_id] = Window(record.time, span)

    def _close(self, record: Any) -> None:
        """``tx.end``: the first settler closes the window (and a tx
        root, which has no end of its own); later settlers, the other
        participants of a distributed transaction, do not."""
        fields = record.fields
        trace_id = str(fields["transid"])
        window = self.windows.get(trace_id)
        if window is None or window.end is not None:
            return
        window.end = record.time
        window.outcome = fields["outcome"]
        if window.root.kind == "tx":
            window.root.end = record.time
        if self.metrics is not None:
            self.metrics.fold_window(trace_id, window)

    def _observe(self, record: Any) -> None:
        """``observe``: one histogram sample, for the registry."""
        if self.metrics is not None:
            self.metrics.sample(record.fields["name"], record.fields["value"])

    def _phase(self, record: Any) -> None:
        """``phase``: a leaf span for a timed phase that ends now.

        It goes under the emitting process's span, else under the root
        of its transid.  Phase time outside every open window (before a
        transaction began, after it ended, or with no transaction at
        all) is also summed by name in ``background``.  A phase that
        names a histogram is one sample of it.
        """
        fields = record.fields
        start = fields["start"]
        end = record.time
        if self.metrics is not None:
            histogram = fields.get("histogram")
            if histogram is not None:
                self.metrics.sample(histogram, end - start)
        if end <= start:
            return
        parent = self._current()
        if parent is not None and parent.trace_id is not None:
            trace_id: Optional[str] = parent.trace_id
            window = self.windows.get(trace_id)
        else:
            transid = fields["transid"]
            trace_id = str(transid) if transid is not None else None
            window = self.windows.get(trace_id)
            parent = window.root if window is not None else None
        if window is None or window.end is not None:
            name = fields["name"]
            self.background[name] = self.background.get(name, 0.0) + end - start
        if parent is None:
            return
        span = self._open(parent, trace_id, "phase", fields["name"],
                          fields["category"], parent.node, parent.cpu, start)
        span.end = end
        span.requester = parent.name if parent.kind == "serve" else parent.requester

    # ------------------------------------------------------------------
    # Boundary notes
    # ------------------------------------------------------------------
    def _send(self, record: Any) -> None:
        """``rpc.send``: open the request's span and stamp it on the message.

        The trace id is the message's transid, else its payload's (TMP
        protocol messages), else the sender's active span's; a message
        with none is background chatter and stays untraced.  The span's
        category is the medium the request crosses.
        """
        fields = record.fields
        message = fields["message"]
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
        span = self._open(
            parent, trace_id, "rpc", f"{message.dest_node}.{message.dest_name}",
            fields["medium"], message.source_node, message.source_cpu,
            record.time,
        )
        span.requester = message.source_name
        span.transit = fields["transit"]
        message.trace_ctx = span

    def _rpc_done(self, record: Any) -> None:
        """``rpc.done``: the requester-observed end (reply/error/kill)."""
        span = record.fields["message"].trace_ctx
        if span is not None:
            span.end = record.time

    def _serve_begin(self, record: Any) -> None:
        """``serve.begin``: open a serve span, child of the send span.

        Opened even for an untraced message (no trace yet): a
        transaction begun inside the handler adopts it.
        """
        fields = record.fields
        message = fields["message"]
        sent = message.trace_ctx
        span = self._open(
            sent, sent.trace_id if sent is not None else None, "serve",
            fields["proc"], "unattributed", fields["node"], fields["cpu"],
            record.time,
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
        span.end = record.time
        proc = self.env.active_process
        if proc is not None and self._active.get(proc) is span:
            del self._active[proc]

    # ------------------------------------------------------------------
    def trace_ids(self) -> List[str]:
        return sorted(self._roots.keys() | self._loose.keys())

    def has_trace(self, transid: Any) -> bool:
        trace_id = str(transid)
        return trace_id in self._roots or trace_id in self._loose

    def forest(self, transid: Any) -> List[Span]:
        """The roots of ``transid``'s span tree, as linked so far."""
        return self._roots.get(str(transid), [])

    def trace_of(self, transid: Any) -> TransactionTrace:
        """The assembled tree of ``transid`` (str or Transid): its spans,
        each one's children in start order, and the records emitted in
        each span pinned to it.

        Its spans are the roots and, below them, the spans opened in the
        trace: a serve span re-labelled by a restarted unit's new
        transaction keeps the old one's children, which stay theirs.
        """
        trace_id = str(transid)
        roots = sorted(self.forest(trace_id), key=_start)
        spans: List[Span] = []
        stack = list(roots)
        while stack:
            span = stack.pop()
            spans.append(span)
            if len(span.children) > 1:
                span.children.sort(key=_start)
            stack.extend(c for c in span.children if c.trace_id == trace_id)
        spans.sort(key=_start)
        return TransactionTrace(
            trace_id, roots, spans, list(self._loose.get(trace_id, ()))
        )

    def traces(self) -> List[TransactionTrace]:
        """Every assembled trace, ordered by trace id."""
        return [self.trace_of(trace_id) for trace_id in self.trace_ids()]


_start = attrgetter("start", "span_id")
