"""Trace-context propagation: the per-run hub and the context objects.

Dapper-style causal tracing over the simulated stack.  A *trace* is
rooted at a transid (its trace id is ``str(transid)``); every message
the transaction touches carries a :class:`TraceContext` — span id,
parent span id, hop count — which the message system and the serving
layers thread through automatically, so the TCP → server → DISCPROCESS
→ audit → TMP chain is causally linked even across nodes.

The :class:`TraceHub` rides on the environment as ``env.trace`` (the
same null convention as ``env.metrics``): ``None`` on untraced runs,
so every probe site is a single attribute check.  Span ids come from a
per-hub counter — never from the global message/process id counters,
which keep counting across runs in one Python process and would break
byte-identical exports.

This module deliberately imports nothing from the rest of ``repro``
except :mod:`repro.sim` types (duck-typed), so the guardian layer can
construct a hub without import cycles.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

__all__ = ["TraceContext", "TraceHub"]


class TraceContext:
    """The causal coordinates one unit of work carries."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "hop", "kind",
        "node", "proc", "cpu", "start",
    )

    def __init__(
        self,
        trace_id: Optional[str],
        span_id: int,
        parent_id: Optional[int],
        hop: int,
        kind: str,
        node: str = "",
        proc: str = "",
        cpu: int = 0,
        start: float = 0.0,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.hop = hop
        self.kind = kind          # "tx" | "rpc" | "serve"
        self.node = node
        self.proc = proc
        self.cpu = cpu
        self.start = start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceContext {self.kind} trace={self.trace_id} "
            f"span={self.span_id} parent={self.parent_id} hop={self.hop}>"
        )


class TraceHub:
    """Allocates spans and binds contexts to the executing process.

    Emission rides the run's :class:`repro.sim.Probe` (kinds prefixed
    ``trace.``), so trace records interleave with the domain records in
    one ordered stream; the collector subscribes to that stream and
    folds both into per-transaction trees.
    """

    def __init__(self, env: Any):
        self.env = env
        self._span_ids = itertools.count(1)
        # Active context per simulation process.  Entries for serve
        # spans are removed on serve_end; root (tx) contexts live as
        # long as their process object — per-run state, like the probe.
        self._active: Dict[Any, TraceContext] = {}

    # ------------------------------------------------------------------
    # Context lookup / binding
    # ------------------------------------------------------------------
    def current(self) -> Optional[TraceContext]:
        """The context bound to the currently executing process."""
        proc = self.env.active_process
        if proc is None:
            return None
        return self._active.get(proc)

    def next_span_id(self) -> int:
        return next(self._span_ids)

    # ------------------------------------------------------------------
    # Transaction roots
    # ------------------------------------------------------------------
    def adopt(self, transid: Any) -> None:
        """Bind the active context to ``transid`` (BEGIN-TRANSACTION hook).

        Three cases:

        * the executing process already holds a *pending* serve context
          (a TCP unit whose inbound terminal message carried no transid):
          the serve span becomes the transaction's root span;
        * the executing process holds a context from a *previous*
          transaction (a restarted unit, or a driver loop beginning
          transaction after transaction): re-root it — for serve
          contexts by re-labelling, for tx contexts with a fresh span;
        * the executing process holds no context (a raw requester
          process calling ``tmf.begin`` directly): create a root "tx"
          context so the commit fan-out still hangs off one root.
        """
        proc = self.env.active_process
        if proc is None:
            return
        trace_id = str(transid)
        ctx = self._active.get(proc)
        if ctx is not None and ctx.kind == "serve":
            ctx.trace_id = trace_id
            return
        span_id = self.next_span_id()
        self._active[proc] = TraceContext(
            trace_id, span_id, None, 0, "tx", start=self.env.now,
        )
        self.env.probe.emit(
            "trace.root",
            trace_id=trace_id, span=span_id,
        )

    # ------------------------------------------------------------------
    # Requester side (message system)
    # ------------------------------------------------------------------
    def on_send(self, message: Any, source_cpu: int) -> Optional[TraceContext]:
        """Allocate the request's span and stamp it onto the message.

        The trace id comes from, in priority order: the message's
        transid, the payload's ``transid`` attribute (TMP protocol
        messages carry it in the payload), or the sender's active
        context.  A message with none of the three is background chatter
        and stays untraced.
        """
        parent = self.current()
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
            return None
        ctx = TraceContext(
            trace_id,
            self.next_span_id(),
            parent.span_id if parent is not None else None,
            parent.hop + 1 if parent is not None else 0,
            "rpc",
            node=message.source_node,
            proc=message.source_name,
            cpu=source_cpu,
            start=self.env.now,
        )
        message.trace_ctx = ctx
        self.env.probe.emit(
            "trace.send",
            trace_id=trace_id, span=ctx.span_id, parent=ctx.parent_id,
            hop=ctx.hop, source=message.source_node,
            source_proc=message.source_name, source_cpu=source_cpu,
            dest=message.dest_node, dest_proc=message.dest_name,
        )
        return ctx

    def on_rpc_done(self, ctx: TraceContext) -> None:
        """The requester-observed end of a request span (reply/error/kill)."""
        self.env.probe.emit(
            "trace.rpc",
            trace_id=ctx.trace_id, span=ctx.span_id, start=ctx.start,
        )

    # ------------------------------------------------------------------
    # Server side (process-pair sub-handlers, application server loops)
    # ------------------------------------------------------------------
    def serve_begin(
        self, message: Any, node: str, proc_name: str, cpu: int
    ) -> TraceContext:
        """Open a serve span as a child of the message's send span.

        Always returns a context, even when the inbound message is
        untraced (``trace_id`` pending ``None``): a transaction begun
        inside the handler adopts it retroactively (see :meth:`adopt`),
        which is exactly how a TCP's serve span becomes the root of the
        unit's trace.
        """
        send_ctx = getattr(message, "trace_ctx", None)
        ctx = TraceContext(
            send_ctx.trace_id if send_ctx is not None else None,
            self.next_span_id(),
            send_ctx.span_id if send_ctx is not None else None,
            send_ctx.hop + 1 if send_ctx is not None else 0,
            "serve",
            node=node, proc=proc_name, cpu=cpu, start=self.env.now,
        )
        proc = self.env.active_process
        if proc is not None:
            self._active[proc] = ctx
        return ctx

    def serve_end(self, ctx: TraceContext) -> None:
        """Close a serve span; emits nothing for still-pending contexts."""
        proc = self.env.active_process
        if proc is not None and self._active.get(proc) is ctx:
            del self._active[proc]
        if ctx.trace_id is None:
            return
        self.env.probe.emit(
            "trace.serve",
            trace_id=ctx.trace_id, span=ctx.span_id, parent=ctx.parent_id,
            hop=ctx.hop, node=ctx.node, proc=ctx.proc, cpu=ctx.cpu,
            start=ctx.start,
        )
