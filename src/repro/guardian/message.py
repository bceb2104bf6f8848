"""The message system: location-transparent interprocess requests.

"All communications between processes is via messages.  The Message
System makes the physical distribution of hardware components
transparent to processes."  (paper, §The Tandem Operating System)

A *request* is delivered to a named destination process (same CPU, other
CPU over the interprocessor bus, or another node over the network) and
produces exactly one *reply* or one error:

* :class:`ProcessUnavailable` — no live process is registered under the
  destination name (e.g. both halves of a process-pair are down);
* :class:`ProcessDied` — the destination died after receiving the
  request but before replying (its CPU failed mid-operation);
* :class:`PathDown` — no communication path exists (bus pair dead within
  a node; network partition between nodes);
* :class:`RequestTimeout` — no reply within the caller's deadline
  (covers replies lost to a partition that formed mid-flight).

``ProcessDied`` is retried transparently by the file-system layer — that
retry, plus process-pair takeover, is what makes single-module failures
invisible to transaction processing.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, TYPE_CHECKING

from ..hardware import Latencies, Network, NoRoute
from ..sim import Environment, Event, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from .process import NodeOs, OsProcess

__all__ = [
    "Message",
    "MessageSystem",
    "DeliveryError",
    "ProcessUnavailable",
    "ProcessDied",
    "PathDown",
    "RequestTimeout",
]


class DeliveryError(Exception):
    """Base class for message-system failures."""


class ProcessUnavailable(DeliveryError):
    """No live process answers to the destination name."""


class ProcessDied(DeliveryError):
    """The destination died holding this request (no reply will come)."""


class PathDown(DeliveryError):
    """No path of up components connects the endpoints."""


class RequestTimeout(DeliveryError):
    """The caller's reply deadline expired."""


class Message:
    """One request in flight, with its pending reply event."""

    _ids = itertools.count(1)

    def __init__(
        self,
        source_node: str,
        source_name: str,
        dest_node: str,
        dest_name: str,
        payload: Any,
        transid: Any = None,
        msg_id: Optional[int] = None,
    ):
        # ``msg_id`` may be pinned by the caller so that a retried request
        # carries the same identity (duplicate suppression at the server).
        self.msg_id = msg_id if msg_id is not None else next(Message._ids)
        self.source_node = source_node
        self.source_name = source_name
        self.dest_node = dest_node
        self.dest_name = dest_name
        self.payload = payload
        self.transid = transid
        self.reply_event: Optional[Event] = None
        self.replied = False
        #: the requester's reply timeout (ms), and the simulated time it
        #: expires at once the request is delivered.
        self.timeout: Optional[float] = None
        self.deadline = float("inf")
        self.source_cpu = 0
        self.dest_cpu = 0
        #: trace context stamped by the TraceHub on traced runs (None on
        #: untraced runs and on untraced background chatter).
        self.trace_ctx: Optional[Any] = None

    def __repr__(self) -> str:
        return (
            f"<Message #{self.msg_id} {self.source_node}.{self.source_name} -> "
            f"{self.dest_node}.{self.dest_name} transid={self.transid}>"
        )


class MessageSystem:
    """Routes requests between processes anywhere in the cluster."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        latencies: Optional[Latencies] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.env = env
        self.network = network
        self.latencies = latencies or Latencies()
        self.tracer = tracer
        self._node_os: Dict[str, "NodeOs"] = {}

    def register_node(self, node_os: "NodeOs") -> None:
        self._node_os[node_os.node.name] = node_os

    def node_os(self, node_name: str) -> "NodeOs":
        return self._node_os[node_name]

    # ------------------------------------------------------------------
    # Latency / reachability
    # ------------------------------------------------------------------
    def _transit_latency(
        self, source_node: str, source_cpu: int, dest_node: str, dest_cpu: int
    ) -> float:
        """One-way latency, or raise :class:`PathDown`.

        Also the accounting point for what the transit occupies: a local
        message is CPU work on the sender; an intra-node message holds
        an interprocessor bus for its duration.
        """
        metrics = self.env.metrics
        if source_node == dest_node:
            node = self._node_os[source_node].node
            if source_cpu == dest_cpu:
                latency = self.latencies.local_message
                node.cpus[source_cpu].charge(latency)
                if metrics is not None and metrics.enabled:
                    metrics.inc("msg.local")
                return latency
            if not node.buses.any_up:
                raise PathDown(f"both interprocessor buses down on {source_node}")
            latency = self.latencies.bus_message
            node.buses.record_transfer(latency)
            if metrics is not None and metrics.enabled:
                metrics.inc("msg.bus")
            return latency
        try:
            latency = self.network.latency(source_node, dest_node)
        except NoRoute as exc:
            raise PathDown(str(exc)) from exc
        if metrics is not None and metrics.enabled:
            metrics.inc("msg.network")
        return latency

    def reachable(self, source_node: str, dest_node: str) -> bool:
        if source_node == dest_node:
            return self._node_os[source_node].node.alive
        return self.network.connected(source_node, dest_node)

    # ------------------------------------------------------------------
    # Request / reply
    # ------------------------------------------------------------------
    def request(
        self,
        caller: "OsProcess",
        dest_node: str,
        dest_name: str,
        payload: Any,
        transid: Any = None,
        timeout: Optional[float] = None,
        msg_id: Optional[int] = None,
    ):
        """Send a request and wait for its reply.  (Generator helper.)

        Returns the reply payload; raises a :class:`DeliveryError` on
        failure.  Use as ``reply = yield from ms.request(...)``.

        The requester yields once, on the reply event.  The transit
        timer's callback delivers the request (:meth:`_deliver`), and
        :meth:`reply` schedules the reply event to land after the
        reply's own transit: a request costs two engine events, plus
        one pop of the deadline timer when there is a timeout.
        """
        message = Message(
            source_node=caller.node_name,
            source_name=caller.name,
            dest_node=dest_node,
            dest_name=dest_name,
            payload=payload,
            transid=transid,
            msg_id=msg_id,
        )
        # Causal tracing: allocate the request's span as a child of the
        # sender's active context and stamp it onto the message, so the
        # serving side (possibly on another node) can link up.
        hub = self.env.trace
        trace_ctx = hub.on_send(message, caller.cpu.number) if hub is not None else None
        try:
            # The destination is resolved twice: here for the transit
            # accounting, and again on arrival, since it may die or take
            # over while the request is in flight.
            pre_target = self._node_os[dest_node].lookup(dest_name)
            transit = self._transit_latency(
                caller.node_name,
                caller.cpu.number,
                dest_node,
                pre_target.cpu.number if pre_target is not None else 0,
            )
            self._count(caller.node_name, dest_node)
            message.source_cpu = caller.cpu.number
            message.timeout = timeout
            reply_event = message.reply_event = Event(self.env)
            self.env.timeout(transit, message).callbacks.append(self._deliver)
            reply = yield reply_event
            return reply
        finally:
            # The requester-observed end of the span: reply, error, or
            # the caller's death (GeneratorExit runs this too).
            if trace_ctx is not None:
                hub.on_rpc_done(trace_ctx)

    def _deliver(self, transit: Event) -> None:
        """Transit timer callback: hand the request to its destination."""
        message: Message = transit._value
        event = message.reply_event
        if not event.callbacks:
            # The requester died in transit: nobody is left to answer.
            return
        target = self._node_os[message.dest_node].lookup(message.dest_name)
        if target is None:
            event.fail(ProcessUnavailable(f"{message.dest_node}.{message.dest_name}"))
            return
        message.dest_cpu = target.cpu.number
        timeout = message.timeout
        if timeout is not None:
            message.deadline = self.env.now + timeout
            self.env.timeout(timeout, message).callbacks.append(self._expire)
        target.accept(message)

    def _expire(self, deadline: Event) -> None:
        """Deadline timer callback: fail a reply that has not been sent."""
        message: Message = deadline._value
        event = message.reply_event
        if not event.triggered:
            event.fail(RequestTimeout(f"{message!r} after {message.timeout}ms"))

    def reply(self, message: Message, payload: Any) -> None:
        """Deliver the reply to ``message``.  Callable from handlers.

        The reply transits the same media as the request and lands as
        the reply event, scheduled here.  If no path exists at reply
        time (partition formed mid-request) the reply is dropped and the
        requester's timeout fires — the end-to-end protocol's job is
        exactly to surface that as an error.  A reply that would land at
        or after the requester's deadline is dropped too: the timeout
        wins a tie.
        """
        if message.replied:
            # The request was already answered — usually failed with
            # ProcessDied after a CPU failure while a sub-handler was
            # still finishing.  The requester has moved on (retried);
            # this late reply is dropped like a stale network packet.
            return
        message.replied = True
        event = message.reply_event
        if event is None:
            return
        try:
            delay = self._transit_latency(
                message.dest_node,
                message.dest_cpu,
                message.source_node,
                message.source_cpu,
            )
        except PathDown:
            self._trace("reply_lost", message=message.msg_id)
            return
        if event.triggered or self.env.now + delay >= message.deadline:
            return
        event._ok = True
        event._value = payload
        self.env.schedule(event, delay)

    def fail_request(self, message: Message, error: DeliveryError) -> None:
        """Fail the requester (destination died holding the message)."""
        if message.replied:
            return
        message.replied = True
        event = message.reply_event
        if event is None or event.triggered:
            return
        event.fail(error)
        # If the requester died in the same failure (e.g. both processes
        # shared the failed CPU), nobody is left to observe this error;
        # it must not abort the simulation.
        event.defused = True

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _count(self, source_node: str, dest_node: str) -> None:
        if self.tracer is None:
            return
        kind = "msg_local" if source_node == dest_node else "msg_network"
        self.tracer.emit(self.env.now, kind, source=source_node, dest=dest_node)

    def _trace(self, kind: str, **fields: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.env.now, kind, **fields)
