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
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple, TYPE_CHECKING

from ..hardware import Latencies, Network, NoRoute
from ..sim import Environment, Event, SimulationError, Timeout

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


_NEVER = float("inf")


class Message:
    """One request in flight, with its pending reply event."""

    __slots__ = (
        "msg_id", "source_node", "source_name", "dest_node", "dest_name",
        "payload", "transid", "reply_event", "replied", "timeout",
        "deadline", "source_cpu", "dest_cpu", "trace_ctx", "__weakref__",
    )

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
        self.deadline = _NEVER
        self.source_cpu = 0
        self.dest_cpu = 0
        #: the request's span, stamped by a probe subscriber on its
        #: ``rpc.send`` note (the TRACE collector does; None on untraced
        #: runs and on untraced background chatter).
        self.trace_ctx: Optional[Any] = None

    def __repr__(self) -> str:
        return (
            f"<Message #{self.msg_id} {self.source_node}.{self.source_name} -> "
            f"{self.dest_node}.{self.dest_name} transid={self.transid}>"
        )


class _DeadlineQueue:
    """Reply deadlines of delivered requests, behind one engine timer.

    A deadline is queued at delivery in the FIFO of its timeout value.
    Deadlines within one FIFO arrive in key order, so every push drops
    the answered requests at its head and releases their messages.

    One engine entry is armed for the earliest pending deadline.  Its key
    is ``(deadline, seq)``, with ``seq`` reserved at delivery: the key
    a per-request :class:`~repro.sim.Timeout` would have had, so a
    deadline that fires keeps its place among all other events.  An
    entry whose request was answered pops as a no-op and re-arms for the
    next pending deadline; one superseded by a sooner deadline pops as a
    no-op.  When the last pending request is answered, every entry
    becomes a tombstone the engine skips without processing, and the
    armed one is revived by the next delivery while it is still queued.
    An answered request therefore costs no engine event of its own.
    """

    __slots__ = ("env", "_fifos", "_pending", "_live", "_armed", "_armed_at")

    def __init__(self, env: Environment):
        self.env = env
        self._fifos: Dict[float, Deque[Tuple[float, int, Message]]] = {}
        #: queued deadlines whose reply event has not triggered.
        self._pending = 0
        #: entries in the engine queue that still run their callback.
        self._live: Dict[int, Event] = {}
        #: the entry armed for the earliest pending deadline, and its time.
        self._armed: Optional[Event] = None
        self._armed_at = _NEVER

    def push(self, message: Message, timeout: float) -> None:
        """Queue the deadline of ``message``, delivered now."""
        if timeout < 0:
            raise SimulationError(f"negative reply timeout {timeout!r}")
        env = self.env
        deadline = message.deadline = env.now + timeout
        seq = env.reserve_seq()
        fifo = self._fifos.get(timeout)
        if fifo is None:
            fifo = self._fifos[timeout] = deque()
        else:
            while fifo and fifo[0][2].reply_event.triggered:
                fifo.popleft()
        fifo.append((deadline, seq, message))
        self._pending += 1
        armed = self._armed
        # ``seq`` is the newest, so it wins no tie with the armed entry.
        if deadline < self._armed_at:
            self._arm(deadline, seq, timeout)
        elif armed.callbacks is None:
            # A tombstone since the queue last ran empty.
            if self._armed_at > env.now:
                armed.callbacks = [self._pop]
                self._live[armed._value[0]] = armed
            else:
                self._arm(deadline, seq, timeout)

    def answered(self) -> None:
        """A queued request's reply event was triggered by its reply."""
        self._pending -= 1
        if not self._pending:
            self._drain()

    def _drain(self) -> None:
        """Nothing is pending: release every message, disarm every entry."""
        for fifo in self._fifos.values():
            fifo.clear()
        for timer in self._live.values():
            timer.callbacks = None
        self._live.clear()

    def _arm(self, deadline: float, seq: int, timeout: float) -> None:
        timer = self._live.get(seq)
        if timer is None:
            timer = self._live[seq] = Event(self.env)
            timer._ok = True
            timer._value = (seq, timeout)
            timer.callbacks.append(self._pop)
            self.env.schedule_at(timer, deadline, seq)
        self._armed = timer
        self._armed_at = deadline

    def _pop(self, timer: Event) -> None:
        """Engine callback of a live entry: fail the reply if it is due."""
        seq, timeout = timer._value
        del self._live[seq]
        if timer is not self._armed:
            return
        self._armed = None
        self._armed_at = _NEVER
        fifo = self._fifos[timeout]
        # The armed deadline heads its FIFO unless a push dropped it as
        # answered.
        if fifo and fifo[0][1] == seq:
            message = fifo.popleft()[2]
            if not message.reply_event.triggered:
                message.reply_event.fail(
                    RequestTimeout(f"{message!r} after {message.timeout}ms")
                )
                self.answered()
        if self._pending:
            self._rearm()

    def _rearm(self) -> None:
        """Arm the earliest unanswered deadline, dropping answered heads."""
        best: Optional[Tuple[float, int, float]] = None
        for timeout, fifo in self._fifos.items():
            while fifo and fifo[0][2].reply_event.triggered:
                fifo.popleft()
            if fifo:
                deadline, seq, _ = fifo[0]
                if best is None or (deadline, seq) < best[:2]:
                    best = (deadline, seq, timeout)
        self._arm(*best)


class MessageSystem:
    """Routes requests between processes anywhere in the cluster."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        latencies: Optional[Latencies] = None,
    ):
        self.env = env
        self.network = network
        self.latencies = latencies or Latencies()
        self._node_os: Dict[str, "NodeOs"] = {}
        self._deadlines = _DeadlineQueue(env)

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
        an interprocessor bus for its duration.  The ``msg.*`` counts
        are per transit, so a request and its reply count twice; the
        ``msg_local``/``msg_network`` events of :meth:`_count` are per
        request.
        """
        probe = self.env.probe
        if source_node == dest_node:
            node = self._node_os[source_node].node
            if source_cpu == dest_cpu:
                latency = self.latencies.local_message
                node.cpus[source_cpu].charge(latency)
                probe.count("msg.local")
                return latency
            if not node.buses.any_up:
                raise PathDown(f"both interprocessor buses down on {source_node}")
            latency = self.latencies.bus_message
            node.buses.record_transfer(latency)
            probe.count("msg.bus")
            return latency
        try:
            latency = self.network.latency(source_node, dest_node)
        except NoRoute as exc:
            raise PathDown(str(exc)) from exc
        probe.count("msg.network")
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
        reply's own transit: a request costs two engine events.  A
        ``timeout`` adds none while the request is answered in time: its
        deadline waits in the message system's deadline queue, and only
        one that passes unanswered is popped to fail the reply.
        """
        source_node = caller.node_os.node.name
        message = Message(
            source_node, caller.name, dest_node, dest_name, payload, transid,
            msg_id,
        )
        message.source_cpu = caller.cpu.number
        message.timeout = timeout
        probe = self.env.probe
        if not probe.listening:
            reply = yield self._post(message)
            return reply
        reply_event = self._post(message)
        try:
            reply = yield reply_event
            return reply
        finally:
            # The requester-observed end: reply, error, or the caller's
            # death (GeneratorExit runs this too).
            probe.note("rpc.done", message=message)

    def _post(self, message: Message) -> Event:
        """Account the request's transit and start its timer.

        Returns the reply event; raises :class:`PathDown` when no path
        exists.  The destination is resolved twice: here for the
        transit accounting, and again on arrival, since it may die or
        take over while the request is in flight.  While the probe
        listens, the request's ``rpc.send`` note carries its transit and
        the medium it crosses; a subscriber may stamp the request's span
        onto the message (TRACE does), so the serving side, possibly on
        another node, can link up.
        """
        source_node = message.source_node
        dest_node = message.dest_node
        pre_target = self._node_os[dest_node].lookup(message.dest_name)
        dest_cpu = pre_target.cpu.number if pre_target is not None else 0
        transit = self._transit_latency(
            source_node, message.source_cpu, dest_node, dest_cpu
        )
        self._count(source_node, dest_node)
        env = self.env
        reply_event = message.reply_event = Event(env)
        Timeout(env, transit, message).callbacks.append(self._deliver)
        probe = env.probe
        if probe.listening:
            medium = ("network" if source_node != dest_node else
                      "cpu" if message.source_cpu == dest_cpu else "bus")
            probe.note("rpc.send", message=message, transit=transit, medium=medium)
        return reply_event

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
        if message.timeout is not None:
            self._deadlines.push(message, message.timeout)
        target.accept(message)

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
            self.env.probe.emit("reply_lost", message=message.msg_id)
            return
        if event.triggered or self.env.now + delay >= message.deadline:
            return
        event._ok = True
        event._value = payload
        self.env.schedule(event, delay)
        if message.timeout is not None:
            self._deadlines.answered()

    def fail_request(self, message: Message, error: DeliveryError) -> None:
        """Fail the requester (destination died holding the message)."""
        if message.replied:
            return
        message.replied = True
        event = message.reply_event
        if event is None or event.triggered:
            return
        event.fail(error)
        if message.timeout is not None:
            self._deadlines.answered()
        # If the requester died in the same failure (e.g. both processes
        # shared the failed CPU), nobody is left to observe this error;
        # it must not abort the simulation.
        event.defused = True

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _count(self, source_node: str, dest_node: str) -> None:
        kind = "msg_local" if source_node == dest_node else "msg_network"
        probe = self.env.probe
        if probe.recording:
            probe.emit(kind, source=source_node, dest=dest_node)
        else:
            probe.count(kind)
