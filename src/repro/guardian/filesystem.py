"""The File System layer: named sends with transparent retry.

User processes never talk to the message system directly; they go
through the File System, which adds the behaviour the paper relies on:

* **name resolution** — ``$SERVER`` (local) or ``\\NODE.$SERVER``
  (network) destinations, re-resolved on every attempt so a retry finds
  the *new* primary after a process-pair takeover;
* **transparent retry** — a request that dies with its server
  (:class:`ProcessDied`) or finds the name momentarily unregistered
  (mid-takeover) is retried with the *same message id*.  The server
  half is :class:`~repro.guardian.pair.ProcessPair`'s: it sends every
  reply, keeps the checkpointed replies of completed operations (the
  newest ``REPLY_RETENTION``) and answers a retried id from that record
  instead of serving it again.  This is the mechanism behind "recovery
  from the failure of a component such as a primary DISCPROCESS'
  processor ... is handled automatically by the operating system
  transparently to transaction processing";
* **automatic transid propagation** — every request carries the caller's
  current transid, and the first transmission of a transid to a remote
  node first runs the TMP's remote-transaction-begin (a critical-response
  exchange), exactly as §Distributed Transaction Processing describes;
* **fan-out** — :meth:`FileSystem.post_all` posts a list of requests at
  once and joins their replies once (:class:`FanOut`), each request
  its own :meth:`FileSystem.send`, retries and all.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple,
)

from ..sim import Event
from .message import (
    DeliveryError,
    Message,
    PathDown,
    ProcessDied,
    ProcessUnavailable,
    RequestTimeout,
)
from .process import NodeOs, OsProcess

__all__ = ["FanOut", "FileSystem", "FileSystemError", "parse_destination"]

# A transid exporter: generator called as
#   yield from exporter(caller, transid, dest_node)
# raising on failure (remote begin rejected / unreachable).
TransidExporter = Callable[[OsProcess, Any, str], Generator]


class FileSystemError(Exception):
    """A send failed permanently (after retries)."""

    def __init__(self, destination: str, cause: Exception):
        super().__init__(f"send to {destination} failed: {cause}")
        self.destination = destination
        self.cause = cause


def parse_destination(default_node: str, destination: str) -> Tuple[str, str]:
    r"""Split ``$NAME`` or ``\NODE.$NAME`` into (node, process-name)."""
    if destination.startswith("\\"):
        node, _, name = destination[1:].partition(".")
        if not node or not name:
            raise ValueError(f"malformed network name {destination!r}")
        return node, name
    return default_node, destination


class FileSystem:
    """Per-node File System instance."""

    #: attempts made when the destination died or is mid-takeover
    MAX_RETRIES = 5
    #: delay between attempts (ms) — covers the takeover window
    RETRY_DELAY = 2.0

    def __init__(self, node_os: NodeOs):
        self.node_os = node_os
        self.env = node_os.env
        self.transid_exporter: Optional[TransidExporter] = None

    @property
    def node_name(self) -> str:
        return self.node_os.node.name

    def send(
        self,
        caller: OsProcess,
        destination: str,
        payload: Any,
        transid: Any = None,
        timeout: Optional[float] = None,
    ) -> Generator:
        """Send a request and return the reply.  (Generator helper.)

        Raises :class:`FileSystemError` when delivery fails permanently,
        after transparent retries over process-pair takeovers.
        """
        dest_node, dest_name = parse_destination(self.node_name, destination)
        if (
            transid is not None
            and dest_node != self.node_name
            and self.transid_exporter is not None
        ):
            yield from self.transid_exporter(caller, transid, dest_node)
        # One message identity across all attempts: the server-side
        # duplicate-suppression key.
        message_id = next(Message._ids)
        last_error: Optional[Exception] = None
        for attempt in range(self.MAX_RETRIES):
            if attempt:
                yield self.env.timeout(self.RETRY_DELAY)
            try:
                reply = yield from self.node_os.message_system.request(
                    caller,
                    dest_node,
                    dest_name,
                    payload,
                    transid=transid,
                    timeout=timeout,
                    msg_id=message_id,
                )
                if attempt:
                    self.env.probe.emit("send_retried_ok", attempts=attempt + 1)
                return reply
            except (ProcessDied, ProcessUnavailable) as exc:
                # The server (or its CPU) died mid-request, or the pair is
                # mid-takeover.  Retry against the re-resolved name with
                # the same message id so the new primary can suppress a
                # duplicate of an operation the old primary completed.
                last_error = exc
                self._trace("send_retry", destination=destination, error=type(exc).__name__)
                continue
            except (PathDown, RequestTimeout) as exc:
                raise FileSystemError(destination, exc) from exc
        raise FileSystemError(destination, last_error or DeliveryError("unknown"))

    def post_all(
        self,
        caller: OsProcess,
        requests: Sequence[Tuple[str, Any]],
        timeout: Optional[float] = None,
    ) -> "FanOut":
        """Post every ``(destination, payload)`` request now.

        Use as ``with fs.post_all(...) as fan: ...; replies = yield from
        fan.join()``: the caller may do other work between the post and
        the join.  Leaving the block unjoined (the caller was killed, or
        raised) withdraws the requests still undelivered.  Requests carry
        no transid, so no transid is exported.
        """
        return FanOut(self, caller, requests, timeout)

    def send_all(
        self,
        caller: OsProcess,
        requests: Sequence[Tuple[str, Any]],
        timeout: Optional[float] = None,
    ) -> Generator:
        """Send every request at once; return each reply or error in order.

        A list with one entry per request: its reply, or the
        :class:`FileSystemError` :meth:`send` would have raised.  No
        request or a single one skips the fan-out's bookkeeping: the
        single one is a plain :meth:`send`.  (Generator helper.)
        """
        if len(requests) > 1:
            with self.post_all(caller, requests, timeout) as fan:
                replies = yield from fan.join()
            return replies
        replies = []
        for destination, payload in requests:
            try:
                reply = yield from self.send(
                    caller, destination, payload, timeout=timeout
                )
            except FileSystemError as exc:
                reply = exc
            replies.append(reply)
        return replies

    def _trace(self, kind: str, **fields: Any) -> None:
        self.env.probe.emit(kind, node=self.node_name, **fields)


class FanOut:
    """Requests posted at once and joined once (:meth:`FileSystem.post_all`).

    Each request is one :meth:`FileSystem.send` generator, driven
    without a process: the fan-out starts it (it posts the request and
    yields the reply event), and each event it yields resumes it from
    that event's callback.  So each request gets exactly what
    :meth:`FileSystem.send` gives one: its own message id, kept across
    the retries of a :class:`ProcessDied` or :class:`ProcessUnavailable`;
    a :class:`FileSystemError` in its slot when it fails for good; and
    its ``rpc.send``/``rpc.done`` notes.  The last slot filled resumes
    the joiner inside that step.  A fan-out therefore costs the engine
    events of its requests and nothing more, and one request costs what
    :meth:`send` costs.

    The fan-out holds a callback on every reply event from the moment
    it is posted, because :meth:`MessageSystem._deliver` drops a request
    whose reply event has none ("the requester died").  :meth:`__exit__`
    withdraws them, so a requester killed before its replies arrive
    leaves its undelivered requests undelivered.  A retry is posted from
    its timer's step, where no process runs: a subscriber sees it
    outside the joiner's span.
    """

    __slots__ = ("_env", "_waiting", "_join", "results")

    def __init__(
        self,
        fs: FileSystem,
        caller: OsProcess,
        requests: Sequence[Tuple[str, Any]],
        timeout: Optional[float],
    ):
        self._env = fs.env
        #: what each unanswered request waits on: the event its send
        #: generator yielded last, with its slot and that generator.
        self._waiting: Dict[Event, Tuple[int, Generator]] = {}
        #: what the joiner waits on, made when it must wait.
        self._join: Optional[Event] = None
        #: each request's reply or FileSystemError, in request order.
        self.results: List[Any] = [None] * len(requests)
        for index, (destination, payload) in enumerate(requests):
            request = fs.send(caller, destination, payload, timeout=timeout)
            self._advance(index, request, request.send, None)

    def __enter__(self) -> "FanOut":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Withdraw every request still unanswered."""
        for event, (_index, request) in self._waiting.items():
            callbacks = event.callbacks
            if callbacks is not None:
                callbacks.remove(self._on_event)
                if not callbacks:
                    event.defused = True
            request.close()
        self._waiting.clear()

    def join(self) -> Generator:
        """Wait for every reply; return :attr:`results`.  (Generator helper.)"""
        if self._waiting:
            self._join = Event(self._env)
            yield self._join
        return self.results

    # ------------------------------------------------------------------
    def _on_event(self, event: Event) -> None:
        """What a request waited on landed: its reply, or a retry's delay."""
        index, request = self._waiting.pop(event)
        if event._ok:
            self._advance(index, request, request.send, event._value)
        else:
            event.defused = True
            self._advance(index, request, request.throw, event._value)

    def _advance(self, index: int, request: Generator, step: Callable,
                 value: Any) -> None:
        """Resume ``request`` by ``step(value)``; park it or fill its slot."""
        try:
            event = step(value)
        except StopIteration as stop:
            self._settle(index, stop.value)
            return
        except FileSystemError as exc:
            self._settle(index, exc)
            return
        event.callbacks.append(self._on_event)
        self._waiting[event] = (index, request)

    def _settle(self, index: int, result: Any) -> None:
        self.results[index] = result
        join = self._join
        if not self._waiting and join is not None and join.callbacks:
            # The last reply: resume the joiner in this step.
            join.succeed_inline(self.results)
