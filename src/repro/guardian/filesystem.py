"""The File System layer: named sends with transparent retry.

User processes never talk to the message system directly; they go
through the File System, which adds the behaviour the paper relies on:

* **name resolution** — ``$SERVER`` (local) or ``\\NODE.$SERVER``
  (network) destinations, re-resolved on every attempt so a retry finds
  the *new* primary after a process-pair takeover;
* **transparent retry** — a request that dies with its server
  (:class:`ProcessDied`) or finds the name momentarily unregistered
  (mid-takeover) is retried with the *same message id*, letting servers
  suppress duplicates; this is the mechanism behind "recovery from the
  failure of a component such as a primary DISCPROCESS' processor ... is
  handled automatically by the operating system transparently to
  transaction processing";
* **automatic transid propagation** — every request carries the caller's
  current transid, and the first transmission of a transid to a remote
  node first runs the TMP's remote-transaction-begin (a critical-response
  exchange), exactly as §Distributed Transaction Processing describes;
* **fan-out** — :meth:`FileSystem.post_all` posts a list of requests at
  once and joins their replies once (:class:`FanOut`), each request
  retried on its own exactly as :meth:`FileSystem.send` retries one.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple,
)

from ..sim import Event, Timeout
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

    Each request is one :meth:`MessageSystem.request` generator, driven
    without a process: the fan-out starts it (it posts the request and
    yields the reply event), and the reply event's callback resumes it
    with the reply or the error.  So each request keeps what
    :meth:`FileSystem.send` gives it: its own message id, kept across
    the retries of a :class:`ProcessDied` or :class:`ProcessUnavailable`;
    a :class:`PathDown` or :class:`RequestTimeout` as a
    :class:`FileSystemError` in its slot; and its ``rpc.send``/
    ``rpc.done`` notes.  A retry is a timer whose callback re-posts, and
    the last slot filled resumes the joiner inside that step.  A fan-out
    therefore costs the engine events of its requests and nothing more,
    and one request costs what :meth:`send` costs.

    The fan-out holds a callback on every reply event from the moment
    it is posted, because :meth:`MessageSystem._deliver` drops a request
    whose reply event has none ("the requester died").  :meth:`__exit__`
    withdraws them, so a requester killed before its replies arrive
    leaves its undelivered requests undelivered.  A retry is posted from
    its timer's step, where no process runs: a subscriber sees it
    outside the joiner's span.
    """

    __slots__ = (
        "_fs", "_caller", "_timeout", "_requests", "_attempts", "_waiting",
        "_join", "results",
    )

    def __init__(
        self,
        fs: FileSystem,
        caller: OsProcess,
        requests: Sequence[Tuple[str, Any]],
        timeout: Optional[float],
    ):
        self._fs = fs
        self._caller = caller
        self._timeout = timeout
        node = fs.node_name
        #: per request: its destination, parsed, its payload and the
        #: message id all its attempts carry.
        self._requests = [
            (destination, *parse_destination(node, destination), payload,
             next(Message._ids))
            for destination, payload in requests
        ]
        self._attempts = [0] * len(requests)
        #: what each unanswered request waits on: its reply event, with
        #: the request generator to resume, or the delay before its
        #: retry, with None.
        self._waiting: Dict[Event, Tuple[int, Optional[Generator]]] = {}
        #: what the joiner waits on, made when it must wait.
        self._join: Optional[Event] = None
        #: each request's reply or FileSystemError, in request order.
        self.results: List[Any] = [None] * len(requests)
        for index in range(len(requests)):
            self._post(index)

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
            if request is not None:
                request.close()
        self._waiting.clear()

    def join(self) -> Generator:
        """Wait for every reply; return :attr:`results`.  (Generator helper.)"""
        if self._waiting:
            self._join = Event(self._fs.env)
            yield self._join
        return self.results

    # ------------------------------------------------------------------
    def _post(self, index: int) -> None:
        destination, dest_node, dest_name, payload, msg_id = self._requests[index]
        request = self._fs.node_os.message_system.request(
            self._caller, dest_node, dest_name, payload,
            timeout=self._timeout, msg_id=msg_id,
        )
        try:
            event = next(request)
        except PathDown as exc:
            self._settle(index, FileSystemError(destination, exc))
            return
        event.callbacks.append(self._on_event)
        self._waiting[event] = (index, request)

    def _on_event(self, event: Event) -> None:
        """A reply landed, or a retry's delay ended."""
        index, request = self._waiting.pop(event)
        if request is None:
            self._post(index)
            return
        fs = self._fs
        destination = self._requests[index][0]
        attempts = self._attempts[index] + 1
        try:
            if event._ok:
                request.send(event._value)
            else:
                event.defused = True
                request.throw(event._value)
        except StopIteration as stop:
            if attempts > 1:
                fs.env.probe.emit("send_retried_ok", attempts=attempts)
            self._settle(index, stop.value)
        except (ProcessDied, ProcessUnavailable) as exc:
            fs._trace("send_retry", destination=destination, error=type(exc).__name__)
            if attempts < fs.MAX_RETRIES:
                self._attempts[index] = attempts
                retry = Timeout(fs.env, fs.RETRY_DELAY)
                retry.callbacks.append(self._on_event)
                self._waiting[retry] = (index, None)
            else:
                self._settle(index, FileSystemError(destination, exc))
        except (PathDown, RequestTimeout) as exc:
            self._settle(index, FileSystemError(destination, exc))

    def _settle(self, index: int, result: Any) -> None:
        self.results[index] = result
        join = self._join
        if not self._waiting and join is not None and join.callbacks:
            # The last reply: resume the joiner in this step.
            join.succeed_inline(self.results)
