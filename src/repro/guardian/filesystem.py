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
  exchange), exactly as §Distributed Transaction Processing describes.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Tuple

from .message import (
    DeliveryError,
    Message,
    PathDown,
    ProcessDied,
    ProcessUnavailable,
    RequestTimeout,
)
from .process import NodeOs, OsProcess

__all__ = ["FileSystem", "FileSystemError", "parse_destination"]

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

    def _trace(self, kind: str, **fields: Any) -> None:
        self.env.probe.emit(kind, node=self.node_name, **fields)
