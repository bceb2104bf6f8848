"""Application server classes and Pathway-style control.

"The ENCOMPASS user provides a set of application program modules, known
as application 'server' programs, which access and update data base
files ...  The structure of an application server program is simple and
single-threaded: (1) read the transaction request message; (2) perform
the data base function requested; (3) reply.  A server must be 'context
free' in the sense that it retains no memory from the servicing of one
request to the next."  (paper, §Transaction Flow and Application Control)

A :class:`ServerClass` manages N identical single-threaded server
processes; requesters address the class and are routed round-robin over
live instances.  :class:`PathwayMonitor` implements the paper's
"dynamic creation and deletion of application server processes to
ensure good response time" — it grows the class when inboxes back up
and shrinks it when they idle.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional

from ..discprocess import FileClient, LockTimeoutError
from ..guardian import Message, NodeOs, OsProcess

__all__ = ["ServerContext", "ServerClass", "PathwayMonitor", "GrowRefused"]

#: queued requests per live instance at which Pathway adds an instance.
GROW_THRESHOLD = 3

# A server handler: generator function (ctx, payload) -> reply payload.
ServerHandler = Callable[["ServerContext", Any], Generator]


class GrowRefused(RuntimeError):
    """A server class cannot add an instance.

    ``reason`` is ``"max_instances"`` (the class is at its limit) or
    ``"no_cpu"`` (no CPU of the node is up).
    """

    def __init__(self, server_class: str, reason: str):
        super().__init__(f"{server_class}: cannot add an instance ({reason})")
        self.reason = reason


class ServerContext:
    """What a (context-free) server handler may use for one request.

    Data base operations are bound to the request's transid, so the
    server never manipulates transaction identity explicitly — exactly
    the paper's "the terminal's current transid becomes the current
    process transid for the application process".
    """

    def __init__(self, proc: OsProcess, client: FileClient, message: Message):
        self._proc = proc
        self._client = client
        self._message = message
        self.transid = message.transid

    # -- data base verbs (transid attached automatically) ---------------
    def read(self, file_name: str, key: Any, lock: bool = False, lock_timeout: float = 400.0) -> Generator:
        record = yield from self._client.read(
            self._proc, file_name, key, transid=self.transid, lock=lock,
            lock_timeout=lock_timeout,
        )
        return record

    def insert(self, file_name: str, record: Any) -> Generator:
        key = yield from self._client.insert(
            self._proc, file_name, record, transid=self.transid
        )
        return key

    def update(self, file_name: str, record: Any) -> Generator:
        yield from self._client.update(
            self._proc, file_name, record, transid=self.transid
        )

    def delete(self, file_name: str, key: Any) -> Generator:
        record = yield from self._client.delete(
            self._proc, file_name, key, transid=self.transid
        )
        return record

    def scan(self, file_name: str, low: Any = None, high: Any = None, limit: Optional[int] = None) -> Generator:
        rows = yield from self._client.scan(
            self._proc, file_name, low, high, limit, transid=self.transid
        )
        return rows

    def read_via_index(self, file_name: str, field: str, value: Any) -> Generator:
        records = yield from self._client.read_via_index(
            self._proc, file_name, field, value, transid=self.transid
        )
        return records

    def append_entry(self, file_name: str, record: Any) -> Generator:
        esn = yield from self._client.append_entry(
            self._proc, file_name, record, transid=self.transid
        )
        return esn

    def read_slot(self, file_name: str, record_number: int, lock: bool = False) -> Generator:
        record = yield from self._client.read_slot(
            self._proc, file_name, record_number, transid=self.transid, lock=lock
        )
        return record

    def write_slot(self, file_name: str, record_number: int, record: Any) -> Generator:
        old = yield from self._client.write_slot(
            self._proc, file_name, record_number, record, transid=self.transid
        )
        return old

    def send(self, destination: str, payload: Any, timeout: float = 5000.0) -> Generator:
        """Server-to-server request (carries the transid onward)."""
        reply = yield from self._client.filesystem.send(
            self._proc, destination, payload, transid=self.transid, timeout=timeout
        )
        return reply

    def pause(self, delay: float) -> Generator:
        yield self._proc.env.timeout(delay)


class ServerClass:
    """A named class of identical, single-threaded application servers."""

    def __init__(
        self,
        node_os: NodeOs,
        name: str,
        handler: ServerHandler,
        client: FileClient,
        instances: int = 1,
        cpus: Optional[List[int]] = None,
        max_instances: int = 16,
    ):
        if not name.startswith("$"):
            raise ValueError("server class names start with '$'")
        self.node_os = node_os
        self.env = node_os.env
        self.name = name
        self.handler = handler
        self.client = client
        self.cpus = cpus
        self.max_instances = max_instances
        self._instances: List[OsProcess] = []
        # Instance numbers are never reused: a dead instance's successor
        # must not take a number a live one still holds.
        self._numbers = itertools.count(1)
        self._rr = itertools.count()
        self.requests_served = 0
        for _ in range(instances):
            self.add_instance()

    # ------------------------------------------------------------------
    def _pick_cpu(self) -> int:
        if self.cpus:
            alive = [n for n in self.cpus if self.node_os.node.cpus[n].up]
            if alive:
                return alive[len(self._instances) % len(alive)]
        cpu = self.node_os.pick_cpu()
        if cpu is None:
            raise GrowRefused(self.name, "no_cpu")
        return cpu

    def add_instance(self) -> OsProcess:
        """Dynamic server-process creation (Pathway)."""
        if len(self.live_instances()) >= self.max_instances:
            raise GrowRefused(self.name, "max_instances")
        instance_name = f"{self.name}-{next(self._numbers)}"
        proc = self.node_os.spawn(instance_name, self._pick_cpu(), self._serve)
        self._instances.append(proc)
        self.env.probe.emit("server_created", server_class=self.name, instance=instance_name)
        return proc

    def remove_instance(self) -> bool:
        """Dynamic server-process deletion (idle shrink)."""
        live = self.live_instances()
        if len(live) <= 1:
            return False
        victim = live[-1]
        victim.kill("pathway shrink")
        self.env.probe.emit("server_deleted", server_class=self.name, instance=victim.name)
        return True

    def live_instances(self) -> List[OsProcess]:
        self._instances = [p for p in self._instances if p.alive]
        return list(self._instances)

    def pick_instance(self) -> Optional[str]:
        """Round-robin routing over live instances."""
        live = self.live_instances()
        if not live:
            return None
        return live[next(self._rr) % len(live)].name

    def queue_depth(self) -> int:
        return sum(len(p.inbox) for p in self.live_instances())

    # ------------------------------------------------------------------
    def _serve(self, proc: OsProcess) -> Generator:
        """The single-threaded server loop: read, perform, reply."""
        while True:
            message = yield from proc.receive()
            context = ServerContext(proc, self.client, message)
            handle_start = self.env.now
            # Each request is served between two notes (one serve span
            # for TRACE, on the instance's own track: the loop serves one
            # request at a time).
            probe = self.env.probe
            listening = probe.listening
            if listening:
                probe.note(
                    "serve.begin", message=message, node=self.node_os.node.name,
                    proc=proc.name, cpu=proc.cpu.number,
                )
            try:
                reply = yield from self.handler(context, message.payload)
            except LockTimeoutError:
                # "In case the timeout occurs, [the server] would recover
                # from a possible deadlock by replying to the SEND with an
                # error result indicating that the Screen COBOL program
                # should call RESTART-TRANSACTION."
                proc.reply(message, {"ok": False, "error": "lock_timeout"})
                continue
            # Deliberately broad: the handler is user code (the Screen
            # COBOL program's server half), and whatever it raises must
            # become a server_error reply — the server class survives and
            # the requester decides whether to restart the transaction.
            except Exception as exc:  # noqa: BLE001 - surfaced to requester
                proc.reply(message, {"ok": False, "error": "server_error",
                                     "detail": f"{type(exc).__name__}: {exc}"})
                continue
            finally:
                if listening:
                    probe.note("serve.end", message=message)
            self.requests_served += 1
            probe.count("server.requests")
            if listening:
                probe.note(
                    "observe", name="server.handle_ms",
                    value=self.env.now - handle_start,
                )
            proc.reply(message, reply if reply is not None else {"ok": True})


class PathwayMonitor:
    """Grows/shrinks server classes to track load (application control)."""

    def __init__(
        self,
        node_os: NodeOs,
        server_classes: List[ServerClass],
        interval: float = 100.0,
    ):
        self.node_os = node_os
        self.env = node_os.env
        self.server_classes = server_classes
        self.interval = interval
        self.grows = 0
        self.shrinks = 0
        #: grow attempts the class refused, by :class:`GrowRefused` reason.
        self.refusals: Dict[str, int] = {}
        self._idle_rounds: Dict[str, int] = {}
        self.process = self.env.process(self._monitor(), name="pathway-monitor")

    def _monitor(self) -> Generator:
        while True:
            yield self.env.timeout(self.interval)
            for server_class in self.server_classes:
                depth = server_class.queue_depth()
                live = len(server_class.live_instances())
                if depth >= GROW_THRESHOLD * max(live, 1):
                    try:
                        server_class.add_instance()
                        self.grows += 1
                    except GrowRefused as refused:
                        reason = refused.reason
                        self.refusals[reason] = self.refusals.get(reason, 0) + 1
                        self.env.probe.emit(
                            "server_grow_refused",
                            server_class=server_class.name, reason=reason,
                        )
                    self._idle_rounds[server_class.name] = 0
                elif depth == 0 and live > 1:
                    idle = self._idle_rounds.get(server_class.name, 0) + 1
                    self._idle_rounds[server_class.name] = idle
                    if idle >= 10:  # sustained idleness before shrinking
                        if server_class.remove_instance():
                            self.shrinks += 1
                        self._idle_rounds[server_class.name] = 0
                else:
                    self._idle_rounds[server_class.name] = 0
