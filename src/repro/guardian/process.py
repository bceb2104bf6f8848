"""OS processes and the per-node operating system.

An :class:`OsProcess` is a simulation coroutine bound to a CPU, with a
message inbox and a registered name (``$NAME`` style).  When its CPU
fails, every resident process is killed: its inbox closes, and every
request it had received but not yet replied to fails back to the
requester with :class:`ProcessDied` — which is what drives process-pair
takeover and transparent retry at the file-system layer.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional

from ..hardware import Cpu, Node
from ..sim import Channel, Environment, Process
from .message import Message, MessageSystem, ProcessDied

__all__ = ["OsProcess", "NodeOs"]


class OsProcess:
    """A named process running in one CPU of one node."""

    _pids = itertools.count(1)

    def __init__(
        self,
        node_os: "NodeOs",
        name: str,
        cpu: Cpu,
        body: Callable[["OsProcess"], Generator],
    ):
        self.node_os = node_os
        self.env: Environment = node_os.env
        self.name = name
        self.cpu = cpu
        self.pid = next(OsProcess._pids)
        self.inbox = Channel(self.env, name=f"{self.node_name}.{name}.inbox")
        self._held_messages: List[Message] = []
        self._body = body
        self.sim_process: Optional[Process] = None
        #: set by a server that takes requests as they arrive (a
        #: ProcessPair primary past ``on_start``): :meth:`accept`
        #: hands it each message in the delivering step, bypassing the
        #: inbox.
        self.dispatch: Optional[Callable[["OsProcess", Message], None]] = None
        self._dead = False

    @property
    def node_name(self) -> str:
        return self.node_os.node.name

    @property
    def alive(self) -> bool:
        return not self._dead and self.cpu.up

    def start(self) -> "OsProcess":
        self.sim_process = self.env.process(
            self._body(self), name=f"{self.node_name}.{self.name}"
        )
        return self

    # ------------------------------------------------------------------
    # Messaging primitives used by process bodies
    # ------------------------------------------------------------------
    def accept(self, message: Message) -> None:
        """Called by the message system to deliver a request."""
        self._held_messages.append(message)
        if self.dispatch is not None:
            self.dispatch(self, message)
        else:
            self.inbox.put(message)

    def receive(self):
        """Wait for the next request; return it.  (Generator helper.)"""
        message = yield self.inbox.get()
        return message

    def reply(self, message: Message, payload: Any) -> None:
        """Answer a request previously returned by :meth:`receive`."""
        try:
            self._held_messages.remove(message)
        except ValueError:
            pass
        self.node_os.message_system.reply(message, payload)

    def request(
        self,
        dest_node: str,
        dest_name: str,
        payload: Any,
        transid: Any = None,
        timeout: Optional[float] = None,
        msg_id: Optional[int] = None,
    ):
        """Issue a request to a named process.  (Generator helper.)"""
        reply = yield from self.node_os.message_system.request(
            self,
            dest_node,
            dest_name,
            payload,
            transid=transid,
            timeout=timeout,
            msg_id=msg_id,
        )
        return reply

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def kill(self, reason: Any = None) -> None:
        """Terminate the process (CPU failure or explicit stop)."""
        if self._dead:
            return
        self._dead = True
        if self.sim_process is not None:
            self.sim_process.kill(reason)
        self.inbox.close(reason)
        held, self._held_messages = self._held_messages, []
        for message in held:
            self.node_os.message_system.fail_request(
                message, ProcessDied(f"{self.node_name}.{self.name}: {reason}")
            )
        # Requests still queued in the (now closed) inbox were never seen:
        # their requesters must also learn the process died.
        self.node_os.unregister(self)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"<OsProcess {self.node_name}.{self.name} pid={self.pid} cpu={self.cpu.number} {state}>"


class NodeOs:
    """The operating system instance of one node.

    Decentralized by construction: each node has its own registry and
    there is no cluster master.  The only cross-node facility is the
    message system.
    """

    def __init__(self, node: Node, message_system: MessageSystem):
        self.node = node
        self.env = node.env
        self.message_system = message_system
        self._registry: Dict[str, OsProcess] = {}
        self._by_cpu: Dict[int, List[OsProcess]] = {
            cpu.number: [] for cpu in node.cpus
        }
        message_system.register_node(self)
        for cpu in node.cpus:
            cpu.watch_failure(self._on_cpu_failure)

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def spawn(
        self,
        name: str,
        cpu_number: int,
        body: Callable[[OsProcess], Generator],
        register: bool = True,
    ) -> OsProcess:
        """Create and start a process named ``name`` in ``cpu_number``.

        Registering replaces any dead holder of the name (takeover);
        replacing a *live* process is an error.
        """
        cpu = self.node.cpus[cpu_number]
        if not cpu.up:
            raise RuntimeError(f"cannot spawn {name} in down cpu {cpu_number}")
        process = OsProcess(self, name, cpu, body)
        if register:
            incumbent = self._registry.get(name)
            if incumbent is not None and incumbent.alive:
                raise RuntimeError(f"name {name} already registered and alive")
            self._registry[name] = process
        self._by_cpu[cpu_number].append(process)
        process.start()
        self._trace("process_spawned", name=name, cpu=cpu_number)
        return process

    def lookup(self, name: str) -> Optional[OsProcess]:
        process = self._registry.get(name)
        if process is not None and process.alive:
            return process
        return None

    def unregister(self, process: OsProcess) -> None:
        if self._registry.get(process.name) is process:
            del self._registry[process.name]
        try:
            self._by_cpu[process.cpu.number].remove(process)
        except (KeyError, ValueError):
            pass

    def alive_cpu_numbers(self) -> List[int]:
        return [cpu.number for cpu in self.node.cpus if cpu.up]

    def pick_cpu(self, exclude: Optional[List[int]] = None) -> Optional[int]:
        """Least-loaded live CPU, excluding the given numbers."""
        excluded = set(exclude or [])
        candidates = [n for n in self.alive_cpu_numbers() if n not in excluded]
        if not candidates:
            return None
        return min(candidates, key=lambda n: (len(self._by_cpu[n]), n))

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_cpu_failure(self, cpu) -> None:
        victims = list(self._by_cpu.get(cpu.number, []))
        for process in victims:
            process.kill(reason=f"cpu {cpu.name} failed")
        self._trace("cpu_processes_killed", cpu=cpu.number, count=len(victims))

    def _trace(self, kind: str, **fields: Any) -> None:
        self.env.probe.emit(kind, node=self.node.name, **fields)
