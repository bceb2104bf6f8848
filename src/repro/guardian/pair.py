"""The process-pair: NonStop's unit of fault-tolerant service.

"An I/O process-pair consists of two cooperating processes which run in
two processors ... The primary process sends the backup process
'checkpoints' ... which ensure that the backup process has all the
information that it would need in the event of failure to assume control
... and carry through to completion any operation initiated by the
primary."  (paper, §The Tandem Operating System)

:class:`ProcessPair` is the generic mechanism: subclasses implement
``serve_request`` (one request's handler, a generator that finishes
with the reply) and call ``checkpoint`` to replicate whatever state the
backup would need.  The pair:

* runs the primary in one CPU and keeps a passive backup image in
  another;
* serves requests concurrently: the real DISCPROCESS (and TMP)
  multiplex many outstanding requests, and a lock wait by one
  transaction must not stall the unlock that would release it, so each
  request runs in its own sub-coroutine, started inside the step that
  delivers it (no inbox, no dispatcher loop).  Sub-handlers die with
  the primary: their in-progress work is exactly what the checkpoint
  discipline makes recoverable;
* promotes the backup to primary when the primary's CPU fails (state is
  the last checkpointed image — exactly the paper's semantics: anything
  not yet checkpointed is lost, so subclasses checkpoint *before*
  exposing effects, the discipline that substitutes for Write-Ahead-Log);
* answers each request once, in one place: the reply ``serve_request``
  finishes with is sent in the step it finishes, and a reply that rode
  in a checkpoint (:meth:`ProcessPair.reply_part`) answers any retry of
  the same message id — the File System's transparent retry after a
  takeover — without serving it again;
* recruits a replacement backup CPU after a takeover, or runs
  *unprotected* when no CPU is available, re-protecting when one returns;
* is *down* only when both CPUs fail before a new backup was recruited —
  the multi-module failure that §ROLLFORWARD exists for.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from ..sim import ATOMIC_TYPES, Process, Timeout, fast_deepcopy
from .message import Message
from .process import NodeOs, OsProcess

__all__ = ["ProcessPair", "PairDown", "REPLY_RETENTION", "bad_request"]

#: replies a pair keeps for duplicate suppression: once full, recording
#: one more drops the oldest, on the primary and the backup alike.
REPLY_RETENTION = 1024


def bad_request(payload: Any) -> Dict[str, Any]:
    """The reply to a request a pair does not know how to serve."""
    return {"ok": False, "error": "bad_request", "detail": repr(payload)}


class PairDown(Exception):
    """Both halves of a process-pair are gone (multi-module failure)."""


class ProcessPair:
    """A named, fault-tolerant server replicated across two CPUs."""

    def __init__(
        self,
        node_os: NodeOs,
        name: str,
        primary_cpu: int,
        backup_cpu: int,
        allowed_cpus: Optional[Any] = None,
    ):
        if primary_cpu == backup_cpu:
            raise ValueError("primary and backup must run in distinct CPUs")
        self.node_os = node_os
        self.env = node_os.env
        self.name = name
        #: the ``pair`` field of this pair's probe records.
        self._label = f"{node_os.node.name}.{name}"
        # An I/O process-pair can only run in the CPUs physically
        # connected to its device (None = any CPU, e.g. TCPs and TMPs).
        self.allowed_cpus = set(allowed_cpus) if allowed_cpus is not None else None
        self.state: Dict[str, Any] = {}
        self.backup_state: Dict[str, Any] = {}
        self.primary_cpu: Optional[int] = primary_cpu
        self.backup_cpu: Optional[int] = backup_cpu
        #: where the pair was configured to run: a node's cold restart
        #: puts it back there.
        self.configured_cpus = (primary_cpu, backup_cpu)
        self.takeovers = 0
        self.checkpoints_sent = 0
        self._active_handlers: set = set()
        self._apply_state_defaults()
        self.primary_process: Optional[OsProcess] = node_os.spawn(
            name, primary_cpu, self._serve
        )
        for cpu in node_os.node.cpus:
            cpu.watch_failure(self._on_cpu_failure)
            cpu.watch_restore(self._on_cpu_restore)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        """True while a primary is serving requests."""
        return (
            self.primary_process is not None
            and self.primary_process.alive
        )

    @property
    def protected(self) -> bool:
        """True while a backup CPU stands by."""
        return self.backup_cpu is not None

    @property
    def node_name(self) -> str:
        return self.node_os.node.name

    # ------------------------------------------------------------------
    # Server loop
    # ------------------------------------------------------------------
    def _serve(self, proc: OsProcess) -> Generator:
        self.on_start(proc)
        # Requests that reached this primary before it started waited in
        # its inbox; from now on each one is dispatched as it arrives.
        for message in proc.inbox.drain():
            self._start_handler(proc, message)
        proc.dispatch = self._start_handler
        return
        yield  # pragma: no cover - generator marker

    def _start_handler(self, proc: OsProcess, message: Message) -> None:
        """Start the request's handler inside the delivering step."""
        Process(
            self.env, self._answer(proc, message), self.name, inline=True,
            owners=self._active_handlers,
        )

    def _answer(self, proc: OsProcess, message: Message) -> Generator:
        """Serve one request and send its one reply.

        A message id with a recorded reply is a retry of a request this
        pair already completed: the record answers it, and
        ``serve_request`` does not run.  Otherwise the reply is sent in
        the step ``serve_request`` finishes.  While the probe listens,
        the request is served between two notes (one serve span for
        TRACE); the end is noted even when the handler is killed
        mid-request (takeover): GeneratorExit runs the finally.
        """
        probe = self.env.probe
        listening = probe.listening
        if listening:
            probe.note(
                "serve.begin", message=message, node=self.node_name,
                proc=self.name, cpu=proc.cpu.number,
            )
        try:
            reply = self.state["completed"].get(message.msg_id)
            if reply is None:
                reply = yield from self.serve_request(proc, message)
            proc.reply(message, reply)
        finally:
            if listening:
                probe.note("serve.end", message=message)

    def spawn(self, work: Generator, suffix: str, inline: bool = False) -> Process:
        """Run ``work`` as a coroutine that dies with this primary.

        The one way to start one: request handlers, boxcar flushes and
        the TMP's delivery, abort and sweep workers all run this way,
        and ``_kill_handlers`` kills them on takeover and on pair-down.
        An ``inline`` start runs the first segment in the caller's
        step.  Each is a member of ``_active_handlers`` from before its
        first segment until it finishes or is killed.
        """
        return Process(
            self.env, work, f"{self.name}.{suffix}", inline=inline,
            owners=self._active_handlers,
        )

    def serve_request(self, proc: OsProcess, message: Message) -> Generator:
        """Serve one request; finish with its reply.

        Subclasses must implement this.  The pair sends the reply.
        """
        raise NotImplementedError
        yield  # pragma: no cover - generator marker

    def on_start(self, proc: OsProcess) -> None:
        """Hook: a (new) primary is about to start serving."""

    def state_defaults(self) -> Dict[str, Any]:
        """Tables/keys that must exist in ``self.state`` at all times.

        Re-applied whenever the state is replaced (takeover, restart),
        so a takeover that precedes the first checkpoint still finds its
        tables.  The pair's own ``completed`` table (message id ->
        recorded reply) always exists.
        """
        return {}

    def _apply_state_defaults(self) -> None:
        state = self.state
        state.setdefault("completed", {})
        for key, value in self.state_defaults().items():
            state.setdefault(key, value)

    def _kill_handlers(self, reason: str) -> None:
        handlers, self._active_handlers = self._active_handlers, set()
        # A killed handler leaves ``handlers``: iterate a copy.
        for handler in list(handlers):
            handler.kill(reason)

    def on_takeover(self) -> None:
        """Hook: state has been replaced by the checkpointed image."""
        self._kill_handlers("primary failed")

    def on_pair_down(self) -> None:
        """Hook: both halves are dead."""
        self._kill_handlers("pair down")

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    #: tables whose values are immutable images (a DISCPROCESS's stored
    #: blocks): the backup shares them instead of copying them.
    shared_tables: frozenset = frozenset()

    def reply_part(self, message: Message,
                   reply: Any) -> Tuple[str, Dict[int, Any], Tuple[int, ...]]:
        """The checkpoint part that records ``reply`` as the answer to ``message``.

        A pair puts it in the :meth:`checkpoint_multi` that carries the
        operation's effect, so the backup learns both or neither, and
        returns ``reply`` from ``serve_request``.  The table keeps the
        newest :data:`REPLY_RETENTION` replies: once full, the part also
        removes the oldest, the table's first key (a dict keeps
        insertion order, and so does every copy of it a backup or a
        takeover makes).
        """
        completed = self.state["completed"]
        evicted = (next(iter(completed)),) if len(completed) >= REPLY_RETENTION else ()
        return ("completed", {message.msg_id: reply}, evicted)

    def checkpoint(self, **entries: Any) -> Generator:
        """Replicate ``entries`` of ``self.state`` to the backup image."""
        return self._replicate((), entries, "keys")

    def checkpoint_update(self, table: str, updates: Optional[Dict[Any, Any]] = None,
                          removals: Any = ()) -> Generator:
        """Delta-checkpoint entries of the dict ``self.state[table]``.

        Used for large tables (dirty blocks, lock grants, duplicate-
        suppression entries) where re-copying the whole table per
        operation would be wrong.
        """
        return self._replicate(((table, updates, removals),), None, "table")

    def checkpoint_multi(self, parts: Any,
                         scalars: Optional[Dict[str, Any]] = None) -> Generator:
        """Delta-checkpoint several tables (plus scalars) in one message.

        ``parts`` is a sequence of ``(table, updates, removals)``.  The
        whole multi-part payload costs a *single* checkpoint message —
        the coalescing the real pairs did: one IPC carries every delta
        an operation produced.
        """
        return self._replicate(parts, scalars, "tables")

    def _replicate(self, parts: Any, scalars: Optional[Dict[str, Any]],
                   trace_key: str) -> Generator:
        """The one checkpoint body behind the three entry points above.

        Applies ``parts`` and ``scalars`` to the primary's state; with a
        backup, costs one checkpoint message and mirrors them (deltas
        that share a message go in one :meth:`checkpoint_multi`).  The
        backup has its own memory, so it gets private copies — except of
        immutable values (registered types, ``shared_tables``), which
        it shares.  The ``checkpoint`` record names what was sent under
        ``trace_key``: the scalar ``keys``, the one ``table`` or the
        ``tables``.
        """
        state = self.state
        for table, updates, removals in parts:
            table_state = state.get(table)
            if table_state is None:
                table_state = state[table] = {}
            if updates:
                table_state.update(updates)
            for key in removals:
                table_state.pop(key, None)
        if scalars:
            state.update(scalars)
        if self.backup_cpu is None:
            return
        # A checkpoint is an interprocessor message: it occupies a bus
        # for its duration.
        node = self.node_os.node
        latency = node.latencies.checkpoint
        node.buses.record_transfer(latency)
        yield Timeout(self.env, latency)
        self.checkpoints_sent += 1
        probe = self.env.probe
        if probe.recording:
            if trace_key == "keys":
                sent: Any = sorted(scalars)
            elif trace_key == "table":
                sent = parts[0][0]
            else:
                sent = [table for table, _u, _r in parts]
            probe.emit("checkpoint", pair=self._label, **{trace_key: sent})
        else:
            probe.count("checkpoint")
        atomic = ATOMIC_TYPES
        backup_state = self.backup_state
        for table, updates, removals in parts:
            backup_table = backup_state.get(table)
            if backup_table is None:
                backup_table = backup_state[table] = {}
            if updates:
                if table in self.shared_tables:
                    backup_table.update(updates)
                else:
                    for key, value in updates.items():
                        backup_table[key] = (
                            value if value.__class__ in atomic else fast_deepcopy(value)
                        )
            for key in removals:
                backup_table.pop(key, None)
        if scalars:
            for key, value in scalars.items():
                backup_state[key] = (
                    value if value.__class__ in atomic else fast_deepcopy(value)
                )

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_cpu_failure(self, cpu) -> None:
        if cpu.number == self.primary_cpu:
            self._takeover()
        elif cpu.number == self.backup_cpu:
            self._lose_backup()

    def _on_cpu_restore(self, cpu) -> None:
        if self.backup_cpu is None and self.available:
            if cpu.number != self.primary_cpu and (
                self.allowed_cpus is None or cpu.number in self.allowed_cpus
            ):
                self._adopt_backup(cpu.number)

    def _takeover(self) -> None:
        failed_cpu = self.primary_cpu
        self.primary_cpu = None
        self.primary_process = None
        if self.backup_cpu is None or not self.node_os.node.cpus[self.backup_cpu].up:
            self.backup_cpu = None
            self._trace("pair_down", last_cpu=failed_cpu)
            self.on_pair_down()
            return
        self.takeovers += 1
        new_primary_cpu, self.backup_cpu = self.backup_cpu, None
        self._promote(new_primary_cpu)
        self._trace("takeover", new_primary_cpu=self.primary_cpu)
        replacement = self._pick_backup_cpu()
        if replacement is not None:
            self._adopt_backup(replacement)

    def _promote(self, cpu_number: int) -> None:
        """Start a primary in ``cpu_number`` from the checkpointed image:
        the backup's knowledge is exactly what was checkpointed."""
        self.primary_cpu = cpu_number
        self.state = fast_deepcopy(self.backup_state)
        self._apply_state_defaults()
        self.on_takeover()
        self.primary_process = self.node_os.spawn(self.name, cpu_number, self._serve)

    def _lose_backup(self) -> None:
        self.backup_cpu = None
        self._trace("backup_lost")
        replacement = self._pick_backup_cpu()
        if replacement is not None and self.available:
            self._adopt_backup(replacement)

    def _pick_backup_cpu(self) -> Optional[int]:
        exclude = [self.primary_cpu] if self.primary_cpu is not None else []
        candidate = self.node_os.pick_cpu(exclude=exclude)
        if candidate is None:
            return None
        if self.allowed_cpus is not None:
            allowed = [
                n
                for n in self.node_os.alive_cpu_numbers()
                if n in self.allowed_cpus and n not in exclude
            ]
            return allowed[0] if allowed else None
        return candidate

    def _adopt_backup(self, cpu_number: int) -> None:
        self.backup_cpu = cpu_number
        self.backup_state = fast_deepcopy(self.state)
        self._trace("backup_adopted", cpu=cpu_number)

    def restart(self, primary_cpu: int, backup_cpu: Optional[int] = None) -> None:
        """Cold-start a fully-dead pair (used by node-recovery procedures).

        The state is whatever survived in the checkpointed image; for a
        DISCPROCESS the caller is responsible for running volume recovery
        (ROLLFORWARD) before trusting the data base.
        """
        if self.available:
            raise RuntimeError(f"pair {self.name} is still available")
        self._promote(primary_cpu)
        if backup_cpu is not None and backup_cpu != primary_cpu:
            self._adopt_backup(backup_cpu)
        else:
            self.backup_cpu = None
        self._trace("pair_restarted", primary_cpu=primary_cpu)

    def _trace(self, kind: str, **fields: Any) -> None:
        self.env.probe.emit(kind, pair=self._label, **fields)

    def __repr__(self) -> str:
        return (
            f"<ProcessPair {self.node_name}.{self.name} "
            f"primary_cpu={self.primary_cpu} backup_cpu={self.backup_cpu}>"
        )
