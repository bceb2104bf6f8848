"""The Terminal Control Process (TCP).

"A TCP controls up to 32 terminals ... The user's Screen COBOL program
is interpreted by the TCP to perform screen sequencing, data mapping,
and field validation for a single terminal ... TCP's are configured as
process-pairs.  As a result ... the terminal user has continuous access
to the executing Screen COBOL program despite module failure."
(paper, §Terminal Management)

Here a *screen program* is a Python generator function
``program(ctx, input_data)`` (see :mod:`repro.encompass.verbs`), and one
terminal input runs one *logical transaction unit*:

* the TCP brackets the unit in BEGIN-TRANSACTION / END-TRANSACTION;
* any failure except an explicit ABORT-TRANSACTION backs the unit out
  and re-runs it from BEGIN-TRANSACTION, up to the configurable
  *transaction restart limit* — with the input screen data already
  checkpointed, so the restart "may not require re-entering the input
  screen(s)";
* a TCP primary failure kills in-flight units; TMF automatically backs
  out their transactions (BEGIN ran in the failed CPU), and the File
  System's retry re-runs the unit at the new primary, where completed
  units answer from the checkpointed reply instead of re-executing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..core import TMP_NAME, TmfNode, TmpAbort, TransactionAborted
from ..guardian import (
    FileSystem,
    FileSystemError,
    Message,
    NodeOs,
    OsProcess,
    ProcessPair,
    bad_request,
)
from ..sim import fast_deepcopy, register_fastcopy
from .server import ServerClass
from .verbs import (
    AbortTransaction,
    RestartTransaction,
    ScreenContext,
)

__all__ = ["ScreenField", "TerminalInput", "TerminalControlProcess"]

ScreenProgram = Callable[[ScreenContext, Any], Generator]

#: base delay (ms) before a unit's restart; ``_backoff`` scales it by
#: the attempt number and a per-terminal stagger.
RESTART_DELAY = 20.0


@dataclass(frozen=True)
class TerminalInput:
    """One filled-in input screen arriving from a terminal."""

    terminal_id: str
    data: Any


# Checkpointed once per unit; the terminal owns ``data``, so the backup copies it.
register_fastcopy(TerminalInput, lambda t: TerminalInput(t.terminal_id, fast_deepcopy(t.data)))


@dataclass(frozen=True)
class ScreenField:
    """One validated field of an input screen.

    The TCP performs "screen formatting, data validation ... and field
    validation for a single terminal" (§Terminal Management): an input
    failing validation is rejected at the TCP, before any transaction
    begins or any server is bothered.
    """

    name: str
    kind: str = "str"                  # str | int
    required: bool = True
    minimum: Optional[int] = None      # for int fields
    maximum: Optional[int] = None
    choices: Optional[Tuple[Any, ...]] = None
    max_length: Optional[int] = None   # for str fields

    def validate(self, data: Dict[str, Any]) -> Optional[str]:
        """None if valid, else a field-error message."""
        if self.name not in data or data[self.name] is None:
            return f"{self.name}: required" if self.required else None
        value = data[self.name]
        if self.kind == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                return f"{self.name}: must be numeric"
            if self.minimum is not None and value < self.minimum:
                return f"{self.name}: below minimum {self.minimum}"
            if self.maximum is not None and value > self.maximum:
                return f"{self.name}: above maximum {self.maximum}"
        elif self.kind == "str":
            if not isinstance(value, str):
                return f"{self.name}: must be text"
            if self.max_length is not None and len(value) > self.max_length:
                return f"{self.name}: longer than {self.max_length}"
        if self.choices is not None and value not in self.choices:
            return f"{self.name}: not one of {self.choices}"
        return None


class TerminalControlProcess(ProcessPair):
    """A fault-tolerant TCP pair running screen programs."""

    MAX_TERMINALS = 32

    def __init__(
        self,
        node_os: NodeOs,
        name: str,
        primary_cpu: int,
        backup_cpu: int,
        filesystem: FileSystem,
        tmf: TmfNode,
        restart_limit: int = 5,
    ):
        self.filesystem = filesystem
        self.tmf = tmf
        self.programs: Dict[str, ScreenProgram] = {}
        self.screens: Dict[str, Tuple[ScreenField, ...]] = {}
        self.server_classes: Dict[str, ServerClass] = {}
        self.terminals: Dict[str, str] = {}
        self.restart_limit = restart_limit
        self.units_committed = 0
        self.restarts_total = 0
        super().__init__(node_os, name, primary_cpu, backup_cpu)

    def state_defaults(self) -> Dict[str, Any]:
        return {"inputs": {}, "pending_commit": {}}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_program(
        self,
        name: str,
        program: ScreenProgram,
        screen: Optional[Tuple[ScreenField, ...]] = None,
    ) -> None:
        self.programs[name] = program
        if screen is not None:
            self.screens[name] = tuple(screen)

    def add_server_class(self, server_class: ServerClass) -> None:
        self.server_classes[server_class.name] = server_class

    def add_terminal(self, terminal_id: str, program_name: str) -> None:
        """Attach a terminal running ``program_name``."""
        if len(self.terminals) >= self.MAX_TERMINALS:
            raise RuntimeError(f"{self.name}: a TCP controls up to 32 terminals")
        if program_name not in self.programs:
            raise KeyError(f"{self.name}: unknown screen program {program_name!r}")
        self.terminals[terminal_id] = program_name

    def resolve_server(self, server: str) -> str:
        """Class name -> a live instance; plain names pass through."""
        server_class = self.server_classes.get(server)
        if server_class is None:
            return server
        instance = server_class.pick_instance()
        if instance is None:
            return server  # no live instance: the send will surface it
        return instance

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def serve_request(self, proc: OsProcess, message: Message) -> Generator:
        payload = message.payload
        if not isinstance(payload, TerminalInput):
            return bad_request(payload)
        if payload.terminal_id not in self.terminals:
            return {"ok": False, "error": "unknown_terminal"}
        # Field validation happens at the TCP, before BEGIN-TRANSACTION.
        screen = self.screens.get(self.terminals[payload.terminal_id])
        if screen is not None:
            errors = [
                error
                for field in screen
                for error in [field.validate(payload.data or {})]
                if error is not None
            ]
            if errors:
                return {"ok": False, "error": "field_errors", "fields": errors}
        # A retried unit whose predecessor died between END-TRANSACTION
        # and the completed-reply checkpoint: resolve the in-doubt
        # transid with the TMP before deciding to re-run.
        pending = self.state["pending_commit"].get(message.msg_id)
        if pending is not None:
            resolved = yield from self._resolve_pending(proc, message, pending)
            if resolved is not None:
                return resolved
        # Checkpoint the input screen data: a takeover restart of this
        # unit will not require re-entering the screen.
        yield from self.checkpoint_update(
            "inputs", updates={message.msg_id: payload}
        )
        unit_start = self.env.now
        result = yield from self._run_unit(proc, message, payload)
        probe = self.env.probe
        probe.count("unit.committed" if result.get("ok") else "unit.aborted")
        restarts = result.get("attempts", 1) - 1
        if restarts > 0:
            probe.count("unit.restarts", restarts)
        if probe.listening:
            probe.note("observe", name="unit.latency_ms", value=self.env.now - unit_start)
        yield from self.checkpoint_multi((
            self.reply_part(message, result),
            ("inputs", None, (message.msg_id,)),
            ("pending_commit", None, (message.msg_id,)),
        ))
        return result

    def _resolve_pending(self, proc: OsProcess, message: Message, pending: Any) -> Generator:
        """Settle an in-doubt unit left by a dead primary.

        Asks the TMP to abort the old transid: the reply carries the
        authoritative disposition — ``committed`` means the old unit's
        END-TRANSACTION had already completed its commit point, so the
        checkpointed reply is returned and the unit must NOT re-run.
        """
        old_transid, ready_reply = pending
        try:
            reply = yield from self.filesystem.send(
                proc,
                TMP_NAME,
                TmpAbort(old_transid, "TCP takeover: resolving in-doubt unit"),
                timeout=60_000.0,
            )
        except FileSystemError:
            return None  # cannot resolve; re-run (transid will settle first)
        if reply.get("disposition") == "committed":
            yield from self.checkpoint_multi((
                self.reply_part(message, ready_reply),
                ("pending_commit", None, (message.msg_id,)),
            ))
            return ready_reply
        yield from self.checkpoint_update(
            "pending_commit", removals=[message.msg_id]
        )
        return None

    def _run_unit(self, proc: OsProcess, message: Message, payload: TerminalInput) -> Generator:
        """Run one logical transaction with automatic backout/restart."""
        program = self.programs[self.terminals[payload.terminal_id]]
        last_error = ""
        attempts = 0
        for attempt in range(self.restart_limit + 1):
            attempts = attempt + 1
            context = ScreenContext(self, proc, payload.terminal_id)
            context.attempt = attempt
            transid = yield from self.tmf.begin(proc)
            context.transaction_id = transid
            try:
                result = yield from program(context, payload.data)
                reply = {
                    "ok": True,
                    "result": result,
                    "display": context.display_lines,
                    "attempts": attempts,
                    "transid": str(transid),
                }
                # Intent-to-commit checkpoint: if this primary dies after
                # the commit point but before recording completion, the
                # new primary resolves via the transid instead of
                # re-running the unit.
                yield from self.checkpoint_update(
                    "pending_commit", updates={message.msg_id: (transid, reply)}
                )
                yield from self.tmf.end(proc, transid)
                self.units_committed += 1
                return reply
            except AbortTransaction as exc:
                # Voluntary abort: back out, no automatic restart.
                yield from self.tmf.abort(proc, transid, exc.reason)
                return {
                    "ok": False,
                    "error": "aborted",
                    "reason": exc.reason,
                    "display": context.display_lines,
                    "attempts": attempts,
                }
            except RestartTransaction as exc:
                yield from self.tmf.abort(proc, transid, exc.reason)
                last_error = exc.reason
            except TransactionAborted as exc:
                # END-TRANSACTION rejected: the system aborted it
                # (network partition, server CPU failure, ...).
                last_error = exc.reason
            except FileSystemError as exc:
                yield from self.tmf.abort(proc, transid, str(exc))
                last_error = str(exc)
            self.restarts_total += 1
            self._trace(
                "transaction_restarted",
                terminal=payload.terminal_id,
                attempt=attempt,
                reason=last_error,
            )
            yield self.env.timeout(self._backoff(payload.terminal_id, attempt))
        return {
            "ok": False,
            "error": "restart_limit",
            "reason": last_error,
            "attempts": attempts,
        }

    def _backoff(self, terminal_id: str, attempt: int) -> float:
        """Deterministic, terminal-staggered restart delay.

        Symmetric restarts are what turn one deadlock into an endless
        livelock; each terminal backs off a different amount.
        """
        stagger = (zlib.crc32(terminal_id.encode()) % 97) / 97.0
        return RESTART_DELAY * (attempt + 1) * (0.5 + stagger)
