"""The Screen COBOL transaction verbs, as a Python API.

The ENCOMPASS user's interface to TMF is the verb set
BEGIN-TRANSACTION / END-TRANSACTION / ABORT-TRANSACTION /
RESTART-TRANSACTION plus SEND (paper, §Transaction Management).  Screen
programs in this reproduction are Python generator functions
``program(ctx, input_data)`` running under a TCP; ``ctx`` provides the
verbs:

* the TCP brackets each program unit in BEGIN-TRANSACTION /
  END-TRANSACTION automatically (the ``run_transaction`` loop), with
  automatic backout and restart-at-BEGIN on failure, up to the
  configurable transaction restart limit;
* ``ctx.send(server, payload)`` — the SEND verb; the terminal's current
  transid is appended automatically by the File System;
* ``ctx.abort_transaction(reason)`` — voluntary backout, no restart;
* ``ctx.restart_transaction(reason)`` — backout then re-run from
  BEGIN-TRANSACTION (the deadlock-timeout response);
* ``ctx.transaction_id`` — the TRANSACTIONID special register.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

__all__ = [
    "AbortTransaction",
    "RestartTransaction",
    "TooManyRestarts",
    "ScreenContext",
]

#: default deadline (ms) of a SEND to an application server.
SEND_TIMEOUT = 30_000.0


class AbortTransaction(Exception):
    """ABORT-TRANSACTION: back out, do not restart."""

    def __init__(self, reason: str = "abort-transaction"):
        super().__init__(reason)
        self.reason = reason


class RestartTransaction(Exception):
    """RESTART-TRANSACTION: back out and re-run from BEGIN-TRANSACTION."""

    def __init__(self, reason: str = "restart-transaction"):
        super().__init__(reason)
        self.reason = reason


class TooManyRestarts(Exception):
    """The transaction restart limit was exceeded."""

    def __init__(self, terminal: str, attempts: int):
        super().__init__(f"terminal {terminal}: {attempts} restarts exhausted")
        self.terminal = terminal
        self.attempts = attempts


class ScreenContext:
    """The verb surface a screen program sees (one terminal, one unit)."""

    def __init__(self, tcp: Any, proc: Any, terminal_id: str):
        self._tcp = tcp
        self._proc = proc
        self.terminal_id = terminal_id
        self.transaction_id = None   # the TRANSACTIONID special register
        self.attempt = 0             # restart count of the current unit
        self.display_lines: List[str] = []

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def send(self, server: str, payload: Any, timeout: Optional[float] = None) -> Generator:
        """SEND a request message to an application server.

        ``server`` may be a server-class name (round-robin over its
        instances) or a plain process name, local or ``\\NODE.$NAME``.
        The terminal's current transid is appended automatically.
        """
        destination = self._tcp.resolve_server(server)
        reply = yield from self._tcp.filesystem.send(
            self._proc,
            destination,
            payload,
            transid=self.transaction_id,
            timeout=timeout if timeout is not None else SEND_TIMEOUT,
        )
        return reply

    def send_ok(self, server: str, payload: Any, timeout: Optional[float] = None) -> Generator:
        """SEND and enforce success: a ``lock_timeout`` error reply runs
        RESTART-TRANSACTION (the paper's deadlock recovery pattern); any
        other error reply aborts the transaction."""
        reply = yield from self.send(server, payload, timeout)
        if isinstance(reply, dict) and not reply.get("ok", True):
            if reply.get("error") == "lock_timeout":
                self.restart_transaction("server reported lock timeout")
            self.abort_transaction(
                f"server error: {reply.get('error')} {reply.get('detail', '')}"
            )
        return reply

    def abort_transaction(self, reason: str = "abort-transaction") -> None:
        raise AbortTransaction(reason)

    def restart_transaction(self, reason: str = "restart-transaction") -> None:
        raise RestartTransaction(reason)

    def display(self, text: str) -> None:
        """Write a line to the terminal screen (collected in the reply)."""
        self.display_lines.append(text)

    def pause(self, delay: float) -> Generator:
        """Think-time / deliberate delay inside the unit."""
        yield self._tcp.env.timeout(delay)
