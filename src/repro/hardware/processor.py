"""Processor modules and their I/O channels.

A Tandem node contains 2–16 :class:`Cpu` modules, each with its own
power supply, memory and I/O channel (paper §Hardware Architecture).
A CPU failure takes its I/O channel down with it; restoring the CPU
restores the channel.  The operating system layer subscribes to CPU
failure to kill resident processes and drive process-pair takeover.
"""

from __future__ import annotations

from typing import Any

from ..sim import Environment
from .component import Component

__all__ = ["Cpu", "IoChannel"]


class IoChannel(Component):
    """The I/O channel of one CPU; fate-shared with its CPU."""

    kind = "channel"

    def __init__(self, env: Environment, cpu: "Cpu"):
        super().__init__(env, f"{cpu.name}.ch")
        self.cpu = cpu


class Cpu(Component):
    """One processor module of a node."""

    kind = "cpu"

    def __init__(self, env: Environment, node_name: str, number: int):
        super().__init__(env, f"{node_name}.cpu{number}")
        self.node_name = node_name
        self.number = number
        self.channel = IoChannel(env, self)
        #: accumulated busy time (ms); the XRAY sampler reads deltas of
        #: this to derive busy fraction per interval.
        self.busy_ms = 0.0

    def charge(self, ms: float) -> None:
        """Account ``ms`` of processing time to this CPU."""
        self.busy_ms += ms

    def on_fail(self, reason: Any) -> None:
        # The I/O channel is part of the processor module: it shares the
        # module's power supply and dies with it.
        self.channel.fail(reason=f"cpu {self.name} failed")

    def on_restore(self) -> None:
        self.channel.restore()

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"<Cpu {self.name} {state}>"
