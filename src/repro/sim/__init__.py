"""Deterministic discrete-event simulation kernel.

This package provides the substrate on which the entire Tandem NonStop /
ENCOMPASS reproduction runs: a seeded, single-threaded event loop with
generator-coroutine processes, FIFO channels, named random streams, and
the always-on probe (counters and the record stream).
"""

from .channel import Channel, ChannelClosed
from .engine import Environment
from .fastcopy import (
    ATOMIC_TYPES,
    fast_deepcopy,
    register_fastcopy,
    register_immutable,
)
from .events import Event, Process, ProcessKilled, SimulationError, Timeout
from .rng import RandomStreams, zipf_weights
from .probe import Probe, TraceRecord

__all__ = [
    "Channel",
    "ChannelClosed",
    "Environment",
    "Event",
    "Probe",
    "Process",
    "ProcessKilled",
    "RandomStreams",
    "SimulationError",
    "Timeout",
    "TraceRecord",
    "ATOMIC_TYPES",
    "fast_deepcopy",
    "register_fastcopy",
    "register_immutable",
    "zipf_weights",
]
