"""Deterministic discrete-event simulation kernel.

This package provides the substrate on which the entire Tandem NonStop /
ENCOMPASS reproduction runs: a seeded, single-threaded event loop with
generator-coroutine processes, FIFO channels, named random streams, and
structured tracing.
"""

from .channel import Channel, ChannelClosed
from .engine import Environment
from .fastcopy import (
    ATOMIC_TYPES,
    fast_deepcopy,
    register_fastcopy,
    register_immutable,
)
from .events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    ProcessKilled,
    SimulationError,
    Timeout,
)
from .rng import RandomStreams, zipf_weights
from .trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "ChannelClosed",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "RandomStreams",
    "SimulationError",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "ATOMIC_TYPES",
    "fast_deepcopy",
    "register_fastcopy",
    "register_immutable",
    "zipf_weights",
]
