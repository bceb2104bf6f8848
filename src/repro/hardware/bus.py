"""The dual interprocessor buses (Dynabus) of a node.

Every pair of CPUs within a node is connected by two independent
high-speed buses.  A message can be carried as long as *either* bus is
up; the loss of one bus is invisible to software (paper §Hardware
Architecture: "At least two paths connect any two components").
"""

from __future__ import annotations

from typing import List, Optional

from ..sim import Environment
from .component import Component

__all__ = ["InterprocessorBus", "BusPair"]


class InterprocessorBus(Component):
    """One of the two redundant interprocessor buses."""

    kind = "bus"


class BusPair:
    """The X and Y buses of a node, with path selection."""

    def __init__(self, env: Environment, node_name: str):
        self.env = env
        self.x = InterprocessorBus(env, f"{node_name}.busX")
        self.y = InterprocessorBus(env, f"{node_name}.busY")
        #: accumulated transfer time (ms) over both buses; the XRAY
        #: sampler reads deltas to derive occupancy.
        self.busy_ms = 0.0

    def record_transfer(self, ms: float) -> None:
        """Account one interprocessor transfer of ``ms`` on the pair."""
        self.busy_ms += ms

    @property
    def buses(self) -> List[InterprocessorBus]:
        return [self.x, self.y]

    def available(self) -> Optional[InterprocessorBus]:
        """An up bus to carry the next transfer, or None if both failed.

        The X bus is preferred when both are up, matching the fixed
        primary-path selection of the real hardware.
        """
        if self.x.up:
            return self.x
        if self.y.up:
            return self.y
        return None

    @property
    def any_up(self) -> bool:
        return self.available() is not None
