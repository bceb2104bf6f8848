"""A Tandem node: 2–16 CPUs, dual buses, and an I/O fabric.

The node object is pure hardware; the operating system layer
(:mod:`repro.guardian`) is attached on top of it.  Helpers are provided
for the failure drills the experiments need: single-CPU failure, total
node failure (the double-processor failure the ROLLFORWARD section of
the paper is about), and component inventory for the Figure 1 path
checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim import Environment
from .bus import BusPair
from .component import Component
from .disc import DiscDrive, IoController, MirroredVolume
from .latencies import Latencies
from .processor import Cpu

__all__ = ["Node"]


class Node:
    """The hardware of one network node."""

    MIN_CPUS = 2
    MAX_CPUS = 16

    def __init__(
        self,
        env: Environment,
        name: str,
        cpu_count: int = 2,
        latencies: Optional[Latencies] = None,
    ):
        if not self.MIN_CPUS <= cpu_count <= self.MAX_CPUS:
            raise ValueError(
                f"a node has {self.MIN_CPUS}..{self.MAX_CPUS} CPUs, got {cpu_count}"
            )
        self.env = env
        self.name = name
        self.latencies = latencies or Latencies()
        self.cpus: List[Cpu] = [Cpu(env, name, number) for number in range(cpu_count)]
        self.buses = BusPair(env, name)
        self.volumes: Dict[str, MirroredVolume] = {}
        self.controllers: List[IoController] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_volume(
        self,
        name: str,
        cpu_a: int,
        cpu_b: int,
        mirrored: bool = True,
        dual_controllers: bool = True,
    ) -> MirroredVolume:
        """Create a disc volume served by CPUs ``cpu_a`` and ``cpu_b``.

        The volume gets one or two controllers, each dual-ported to the
        I/O channels of both CPUs, and one or two drives — the Figure 1
        wiring where every drive has at least two paths to processors.
        """
        if name in self.volumes:
            raise ValueError(f"volume {name} already exists on node {self.name}")
        if cpu_a == cpu_b:
            raise ValueError("a volume must be served by two distinct CPUs")
        channels = [self.cpus[cpu_a].channel, self.cpus[cpu_b].channel]
        count = 2 if dual_controllers else 1
        controllers = [
            IoController(self.env, f"{self.name}.{name}.ctl{i}", channels)
            for i in range(count)
        ]
        self.controllers.extend(controllers)
        drive_count = 2 if mirrored else 1
        drives = [
            DiscDrive(self.env, f"{self.name}.{name}.drv{i}")
            for i in range(drive_count)
        ]
        volume = MirroredVolume(name, drives, controllers)
        self.volumes[name] = volume
        return volume

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cpu(self, number: int) -> Cpu:
        return self.cpus[number]

    def alive_cpus(self) -> List[Cpu]:
        return [cpu for cpu in self.cpus if cpu.up]

    @property
    def alive(self) -> bool:
        """A node is alive while at least one CPU and one bus are up."""
        return any(cpu.up for cpu in self.cpus) and self.buses.any_up

    def components(self) -> List[Component]:
        """Every failable component of this node (for the E9 sweep)."""
        items: List[Component] = []
        for cpu in self.cpus:
            items.append(cpu)
            items.append(cpu.channel)
        items.extend(self.buses.buses)
        items.extend(self.controllers)
        for volume in self.volumes.values():
            items.extend(volume.drives)
        return items

    # ------------------------------------------------------------------
    # Failure drills
    # ------------------------------------------------------------------
    def fail_cpu(self, number: int, reason: str = "injected") -> None:
        self.cpus[number].fail(reason=reason)

    def restore_cpu(self, number: int) -> None:
        self.cpus[number].restore()

    def total_failure(self, reason: str = "total node failure") -> None:
        """Fail every CPU at once (the multi-module disaster of §ROLLFORWARD).

        Disc drives keep their contents: the data base survives on disc,
        possibly inconsistent, which is exactly what ROLLFORWARD repairs.
        """
        for cpu in self.cpus:
            cpu.fail(reason=reason)

    def restore_all_cpus(self) -> None:
        for cpu in self.cpus:
            cpu.restore()

    def __repr__(self) -> str:
        return (
            f"<Node {self.name} cpus={len(self.cpus)} "
            f"volumes={sorted(self.volumes)}>"
        )
