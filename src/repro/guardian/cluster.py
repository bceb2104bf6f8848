"""Cluster assembly: environment + network + per-node OS instances.

A :class:`Cluster` bundles everything one simulation run needs below the
data-management layer: the event loop and its probe, random streams, the
inter-node network, and a :class:`NodeOs` + :class:`FileSystem` per
node.  Higher layers (DISCPROCESSes, TMF, ENCOMPASS) are attached onto a
cluster by the configuration builder in :mod:`repro.encompass.config`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..hardware import Latencies, Network, Node
from ..sim import Environment, RandomStreams
from .filesystem import FileSystem
from .message import MessageSystem
from .process import NodeOs

__all__ = ["Cluster"]


class Cluster:
    """The hardware/OS substrate of one simulated Tandem network."""

    def __init__(
        self,
        seed: int = 0,
        latencies: Optional[Latencies] = None,
        keep_trace: bool = True,
    ):
        self.env = Environment()
        self.env.probe.keep_records = keep_trace
        self.streams = RandomStreams(seed)
        self.latencies = latencies or Latencies()
        self.network = Network(self.env, self.latencies)
        self.message_system = MessageSystem(self.env, self.network, self.latencies)
        self.oses: Dict[str, NodeOs] = {}
        self.filesystems: Dict[str, FileSystem] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, cpu_count: int = 2) -> NodeOs:
        node = Node(self.env, name, cpu_count, latencies=self.latencies)
        self.network.add_node(node)
        node_os = NodeOs(node, self.message_system)
        self.oses[name] = node_os
        self.filesystems[name] = FileSystem(node_os)
        return node_os

    def connect_all(self, latency: Optional[float] = None) -> None:
        self.network.connect_all(latency)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def os(self, name: str) -> NodeOs:
        return self.oses[name]

    def fs(self, name: str) -> FileSystem:
        return self.filesystems[name]

    def node(self, name: str) -> Node:
        return self.oses[name].node

    @property
    def node_names(self) -> list:
        return sorted(self.oses)

    def run(self, until: Any = None) -> Any:
        return self.env.run(until)

    def __repr__(self) -> str:
        return f"<Cluster nodes={self.node_names}>"
