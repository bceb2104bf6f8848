"""The EXPAND-like data-communications network between nodes.

Features reproduced from §"The Tandem Network" of the paper:

1. fault-tolerant nodes (built by :mod:`repro.hardware.node`);
2. transparent access to remote resources (the message system routes
   through this object without callers naming paths);
3. decentralized control — this class holds topology only, no master;
4. dynamic best-path routing with automatic re-routing on line failure;
5. end-to-end acknowledged packet forwarding (modelled as: a message is
   delivered iff a path of up lines exists between up nodes; otherwise
   the sender gets an explicit undeliverable error).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..sim import Environment
from .component import Component
from .latencies import Latencies
from .node import Node

__all__ = ["CommLine", "Network", "NoRoute"]


class NoRoute(Exception):
    """No path of up lines exists between two nodes."""

    def __init__(self, source: str, destination: str):
        super().__init__(f"no route from {source} to {destination}")
        self.source = source
        self.destination = destination


class CommLine(Component):
    """A bidirectional communication line between two nodes."""

    kind = "line"

    def __init__(
        self,
        env: Environment,
        a: str,
        b: str,
        latency: float,
    ):
        super().__init__(env, f"{a}--{b}")
        self.endpoints: Tuple[str, str] = (a, b)
        self.latency = latency

    def other_end(self, node_name: str) -> str:
        a, b = self.endpoints
        if node_name == a:
            return b
        if node_name == b:
            return a
        raise ValueError(f"{node_name} is not an endpoint of {self.name}")


class Network:
    """Topology and routing for a collection of Tandem nodes."""

    def __init__(
        self,
        env: Environment,
        latencies: Optional[Latencies] = None,
    ):
        self.env = env
        self.latencies = latencies or Latencies()
        self.nodes: Dict[str, Node] = {}
        self.lines: List[CommLine] = []
        self._adjacency: Dict[str, List[CommLine]] = {}
        #: best path and its latency per (source, destination), or None
        #: for no route; valid while ``env.topology_epoch`` equals
        #: ``_routes_epoch``.
        self._routes: Dict[Tuple[str, str], Optional[Tuple[List[CommLine], float]]] = {}
        self._routes_epoch = -1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name}")
        self.nodes[node.name] = node
        self._adjacency.setdefault(node.name, [])
        self._routes.clear()
        return node

    def connect(self, a: str, b: str, latency: Optional[float] = None) -> CommLine:
        """Install a line between nodes ``a`` and ``b``."""
        for name in (a, b):
            if name not in self.nodes:
                raise ValueError(f"unknown node {name}")
        if a == b:
            raise ValueError("cannot connect a node to itself")
        line = CommLine(self.env, a, b, latency or self.latencies.network_hop)
        self.lines.append(line)
        self._adjacency[a].append(line)
        self._adjacency[b].append(line)
        self._routes.clear()
        return line

    def connect_all(self, latency: Optional[float] = None) -> None:
        """Full mesh over all current nodes (the Figure 4 topology)."""
        names = sorted(self.nodes)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self.connect(a, b, latency)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, source: str, destination: str) -> List[CommLine]:
        """Best path (fewest hops, then lowest total latency) of up lines.

        Raises :class:`NoRoute` when the nodes are partitioned or an
        endpoint node is dead.
        """
        if source == destination:
            return []
        return list(self._cached_route(source, destination)[0])

    def connected(self, source: str, destination: str) -> bool:
        if source == destination:
            return self.nodes[source].alive
        try:
            self._cached_route(source, destination)
            return True
        except NoRoute:
            return False

    def latency(self, source: str, destination: str) -> float:
        """End-to-end latency of the current best path."""
        if source == destination:
            return 0
        return self._cached_route(source, destination)[1]

    def _cached_route(self, source: str, destination: str) -> Tuple[List[CommLine], float]:
        """The best path and its latency, searched once per topology."""
        epoch = self.env.topology_epoch
        if self._routes_epoch != epoch:
            self._routes.clear()
            self._routes_epoch = epoch
        key = (source, destination)
        try:
            found = self._routes[key]
        except KeyError:
            found = self._routes[key] = self._search(source, destination)
        if found is None:
            raise NoRoute(source, destination)
        return found

    def _search(self, source: str, destination: str) -> Optional[Tuple[List[CommLine], float]]:
        src = self.nodes.get(source)
        dst = self.nodes.get(destination)
        if src is None or dst is None:
            raise ValueError(f"unknown node in route {source}->{destination}")
        if not src.alive or not dst.alive:
            return None
        best: Dict[str, Tuple[int, float, List[CommLine]]] = {
            source: (0, 0.0, [])
        }
        frontier = deque([source])
        while frontier:
            here = frontier.popleft()
            hops, cost, path = best[here]
            for line in self._adjacency[here]:
                if not line.up:
                    continue
                neighbour = line.other_end(here)
                if not self.nodes[neighbour].alive:
                    continue
                candidate = (hops + 1, cost + line.latency, path + [line])
                incumbent = best.get(neighbour)
                if incumbent is None or candidate[:2] < incumbent[:2]:
                    best[neighbour] = candidate
                    frontier.append(neighbour)
        if destination not in best:
            return None
        path = best[destination][2]
        return path, sum(line.latency for line in path)

    # ------------------------------------------------------------------
    # Failure drills
    # ------------------------------------------------------------------
    def lines_between(self, group_a: Iterable[str], group_b: Iterable[str]) -> List[CommLine]:
        set_a: Set[str] = set(group_a)
        set_b: Set[str] = set(group_b)
        crossing = []
        for line in self.lines:
            a, b = line.endpoints
            if (a in set_a and b in set_b) or (a in set_b and b in set_a):
                crossing.append(line)
        return crossing

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> List[CommLine]:
        """Fail every line crossing the two groups; returns those lines."""
        crossing = self.lines_between(group_a, group_b)
        for line in crossing:
            line.fail(reason="partition")
        return crossing

    def heal(self) -> None:
        """Restore every failed line."""
        for line in self.lines:
            line.restore()

    def isolate(self, node_name: str) -> List[CommLine]:
        """Fail every line touching ``node_name`` (complete comm loss)."""
        others = [name for name in self.nodes if name != node_name]
        return self.partition([node_name], others)

    def __repr__(self) -> str:
        return f"<Network nodes={sorted(self.nodes)} lines={len(self.lines)}>"
