"""Declarative system configuration: assemble a full ENCOMPASS cluster.

:class:`SystemBuilder` wires together everything the lower layers
provide — nodes, mirrored volumes, DISCPROCESS/AUDITPROCESS pairs, TMF,
server classes, TCPs, terminals — into an :class:`EncompassSystem`
ready to process transactions, the programmatic equivalent of Figure 2's
"typical ENCOMPASS configuration".

Typical use (see ``examples/quickstart.py``)::

    builder = SystemBuilder(seed=7)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    builder.define_file(FileSchema(...))
    builder.add_server_class("alpha", "$bank", handler, instances=2)
    tcp = builder.add_tcp("alpha", "$tcp1", cpus=(2, 3))
    builder.add_program("alpha", "$tcp1", "debit-credit", program_fn)
    builder.add_terminal("alpha", "$tcp1", "T1", "debit-credit")
    system = builder.build()
    reply = system.drive("alpha", "$tcp1", "T1", {"amount": 10})
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..core import (
    AuditProcess,
    AuditTrail,
    Tmfcom,
    TmfNode,
    legal_transitions_by_name,
)
from ..discprocess import DataDictionary, DiscProcess, FileClient, FileSchema
from ..guardian import Cluster, NodeOs
from ..measure import MetricsRegistry, Sampler
from ..measure.report import build_report, render_report, to_json, write_report
from ..trace import TraceCollector, Watchdog, WatchdogConfig
from ..trace.export import timeline_json as _timeline_json
from ..trace.export import write_timeline as _write_timeline
from .server import PathwayMonitor, ServerClass, ServerHandler
from .tcp import TerminalControlProcess, TerminalInput
from .verbs import ScreenContext

__all__ = ["SystemBuilder", "EncompassSystem"]


class EncompassSystem:
    """A fully-wired simulated ENCOMPASS cluster."""

    def __init__(self, cluster: Cluster, dictionary: DataDictionary):
        self.cluster = cluster
        self.dictionary = dictionary
        self.tmf: Dict[str, TmfNode] = {}
        self.clients: Dict[str, FileClient] = {}
        self.audit_processes: Dict[str, AuditProcess] = {}
        self.disc_processes: Dict[Tuple[str, str], DiscProcess] = {}
        self.server_classes: Dict[Tuple[str, str], ServerClass] = {}
        self.tcps: Dict[Tuple[str, str], TerminalControlProcess] = {}
        self.pathway_monitors: Dict[str, PathwayMonitor] = {}
        #: the XRAY registry, subscribed to the probe when measured.
        self.metrics: Optional[MetricsRegistry] = None
        self.sampler: Optional[Sampler] = None
        self.trace_collector: Optional[TraceCollector] = None
        self.watchdog: Optional[Watchdog] = None
        self._driver_seq = 0

    # ------------------------------------------------------------------
    @property
    def env(self):
        return self.cluster.env

    @property
    def probe(self):
        """The run's always-on counters and record stream."""
        return self.cluster.env.probe

    def node_os(self, node: str) -> NodeOs:
        return self.cluster.os(node)

    def client(self, node: str) -> FileClient:
        return self.clients[node]

    def run(self, until: Any = None) -> Any:
        return self.cluster.run(until)

    # ------------------------------------------------------------------
    # Terminal driving
    # ------------------------------------------------------------------
    def terminal_request(
        self,
        proc: Any,
        node: str,
        tcp_name: str,
        terminal_id: str,
        data: Any,
        timeout: float = 120_000.0,
    ) -> Generator:
        """Send one input screen to a terminal's TCP; returns the reply.

        (Generator helper for use inside simulation processes.)
        """
        fs = self.cluster.fs(node)
        reply = yield from fs.send(
            proc, tcp_name, TerminalInput(terminal_id, data), timeout=timeout
        )
        return reply

    def drive(
        self,
        node: str,
        tcp_name: str,
        terminal_id: str,
        data: Any,
    ) -> Any:
        """Run one terminal interaction to completion (blocking helper).

        The requesting process runs in the node's lowest-numbered live CPU.
        """
        node_os = self.cluster.os(node)
        self._driver_seq += 1

        def body(proc):
            reply = yield from self.terminal_request(
                proc, node, tcp_name, terminal_id, data
            )
            return reply

        proc = node_os.spawn(
            f"$drv{self._driver_seq}", node_os.alive_cpu_numbers()[0], body,
            register=False,
        )
        return self.cluster.run(proc.sim_process)

    def spawn(self, node: str, name: str, body: Callable, cpu: int = 0):
        """Spawn an unregistered utility process on a node."""
        return self.cluster.os(node).spawn(name, cpu, body, register=False)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def transaction_stats(self) -> Dict[str, Dict[str, int]]:
        return {
            node: {"commits": tmf.commits, "aborts": tmf.aborts}
            for node, tmf in self.tmf.items()
        }

    # ------------------------------------------------------------------
    # XRAY (measurement subsystem)
    # ------------------------------------------------------------------
    def xray_report(self) -> Dict[str, Any]:
        """The structured XRAY run report (works for unmeasured runs too,
        with the metric sections empty)."""
        return build_report(self)

    def xray_json(self) -> str:
        """The run report as canonical (deterministic) JSON."""
        return to_json(self.xray_report())

    def xray_screen(self) -> str:
        """The human-readable XRAY screen."""
        return render_report(self.xray_report())

    def write_xray(self, path: Any) -> Dict[str, Any]:
        """Write the JSON run report to ``path``; returns the report."""
        return write_report(self, path)

    # ------------------------------------------------------------------
    # TRACE (causal tracing subsystem)
    # ------------------------------------------------------------------
    def _require_collector(self) -> TraceCollector:
        if self.trace_collector is None:
            raise RuntimeError(
                "tracing is disabled; build with SystemBuilder(trace=True)"
            )
        return self.trace_collector

    def trace_of(self, transid: Any):
        """The assembled causal trace tree of one transaction."""
        return self._require_collector().trace_of(transid)

    def timeline_json(self, transids: Optional[List[Any]] = None) -> str:
        """The Chrome ``trace_event`` timeline as canonical JSON."""
        return _timeline_json(self._require_collector(), transids)

    def write_timeline(self, path: Any,
                       transids: Optional[List[Any]] = None) -> str:
        """Write the Chrome ``trace_event`` timeline to ``path``."""
        return _write_timeline(self._require_collector(), path, transids)

    def trace_screen(self, transid: Any) -> str:
        """The transaction flight-recorder screen (plain text)."""
        return self.trace_of(transid).render()

    def tmfcom(self, node: str) -> Tmfcom:
        """A TMFCOM console over ``node``'s TMF, trace-aware when the
        run is traced (``INFO TRANSACTION, TRACE``)."""
        return Tmfcom(self.tmf[node], collector=self.trace_collector)


class SystemBuilder:
    """Builds an :class:`EncompassSystem` step by declarative step."""

    def __init__(
        self,
        seed: int = 0,
        keep_trace: bool = True,
        measure: bool = False,
        trace: bool = False,
        watchdog: Any = None,
    ):
        self.cluster = Cluster(seed=seed, keep_trace=keep_trace)
        self.dictionary = DataDictionary()
        self.system = EncompassSystem(self.cluster, self.dictionary)
        # XRAY and TRACE are the probe's subscribers, subscribed before
        # any construction emits so they see the stream from time zero.
        if measure:
            self.system.metrics = MetricsRegistry()
            self.cluster.env.probe.subscribe(self.system.metrics.on_record)
        if trace:
            self.system.trace_collector = TraceCollector(self.cluster.env)
        # ``watchdog`` accepts True (default thresholds) or a
        # :class:`WatchdogConfig`; installed in :meth:`build`.
        self.watchdog_config: Optional[WatchdogConfig] = None
        if watchdog:
            self.watchdog_config = (
                watchdog if isinstance(watchdog, WatchdogConfig)
                else WatchdogConfig()
            )
        self._built = False

    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        cpus: int = 4,
        tmf_cpus: Optional[Tuple[int, int]] = None,
        audit_volume_name: str = "$audvol",
        audit_process_name: str = "$aud",
    ) -> NodeOs:
        """A node with its audit volume, AUDITPROCESS and TMF instance."""
        node_os = self.cluster.add_node(name, cpu_count=cpus)
        if tmf_cpus is None:
            tmf_cpus = (cpus - 2, cpus - 1) if cpus >= 2 else (0, 1)
        audit_volume = node_os.node.add_volume(audit_volume_name, *tmf_cpus)
        trail = AuditTrail(audit_volume)
        audit_process = AuditProcess(
            node_os, audit_process_name, tmf_cpus[0], tmf_cpus[1], trail
        )
        tmf = TmfNode(
            node_os,
            self.cluster.fs(name),
            monitor_volume=audit_volume,
            tmp_cpus=tmf_cpus,
        )
        tmf.register_audit_process(audit_process_name, audit_process)
        self.system.tmf[name] = tmf
        self.system.audit_processes[name] = audit_process
        self.system.clients[name] = FileClient(self.cluster.fs(name), self.dictionary)
        return node_os

    def add_audit_process(
        self,
        node: str,
        name: str,
        cpus: Tuple[int, int],
        volume_name: Optional[str] = None,
    ) -> AuditProcess:
        """An additional AUDITPROCESS pair with its own trail volume.

        "All audited discs on a given controller share an AUDITPROCESS
        and an audit trail.  Multiple controllers may be configured to
        use the same or different AUDITPROCESSes and audit trails."
        Pass the returned process's name as ``audit_process_name`` to
        :meth:`add_volume` to attach data volumes to it.
        """
        node_os = self.cluster.os(node)
        volume = node_os.node.add_volume(volume_name or f"{name}vol", *cpus)
        trail = AuditTrail(volume)
        audit_process = AuditProcess(node_os, name, cpus[0], cpus[1], trail)
        self.system.tmf[node].register_audit_process(name, audit_process)
        self.system.audit_processes[f"{node}:{name}"] = audit_process
        return audit_process

    def add_volume(
        self,
        node: str,
        name: str,
        cpus: Tuple[int, int] = (0, 1),
        audited: bool = True,
        cache_capacity: int = 256,
        audit_process_name: str = "$aud",
    ) -> DiscProcess:
        node_os = self.cluster.os(node)
        volume = node_os.node.add_volume(name, *cpus)
        disc_process = DiscProcess(
            node_os,
            name,
            cpus[0],
            cpus[1],
            volume,
            self.cluster.fs(node),
            audit_process=audit_process_name if audited else None,
            tmf_registry=self.system.tmf[node],
            cache_capacity=cache_capacity,
        )
        self.system.tmf[node].register_disc_process(name, disc_process)
        self.system.disc_processes[(node, name)] = disc_process
        return disc_process

    def define_file(self, schema: FileSchema) -> FileSchema:
        return self.dictionary.define(schema)

    def add_server_class(
        self,
        node: str,
        name: str,
        handler: ServerHandler,
        instances: int = 1,
        cpus: Optional[List[int]] = None,
        max_instances: int = 16,
    ) -> ServerClass:
        server_class = ServerClass(
            self.cluster.os(node),
            name,
            handler,
            self.system.clients[node],
            instances=instances,
            cpus=cpus,
            max_instances=max_instances,
        )
        self.system.server_classes[(node, name)] = server_class
        for (tcp_node, _), tcp in self.system.tcps.items():
            if tcp_node == node:
                tcp.add_server_class(server_class)
        return server_class

    def add_pathway_monitor(self, node: str, interval: float = 100.0) -> PathwayMonitor:
        classes = [
            sc for (sc_node, _), sc in self.system.server_classes.items()
            if sc_node == node
        ]
        monitor = PathwayMonitor(self.cluster.os(node), classes, interval=interval)
        self.system.pathway_monitors[node] = monitor
        return monitor

    def add_tcp(
        self,
        node: str,
        name: str,
        cpus: Tuple[int, int] = (0, 1),
        restart_limit: int = 5,
    ) -> TerminalControlProcess:
        tcp = TerminalControlProcess(
            self.cluster.os(node),
            name,
            cpus[0],
            cpus[1],
            self.cluster.fs(node),
            self.system.tmf[node],
            restart_limit=restart_limit,
        )
        for (sc_node, _), server_class in self.system.server_classes.items():
            if sc_node == node:
                tcp.add_server_class(server_class)
        self.system.tcps[(node, name)] = tcp
        return tcp

    def add_program(
        self, node: str, tcp_name: str, program_name: str,
        program: Callable[[ScreenContext, Any], Generator],
        screen: Optional[Tuple] = None,
    ) -> None:
        self.system.tcps[(node, tcp_name)].add_program(
            program_name, program, screen=screen
        )

    def add_terminal(
        self, node: str, tcp_name: str, terminal_id: str, program_name: str
    ) -> None:
        self.system.tcps[(node, tcp_name)].add_terminal(terminal_id, program_name)

    def connect(self, a: str, b: str, latency: Optional[float] = None) -> None:
        self.cluster.network.connect(a, b, latency)

    # ------------------------------------------------------------------
    def build(self) -> EncompassSystem:
        """Connect the network, run DDL, return the live system.

        A multi-node system with no :meth:`connect` lines gets a line
        between every pair of nodes.
        """
        if self._built:
            raise RuntimeError("build() already called")
        self._built = True
        if not self.cluster.network.lines and len(self.cluster.oses) > 1:
            self.cluster.connect_all()
        ddl_node = self.cluster.node_names[0]
        client = self.system.clients[ddl_node]
        dictionary = self.dictionary

        def ddl(proc):
            for file_name in dictionary.files():
                yield from client.create_file(proc, dictionary.schema(file_name))
            return True

        node_os = self.cluster.os(ddl_node)
        proc = node_os.spawn("$ddl", 0, ddl, register=False)
        self.cluster.run(proc.sim_process)
        if self.system.metrics is not None:
            # Utilization sampling only on measured runs: the sampler is
            # read-only with respect to simulated state, so the event
            # history replays identically, but its events would still
            # keep a run-to-exhaustion env.run() alive longer.
            self.system.sampler = Sampler(self.system)
            self.system.sampler.install()
        if self.watchdog_config is not None:
            # The watchdog is read-only like the sampler: installed only
            # when asked for, it replays the same event outcomes while
            # adding its own periodic check events.
            self.system.watchdog = Watchdog(
                self.system, self.watchdog_config,
                legal_transitions=legal_transitions_by_name(),
            )
            self.system.watchdog.install()
        return self.system
