"""Periodic utilization sampling (the XRAY "online monitor" loop).

A :class:`Sampler` is a simulation process that wakes every
:data:`SAMPLE_INTERVAL` simulated milliseconds and reads the cheap
always-on busy-time accumulators the hardware layer maintains (CPUs,
buses, and the data and trail volumes behind the DISCPROCESSes and
AUDITPROCESSes; a volume's counts arm time over its serving arms).
Each wake-up appends one utilization row to the registry's ``samples``
list; the report's ``util.*`` gauges are the latest row.

Sampling is read-only: it observes accumulators but changes no simulated
state, so a measured run replays the exact event history of an
unmeasured one.  The sample count is bounded (:data:`MAX_SAMPLES`) so a
run-to-exhaustion simulation still terminates.

The sampler is duck-typed against :class:`repro.encompass.config.
EncompassSystem` and deliberately imports nothing from the rest of
``repro`` — it must be importable from any layer without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

__all__ = ["Sampler"]

#: simulated milliseconds between samples.
SAMPLE_INTERVAL = 100.0
#: samples taken at most, so a run-to-exhaustion simulation ends.
MAX_SAMPLES = 2000


class Sampler:
    """Samples component utilization of one system at a fixed interval."""

    def __init__(self, system: Any):
        self.system = system
        self.registry = system.metrics
        self.process = None
        self._last: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def install(self):
        """Start the sampling process on the system's environment."""
        if self.process is not None:
            return self.process
        self._last = self._accumulators()
        self.process = self.system.env.process(self._run(), name="xray-sampler")
        return self.process

    def _run(self) -> Generator:
        env = self.system.env
        while len(self.registry.samples) < MAX_SAMPLES:
            yield env.timeout(SAMPLE_INTERVAL)
            self.sample(env.now)

    # ------------------------------------------------------------------
    def _accumulators(self) -> Dict[str, float]:
        """Current busy-time accumulator per component (name -> ms)."""
        values: Dict[str, float] = {}
        cluster = self.system.cluster
        for node_name in cluster.node_names:
            node = cluster.node(node_name)
            for cpu in node.cpus:
                values[f"{node_name}.cpu{cpu.number}"] = cpu.busy_ms
            values[f"{node_name}.bus"] = node.buses.busy_ms
        for (node_name, volume), dp in sorted(self.system.disc_processes.items()):
            values[f"{node_name}.{volume}"] = dp.volume.busy_ms
        for key, ap in sorted(self.system.audit_processes.items()):
            values[f"audit.{key}"] = ap.trail.volume.busy_ms
        return values

    # ------------------------------------------------------------------
    def sample(self, now: float) -> Dict[str, Any]:
        """Take one sample row at simulated time ``now``."""
        registry = self.registry
        utilization: Dict[str, float] = {}
        current = self._accumulators()
        for name, busy in current.items():
            delta = busy - self._last.get(name, 0.0)
            utilization[name] = min(max(delta / SAMPLE_INTERVAL, 0.0), 1.0)
        self._last = current
        row = {"t": now, "utilization": utilization}
        registry.samples.append(row)
        return row
