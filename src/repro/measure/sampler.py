"""Periodic utilization sampling (the XRAY "online monitor" loop).

A :class:`Sampler` is a simulation process that wakes every
:data:`SAMPLE_INTERVAL` simulated milliseconds and reads the cheap
always-on accumulators the hardware and server layers maintain (CPU busy
time, bus transfer time, DISCPROCESS service time and queue depth, cache
hit counts, AUDITPROCESS buffer depth).  Each wake-up appends one row to the registry's
``samples`` list and refreshes the matching ``util.*`` gauges.

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
        self.samples_taken = 0
        self.process = None
        self._last: Dict[str, float] = {}
        self._last_cache: Dict[str, tuple] = {}

    # ------------------------------------------------------------------
    def install(self):
        """Start the sampling process on the system's environment."""
        if self.process is not None:
            return self.process
        self._baseline()
        self.process = self.system.env.process(self._run(), name="xray-sampler")
        return self.process

    def _run(self) -> Generator:
        env = self.system.env
        while self.samples_taken < MAX_SAMPLES:
            yield env.timeout(SAMPLE_INTERVAL)
            self.sample(env.now)

    # ------------------------------------------------------------------
    def _nodes(self):
        cluster = self.system.cluster
        for node_name in cluster.node_names:
            yield node_name, cluster.os(node_name).node

    def _accumulators(self) -> Dict[str, float]:
        """Current busy-time accumulator per component (name -> ms)."""
        values: Dict[str, float] = {}
        for node_name, node in self._nodes():
            for cpu in node.cpus:
                values[f"{node_name}.cpu{cpu.number}"] = cpu.busy_ms
            values[f"{node_name}.bus"] = node.buses.busy_ms
        for (node_name, volume), dp in sorted(self.system.disc_processes.items()):
            values[f"{node_name}.{volume}"] = dp.busy_ms
        for key, ap in sorted(self.system.audit_processes.items()):
            values[f"audit.{key}"] = ap.busy_ms
        return values

    def _cache_counts(self) -> Dict[str, tuple]:
        counts: Dict[str, tuple] = {}
        for (node_name, volume), dp in sorted(self.system.disc_processes.items()):
            stats = dp.cache.stats
            counts[f"{node_name}.{volume}"] = (stats.hits, stats.misses)
        return counts

    def _baseline(self) -> None:
        self._last = self._accumulators()
        self._last_cache = self._cache_counts()

    # ------------------------------------------------------------------
    def sample(self, now: float) -> Dict[str, Any]:
        """Take one sample row at simulated time ``now``."""
        registry = self.registry
        row: Dict[str, Any] = {"t": now}
        utilization: Dict[str, float] = {}
        current = self._accumulators()
        for name, busy in current.items():
            delta = busy - self._last.get(name, 0.0)
            utilization[name] = min(max(delta / SAMPLE_INTERVAL, 0.0), 1.0)
        self._last = current
        row["utilization"] = utilization

        queues: Dict[str, float] = {}
        hit_rates: Dict[str, float] = {}
        caches = self._cache_counts()
        for (node_name, volume), dp in sorted(self.system.disc_processes.items()):
            key = f"{node_name}.{volume}"
            queues[key] = float(dp.pending_requests)
            queues[f"{key}.disc_backlog_ms"] = max(dp._disc_free_at - now, 0.0)
            hits, misses = caches[key]
            last_hits, last_misses = self._last_cache.get(key, (0, 0))
            delta_hits = hits - last_hits
            delta_total = delta_hits + (misses - last_misses)
            hit_rates[key] = delta_hits / delta_total if delta_total else 0.0
        self._last_cache = caches
        for key, ap in sorted(self.system.audit_processes.items()):
            queues[f"audit.{key}.buffered"] = float(len(ap.state["buffer"]))
        row["queues"] = queues
        row["cache_hit_rate"] = hit_rates

        registry.samples.append(row)
        for name, value in utilization.items():
            registry.set_gauge(f"util.{name}", value)
        self.samples_taken += 1
        return row
