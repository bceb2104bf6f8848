"""Closed-loop workload drivers and transaction metrics.

A *closed loop* of N simulated users: each user submits a terminal
input, waits for the reply, thinks, and repeats — the standard OLTP
load model.  The driver collects per-transaction latency and outcome,
from which the benchmark harness derives throughput and percentiles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from ..measure.registry import Histogram

__all__ = ["LoadResult", "TransactionMetrics", "run_closed_loop"]


@dataclass
class TransactionMetrics:
    """Outcome record of one driven transaction unit."""

    start: float
    end: float
    ok: bool
    attempts: int = 1
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class LoadResult:
    """Aggregate of one closed-loop run."""

    metrics: List[TransactionMetrics] = field(default_factory=list)
    duration: float = 0.0

    @property
    def committed(self) -> int:
        return sum(1 for m in self.metrics if m.ok)

    @property
    def failed(self) -> int:
        return sum(1 for m in self.metrics if not m.ok)

    @property
    def throughput(self) -> float:
        """Committed transactions per simulated second."""
        if self.duration <= 0:
            return 0.0
        return self.committed / (self.duration / 1000.0)

    @property
    def restarts(self) -> int:
        return sum(m.attempts - 1 for m in self.metrics if m.ok)

    def latency_histogram(self) -> Histogram:
        """Committed-transaction latencies as an XRAY histogram.

        The single percentile implementation of the repository lives in
        :class:`repro.measure.registry.Histogram`; both the closed-loop
        driver and the online metrics report through it.
        """
        histogram = Histogram(name="load.latency_ms")
        for m in self.metrics:
            if m.ok:
                histogram.record(m.latency)
        return histogram

    def latency_percentile(self, q: float) -> float:
        return self.latency_histogram().percentile(q)

    @property
    def mean_latency(self) -> float:
        return self.latency_histogram().mean


def run_closed_loop(
    system: Any,
    node: str,
    tcp_name: str,
    terminal_ids: List[str],
    make_input: Callable[[random.Random, str, int], Any],
    duration: float,
    think_time: float = 20.0,
    rng: Optional[random.Random] = None,
) -> LoadResult:
    """Drive ``terminal_ids`` in a closed loop for ``duration`` ms.

    ``make_input(rng, terminal_id, iteration)`` builds each input
    screen.  Returns the aggregated :class:`LoadResult`.
    """
    # The silent fallback derives from the cluster's named-stream factory
    # rather than a private random.Random(0), so the driver's draws are
    # tied to the run seed like every other stochastic element.
    rng = rng or system.cluster.streams.stream("workload.drivers")
    result = LoadResult()
    env = system.env
    start_time = env.now
    deadline = start_time + duration

    def user(proc, terminal_id):
        iteration = 0
        while env.now < deadline:
            data = make_input(rng, terminal_id, iteration)
            begin = env.now
            try:
                reply = yield from system.terminal_request(
                    proc, node, tcp_name, terminal_id, data
                )
            except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                result.metrics.append(
                    TransactionMetrics(begin, env.now, False, error=str(exc))
                )
                yield env.timeout(think_time)
                continue
            result.metrics.append(
                TransactionMetrics(
                    begin,
                    env.now,
                    bool(reply.get("ok")),
                    attempts=reply.get("attempts", 1),
                    error=reply.get("error"),
                )
            )
            iteration += 1
            yield env.timeout(think_time * (0.5 + rng.random()))

    node_os = system.cluster.os(node)
    cpu_numbers = node_os.alive_cpu_numbers()
    users = []
    for index, terminal_id in enumerate(terminal_ids):
        cpu = cpu_numbers[index % len(cpu_numbers)]
        users.append(
            node_os.spawn(
                f"$user-{terminal_id}",
                cpu,
                (lambda tid: lambda proc: user(proc, tid))(terminal_id),
                register=False,
            )
        )
    from ..sim import ProcessKilled

    for user_proc in users:
        try:
            system.cluster.run(user_proc.sim_process)
        except ProcessKilled:
            # The user's CPU failed: that terminal's session is lost.
            # (Drive users from a node outside the failure-injection
            # set to model terminals, which live off the host node.)
            continue
    result.duration = max(env.now - start_time, 1e-9)
    return result
