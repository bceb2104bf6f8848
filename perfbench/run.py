"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload debit_credit [--seed 1]
        [--seconds 30] [--trace 0|1]

The program under test is imported from ``src/`` of the checkout this
file sits in; nothing is built or installed.

``--trace 0`` measures the end-to-end metrics.  A run is made of
*episodes*: each builds a fresh system and loads its data (timed as
set-up), runs the closed-loop load phase (timed), then settles the
system and checks its outputs.  The workload has a few input sets, each
with its own seed derived from ``--seed``; the run cycles through them
until ``--seconds`` of host time have passed (at least one full cycle).
Simulated metrics are pooled over one episode of every input set, and a
repeated input set must replay bit for bit.  Host metrics are medians:
over the episodes for set-up, and over slices of committed units for
throughput.

``--trace 1`` measures the per-layer metrics on the first input set: one
untraced episode, two episodes traced by :mod:`layertrace` (whose counts must equal each other
and whose simulated history must equal the untraced one), and one
episode built with the program's own probes on
(``SystemBuilder(measure=True, trace=True)``).  The spans of the first
traced episode are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness or determinism check prints ``"correct": false`` and exits
with status 1.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import sys
import time
from bisect import bisect_right
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

#: the default workload seed, and a second seed kept out of development
#: so a later claim can be confirmed on inputs nobody tuned against
PINNED_SEED = 1
HELD_OUT_SEED = 7919
#: committed units per host-throughput sample
SLICE_UNITS = 64
#: host seconds are reported as *reference seconds*: the time the work
#: would take on a host where one ``host_speed()`` probe takes this long
REFERENCE_PROBE_S = 0.030


class BenchmarkFailure(Exception):
    """A correctness or determinism check failed."""


class Episode:
    """What one build + load + check cycle measured."""

    def __init__(self, setup_s: float, setup_scale: float, load_s: float,
                 load_scale: float, slice_rates: List[float], result: Any,
                 events: int, counters: Dict[str, int], failure_times: List[float],
                 fingerprint: Tuple[Any, ...]):
        self.setup_s = setup_s
        self.load_s = load_s
        #: reference seconds per host second of each phase (host_speed())
        self.setup_scale = setup_scale
        self.load_scale = load_scale
        #: committed units per host second, per slice of SLICE_UNITS
        self.slice_rates = slice_rates
        self.result = result
        self.events = events
        #: load-phase deltas of the DISCPROCESS and pair counters
        self.counters = counters
        #: simulated ms of each injected CPU failure
        self.failure_times = failure_times
        self.fingerprint = fingerprint

    @property
    def committed(self) -> int:
        return self.result.committed

    @property
    def attempted(self) -> int:
        return len(self.result.metrics)


def _pairs(system: Any) -> List[Any]:
    pairs: List[Any] = list(system.disc_processes.values())
    pairs += list(system.audit_processes.values())
    pairs += list(system.tcps.values())
    for tmf in system.tmf.values():
        pairs += [tmf.tmp, tmf.backout_process]
    return pairs


def _counters(system: Any) -> Dict[str, int]:
    totals = dict.fromkeys(
        ("hits", "misses", "waits", "timeouts", "batches", "records", "takeovers"), 0)
    for disc in system.disc_processes.values():
        totals["hits"] += disc.cache.stats.hits
        totals["misses"] += disc.cache.stats.misses
        totals["waits"] += disc.locks.waits
        totals["timeouts"] += disc.locks.timeouts
        totals["batches"] += disc.audit_batches_sent
        totals["records"] += disc.audit_records_forwarded
    totals["takeovers"] = sum(pair.takeovers for pair in _pairs(system))
    return totals


def _probe_kernel() -> None:
    """Fixed pure-Python work shaped like the simulator's hot loop:
    heap pushes and pops, small dicts and lists, generator resumption."""
    heap: List[Tuple[int, int, List[Any]]] = []
    table: Dict[int, Dict[str, Any]] = {}

    def countdown(n: int):
        while n:
            yield n
            n -= 1

    for i in range(12_000):
        heapq.heappush(heap, (i * 7919 % 1009, i, [i, "x"]))
        table[i % 509] = {"key": i, "value": [i, i + 1], "tag": str(i)}
        for _ in countdown(3):
            pass
        if len(heap) > 64:
            heapq.heappop(heap)


def host_speed() -> float:
    """Seconds one probe kernel takes now (median of five).

    The benchmark shares its host with other work whose load drifts by
    up to 2x over minutes, and that drift moves every host timing of a
    run together.  Timing this fixed kernel right before and after each
    timed phase measures the drift, so host times can be reported in
    reference seconds (see ``REFERENCE_PROBE_S``).  The kernel runs no
    code of the program under test.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - start)
    return median(times)


def run_episode(workload: Any, seed: int, layer_trace: Any = None,
                **builder_options: Any) -> Episode:
    """Build, load, drive and check one episode of ``workload``.

    ``builder_options`` go to ``SystemBuilder``; ``layer_trace`` is an
    installed :class:`layertrace.LayerTrace`, active during the load.
    """
    gc.collect()
    speed_before = host_speed()
    start = time.perf_counter()
    run = workload.build(seed, **builder_options)
    setup_s = time.perf_counter() - start
    system = run.system
    events_before = system.env.events_processed
    before = _counters(system)
    if layer_trace is not None:
        layer_trace.wrap_servers(system)
        layer_trace.active = True
    gc.collect()
    speed_between = host_speed()
    start = time.perf_counter()
    result = workload.drive(run, seed)
    load_s = time.perf_counter() - start
    speed_after = host_speed()
    if layer_trace is not None:
        layer_trace.active = False
    events = system.env.events_processed - events_before
    after = _counters(system)
    counters = {key: after[key] - before[key] for key in after}
    failure_times = [
        at for at, action in (run.failures.injected if run.failures else ())
        if action.startswith("fail:")
    ]
    # The simulated history, captured before the checks add work to it.
    fingerprint = (
        events,
        system.env.now,
        tuple((m.start, m.end, m.ok, m.attempts, m.error) for m in result.metrics),
        tuple(sorted(system.transaction_stats().items())),
        tuple(sorted(counters.items())),
    )
    try:
        workload.check(run)
    except Exception as exc:  # the workloads raise CorrectnessError
        raise BenchmarkFailure(f"{workload.name} seed {seed}: {exc}") from exc
    clock = run.commit_clock
    slice_rates = [
        SLICE_UNITS / (clock[i + SLICE_UNITS] - clock[i])
        for i in range(0, len(clock) - SLICE_UNITS, SLICE_UNITS)
    ]
    return Episode(
        setup_s, REFERENCE_PROBE_S / ((speed_before + speed_between) / 2),
        load_s, REFERENCE_PROBE_S / ((speed_between + speed_after) / 2),
        slice_rates, result, events, counters, failure_times, fingerprint,
    )


def _same_history(reference: Episode, other: Episode, what: str) -> None:
    if reference.fingerprint != other.fingerprint:
        raise BenchmarkFailure(f"simulated history differs between {what}")


def _sim_metrics(episodes: List[Episode]) -> Dict[str, float]:
    """Simulated metrics pooled over one episode per input set."""
    metrics = [m for e in episodes for m in e.result.metrics]
    committed = sum(e.committed for e in episodes)
    # Exact (interpolated) percentiles: the histogram behind
    # LoadResult.latency_percentile reports bucket representatives.
    percentiles = quantiles(
        [m.latency for m in metrics if m.ok], n=100, method="inclusive"
    )
    return {
        "sim_tx_per_s": committed / (sum(e.result.duration for e in episodes) / 1e3),
        "sim_latency_p50_ms": percentiles[49],
        "sim_latency_p99_ms": percentiles[98],
        "commit_frac": committed / len(metrics),
    }


def episode_seed(seed: int, index: int) -> int:
    """The seed of input set ``index`` of a run with ``--seed seed``."""
    return seed * 1000 + index


# ----------------------------------------------------------------------
# End-to-end measurement (--trace 0)
# ----------------------------------------------------------------------
def measure_end_to_end(workload: Any, seed: int, seconds: float) -> Tuple[Dict[str, float], List[Episode], Dict[str, Any]]:
    """Cycle through the workload's input sets until ``seconds`` pass."""
    first: List[Episode] = []
    episodes: List[Episode] = []
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + seconds
    while not first or time.perf_counter() < deadline:
        for index in range(workload.input_sets):
            episode = run_episode(workload, episode_seed(seed, index))
            if len(first) < workload.input_sets:
                first.append(episode)
            else:
                _same_history(first[index], episode, "repeated episodes")
            episodes.append(episode)
            if len(episodes) > len(first) and time.perf_counter() >= deadline:
                break
        if not peak_rss_mb:
            # High-water RSS of this fresh process after one episode of
            # every input set; ru_maxrss never decreases, and later
            # repeats could only add allocator drift.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "host_commits_per_s": median(
            r / e.load_scale for e in episodes for r in e.slice_rates),
        "setup_s": median(e.setup_s * e.setup_scale for e in episodes),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(_sim_metrics(first))
    info = {
        "episodes": len(episodes),
        "latency_samples": sum(e.committed for e in first),
        "raw_host_commits_per_s": round(
            median(r for e in episodes for r in e.slice_rates), 2),
        "raw_setup_s": round(median(e.setup_s for e in episodes), 4),
        "host_speed_scale": [round(e.load_scale, 3) for e in episodes],
    }
    return metrics, episodes, info


# ----------------------------------------------------------------------
# Per-layer measurement (--trace 1)
# ----------------------------------------------------------------------
def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def _takeover_stall_ms(episode: Episode) -> float:
    """Mean simulated ms from each injected failure to the next commit."""
    ends = sorted(m.end for m in episode.result.metrics if m.ok)
    stalls = []
    for at in episode.failure_times:
        index = bisect_right(ends, at)
        if index < len(ends):
            stalls.append(ends[index] - at)
    return sum(stalls) / len(stalls) if stalls else 0.0


def layer_metrics(untraced: Episode, traced: List[Episode], traces: List[Any],
                  probed: Episode) -> Dict[str, float]:
    """The per-layer metrics from the four episodes of a traced run."""
    from layertrace import LAYERS

    trace = traces[0]
    episode = traced[0]
    commits = episode.committed
    counts = trace.counts
    calls = trace.calls
    delta = episode.counters

    def self_us(prefix: str) -> float:
        # Host time: summed over both traced episodes.
        return sum(t.self_of(prefix) for t in traces) / 1e3

    def per_call_us(prefix: str) -> float:
        return _per(self_us(prefix), sum(t.calls_of(prefix) for t in traces))

    traced_ns = sum(int(e.load_s * 1e9) for e in traced)
    layer_ns = {layer: sum(t.layer_self_ns()[layer] for t in traces) for layer in LAYERS}
    residual_ns = traced_ns - sum(t.top_ns for t in traces)
    audit_round_trips = sum(
        counts[f"request.{kind}"] for kind in ("AppendAudit", "ForceBoxcar", "ForceAudit")
    )
    append_us = sum(t.incl_ns["core.audit.AppendAudit"] for t in traces) / 1e3
    metrics: Dict[str, float] = {
        "sim.events_per_commit": _per(episode.events, commits),
        "sim.host_events_per_s": _per(untraced.events, untraced.load_s),
        "sim.engine_residual_share": _per(residual_ns, traced_ns),
        "sim.fastcopy_calls_per_commit": _per(calls["sim.fastcopy"], commits),
        "sim.fastcopy_host_share": _per(
            sum(t.incl_ns["sim.fastcopy"] for t in traces), traced_ns),
        "sim.deepcopy_fallbacks_per_commit": _per(calls["sim.deepcopy_fallback"], commits),
        "hardware.disc_reads_per_commit": _per(calls["hardware.read_block"], commits),
        "hardware.disc_writes_per_commit": _per(calls["hardware.write_block"], commits),
        "hardware.cpu_busy_ms_per_commit": _per(trace.cpu_charged_ms, commits),
        "hardware.network_msgs_per_commit": _per(counts["request.inter_node"], commits),
        "guardian.requests_per_commit": _per(calls["guardian.request"], commits),
        "guardian.request_host_us": per_call_us("guardian.request"),
        "guardian.checkpoints_per_commit": _per(calls["guardian.checkpoint"], commits),
        "guardian.checkpoint_host_us": per_call_us("guardian.checkpoint"),
        "guardian.takeovers": float(delta["takeovers"]),
        "guardian.takeover_host_ms": _per(
            sum(t.incl_ns["guardian.takeover"] for t in traces) / 1e6,
            delta["takeovers"] * len(traces)),
        "guardian.takeover_stall_ms": _takeover_stall_ms(episode),
        "discprocess.ops_per_commit": _per(calls["discprocess.serve"], commits),
        "discprocess.op_host_us": per_call_us("discprocess.serve"),
        "discprocess.cache_hit_ratio": _per(delta["hits"], delta["hits"] + delta["misses"]),
        "discprocess.lock_waits_per_commit": _per(delta["waits"], commits),
        "discprocess.lock_timeouts": float(delta["timeouts"]),
        "discprocess.audit_records_per_batch": _per(delta["records"], delta["batches"]),
        "core.audit_round_trips_per_commit": _per(audit_round_trips, commits),
        "core.audit_forces_per_commit": _per(calls["core.audit.ForceAudit"], commits),
        "core.audit_append_host_us_per_record": _per(
            append_us, counts["audit.append_records"] * len(traces)),
        "core.tmf_end_host_us": _per(
            self_us("core.end") + self_us("core.tmp.TmpCommit"),
            sum(t.calls["core.end"] for t in traces)),
        "core.tmp_requests_per_commit": _per(counts["tmp.inter_node"], commits),
        "core.backouts_per_commit": _per(calls["core.backout"], commits),
        "encompass.unit_host_us": per_call_us("encompass.unit"),
        "encompass.server_host_us": per_call_us("encompass.server"),
        "encompass.attempts_per_unit": _per(
            sum(m.attempts for m in episode.result.metrics), episode.attempted),
        "bench.trace_overhead_ratio": _per(
            sum(e.load_s for e in traced) / len(traced), untraced.load_s),
        "measure.probe_overhead_ratio": _per(
            untraced.committed / untraced.load_s, probed.committed / probed.load_s),
    }
    for layer in LAYERS:
        metrics[f"{layer}.host_share"] = _per(layer_ns[layer], traced_ns)
    # Layer self times plus the engine residual must account for the
    # traced host time; negative self time would mean broken nesting.
    if any(ns < 0 for t in traces for ns in t.self_ns.values()) or residual_ns < 0:
        raise BenchmarkFailure("span nesting is inconsistent (negative self time)")
    return metrics


def measure_layers(workload: Any, seed: int) -> Tuple[Dict[str, float], List[Episode], Dict[str, Any]]:
    from layertrace import LayerTrace

    seed = episode_seed(seed, 0)
    untraced = run_episode(workload, seed)
    traced: List[Episode] = []
    traces: List[Any] = []
    for _repeat in range(2):
        trace = LayerTrace()
        trace.install()
        try:
            traced.append(run_episode(workload, seed, layer_trace=trace))
        finally:
            trace.uninstall()
        traces.append(trace)
        _same_history(untraced, traced[-1], "the traced and untraced runs")
    if traces[0].deterministic_counts() != traces[1].deterministic_counts():
        raise BenchmarkFailure("per-layer counts differ between two traced runs")
    probed = run_episode(workload, seed, measure=True, trace=True)
    metrics = layer_metrics(untraced, traced, traces, probed)
    span_file = os.path.join(HERE, "out", f"{workload.name}-seed{seed}.spans.csv.gz")
    info = {
        "spans_written": traces[0].write_spans(span_file),
        "spans_dropped": traces[0].spans_dropped,
        "span_file": os.path.relpath(span_file, ROOT),
        "layer_self_ms": {
            layer: round(ns / 1e6, 1) for layer, ns in traces[0].layer_self_ns().items()
        },
        "traced_load_ms": round(traced[0].load_s * 1e3, 1),
    }
    return metrics, [untraced] + traced + [probed], info


# ----------------------------------------------------------------------
def declared_metrics(section: str) -> Dict[str, str]:
    """Name -> unit of the ``section`` metrics declared in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        from workloads import WORKLOADS
        units = declared_metrics("per_layer" if args.trace else "end_to_end")
    except (ImportError, OSError) as exc:
        print(f"cannot import the program under test from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()

    correct = True
    metrics: Dict[str, float] = {}
    episodes: List[Episode] = []
    info: Dict[str, Any] = {}
    try:
        if args.trace:
            metrics, episodes, info = measure_layers(workload, args.seed)
        else:
            metrics, episodes, info = measure_end_to_end(workload, args.seed, args.seconds)
    except BenchmarkFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        correct = False
    if correct and sorted(metrics) != sorted(units):
        print(f"FAILED: measured {sorted(metrics)}, declared {sorted(units)}",
              file=sys.stderr)
        correct = False
    attempted = sum(e.attempted for e in episodes)
    committed = sum(e.committed for e in episodes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    print(f"  attempted {attempted}  failed {attempted - committed}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": attempted - committed if episodes else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
