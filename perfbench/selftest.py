"""Layer-attribution self-test for the per-layer trace.

    python3 perfbench/selftest.py [--workload debit_credit] [--delay-us 400]

Runs one traced episode as is, then the same episode with a fixed host
delay spun inside every ``ProcessPair.checkpoint_multi`` resumption that
starts the call.  The trace must

* put the injected time on the guardian layer's self-time row, within
  25% of ``calls x delay``;
* leave every count of every layer identical, and the simulated history
  identical, because the delay costs host time only.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter_ns
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run as bench  # noqa: E402 - after the path set-up above
from layertrace import LAYERS, LayerTrace  # noqa: E402
from repro.guardian import ProcessPair  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOLERANCE = 0.25


def _spin(ns: int) -> None:
    end = perf_counter_ns() + ns
    while perf_counter_ns() < end:
        pass


def _traced_episode(workload: Any, seed: int, delay_ns: int):
    def inject(trace: LayerTrace) -> None:
        original = ProcessPair.checkpoint_multi

        def delayed(self, *args, **kwargs):
            # A generator, so the delay lands inside the traced span.
            _spin(delay_ns)
            return (yield from original(self, *args, **kwargs))

        trace._patch(ProcessPair, "checkpoint_multi", delayed)

    trace = LayerTrace()
    trace.install(extra=inject if delay_ns else None)
    try:
        episode = bench.run_episode(workload, seed, layer_trace=trace)
    finally:
        trace.uninstall()
    return episode, trace


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="debit_credit", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=bench.PINNED_SEED)
    parser.add_argument("--delay-us", type=float, default=400.0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.units_per_terminal = max(workload.units_per_terminal // 4, 2)
    seed = bench.episode_seed(args.seed, 0)
    delay_ns = int(args.delay_us * 1000)
    plain, plain_trace = _traced_episode(workload, seed, 0)
    slowed, slowed_trace = _traced_episode(workload, seed, delay_ns)

    failures: List[str] = []
    if plain.fingerprint != slowed.fingerprint:
        failures.append("the injected delay changed the simulated history")
    if plain_trace.deterministic_counts() != slowed_trace.deterministic_counts():
        failures.append("the injected delay changed a per-layer count")
    calls = slowed_trace.calls["guardian.checkpoint"]
    multi = slowed_trace.counts["checkpoint.checkpoint_multi"]
    before: Dict[str, int] = plain_trace.layer_self_ns()
    after: Dict[str, int] = slowed_trace.layer_self_ns()
    expected_ns = multi * delay_ns
    moved_ns = after["guardian"] - before["guardian"]
    print(f"workload {args.workload}  seed {seed}  delay {args.delay_us} us  "
          f"checkpoint calls {calls}  checkpoint_multi calls {multi}")
    print(f"  {'layer':12s} {'self ms':>10s} {'with delay':>12s} {'moved ms':>10s}")
    for layer in LAYERS:
        print(f"  {layer:12s} {before[layer] / 1e6:10.1f} {after[layer] / 1e6:12.1f} "
              f"{(after[layer] - before[layer]) / 1e6:10.1f}")
    print(f"  guardian moved {moved_ns / 1e6:.1f} ms; injected {expected_ns / 1e6:.1f} ms")
    if not multi:
        failures.append("no checkpoint_multi call was traced")
    elif abs(moved_ns - expected_ns) > TOLERANCE * expected_ns:
        failures.append(
            f"guardian self time moved {moved_ns / 1e6:.1f} ms, "
            f"not the injected {expected_ns / 1e6:.1f} ms (+/-{TOLERANCE:.0%})"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    print("PASS" if not failures else "FAIL")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
