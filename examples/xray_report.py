"""XRAY: measure a banking run and print the operator's screen.

The paper's XRAY tool let an operator watch a running ENCOMPASS node:
where transactions spend their time, how busy each component is, and
where queues build.  This example runs the debit/credit workload with
measurement enabled (``SystemBuilder(measure=True)``), prints the
rendered XRAY screen — critical-path breakdown (cpu, bus, network,
disc, lock, audit, queue, unattributed), per-component utilization,
latency histograms — checks that the breakdown leaves under 1% of
transaction time unattributed, and writes the full JSON report.

Measurement is deterministic: the same seed produces a byte-identical
JSON report, which this example verifies by running the workload twice.

Run:  python examples/xray_report.py
"""

import random
from pathlib import Path

from repro.apps.banking import (
    build_banking_system,
    check_consistency,
    debit_credit_input,
)
from repro.workloads import run_closed_loop

# Example output stays out of the working tree: out/ is gitignored.
REPORT_PATH = Path(__file__).resolve().parent.parent / "out" / "xray_report.json"


def run_measured(seed=7):
    # Only 10 accounts: hot!
    system, terminals = build_banking_system(seed=seed, accounts=10, measure=True)
    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals,
        debit_credit_input(10, amounts=(-20, -5, 5, 10, 25)),
        duration=8000.0, think_time=10.0, rng=random.Random(99),
    )
    return system, result


def main():
    system, result = run_measured()
    # Capture the report before anything else touches the simulation —
    # even a consistency scan runs simulated disc reads and would show
    # up in the metrics.
    blob = system.xray_json()
    print(f"committed: {result.committed}, failed: {result.failed}, "
          f"throughput: {result.throughput:.1f} tx/s (simulated)")
    print()
    print(system.xray_screen())
    print()

    # Every instant of every transaction has a named cause: the queue
    # row is where units waited for a $bank server instance, and what no
    # span explains stays under 1%.
    tx = system.xray_report()["transactions"]
    share = tx["category_share"]
    print(f"queue: {tx['category_ms']['queue']:.1f} ms "
          f"({100.0 * share['queue']:.1f}% of transaction time)")
    assert share["unattributed"] < 0.01, share
    print()

    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(blob)
    print(f"full JSON report written to {REPORT_PATH}")

    report = check_consistency(system, "alpha")
    assert report["consistent"], "invariants must hold"

    # Determinism: a second run with the same seed must produce a
    # byte-identical report.
    system2, _ = run_measured()
    assert system2.xray_json() == blob, (
        "same-seed measured runs must be byte-identical"
    )
    print("determinism check OK: same seed -> byte-identical JSON report")


if __name__ == "__main__":
    main()
