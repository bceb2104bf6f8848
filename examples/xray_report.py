"""XRAY: measure a banking run and print the operator's screen.

The paper's XRAY tool let an operator watch a running ENCOMPASS node:
where transactions spend their time, how busy each component is, and
where queues build.  This example runs the debit/credit workload with
measurement enabled (``SystemBuilder(measure=True)``), prints the
rendered XRAY screen — critical-path breakdown, per-component
utilization, latency histograms — and writes the full JSON report.

Measurement is deterministic: the same seed produces a byte-identical
JSON report, which this example verifies by running the workload twice.

Run:  python examples/xray_report.py
"""

import random
from pathlib import Path

from repro.apps.banking import (
    check_consistency,
    debit_credit_program,
    install_banking,
    populate_banking,
)
from repro.encompass import SystemBuilder
from repro.workloads import run_closed_loop

# Example output stays out of the working tree: out/ is gitignored.
REPORT_PATH = Path(__file__).resolve().parent.parent / "out" / "xray_report.json"


def run_measured(seed=7):
    builder = SystemBuilder(seed=seed, keep_trace=False, measure=True)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    install_banking(builder, "alpha", "$data", server_instances=3)
    builder.add_tcp("alpha", "$tcp1", cpus=(2, 3), restart_limit=8)
    builder.add_program("alpha", "$tcp1", "debit-credit", debit_credit_program)
    terminals = [f"T{i}" for i in range(8)]
    for terminal in terminals:
        builder.add_terminal("alpha", "$tcp1", terminal, "debit-credit")
    system = builder.build()
    populate_banking(system, "alpha", branches=2, tellers_per_branch=4,
                     accounts=10)  # only 10 accounts: hot!

    def make_input(rng, terminal_id, iteration):
        return {
            "account_id": rng.randrange(10),
            "teller_id": rng.randrange(8),
            "branch_id": rng.randrange(2),
            "amount": rng.choice([-20, -5, 5, 10, 25]),
            "allow_overdraft": True,
        }

    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals, make_input,
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
