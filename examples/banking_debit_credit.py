"""Debit/credit banking under concurrent load (TP1-style).

Eight tellers hammer a small, hot account set: lock conflicts,
occasional deadlock-timeout restarts, and through it all the
application's consistency assertions hold — the paper's definition of a
consistent data base.

Run:  python examples/banking_debit_credit.py
"""

import random

from repro.apps.banking import (
    build_banking_system,
    check_consistency,
    debit_credit_input,
)
from repro.workloads import run_closed_loop


def main():
    # Only 10 accounts: hot!
    system, terminals = build_banking_system(seed=7, accounts=10)
    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals,
        debit_credit_input(10, amounts=(-20, -5, 5, 10, 25)),
        duration=8000.0, think_time=10.0, rng=random.Random(99),
    )
    print(f"committed:        {result.committed}")
    print(f"failed:           {result.failed}")
    print(f"restarts (locks): {result.restarts}")
    print(f"throughput:       {result.throughput:.1f} tx/s (simulated)")
    print(f"mean latency:     {result.mean_latency:.1f} ms")
    print(f"p95 latency:      {result.latency_percentile(0.95):.1f} ms")

    report = check_consistency(system, "alpha")
    print(f"consistency check: {report}")
    assert report["consistent"], "invariants must hold"
    assert report["history_count"] == result.committed
    print("banking example OK")


if __name__ == "__main__":
    main()
