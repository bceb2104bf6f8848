"""TRACE: follow one transaction end to end, then export the timeline.

Where XRAY aggregates (histograms, utilization), TRACE narrates: every
message the banking workload sends carries a trace context, so each
transaction folds into a causal tree of serve/rpc spans — TCP → server
→ DISCPROCESS → audit → TMP — with the timed phases inside them (lock
waits, disc accesses, checkpoint messages, the commit's completion
write) as leaves, interleaved with the domain trace records
(checkpoints, state broadcasts) the run already emits.

This example runs the debit/credit workload with tracing enabled
(``SystemBuilder(trace=True)``) under the invariant watchdog
(``repro.simtest.Watchdog``), prints one transaction's flight
recorder (the TMFCOM ``INFO TRANSACTION, TRACE`` screen), and writes
the whole run as a Chrome ``trace_event`` timeline — open it in
chrome://tracing or https://ui.perfetto.dev to scrub through the run.

Tracing is deterministic: the same seed produces a byte-identical
timeline JSON, which this example verifies by running the workload
twice.

Run:  python examples/trace_timeline.py
"""

import json
import random
from pathlib import Path

from repro.apps.banking import (
    debit_credit_program,
    install_banking,
    populate_banking,
)
from repro.encompass import SystemBuilder
from repro.simtest import Watchdog
from repro.workloads import run_closed_loop

# Example output stays out of the working tree: out/ is gitignored.
TIMELINE_PATH = (
    Path(__file__).resolve().parent.parent / "out" / "trace_timeline.json"
)


def run_traced(seed=7):
    builder = SystemBuilder(seed=seed, trace=True)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    install_banking(builder, "alpha", "$data", server_instances=3)
    builder.add_tcp("alpha", "$tcp1", cpus=(2, 3), restart_limit=8)
    builder.add_program("alpha", "$tcp1", "debit-credit", debit_credit_program)
    terminals = [f"T{i}" for i in range(4)]
    for terminal in terminals:
        builder.add_terminal("alpha", "$tcp1", terminal, "debit-credit")
    system = builder.build()
    Watchdog(system)
    populate_banking(system, "alpha", branches=2, tellers_per_branch=2,
                     accounts=10)

    def make_input(rng, terminal_id, iteration):
        return {
            "account_id": rng.randrange(10),
            "teller_id": rng.randrange(4),
            "branch_id": rng.randrange(2),
            "amount": rng.choice([-20, -5, 5, 10, 25]),
            "allow_overdraft": True,
        }

    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals, make_input,
        duration=2000.0, think_time=10.0, rng=random.Random(99),
    )
    return system, result


def main():
    system, result = run_traced()
    blob = system.timeline_json()
    print(f"committed: {result.committed}, failed: {result.failed}")
    print(f"traced transactions: {len(system.trace_collector.trace_ids())}")
    print()

    # One TCP-driven unit's flight recorder, via the TMFCOM console —
    # the ".2." transids are the ones the TCP began for terminals (the
    # loader's populate transactions come first).
    tmfcom = system.tmfcom("alpha")
    unit_ids = [t for t in system.trace_collector.trace_ids() if ".2." in t]
    screen = tmfcom.trace(unit_ids[0])
    print(screen)
    print()
    # The commit's Monitor Audit Trail write is a timed phase of the tree.
    assert "[phase] completion-write (audit)" in screen, screen

    # The watchdog watched the whole run and saw nothing wrong.
    summary = system.watchdog.summary()
    print(f"watchdog: {summary['alarms']} alarms over "
          f"{summary['checks_run']} checks, "
          f"{summary['images_examined']} committed audit images examined")
    assert summary["alarms"] == 0 and summary["images_examined"] > 0, summary

    # Export the full run as a Chrome trace_event timeline.
    TIMELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
    system.write_timeline(str(TIMELINE_PATH))
    events = json.loads(blob)["traceEvents"]
    assert events and all("ph" in event for event in events)
    print(f"timeline with {len(events)} trace_event records written to "
          f"{TIMELINE_PATH} (load in chrome://tracing)")

    # Determinism: a second run with the same seed must produce a
    # byte-identical timeline.
    system2, _ = run_traced()
    assert system2.timeline_json() == blob, (
        "same-seed traced runs must be byte-identical"
    )
    print("determinism check OK: same seed -> byte-identical timeline JSON")


if __name__ == "__main__":
    main()
