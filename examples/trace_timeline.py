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

from repro.apps.banking import build_banking_system, debit_credit_input
from repro.simtest import Watchdog
from repro.workloads import run_closed_loop

# Example output stays out of the working tree: out/ is gitignored.
TIMELINE_PATH = (
    Path(__file__).resolve().parent.parent / "out" / "trace_timeline.json"
)


def run_traced(seed=7):
    system, terminals = build_banking_system(
        seed=seed, accounts=10, tellers=4, terminals=4, trace=True,
    )
    Watchdog(system)
    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals,
        debit_credit_input(10, 4, 2, (-20, -5, 5, 10, 25)),
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
