"""The system-level atomicity property: under arbitrary single-module
failure schedules, the banking invariants hold and every driven unit is
applied exactly once or not at all.

This is the reproduction's strongest correctness evidence for the
paper's central claim — "recovery from failures is transparent to user
programs and does not require system halt or restart" with "logical
data base consistency guaranteed despite processor failure, application
process failure, network partition, transaction deadlock, or
application-requested transaction abort."
"""

import random

import pytest

from repro.apps.banking import (
    check_consistency,
    debit_credit_input,
    debit_credit_program,
    install_banking,
    populate_banking,
)
from repro.encompass import SystemBuilder
from repro.workloads import (
    FailureSchedule,
    random_failure_schedule,
    run_closed_loop,
)


def build_system(seed):
    builder = SystemBuilder(seed=seed, keep_trace=False)
    builder.add_node("alpha", cpus=4)
    # Terminals live on a separate front-end node: the failure schedule
    # targets the host node only, as in the paper's model (terminal
    # users are outside the failing system).
    builder.add_node("term", cpus=2)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    install_banking(builder, "alpha", "$data", server_instances=3)
    builder.add_tcp("alpha", "$tcp1", cpus=(2, 3), restart_limit=8)
    builder.add_program("alpha", "$tcp1", "debit-credit", debit_credit_program)
    for t in range(6):
        builder.add_terminal("alpha", "$tcp1", f"T{t}", "debit-credit")
    system = builder.build()
    populate_banking(system, "alpha", branches=2, tellers_per_branch=4,
                     accounts=20)
    return system


def drive_with_failures(seed, failure_kinds, failure_count, duration=6000.0):
    system = build_system(seed)
    rng = random.Random(seed * 7919)

    # Protect one side of every mirror and one bus so the run cannot
    # reach an (expected, but out of scope here) multi-module data loss;
    # protect the terminal front-end node and the line to it entirely.
    protect = []
    node = system.cluster.node("alpha")
    for volume in node.volumes.values():
        protect.append(volume.drives[0])
        protect.extend(volume.controllers[:1])
    protect.append(node.buses.x)
    protect.extend(system.cluster.node("term").components())
    protect.extend(system.cluster.network.lines)
    events = random_failure_schedule(
        system.cluster, rng, duration, failure_count,
        kinds=failure_kinds, outage=800.0, protect=protect,
    )
    FailureSchedule(system.cluster, events)
    result = run_closed_loop(
        system,
        "term",
        "\\alpha.$tcp1",
        [f"T{t}" for t in range(6)],
        debit_credit_input(20),
        duration=duration,
        think_time=15.0,
        rng=rng,
    )
    # Drain any in-flight aborts/safe deliveries.
    settle = system.spawn(
        "alpha", "$settle", lambda p: (yield system.env.timeout(5000)), cpu=0
    )
    system.cluster.run(settle.sim_process)
    report = check_consistency(system, "alpha")
    return system, result, report, events


class TestAtomicityUnderFailures:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_cpu_failures_preserve_invariants(self, seed):
        system, result, report, events = drive_with_failures(
            seed, ("cpu",), failure_count=3
        )
        assert result.committed > 0, "workload must make progress"
        assert report["consistent"], f"invariants violated: {report}"
        # Exactly-once: the history file holds one record per committed
        # posting (amounts sum to the balance movement).
        assert report["history_sum"] == report["teller_total"]

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_mixed_component_failures_preserve_invariants(self, seed):
        system, result, report, events = drive_with_failures(
            seed, ("cpu", "bus", "controller", "drive"), failure_count=5
        )
        assert result.committed > 0
        assert report["consistent"], f"invariants violated: {report}"

    def test_commit_abort_accounting_matches_history(self):
        system, result, report, _events = drive_with_failures(
            21, ("cpu",), failure_count=2
        )
        # Every driver-observed commit contributed exactly one history
        # record; failed units contributed none.
        assert report["history_count"] == result.committed

    def test_no_failures_baseline(self):
        system, result, report, _events = drive_with_failures(
            31, ("cpu",), failure_count=0, duration=3000.0
        )
        assert result.failed == 0
        assert report["consistent"]
        assert report["history_count"] == result.committed
