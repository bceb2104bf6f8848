"""The always-on probe: one counter namespace that every reader shares.

* counting is always on: measured and unmeasured, traced and untraced
  runs, with and without kept records, count exactly the same things,
  so the XRAY report of a measured run does not depend on tracing;
* the XRAY report's ``counters``, the bench counters and TMFCOM's
  STATUS COUNTERS all read ``env.probe.counts``;
* a DISCPROCESS takeover keeps its volume's statistics counting.
"""

import random

from repro.apps.banking import build_banking_system, debit_credit_input
from repro.bench.experiments import _base_counters
from repro.core import Tmfcom
from repro.workloads import FailureEvent, FailureSchedule, run_closed_loop

ACCOUNTS = 8


def _drive(system, terminals, duration):
    return run_closed_loop(
        system, "alpha", "$tcp1", terminals,
        debit_credit_input(ACCOUNTS, 4, 2, (5, -5, 10)),
        duration=duration, think_time=10.0, rng=random.Random(3),
    )


def test_counts_are_always_on_and_every_reader_agrees():
    runs = {}
    for measure in (False, True):
        for keep_trace in (False, True):
            for trace in (False, True):
                system, terminals = build_banking_system(
                    seed=7, accounts=ACCOUNTS, tellers=4, keep_trace=keep_trace,
                    measure=measure, trace=trace)
                _drive(system, terminals, duration=1000.0)
                runs[measure, keep_trace, trace] = system
    counts = runs[False, False, False].probe.counts
    assert counts["commit"] > 0 and counts["checkpoint"] > 0
    for system in runs.values():
        assert system.probe.counts == counts
    assert runs[False, False, False].probe.records == []

    system = runs[True, True, False]
    report = system.xray_report()
    assert report["counters"] == dict(sorted(counts.items()))
    base = _base_counters(system)
    assert base["msg_local"] == counts["msg_local"]
    assert base["msg_network"] == counts.get("msg_network", 0)
    assert Tmfcom(system.tmf["alpha"]).counters() == report["counters"]


def test_xray_report_does_not_depend_on_tracing():
    reports = []
    for trace in (False, True):
        system, terminals = build_banking_system(
            seed=7, accounts=ACCOUNTS, tellers=4, measure=True, trace=trace)
        _drive(system, terminals, duration=1000.0)
        reports.append(system.xray_json())
    assert reports[0] == reports[1]


def test_takeover_keeps_volume_statistics():
    system, terminals = build_banking_system(seed=41, accounts=ACCOUNTS,
                                             tellers=4, keep_trace=True)
    dp = system.disc_processes[("alpha", "$data")]
    fail_at = 1500.0
    primary = system.cluster.node("alpha").cpus[dp.primary_cpu]
    FailureSchedule(system.cluster, [FailureEvent(at=fail_at, component=primary)])
    before = {}

    def snapshot():
        yield system.env.timeout(fail_at - 1.0 - system.env.now)
        before.update(dp._stats())

    system.env.process(snapshot())
    _drive(system, terminals, duration=3000.0)

    assert dp.takeovers == 1
    waits = system.probe.select("lock_wait", volume="$data")
    assert any(r.time < fail_at for r in waits)
    assert any(r.time > fail_at for r in waits)
    stats = system.xray_report()["volumes"]["alpha.$data"]
    assert stats["lock_waits"] == dp.locks.waits == len(waits)
    assert stats["lock_waits"] > before["lock_waits"]
    assert stats["cache"]["hits"] > before["cache"]["hits"]
    assert stats["cache"]["misses"] >= before["cache"]["misses"]
    assert stats["physical_reads"] >= before["physical_reads"]
    assert stats["physical_writes"] >= before["physical_writes"]
