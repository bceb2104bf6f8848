"""The online invariant watchdog (repro.trace.watchdog).

Each detector is exercised with a targeted injection — a stuck-ending
transaction, an over-horizon lock wait, a waits-for cycle, an illegal
Figure-3 edge, an audit growth burst — and must raise exactly the
expected ``watchdog.alarm`` records, once per offending condition.
A clean run alarms nothing (pinned in tests/test_trace.py too).
"""

import random

import pytest

from repro.core import TransactionAborted
from repro.discprocess import (
    FileSchema,
    KEY_SEQUENCED,
    LockTimeoutError,
    PartitionSpec,
)
from repro.encompass import SystemBuilder
from repro.trace import Watchdog, WatchdogConfig


def build_system(watchdog=True, seed=5):
    builder = SystemBuilder(seed=seed, trace=True, watchdog=watchdog)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    builder.define_file(
        FileSchema(
            name="pair",
            organization=KEY_SEQUENCED,
            primary_key=("k",),
            audited=True,
            partitions=(PartitionSpec("alpha", "$data"),),
        )
    )
    return builder.build()


def seed_rows(system, keys=(1, 2)):
    def loader(proc):
        tmf = system.tmf["alpha"]
        client = system.clients["alpha"]
        transid = yield from tmf.begin(proc)
        for k in keys:
            yield from client.insert(proc, "pair", {"k": k}, transid=transid)
        yield from tmf.end(proc, transid)

    proc = system.spawn("alpha", "$seed", loader, cpu=0)
    system.cluster.run(proc.sim_process)


def alarm_reasons(watchdog):
    return [alarm["reason"] for alarm in watchdog.alarms]


# ---------------------------------------------------------------------------
# Detector 1: Figure-3 edges (subscription-driven)
# ---------------------------------------------------------------------------

def test_illegal_transition_alarms_and_legal_sequence_does_not():
    system = build_system()
    watchdog = system.watchdog
    probe = system.probe
    baseline = len(watchdog.alarms)

    # A legal life cycle, replayed through the record stream: silent.
    for state in ("active", "ending", "ended"):
        probe.emit("state_broadcast", node="alpha",
                   transid="\\alpha.9.1", state=state, cpus=4)
    assert len(watchdog.alarms) == baseline

    # active -> ended skips the ending state: not an edge of Figure 3.
    probe.emit("state_broadcast", node="alpha",
               transid="\\alpha.9.2", state="active", cpus=4)
    probe.emit("state_broadcast", node="alpha",
               transid="\\alpha.9.2", state="ended", cpus=4)
    assert alarm_reasons(watchdog)[baseline:] == ["illegal_transition"]
    alarm = watchdog.alarms[-1]
    assert alarm["transid"] == "\\alpha.9.2"
    assert alarm["from_state"] == "active" and alarm["to_state"] == "ended"
    # The alarm rode the probe's stream as a structured record too.
    records = probe.select("watchdog.alarm", reason="illegal_transition")
    assert len(records) == 1 and records[0].transid == "\\alpha.9.2"


def test_real_run_emits_only_legal_edges():
    system = build_system()
    seed_rows(system)
    assert system.probe.counts["state_broadcast"] > 0
    assert alarm_reasons(system.watchdog) == []


# ---------------------------------------------------------------------------
# Detector 2: stuck transactions (injected via the record stream)
# ---------------------------------------------------------------------------

def test_stuck_ending_transaction_alarms_exactly_once():
    system = build_system()
    watchdog = system.watchdog
    probe = system.probe
    t0 = system.env.now                     # the records' timestamp
    probe.emit("state_broadcast", node="alpha",
               transid="\\alpha.9.3", state="active", cpus=4)
    probe.emit("state_broadcast", node="alpha",
               transid="\\alpha.9.3", state="ending", cpus=4)

    horizon = watchdog.config.stuck_horizon
    watchdog.check(t0 + horizon)            # at the horizon: not stuck yet
    assert alarm_reasons(watchdog) == []
    watchdog.check(t0 + 1.0 + horizon)      # past it: exactly one alarm
    watchdog.check(t0 + 5_000.0 + horizon)  # dedup: still one
    assert alarm_reasons(watchdog) == ["stuck_transaction"]
    alarm = watchdog.alarms[-1]
    assert alarm["transid"] == "\\alpha.9.3" and alarm["state"] == "ending"
    assert alarm["stuck_ms"] > horizon

    # The transaction finally ends; the detector forgets it.
    probe.emit("state_broadcast", node="alpha",
               transid="\\alpha.9.3", state="ended", cpus=4)
    watchdog.check(t0 + 50_000.0)
    assert alarm_reasons(watchdog) == ["stuck_transaction"]


# ---------------------------------------------------------------------------
# Detectors 3+4: lock waits and waits-for cycles (real lock managers)
# ---------------------------------------------------------------------------

def test_over_horizon_lock_wait_alarms():
    config = WatchdogConfig(interval=50.0, lock_wait_horizon=300.0)
    system = build_system(watchdog=config)
    seed_rows(system)
    tmf = system.tmf["alpha"]
    client = system.clients["alpha"]

    def holder(proc):
        transid = yield from tmf.begin(proc)
        yield from client.read(proc, "pair", (1,), transid=transid, lock=True)
        yield system.env.timeout(1_000.0)   # sit on the lock past the horizon
        yield from tmf.end(proc, transid)

    def waiter(proc):
        yield system.env.timeout(10.0)      # let the holder win the lock
        transid = yield from tmf.begin(proc)
        yield from client.read(proc, "pair", (1,), transid=transid, lock=True,
                               lock_timeout=5_000.0)
        yield from tmf.end(proc, transid)

    system.spawn("alpha", "$hold", holder, cpu=0)
    proc = system.spawn("alpha", "$wait", waiter, cpu=1)
    system.cluster.run(proc.sim_process)

    reasons = alarm_reasons(system.watchdog)
    assert reasons == ["lock_wait_horizon"]     # once, despite many checks
    alarm = system.watchdog.alarms[0]
    assert alarm["volume"] == "$data" and alarm["waited_ms"] > 300.0
    assert "'pair'" in alarm["target"]


def test_waits_for_cycle_alarms_global_deadlock():
    config = WatchdogConfig(interval=50.0, lock_wait_horizon=50_000.0)
    system = build_system(watchdog=config)
    seed_rows(system)
    tmf = system.tmf["alpha"]
    client = system.clients["alpha"]
    outcomes = {}

    def contender(name, first, second, delay):
        def body(proc):
            yield system.env.timeout(delay)
            transid = yield from tmf.begin(proc)
            yield from client.read(proc, "pair", (first,), transid=transid,
                                   lock=True)
            yield system.env.timeout(100.0)
            try:
                yield from client.read(proc, "pair", (second,),
                                       transid=transid, lock=True,
                                       lock_timeout=2_000.0)
                yield from tmf.end(proc, transid)
                outcomes[name] = "committed"
            except (LockTimeoutError, TransactionAborted):
                yield from tmf.abort(proc, transid, "deadlock")
                outcomes[name] = "aborted"
        return body

    a = system.spawn("alpha", "$a", contender("a", 1, 2, 0.0), cpu=0)
    b = system.spawn("alpha", "$b", contender("b", 2, 1, 10.0), cpu=1)
    system.cluster.run(a.sim_process)
    system.cluster.run(b.sim_process)

    reasons = alarm_reasons(system.watchdog)
    assert reasons == ["deadlock_cycle"]        # the cycle, exactly once
    alarm = system.watchdog.alarms[0]
    assert len(alarm["transids"]) == 2
    # The timeout scheme eventually broke the deadlock for at least one.
    assert "aborted" in outcomes.values()
    # The alarm surfaces in the victim transaction's trace too.
    trace = system.trace_of(alarm["transid"])
    assert any(
        getattr(record, "kind", "") == "watchdog.alarm"
        for record in trace.loose_annotations
    )


# ---------------------------------------------------------------------------
# Detector 5: audit-trail growth
# ---------------------------------------------------------------------------

def test_audit_growth_burst_alarms():
    config = WatchdogConfig(interval=100.0, audit_growth_limit=2)
    system = build_system(watchdog=config)

    def burst(proc):
        tmf = system.tmf["alpha"]
        client = system.clients["alpha"]
        transid = yield from tmf.begin(proc)
        for k in range(10):                 # a burst of audit records
            yield from client.insert(proc, "pair", {"k": k}, transid=transid)
        yield from tmf.end(proc, transid)
        yield system.env.timeout(250.0)     # let the periodic checks run

    proc = system.spawn("alpha", "$burst", burst, cpu=0)
    system.cluster.run(proc.sim_process)
    summary = system.watchdog.summary()
    assert summary["by_reason"].get("audit_growth", 0) >= 1
    assert set(summary["by_reason"]) == {"audit_growth"}
    alarm = next(a for a in system.watchdog.alarms
                 if a["reason"] == "audit_growth")
    assert alarm["grew"] > 2 and "alpha" in str(alarm["audit_process"])


# ---------------------------------------------------------------------------
# Wiring: XRAY report section, bounded checks, builder opt-in
# ---------------------------------------------------------------------------

def test_watchdog_summary_lands_in_xray_report():
    system = build_system()
    seed_rows(system)
    report = system.xray_report()
    assert report["watchdog"]["alarms"] == 0
    assert report["watchdog"]["checks_run"] == system.watchdog.checks_run
    assert report["watchdog"]["by_reason"] == {}


def test_watchdog_checks_are_bounded():
    config = WatchdogConfig(interval=10.0, max_checks=3)
    system = build_system(watchdog=config)

    def idle(proc):
        yield system.env.timeout(1_000.0)

    proc = system.spawn("alpha", "$idle", idle, cpu=0)
    system.cluster.run(proc.sim_process)
    assert system.watchdog.checks_run == 3


def test_watchdog_requires_opt_in():
    system = build_system(watchdog=None)
    assert system.watchdog is None
    assert "watchdog" not in system.xray_report()


def test_watchdog_config_passthrough():
    config = WatchdogConfig(stuck_horizon=123.0)
    system = build_system(watchdog=config)
    assert system.watchdog.config is config
    assert isinstance(system.watchdog, Watchdog)
