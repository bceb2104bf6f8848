"""Phase two and abort propagation reach the children when decided.

The paper classes ``TmpPhase2`` and ``TmpAbortRemote`` as safe-delivery
messages: delivery is guaranteed, but nothing waits on a timer.  The
home TMP's pump sends every child its outcome in one fan-out in the step
after the decision, keeps an outcome queued until its child acks it,
retries the rest every ``PUMP_INTERVAL``, and parks with no timer when
there is nothing to retry or sweep.
"""

from conftest import build_two_child_ledgers
from repro.core import TmpPhase2
from repro.core.tmf import PUMP_INTERVAL
from repro.encompass import SystemBuilder
from repro.hardware import Latencies
from repro.simtest import agreement, no_stranded_locks

CHILDREN = ("node2", "node3")
#: one EXPAND round trip, plus the child's own phase-two work (its
#: completion-record write, state broadcast, backout and lock release),
#: bounded by one disc write.
LATENCIES = Latencies()
PHASE_TWO_BOUND = 2 * LATENCIES.network_hop + LATENCIES.disc_write


def _run_two_child_transaction(system, finish):
    """Begin on node1, insert on node2 and node3, then ``finish`` it
    (``"end"`` or ``"abort"``); returns the transid and the time the
    call returned."""
    tmf, client = system.tmf["node1"], system.clients["node1"]

    def driver(proc):
        transid = yield from tmf.begin(proc)
        for name in CHILDREN:
            yield from client.insert(
                proc, f"ledger.{name}", {"entry": 1}, transid=transid
            )
        yield from getattr(tmf, finish)(proc, transid)
        return transid, system.env.now

    proc = system.spawn("node1", "$run", driver, cpu=2)
    return system.cluster.run(proc.sim_process)


def _broadcast_times(system, transid, state):
    return {
        record.node: record.time
        for record in system.probe.select(
            "state_broadcast", transid=str(transid), state=state
        )
    }


def _assert_children_settle_promptly(system, finish, state):
    transid, returned = _run_two_child_transaction(system, finish)
    system.cluster.run(until=returned + PHASE_TWO_BOUND)
    times = _broadcast_times(system, transid, state)
    for child in CHILDREN:
        assert times[child] - returned < PHASE_TWO_BOUND, (child, times)
    assert no_stranded_locks(system) == {}
    assert agreement(system) == {}


def test_children_commit_within_a_round_trip_of_end_transaction():
    """Here END-TRANSACTION returns at 250.1 ms.  When phase two waited
    for the pump's 200 ms tick and went to one child at a time, the
    children broadcast ENDED at about 428 and 471 ms, holding their
    locks 178 and 221 ms past the commit point."""
    _assert_children_settle_promptly(build_two_child_ledgers(), "end", "ended")


def test_children_abort_within_a_round_trip_of_abort_transaction():
    _assert_children_settle_promptly(
        build_two_child_ledgers(), "abort", "aborted"
    )


def _cut_off_node3_at_the_commit(system):
    """Isolate node3 at node1's ``ended`` broadcast, after node3 voted."""
    network = system.cluster.network
    cut = []

    def on_record(record):
        if (record.kind == "state_broadcast" and not cut
                and record.node == "node1" and record.state == "ended"):
            cut.append(record.time)
            network.partition(["node1", "node2"], ["node3"])

    system.probe.subscribe(on_record)


def test_unreachable_child_gets_its_outcome_after_the_heal():
    """node3 is cut off at the commit point, after voting yes: its phase
    two stays queued, the pump retries it, and it lands after the heal."""
    system = build_two_child_ledgers()
    network, home = system.cluster.network, system.tmf["node1"]
    _cut_off_node3_at_the_commit(system)
    transid, returned = _run_two_child_transaction(system, "end")
    heal_at = returned + 3 * PUMP_INTERVAL
    system.cluster.run(until=heal_at)
    # node2 has its outcome; node3 voted yes, so it holds its locks.
    assert home._safe_queue and home._safe_queue[0][0] == "node3"
    assert set(_broadcast_times(system, transid, "ended")) == {"node1", "node2"}
    assert set(no_stranded_locks(system)) == {("node3", "$data")}
    network.heal()
    system.cluster.run(until=heal_at + 2 * PUMP_INTERVAL)
    ended = _broadcast_times(system, transid, "ended")
    assert heal_at < ended["node3"] <= heal_at + PUMP_INTERVAL + PHASE_TWO_BOUND
    assert system.tmf["node3"].dispositions[transid] == "committed"
    assert home._safe_queue == []
    assert no_stranded_locks(system) == {}
    assert agreement(system) == {}


def test_early_wake_disarms_the_retry_timer():
    """New work wakes a pump waiting to retry: the pending retry timer is
    disarmed, and the pass that follows arms one fresh timer."""
    system = build_two_child_ledgers()
    home = system.tmf["node1"]
    _cut_off_node3_at_the_commit(system)
    transid, returned = _run_two_child_transaction(system, "end")
    system.cluster.run(until=returned + PUMP_INTERVAL / 4)
    pending = home._pump_timer
    assert pending is not None and pending.callbacks
    home._queue_safe("node2", TmpPhase2(transid))   # acked again, harmlessly
    system.cluster.run(until=returned + PUMP_INTERVAL / 2)
    assert pending.callbacks is None
    assert home._pump_timer is not None and home._pump_timer is not pending
    assert home._safe_queue == [("node3", TmpPhase2(transid))]


def test_settled_system_goes_idle():
    """With nothing queued or unvoted, no pump keeps a timer: a settled
    three-node system processes no event at all."""
    system = build_two_child_ledgers()
    _transid, returned = _run_two_child_transaction(system, "end")
    system.cluster.run(until=returned + 2 * PUMP_INTERVAL)
    before = system.env.events_processed
    system.cluster.run(until=system.env.now + 10_000.0)
    assert system.env.events_processed == before


def test_idle_one_node_system_processes_no_event():
    builder = SystemBuilder(seed=1)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    system = builder.build()
    system.cluster.run(until=system.env.now + 1.0)
    before = system.env.events_processed
    # Bounded: a pump that still ticks fails here instead of hanging.
    system.cluster.run(until=system.env.now + 10_000.0)
    assert system.env.events_processed == before


def test_origin_cpu_failure_aborts_at_once():
    """An automatic abort wakes the pump: the transaction begun in the
    failed CPU starts aborting at the failure, not at a later tick."""
    system = build_two_child_ledgers()
    tmf, client = system.tmf["node1"], system.clients["node1"]
    victim = {}

    def body(proc):
        transid = yield from tmf.begin(proc)
        victim["transid"] = transid
        yield from client.insert(
            proc, "ledger.node2", {"entry": 7}, transid=transid
        )
        yield system.env.timeout(10_000)  # killed before END

    system.spawn("node1", "$victim", body, cpu=1)
    system.cluster.run(until=system.env.now + 500.0)
    failed_at = system.env.now
    system.cluster.node("node1").fail_cpu(1)
    system.cluster.run(until=failed_at + PHASE_TWO_BOUND)
    transid = victim["transid"]
    assert _broadcast_times(system, transid, "aborting")["node1"] == failed_at
    assert system.tmf["node2"].dispositions[transid] == "aborted"
    assert no_stranded_locks(system) == {}
