"""Phase two and abort propagation reach the children when decided.

The paper classes ``TmpPhase2`` and ``TmpAbortRemote`` as safe-delivery
messages: delivery is guaranteed, but nothing waits on a timer.  The
home TMP sends each child its outcome from that delivery's own worker,
started in the step after the decision; the item stays queued until its
child acks it, and only an unacked item retries, every
``RETRY_INTERVAL``, so one child's lost ack holds up no other child.
An automatic abort queued for the TMP runs the same way, once, on the
primary serving when it is queued or on the next one to start.  With
nothing to retry or sweep, no timer is left.
"""

from conftest import Trigger, build_two_child_ledgers
from repro.core import TmpPhase2
from repro.core.tmf import RETRY_INTERVAL
from repro.encompass import SystemBuilder
from repro.hardware import Latencies
from repro.simtest import agreement, no_stranded_locks

CHILDREN = ("node2", "node3")
#: one EXPAND round trip, plus the child's own phase-two work (its
#: completion-record write, state broadcast, backout and lock release),
#: bounded by one disc write.
LATENCIES = Latencies()
PHASE_TWO_BOUND = 2 * LATENCIES.network_hop + LATENCIES.disc_write


def _run_transaction(system, finish, children=CHILDREN, entry=1):
    """Begin on node1, insert ``entry`` on each of ``children``, then
    ``finish`` it (``"end"`` or ``"abort"``); returns the transid and the
    time the call returned."""
    tmf, client = system.tmf["node1"], system.clients["node1"]

    def driver(proc):
        transid = yield from tmf.begin(proc)
        for name in children:
            yield from client.insert(
                proc, f"ledger.{name}", {"entry": entry}, transid=transid
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
    transid, returned = _run_transaction(system, finish)
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


def _cut_off_node3_at(system, node):
    """Isolate node3 at ``node``'s first ``ended`` broadcast, after node3
    voted."""
    network = system.cluster.network
    Trigger(system.env, "state_broadcast", node=node, state="ended",
            action=lambda _: network.partition(["node1", "node2"], ["node3"]))


def test_unreachable_child_gets_its_outcome_after_the_heal():
    """node3 is cut off at the commit point, after voting yes: its phase
    two stays queued, its worker retries it, and it lands after the
    heal."""
    system = build_two_child_ledgers()
    network, home = system.cluster.network, system.tmf["node1"]
    _cut_off_node3_at(system, "node1")
    transid, returned = _run_transaction(system, "end")
    heal_at = returned + 3 * RETRY_INTERVAL
    system.cluster.run(until=heal_at)
    # node2 has its outcome; node3 voted yes, so it holds its locks.
    assert home._safe_queue and home._safe_queue[0][0] == "node3"
    assert set(_broadcast_times(system, transid, "ended")) == {"node1", "node2"}
    assert set(no_stranded_locks(system)) == {("node3", "$data")}
    network.heal()
    system.cluster.run(until=heal_at + 2 * RETRY_INTERVAL)
    ended = _broadcast_times(system, transid, "ended")
    assert heal_at < ended["node3"] <= heal_at + RETRY_INTERVAL + PHASE_TWO_BOUND
    assert system.tmf["node3"].dispositions[transid] == "committed"
    assert home._safe_queue == []
    assert no_stranded_locks(system) == {}
    assert agreement(system) == {}


def test_unacked_delivery_survives_a_tmp_takeover():
    """node1's TMP primary fails while node3, cut off at the commit
    point, has not acked its phase two: the new primary sends it again,
    and it lands after the heal."""
    system = build_two_child_ledgers()
    network, home = system.cluster.network, system.tmf["node1"]
    _cut_off_node3_at(system, "node1")
    transid, returned = _run_transaction(system, "end")
    system.cluster.run(until=returned + RETRY_INTERVAL)
    home.node_os.node.fail_cpu(home.tmp.primary_cpu)
    heal_at = returned + 3 * RETRY_INTERVAL
    system.cluster.run(until=heal_at)
    assert home.tmp.takeovers == 1
    assert home._safe_queue == [("node3", TmpPhase2(transid))]
    network.heal()
    system.cluster.run(until=heal_at + 2 * RETRY_INTERVAL)
    assert system.tmf["node3"].dispositions[transid] == "committed"
    assert home._safe_queue == []
    assert no_stranded_locks(system) == {}
    assert agreement(system) == {}


def test_unilateral_abort_sweep_survives_a_tmp_takeover():
    """node2's TMP primary fails while node2 has an unvoted transaction;
    cut off from its home afterwards, node2 still aborts it on its own."""
    system = build_two_child_ledgers()
    tmf, client = system.tmf["node1"], system.clients["node1"]
    child = system.tmf["node2"]
    victim = {}

    def body(proc):
        transid = yield from tmf.begin(proc)
        victim["transid"] = transid
        yield from client.insert(
            proc, "ledger.node2", {"entry": 1}, transid=transid
        )
        yield system.env.timeout(10_000)  # never ends it

    system.spawn("node1", "$victim", body, cpu=1)
    system.cluster.run(until=system.env.now + 500.0)
    child.node_os.node.fail_cpu(child.tmp.primary_cpu)
    system.cluster.network.partition(["node1"], ["node2", "node3"])
    system.cluster.run(until=system.env.now + 2 * RETRY_INTERVAL)
    assert child.tmp.takeovers == 1
    assert child.dispositions[victim["transid"]] == "aborted"
    assert system.disc_processes[("node2", "$data")].locks.held_count() == 0


def test_a_lost_ack_holds_up_no_other_child():
    """node3 is cut off as it applies T1's phase two, so its ack is lost
    and that delivery waits out its timeout.  T2, committed next on
    node2 alone, still reaches node2 at once.  When one fan-out carried
    every queued delivery, node2 broadcast T2's ENDED only after node3's
    reply timed out: at 2,292.6 ms, against END-TRANSACTION returning at
    354.4 ms."""
    system = build_two_child_ledgers()
    _cut_off_node3_at(system, "node3")
    _run_transaction(system, "end")
    transid, returned = _run_transaction(
        system, "end", children=("node2",), entry=2
    )
    system.cluster.run(until=returned + PHASE_TWO_BOUND)
    ended = _broadcast_times(system, transid, "ended")
    assert ended["node2"] - returned < PHASE_TWO_BOUND, (returned, ended)
    assert no_stranded_locks(system) == {}


def _count_aborts(tmf, transid):
    """Wrap ``tmf.do_abort``: the list it returns gets one entry per call
    for ``transid``."""
    calls, do_abort = [], tmf.do_abort

    def counting(proc, aborted, reason):
        if aborted == transid:
            calls.append(reason)
        return do_abort(proc, aborted, reason)

    tmf.do_abort = counting
    return calls


def test_abort_queued_while_the_tmp_pair_is_down_runs_at_its_restart():
    """ABORT-TRANSACTION finds both TMP CPUs down: the abort is queued,
    and the restarted pair runs it once and tells the child."""
    system = build_two_child_ledgers()
    node, tmf = system.cluster.node("node1"), system.tmf["node1"]
    tmp_cpus = tmf.tmp.configured_cpus
    # Confined to its two CPUs, the TMP recruits no other backup, so
    # failing both takes the pair down.
    tmf.tmp.allowed_cpus = set(tmp_cpus)
    client = system.clients["node1"]

    def driver(proc):
        transid = yield from tmf.begin(proc)
        yield from client.insert(
            proc, "ledger.node2", {"entry": 1}, transid=transid
        )
        for cpu in tmp_cpus:
            node.fail_cpu(cpu)
        yield from tmf.abort(proc, transid)
        return transid

    proc = system.spawn("node1", "$run", driver, cpu=0)
    transid = system.cluster.run(proc.sim_process)
    assert tmf._auto_aborts == [(transid, "user abort")]
    aborts, calls = tmf.aborts, _count_aborts(tmf, transid)
    for cpu in tmp_cpus:
        node.restore_cpu(cpu)
    tmf.tmp.restart(*tmp_cpus)
    system.cluster.run(until=system.env.now + 2 * RETRY_INTERVAL)
    assert calls == ["user abort"]
    assert tmf.aborts == aborts + 1
    assert tmf._auto_aborts == []
    aborted = _broadcast_times(system, transid, "aborted")
    assert set(aborted) == {"node1", "node2"}
    assert no_stranded_locks(system) == {}


def test_takeover_instant_abort_runs_once():
    """One CPU failure kills the TMP primary and the CPU a live
    transaction began in.  The abort queued at that instant runs once,
    on the new primary: not also from the start that primary makes of
    what was queued before it served."""
    system = build_two_child_ledgers()
    node, tmf = system.cluster.node("node1"), system.tmf["node1"]
    client = system.clients["node1"]
    victim = {}

    def body(proc):
        transid = yield from tmf.begin(proc)
        victim["transid"] = transid
        yield from client.insert(
            proc, "ledger.node2", {"entry": 7}, transid=transid
        )
        yield system.env.timeout(10_000)  # killed before END

    tmp_cpu = tmf.tmp.primary_cpu
    system.spawn("node1", "$victim", body, cpu=tmp_cpu)
    system.cluster.run(until=system.env.now + 500.0)
    transid = victim["transid"]
    aborts, calls = tmf.aborts, _count_aborts(tmf, transid)
    node.fail_cpu(tmp_cpu)
    system.cluster.run(until=system.env.now + 2 * RETRY_INTERVAL)
    assert tmf.tmp.takeovers == 1
    assert calls == [f"cpu {tmp_cpu} failed"]
    assert tmf.aborts == aborts + 1
    aborting = system.probe.select(
        "state_broadcast", transid=str(transid), state="aborting", node="node1"
    )
    assert len(aborting) == 1
    assert system.tmf["node2"].dispositions[transid] == "aborted"
    assert no_stranded_locks(system) == {}


def test_settled_system_goes_idle():
    """With nothing queued or unvoted, no TMP keeps a timer: a settled
    three-node system processes no event at all."""
    system = build_two_child_ledgers()
    _transid, returned = _run_transaction(system, "end")
    system.cluster.run(until=returned + 2 * RETRY_INTERVAL)
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
    # Bounded: a TMP that still ticks fails here instead of hanging.
    system.cluster.run(until=system.env.now + 10_000.0)
    assert system.env.events_processed == before


def test_origin_cpu_failure_aborts_at_once():
    """An automatic abort starts its worker at once: the transaction
    begun in the failed CPU starts aborting at the failure, not at a
    later tick."""
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
