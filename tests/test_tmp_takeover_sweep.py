"""A TMP takeover at every Figure 3 broadcast of a commit or an abort.

The TMP primary's CPU fails inside the broadcast of one state
(ending, ended, aborting, aborted) on one node: the single node of a
one-volume system, or any node of a three-node wave whose home is
alpha and whose inserts land on beta and gamma.  The backup "carr[ies]
through to completion any operation initiated by the primary": the run
finishes, every participant agrees on the transaction's fate, a kill
that interrupts the home node's commit or abort before its commit
record ends in ``aborted``, the outcome is counted once, and no volume
holds a lock.  The same holds for a kill while the home node writes
the commit or abort record itself, and for a kill at the aborting
broadcast of a failed phase one whose request the new primary gets
again while it resumes the abort, for a retried request that
already waits in the new primary's inbox when it starts serving, and
for a transaction no volume joined, whose decision writes no record.
"""

import pytest

from repro.core import TMP_NAME, BackoutTx, ForceAudit, TmpCommit, TmpPhase1
from repro.discprocess import FileSchema, KEY_SEQUENCED, PartitionSpec
from repro.guardian import Message
from repro.sim import Event
from repro.simtest import agreement, figure3_edge, no_stranded_locks

from conftest import TmfRig, Trigger, end_outcome, kill_tmp_primary_at

STATES = ("ending", "ended", "aborting", "aborted")
#: topology name -> (nodes, the nodes whose file a transaction inserts into)
TOPOLOGIES = {
    "one": (("alpha",), ("alpha",)),
    "wave": (("alpha", "beta", "gamma"), ("beta", "gamma")),
    "none": (("alpha",), ()),
}
CASES = [("one", "alpha", state) for state in STATES] + [
    ("wave", node, state)
    for node in ("alpha", "beta", "gamma")
    for state in STATES
]


def expected_fate(victim, state):
    """The transaction's fate after a kill at ``victim``'s ``state``.

    A kill at an ended broadcast comes after the commit record.  A kill
    at the home node's ending broadcast interrupts its commit before the
    commit record: the backup aborts.  A child's ending broadcast starts
    its phase one, which the parent's retried request runs again at the
    backup: the child votes yes and the transaction commits.
    """
    if state == "ended" or (state == "ending" and victim != "alpha"):
        return "committed"
    return "aborted"


def make_rig(nodes):
    """A rig with one audited file, ``<node>_file``, on each node's $data."""
    rig = TmfRig(nodes=nodes)
    for node in nodes:
        rig.add_volume(node, "$data")
        rig.dictionary.define(FileSchema(
            name=f"{node}_file", organization=KEY_SEQUENCED,
            primary_key=("k",), audited=True,
            partitions=(PartitionSpec(node, "$data"),),
        ))
    return rig


def run_case(topology, commit, arm):
    """Run one transaction on ``topology`` to its commit (or abort) with
    the fault ``arm(rig)`` sets up; return the rig, what the run saw and
    what ``arm`` returned."""
    nodes, written = TOPOLOGIES[topology]
    rig = make_rig(nodes)
    home = rig.tmf["alpha"]
    client = rig.clients["alpha"]
    armed = arm(rig)
    seen = {}

    def body(proc):
        for node in nodes:
            yield from client.create_file(proc, rig.dictionary.schema(f"{node}_file"))
        transid = yield from home.begin(proc)
        seen["transid"] = transid
        for node in written:
            yield from client.insert(proc, f"{node}_file", {"k": 1}, transid=transid)
        if commit:
            seen["outcome"] = yield from end_outcome(home, proc, transid)
        else:
            yield from home.abort(proc, transid)
        # Let the safe deliveries and queued aborts land.
        yield rig.cluster.env.timeout(5_000.0)

    rig.run("alpha", body)
    return rig, seen, armed


def assert_settled(rig, seen, fate):
    """Every node agrees on ``fate``, counts it once, and holds no lock."""
    transid = seen["transid"]
    assert agreement(rig) == {}
    fates = {node: tmf.dispositions.get(transid) for node, tmf in rig.tmf.items()}
    assert set(fates.values()) == {fate}, fates
    # Commits are counted at the home node, aborts on every participant.
    assert rig.tmf["alpha"].commits == (fate == "committed")
    assert {node: tmf.aborts for node, tmf in rig.tmf.items()} == {
        node: int(fate == "aborted") for node in rig.tmf
    }
    if "outcome" in seen:
        assert seen["outcome"] == fate
    assert no_stranded_locks(rig) == {}


@pytest.mark.parametrize(
    "topology,victim,state", CASES,
    ids=[f"{topology}-{victim}-{state}" for topology, victim, state in CASES],
)
def test_takeover_at_broadcast_settles(topology, victim, state):
    rig, seen, kill = run_case(
        topology, state in ("ending", "ended"),
        lambda rig: kill_tmp_primary_at(rig.tmf[victim], state),
    )
    assert kill.triggered, f"{victim} never broadcast {state}"
    assert rig.tmf[victim].tmp.takeovers == 1
    assert_settled(rig, seen, expected_fate(victim, state))


def test_takeover_at_ending_without_participants_settles_once():
    """No volume joined the transaction, so its decision writes no
    completion record: a kill at its ending broadcast still ends it
    once, with one outcome, through Figure 3 edges only."""
    rig, seen, kill = run_case(
        "none", True, lambda rig: kill_tmp_primary_at(rig.tmf["alpha"], "ending")
    )
    home = rig.tmf["alpha"]
    assert kill.triggered and home.tmp.takeovers == 1
    states = [record.state for record in rig.cluster.env.probe.select(
        "state_broadcast", transid=str(seen["transid"]))]
    assert all(map(figure3_edge, [None] + states, states)), states
    assert [state for state in states if state in ("ended", "aborted")] == ["aborted"]
    assert_settled(rig, seen, expected_fate("alpha", "ending"))
    assert home.monitor_trail.total_records == 0


def kill_in_completion_write(rig):
    """Fail alpha's TMP primary once a completion record is appended,
    while its write to the Monitor Audit Trail is still under way."""
    tmf = rig.tmf["alpha"]

    def watcher(proc):
        # No record marks the append itself: it follows, in the same
        # step, the reply of phase one's trail force or of the backout.
        yield Trigger(rig.cluster.env, "rpc.done", when=lambda r: isinstance(
            r.message.payload, (ForceAudit, BackoutTx)))
        assert tmf.dispositions
        tmf.node_os.node.fail_cpu(tmf.tmp.primary_cpu)

    rig.cluster.os("alpha").spawn("$chaos", 0, watcher, register=False)


@pytest.mark.parametrize("fate", ["committed", "aborted"])
def test_takeover_in_completion_write_counts_once(fate):
    rig, seen, _ = run_case("one", fate == "committed", kill_in_completion_write)
    assert rig.tmf["alpha"].tmp.takeovers == 1
    assert_settled(rig, seen, fate)


def spawn(rig, node, gen):
    """Start ``gen`` as a process on ``node``; return its completion event."""
    return rig.cluster.os(node).spawn("$t", 0, gen, register=False).sim_process


@pytest.mark.parametrize("victim", ["alpha", "beta"])
def test_takeover_at_failed_phase1_abort_races_the_retry(victim):
    """Gamma has aborted T2 unilaterally, so T2's phase one fails at beta
    and then at alpha, each of which starts to abort it.  The TMP
    primary of ``victim`` fails inside that aborting broadcast while the
    abort of an earlier local transaction T1 is also half done there.
    The new primary resumes T1 and T2 from a worker each, and the
    retried request — alpha's TmpCommit, or the TmpPhase1 beta received
    — reaches T2 while its abort is resumed: it must answer with that
    abort, not run T2's commit again."""
    nodes = ("alpha", "beta", "gamma")
    rig = make_rig(nodes)
    env = rig.cluster.env
    home = rig.tmf["alpha"]
    tmf = rig.tmf[victim]
    seen = {}

    def body(proc):
        for node in nodes:
            yield from rig.clients["alpha"].create_file(
                proc, rig.dictionary.schema(f"{node}_file")
            )

        def local_work(p):
            t1 = yield from tmf.begin(p)
            for k in range(100, 300):
                yield from rig.clients[victim].insert(
                    p, f"{victim}_file", {"k": k}, transid=t1
                )
            return t1

        t1 = seen["t1"] = yield spawn(rig, victim, local_work)
        t2 = seen["t2"] = yield from home.begin(proc)
        yield from rig.clients["alpha"].insert(proc, "beta_file", {"k": 1}, transid=t2)

        def export_to_gamma(p):
            yield from rig.clients["beta"].insert(p, "gamma_file", {"k": 1}, transid=t2)

        def abort_at_gamma(p):
            yield from rig.tmf["gamma"].abort(p, t2, "unilateral")

        def abort_t1(p):
            yield from tmf.abort(p, t1)

        yield spawn(rig, "beta", export_to_gamma)
        yield spawn(rig, "gamma", abort_at_gamma)
        spawn(rig, victim, abort_t1)
        yield Trigger(env, "state_broadcast", transid=str(t1), state="aborting")
        seen["kill"] = kill_tmp_primary_at(tmf, "aborting")
        seen["outcome"] = yield from end_outcome(home, proc, t2)
        yield env.timeout(5_000.0)

    rig.run("alpha", body)
    assert seen["kill"].triggered, f"{victim} never broadcast aborting"
    assert tmf.tmp.takeovers == 1
    assert seen["outcome"] == "aborted"
    t1, t2 = seen["t1"], seen["t2"]
    assert agreement(rig) == {}
    assert tmf.dispositions[t1] == "aborted"
    assert {node: rig.tmf[node].dispositions.get(t2) for node in nodes} == {
        node: "aborted" for node in nodes
    }
    assert home.commits == 0
    assert {node: rig.tmf[node].aborts for node in nodes} == {
        node: 1 + (node == victim) for node in nodes
    }
    assert no_stranded_locks(rig) == {}


def post_at_promotion(tmf, payload):
    """Fail the CPU of ``tmf``'s TMP primary inside its next aborting
    broadcast and, in that step, hand ``payload`` to the new primary: a
    retried request that waits in its inbox until the primary starts
    serving, so it is served ahead of the primary's resume workers.
    Returns a dict that gets the request's ``reply``."""
    env = tmf.env
    delivery = {}

    def fail_and_post(_record):
        tmf.node_os.node.fail_cpu(tmf.tmp.primary_cpu)
        message = Message(tmf.node_name, "$t", tmf.node_name, TMP_NAME, payload)
        message.reply_event = Event(env)
        message.reply_event.callbacks.append(
            lambda event: delivery.update(reply=event.value)
        )
        tmf.tmp.primary_process.accept(message)

    Trigger(env, "state_broadcast", node=tmf.node_name, state="aborting",
            action=fail_and_post)
    return delivery


@pytest.mark.parametrize("request_kind", ["commit", "phase1"])
def test_request_waiting_at_promotion_finishes_the_abort(request_kind):
    """A transaction's abort is broadcast when the TMP primary of the
    node aborting it fails.  A retried TmpCommit (at the home node) or
    TmpPhase1 (at a child) already waits in the new primary's inbox, so
    it reaches the transaction before the worker that resumes the
    abort: it must finish that abort, not start the commit again."""
    nodes = ("alpha",) if request_kind == "commit" else ("alpha", "beta")
    victim = nodes[-1]
    rig = make_rig(nodes)
    env = rig.cluster.env
    home = rig.tmf["alpha"]
    tmf = rig.tmf[victim]
    seen = {}

    def body(proc):
        for node in nodes:
            yield from rig.clients["alpha"].create_file(
                proc, rig.dictionary.schema(f"{node}_file")
            )
        transid = seen["transid"] = yield from home.begin(proc)
        yield from rig.clients["alpha"].insert(
            proc, f"{victim}_file", {"k": 1}, transid=transid
        )
        request = TmpCommit(transid) if request_kind == "commit" else TmpPhase1(transid)
        seen["delivery"] = post_at_promotion(tmf, request)

        def abort(p):
            yield from tmf.abort(p, transid, "unilateral")

        yield spawn(rig, victim, abort)
        seen["outcome"] = yield from end_outcome(home, proc, transid)
        yield env.timeout(5_000.0)

    rig.run("alpha", body)
    assert tmf.tmp.takeovers == 1
    reply = seen["delivery"]["reply"]
    if request_kind == "commit":
        assert reply == {"ok": True, "disposition": "aborted"}
    else:
        assert reply == {"ok": True, "vote": "no"}
    assert_settled(rig, seen, "aborted")
