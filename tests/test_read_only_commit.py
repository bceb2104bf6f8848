"""A transaction no volume or node joined writes no Monitor Audit Trail
record: it changed nothing and holds no lock, so its commit or abort is
decided in memory only.  A transaction with a participant (an update, a
locked read, a child node) still writes exactly one completion record.
"""

import pytest

from repro.core import CompletionRecord
from repro.discprocess import FileSchema, KEY_SEQUENCED, PartitionSpec

from conftest import TmfRig, Trigger


def make_rig(nodes=("alpha",)):
    """A rig with the audited file ``<node>_file``, holding the record
    ``k=1``, on each node's ``$data``."""
    rig = TmfRig(nodes=nodes)
    for node in nodes:
        rig.add_volume(node, "$data")
        rig.dictionary.define(FileSchema(
            name=f"{node}_file", organization=KEY_SEQUENCED,
            primary_key=("k",), audited=True,
            partitions=(PartitionSpec(node, "$data"),),
        ))
    home, client = rig.tmf["alpha"], rig.clients["alpha"]

    def setup(proc):
        for node in nodes:
            yield from client.create_file(proc, rig.dictionary.schema(f"{node}_file"))
            transid = yield from home.begin(proc)
            yield from client.insert(proc, f"{node}_file", {"k": 1}, transid=transid)
            yield from home.end(proc, transid)

    rig.run("alpha", setup)
    return rig


def run_transaction(rig, work, commit=True):
    """BEGIN, ``work(proc, transid)``, then END (or ABORT) at alpha; returns
    the transid, its completion records on alpha's Monitor Audit Trail
    and its completion-write phases."""
    home = rig.tmf["alpha"]

    def body(proc):
        transid = yield from home.begin(proc)
        yield from work(proc, transid)
        if commit:
            yield from home.end(proc, transid)
        else:
            yield from home.abort(proc, transid)
        return transid

    with rig.cluster.env.probe.capture("phase", name="completion-write") as writes:
        transid = rig.run("alpha", body)
    return (transid, completion_records(home, transid),
            [write for write in writes if write.transid == transid])


def completion_records(tmf, transid):
    return [record for record in tmf.monitor_trail.scan_all()
            if record.transid == transid]


def nothing(proc, transid):
    return
    yield


def test_commit_without_participants_writes_no_completion_record():
    rig = make_rig()
    client = rig.clients["alpha"]

    def inquiry(proc, transid):
        record = yield from client.read(proc, "alpha_file", (1,), transid=transid)
        assert record["k"] == 1

    transid, appended, writes = run_transaction(rig, inquiry)
    home = rig.tmf["alpha"]
    assert appended == []
    assert writes == []
    assert home.dispositions[transid] == "committed"
    assert home.disposition_of(transid)["disposition"] == "committed"
    assert home.commits == 2  # the set-up's insert and this inquiry


@pytest.mark.parametrize("access", ["update", "locked read"])
def test_commit_with_a_participant_writes_one_completion_record(access):
    rig = make_rig()
    client = rig.clients["alpha"]

    def work(proc, transid):
        yield from client.read(proc, "alpha_file", (1,), transid=transid, lock=True)
        if access == "update":
            yield from client.update(proc, "alpha_file", {"k": 1, "v": 2}, transid=transid)

    transid, appended, writes = run_transaction(rig, work)
    assert appended == [CompletionRecord(transid, "committed")]
    assert len(writes) == 1
    assert rig.tmf["alpha"].dispositions[transid] == "committed"


def test_abort_at_once_writes_no_completion_record():
    rig = make_rig()
    aborted = Trigger(rig.cluster.env, "state_broadcast", state="aborted")
    transid, appended, writes = run_transaction(rig, nothing, commit=False)
    assert aborted.triggered and aborted.value.transid == str(transid)
    assert (appended, writes) == ([], [])
    home = rig.tmf["alpha"]
    assert home.dispositions[transid] == "aborted"
    assert home.aborts == 1


def test_child_without_participants_writes_no_completion_record():
    """An unlocked read of beta's file makes beta a child that no volume
    joined: alpha, which has a child, writes its commit record; beta,
    through phase two, writes none."""
    rig = make_rig(("alpha", "beta"))
    env = rig.cluster.env
    client = rig.clients["alpha"]
    beta = rig.tmf["beta"]

    def remote_inquiry(proc, transid):
        yield from client.read(proc, "beta_file", (1,), transid=transid)
        assert rig.tmf["alpha"].records[transid].children == {"beta"}

    transid, appended, _ = run_transaction(rig, remote_inquiry)
    assert appended == [CompletionRecord(transid, "committed")]

    def settle(proc):
        # END-TRANSACTION does not wait for beta's phase two.
        yield Trigger(env, "phase2_applied", node="beta", transid=str(transid))

    rig.run("alpha", settle)
    assert beta.dispositions[transid] == "committed"
    assert completion_records(beta, transid) == []
