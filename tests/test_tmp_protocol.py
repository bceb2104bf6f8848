"""Direct protocol-level tests of the TMP message interface."""

import pytest

from repro.core import (
    TmpAbort,
    TmpAbortRemote,
    TmpCommit,
    TmpForceDisposition,
    TmpPhase1,
    TmpPhase2,
    TmpQuery,
    TmpRemoteBegin,
    Transid,
)
from repro.discprocess import FileSchema, KEY_SEQUENCED, PartitionSpec

from conftest import TmfRig


UNKNOWN = Transid("elsewhere", 1, 777)


@pytest.fixture
def rig():
    rig = TmfRig(nodes=("alpha", "beta"))
    rig.add_volume("alpha", "$data")
    rig.dictionary.define(
        FileSchema(
            name="p", organization=KEY_SEQUENCED, primary_key=("k",),
            audited=True, partitions=(PartitionSpec("alpha", "$data"),),
        )
    )
    return rig


def tmp_request(rig, node, payload):
    def body(proc):
        reply = yield from rig.cluster.fs(node).send(proc, "$TMP", payload)
        return reply

    return rig.run(node, body, name="$pr")


class TestProtocolEdges:
    def test_phase1_for_unknown_transid_votes_no(self, rig):
        reply = tmp_request(rig, "alpha", TmpPhase1(UNKNOWN))
        assert reply["vote"] == "no"

    def test_commit_for_unknown_transid_reports_aborted(self, rig):
        reply = tmp_request(rig, "alpha", TmpCommit(UNKNOWN))
        assert reply["disposition"] == "aborted"

    def test_abort_for_unknown_transid_is_noop(self, rig):
        reply = tmp_request(rig, "alpha", TmpAbort(UNKNOWN, "whatever"))
        assert reply["ok"]

    def test_phase2_for_unknown_transid_acks(self, rig):
        reply = tmp_request(rig, "alpha", TmpPhase2(UNKNOWN))
        assert reply["ok"]

    def test_query_unknown_reports_unknown(self, rig):
        reply = tmp_request(rig, "alpha", TmpQuery(UNKNOWN))
        assert reply["disposition"] == "unknown"
        assert reply["state"] == "gone"

    def test_force_disposition_unknown_is_noop(self, rig):
        reply = tmp_request(rig, "alpha", TmpForceDisposition(UNKNOWN, "aborted"))
        assert reply["ok"]

    def test_remote_begin_is_idempotent(self, rig):
        transid = Transid("beta", 0, 1)
        r1 = tmp_request(rig, "alpha", TmpRemoteBegin(transid, parent="beta"))
        r2 = tmp_request(rig, "alpha", TmpRemoteBegin(transid, parent="beta"))
        assert r1["ok"] and r2["ok"]
        record = rig.tmf["alpha"].records[transid]
        assert record.parent == "beta"
        assert not record.home
        # Exactly one ACTIVE broadcast despite two begins.
        actives = rig.cluster.env.probe.select(
            "state_broadcast", transid=str(transid), state="active", node="alpha"
        )
        assert len(actives) == 1

    def test_unknown_payload_rejected(self, rig):
        reply = tmp_request(rig, "alpha", {"op": "gibberish"})
        assert reply["ok"] is False

    def test_commit_is_idempotent_after_disposition(self, rig):
        holder = {}

        def body(proc):
            tmf = rig.tmf["alpha"]
            client = rig.clients["alpha"]
            yield from client.create_file(proc, rig.dictionary.schema("p"))
            transid = yield from tmf.begin(proc)
            yield from client.insert(proc, "p", {"k": 1}, transid=transid)
            yield from tmf.end(proc, transid)
            r1 = yield from rig.cluster.fs("alpha").send(
                proc, "$TMP", TmpCommit(transid)
            )
            r2 = yield from rig.cluster.fs("alpha").send(
                proc, "$TMP", TmpCommit(transid)
            )
            holder["replies"] = (r1, r2)

        rig.run("alpha", body)
        r1, r2 = holder["replies"]
        assert r1["disposition"] == "committed"
        assert r2["disposition"] == "committed"
        # The data was applied exactly once.
        def check(proc):
            rows = yield from rig.clients["alpha"].scan(proc, "p")
            return rows

        assert len(rig.run("alpha", check, name="$c")) == 1

    def test_abort_remote_for_committed_transaction_is_ignored(self, rig):
        """A (bogus/stale) remote-abort after local commit must not undo
        anything: 'ended' and 'aborted' are terminal and exclusive."""
        holder = {}

        def body(proc):
            tmf = rig.tmf["alpha"]
            client = rig.clients["alpha"]
            yield from client.create_file(proc, rig.dictionary.schema("p"))
            transid = yield from tmf.begin(proc)
            yield from client.insert(proc, "p", {"k": 2}, transid=transid)
            yield from tmf.end(proc, transid)
            yield from rig.cluster.fs("alpha").send(
                proc, "$TMP", TmpAbortRemote(transid, "stale")
            )
            record = yield from client.read(proc, "p", (2,))
            holder["record"] = record
            holder["done"] = tmf.records[transid].done

        rig.run("alpha", body)
        assert holder["record"] == {"k": 2}
        assert holder["done"] == "committed"
