"""Distributed TMF: remote begin, the distributed two-phase commit,
unilateral abort, partition stranding, manual override, safe delivery.
"""

import pytest

from repro.discprocess import FileSchema, KEY_SEQUENCED, PartitionSpec

from conftest import TmfRig, end_cut_off_at_ack, end_outcome


@pytest.fixture
def net_rig():
    rig = TmfRig(nodes=("alpha", "beta", "gamma"))
    rig.add_volume("alpha", "$data")
    rig.add_volume("beta", "$data")
    rig.add_volume("gamma", "$data")
    rig.dictionary.define(
        FileSchema(
            name="a_file",
            organization=KEY_SEQUENCED,
            primary_key=("k",),
            audited=True,
            partitions=(PartitionSpec("alpha", "$data"),),
        )
    )
    rig.dictionary.define(
        FileSchema(
            name="b_file",
            organization=KEY_SEQUENCED,
            primary_key=("k",),
            audited=True,
            partitions=(PartitionSpec("beta", "$data"),),
        )
    )
    rig.dictionary.define(
        FileSchema(
            name="g_file",
            organization=KEY_SEQUENCED,
            primary_key=("k",),
            audited=True,
            partitions=(PartitionSpec("gamma", "$data"),),
        )
    )
    return rig


def create_files(rig, proc):
    client = rig.clients["alpha"]
    for name in ("a_file", "b_file", "g_file"):
        yield from client.create_file(proc, rig.dictionary.schema(name))


class TestDistributedCommit:
    def test_two_node_commit(self, net_rig):
        tmf_a = net_rig.tmf["alpha"]
        client = net_rig.clients["alpha"]

        def body(proc):
            yield from create_files(net_rig, proc)
            transid = yield from tmf_a.begin(proc)
            yield from client.insert(proc, "a_file", {"k": 1, "v": "local"}, transid=transid)
            yield from client.insert(proc, "b_file", {"k": 1, "v": "remote"}, transid=transid)
            yield from tmf_a.end(proc, transid)
            local = yield from client.read(proc, "a_file", (1,))
            remote = yield from client.read(proc, "b_file", (1,))
            return local["v"], remote["v"], str(transid)

        local, remote, transid_str = net_rig.run("alpha", body)
        assert (local, remote) == ("local", "remote")
        assert tmf_a.remote_begins_sent == 1
        assert tmf_a.phase1_sent == 1
        # Both participating nodes durably record the disposition.
        assert any(
            str(t) == transid_str and d == "committed"
            for t, d in net_rig.tmf["alpha"].dispositions.items()
        )

    def test_remote_node_releases_locks_after_phase2(self, net_rig):
        tmf_a = net_rig.tmf["alpha"]
        client = net_rig.clients["alpha"]

        def body(proc):
            yield from create_files(net_rig, proc)
            transid = yield from tmf_a.begin(proc)
            yield from client.insert(proc, "b_file", {"k": 5, "v": 1}, transid=transid)
            yield from tmf_a.end(proc, transid)
            # Safe-delivery phase 2 may lag; give its delivery a moment.
            yield net_rig.cluster.env.timeout(1000)
            return net_rig.disc_processes[("beta", "$data")].locks.held_count()

        assert net_rig.run("alpha", body) == 0

    def test_nonparticipant_gets_no_broadcasts(self, net_rig):
        """Network rule of §Transaction State Change: only participating
        nodes are notified."""
        tmf_a = net_rig.tmf["alpha"]
        client = net_rig.clients["alpha"]

        def body(proc):
            yield from create_files(net_rig, proc)
            transid = yield from tmf_a.begin(proc)
            yield from client.insert(proc, "b_file", {"k": 1, "v": 1}, transid=transid)
            yield from tmf_a.end(proc, transid)
            return str(transid)

        transid_str = net_rig.run("alpha", body)
        nodes_seen = {
            r.node
            for r in net_rig.cluster.env.probe.select("state_broadcast", transid=transid_str)
        }
        assert "gamma" not in nodes_seen
        assert nodes_seen == {"alpha", "beta"}

    def test_transitive_three_node_chain(self, net_rig):
        """The paper's example: TCP on node 1 SENDs to a server on node
        2, which updates a record via a DISCPROCESS on node 3.  Node 1
        knows only of node 2; node 2 knows of node 3; the commit wave
        travels the transmission tree."""
        tmf_a = net_rig.tmf["alpha"]
        client_a = net_rig.clients["alpha"]
        client_b = net_rig.clients["beta"]

        def beta_server(proc):
            while True:
                message = yield from proc.receive()
                # The server's current transid came with the request; its
                # own I/O to gamma exports the transid transitively.
                yield from client_b.insert(
                    proc, "g_file", dict(message.payload), transid=message.transid
                )
                proc.reply(message, {"ok": True})

        def body(proc):
            yield from create_files(net_rig, proc)
            net_rig.cluster.os("beta").spawn("$server", 0, beta_server)
            transid = yield from tmf_a.begin(proc)
            yield from net_rig.cluster.fs("alpha").send(
                proc, "\\beta.$server", {"k": 9, "v": "via beta"}, transid=transid
            )
            yield from tmf_a.end(proc, transid)
            record = yield from client_a.read(proc, "g_file", (9,))
            # Phase 2 propagates by safe delivery; let the deliveries land.
            yield net_rig.cluster.env.timeout(2000)
            return record["v"], str(transid)

        value, transid_str = net_rig.run("alpha", body)
        assert value == "via beta"
        # alpha only transmitted to beta; beta transmitted to gamma.
        transid = next(t for t in tmf_a.records if str(t) == transid_str)
        assert tmf_a.records[transid].children == {"beta"}
        assert net_rig.tmf["beta"].records[transid].children == {"gamma"}
        assert net_rig.tmf["beta"].records[transid].parent == "alpha"
        # All three nodes broadcast the full commit sequence.
        for node in ("alpha", "beta", "gamma"):
            states = [
                r.state
                for r in net_rig.cluster.env.probe.select(
                    "state_broadcast", transid=transid_str, node=node
                )
            ]
            assert states == ["active", "ending", "ended"]


class TestPartitionAborts:
    def test_partition_before_commit_aborts_everywhere(self, net_rig):
        tmf_a = net_rig.tmf["alpha"]
        client = net_rig.clients["alpha"]

        def body(proc):
            yield from create_files(net_rig, proc)
            transid = yield from tmf_a.begin(proc)
            yield from client.insert(proc, "a_file", {"k": 1, "v": "x"}, transid=transid)
            yield from client.insert(proc, "b_file", {"k": 1, "v": "y"}, transid=transid)
            net_rig.cluster.network.partition(["alpha", "gamma"], ["beta"])
            outcome = yield from end_outcome(tmf_a, proc, transid)
            local = yield from client.read(proc, "a_file", (1,))
            # Heal; safe-delivery abort reaches beta, which backs out.
            net_rig.cluster.network.heal()
            yield net_rig.cluster.env.timeout(3000)
            return outcome, local, str(transid)

        outcome, local, transid_str = net_rig.run("alpha", body)
        assert outcome == "aborted"
        assert local is None  # alpha's own update backed out
        # Beta eventually backed out too (unilateral or safe-delivery).
        beta_tmf = net_rig.tmf["beta"]
        transid = next(t for t in beta_tmf.records if str(t) == transid_str)
        assert beta_tmf.records[transid].done == "aborted"

        def check(proc):
            record = yield from net_rig.clients["beta"].read(proc, "b_file", (1,))
            return record

        assert net_rig.run("beta", check, name="$chk") is None

    def test_unilateral_abort_forces_consensus(self, net_rig):
        """A participant that lost its parent aborts unilaterally; the
        later phase-1 request gets a 'no' vote."""
        tmf_a = net_rig.tmf["alpha"]
        tmf_b = net_rig.tmf["beta"]
        client = net_rig.clients["alpha"]

        def body(proc):
            yield from create_files(net_rig, proc)
            transid = yield from tmf_a.begin(proc)
            yield from client.insert(proc, "b_file", {"k": 2, "v": "y"}, transid=transid)
            net_rig.cluster.network.partition(["alpha"], ["beta", "gamma"])
            # Beta's sweep notices the lost parent and aborts unilaterally.
            yield net_rig.cluster.env.timeout(2000)
            done_during_partition = tmf_b.records[transid].done
            locks_during_partition = (
                net_rig.disc_processes[("beta", "$data")].locks.held_count()
            )
            net_rig.cluster.network.heal()
            outcome = yield from end_outcome(tmf_a, proc, transid)
            return done_during_partition, locks_during_partition, outcome

        done_during_partition, locks, outcome = net_rig.run("alpha", body)
        assert done_during_partition == "aborted"   # unilateral
        assert locks == 0                           # ... frees locks early
        assert outcome == "aborted"                 # consensus forced

    def test_locks_stranded_after_phase1_ack_until_heal(self, net_rig):
        tmf_a = net_rig.tmf["alpha"]
        tmf_b = net_rig.tmf["beta"]
        client = net_rig.clients["alpha"]
        observations = {}

        def body(proc):
            yield from create_files(net_rig, proc)
            transid = yield from tmf_a.begin(proc)
            yield from client.insert(proc, "b_file", {"k": 3, "v": "z"}, transid=transid)
            # Partition the instant beta acks phase 1 (its reply already
            # left, so the home node can still commit).
            observations["home"] = yield from end_cut_off_at_ack(
                net_rig, "alpha", transid, "beta", (["alpha"], ["beta", "gamma"])
            )
            # Beta acked phase 1: it must hold the locks while cut off.
            yield net_rig.cluster.env.timeout(2000)
            observations["locks_during_partition"] = (
                net_rig.disc_processes[("beta", "$data")].locks.held_count()
            )
            observations["beta_done_during"] = tmf_b.records[transid].done
            net_rig.cluster.network.heal()
            yield net_rig.cluster.env.timeout(3000)
            observations["locks_after_heal"] = (
                net_rig.disc_processes[("beta", "$data")].locks.held_count()
            )
            observations["beta_done_after"] = tmf_b.records[transid].done
            return observations

        result = net_rig.run("alpha", body)
        assert result["home"] == "committed"
        assert result["locks_during_partition"] > 0     # stranded
        assert result["beta_done_during"] is None       # in doubt
        assert result["locks_after_heal"] == 0          # safe delivery won
        assert result["beta_done_after"] == "committed"

    def test_manual_override_frees_stranded_locks(self, net_rig):
        from repro.core import TmpForceDisposition, TmpQuery

        tmf_a = net_rig.tmf["alpha"]
        tmf_b = net_rig.tmf["beta"]
        client = net_rig.clients["alpha"]
        observations = {}

        def operator_beta(proc, transid):
            # Step 1-2 of the paper's manual procedure: the operator
            # learns the disposition at the home node "by telephone".
            disposition = tmf_a.dispositions.get(transid, "aborted")
            # Step 3: force it at the stranded node.
            yield from net_rig.cluster.fs("beta").send(
                proc, "$TMP", TmpForceDisposition(transid, disposition)
            )
            observations["forced"] = disposition

        def body(proc):
            yield from create_files(net_rig, proc)
            transid = yield from tmf_a.begin(proc)
            yield from client.insert(proc, "b_file", {"k": 4, "v": "w"}, transid=transid)
            observations["home"] = yield from end_cut_off_at_ack(
                net_rig, "alpha", transid, "beta", (["alpha"], ["beta", "gamma"])
            )
            yield net_rig.cluster.env.timeout(500)
            # Operator intervenes on beta while still partitioned.
            op = net_rig.cluster.os("beta").spawn(
                "$op", 0, lambda p: operator_beta(p, transid), register=False
            )
            yield op.sim_process
            observations["locks_after_override"] = (
                net_rig.disc_processes[("beta", "$data")].locks.held_count()
            )
            observations["beta_done"] = tmf_b.records[transid].done
            return observations

        result = net_rig.run("alpha", body)
        assert result["home"] == "committed"
        assert result["forced"] == "committed"
        assert result["locks_after_override"] == 0
        assert result["beta_done"] == "committed"
