"""ROLLFORWARD: recovery from total node failure.

Archive + after-images of committed transactions reconstruct the data
base; uncommitted work is discarded; transactions caught in ENDING are
resolved by negotiating with their home node.
"""

import pytest

from repro.core import Rollforward, dump_volume
from repro.discprocess import FileSchema, KEY_SEQUENCED, PartitionSpec

from conftest import TmfRig, end_cut_off_at_ack


def schema_for(node):
    return FileSchema(
        name=f"{node}_accts",
        organization=KEY_SEQUENCED,
        primary_key=("aid",),
        audited=True,
        partitions=(PartitionSpec(node, "$data"),),
    )


def total_failure_and_restart(rig, node_name):
    """Crash every CPU, restore hardware, cold-restart all pairs."""
    node = rig.cluster.node(node_name)
    node.total_failure()
    node.restore_all_cpus()
    rig.tmf[node_name].reset_after_total_failure()


class TestSingleNodeRollforward:
    def _populate(self, rig, proc, n_committed_before, n_after, n_uncommitted):
        """Create the file, commit, archive, commit more, leave one open."""
        tmf = rig.tmf["alpha"]
        client = rig.clients["alpha"]
        yield from client.create_file(proc, rig.dictionary.schema("alpha_accts"))
        for i in range(n_committed_before):
            transid = yield from tmf.begin(proc)
            yield from client.insert(
                proc, "alpha_accts", {"aid": i, "balance": 100 + i}, transid=transid
            )
            yield from tmf.end(proc, transid)
        archive = dump_volume(rig.disc_processes[("alpha", "$data")])
        for i in range(n_committed_before, n_committed_before + n_after):
            transid = yield from tmf.begin(proc)
            yield from client.insert(
                proc, "alpha_accts", {"aid": i, "balance": 100 + i}, transid=transid
            )
            yield from tmf.end(proc, transid)
        # Uncommitted work: audit may or may not be on the trail, but no
        # commit record exists — rollforward must discard it.
        transid = yield from tmf.begin(proc)
        for i in range(n_uncommitted):
            yield from client.insert(
                proc, "alpha_accts", {"aid": 900 + i, "balance": -1}, transid=transid
            )
        return archive

    def test_recovery_restores_exactly_committed_state(self, tmf_rig):
        tmf_rig.dictionary.define(schema_for("alpha"))
        holder = {}

        def phase_one(proc):
            archive = yield from self._populate(tmf_rig, proc, 5, 7, 3)
            holder["archive"] = archive

        tmf_rig.run("alpha", phase_one)
        total_failure_and_restart(tmf_rig, "alpha")

        def phase_two(proc):
            rollforward = Rollforward(tmf_rig.tmf["alpha"])
            rollforward.rebuild_dispositions()
            stats = yield from rollforward.recover_volume(
                proc, tmf_rig.disc_processes[("alpha", "$data")], holder["archive"]
            )
            rows = yield from tmf_rig.clients["alpha"].scan(proc, "alpha_accts")
            return stats, rows

        stats, rows = tmf_rig.run("alpha", phase_two, name="$rf")
        keys = [k for k, _ in rows]
        assert keys == [(i,) for i in range(12)]        # 5 + 7 committed
        assert all(r["balance"] == 100 + k[0] for k, r in rows)
        assert stats.transactions_discarded >= 0
        assert stats.records_reapplied >= 7             # the post-archive commits

    def test_updates_and_deletes_replay_correctly(self, tmf_rig):
        tmf_rig.dictionary.define(schema_for("alpha"))
        holder = {}

        def phase_one(proc):
            tmf = tmf_rig.tmf["alpha"]
            client = tmf_rig.clients["alpha"]
            yield from client.create_file(proc, tmf_rig.dictionary.schema("alpha_accts"))
            transid = yield from tmf.begin(proc)
            for i in range(4):
                yield from client.insert(
                    proc, "alpha_accts", {"aid": i, "balance": 0}, transid=transid
                )
            yield from tmf.end(proc, transid)
            holder["archive"] = dump_volume(tmf_rig.disc_processes[("alpha", "$data")])
            # post-archive: update 0, delete 1, insert 9 — all committed
            transid = yield from tmf.begin(proc)
            rec = yield from client.read(proc, "alpha_accts", (0,), transid=transid, lock=True)
            rec["balance"] = 777
            yield from client.update(proc, "alpha_accts", rec, transid=transid)
            yield from client.read(proc, "alpha_accts", (1,), transid=transid, lock=True)
            yield from client.delete(proc, "alpha_accts", (1,), transid=transid)
            yield from client.insert(
                proc, "alpha_accts", {"aid": 9, "balance": 9}, transid=transid
            )
            yield from tmf.end(proc, transid)
            # and one committed-then-aborted pair of transactions
            transid = yield from tmf.begin(proc)
            rec = yield from client.read(proc, "alpha_accts", (2,), transid=transid, lock=True)
            rec["balance"] = -5
            yield from client.update(proc, "alpha_accts", rec, transid=transid)
            yield from tmf.abort(proc, transid)

        tmf_rig.run("alpha", phase_one)
        total_failure_and_restart(tmf_rig, "alpha")

        def phase_two(proc):
            rollforward = Rollforward(tmf_rig.tmf["alpha"])
            rollforward.rebuild_dispositions()
            yield from rollforward.recover_volume(
                proc, tmf_rig.disc_processes[("alpha", "$data")], holder["archive"]
            )
            rows = yield from tmf_rig.clients["alpha"].scan(proc, "alpha_accts")
            return {k: r["balance"] for k, r in rows}

        result = tmf_rig.run("alpha", phase_two, name="$rf")
        assert result == {(0,): 777, (2,): 0, (3,): 0, (9,): 9}

    def test_volume_is_down_until_rollforward(self, tmf_rig):
        tmf_rig.dictionary.define(schema_for("alpha"))
        holder = {}

        def phase_one(proc):
            archive = yield from self._populate(tmf_rig, proc, 2, 0, 0)
            holder["archive"] = archive

        tmf_rig.run("alpha", phase_one)
        total_failure_and_restart(tmf_rig, "alpha")

        def phase_two(proc):
            from repro.discprocess import FileUnavailableError
            try:
                yield from tmf_rig.clients["alpha"].read(proc, "alpha_accts", (0,))
            except FileUnavailableError:
                return "down"

        assert tmf_rig.run("alpha", phase_two, name="$chk") == "down"


class TestEndingNegotiation:
    def test_remote_participant_negotiates_committed(self):
        """A participant that crashed between phase 1 and phase 2 asks the
        transaction's home node for the disposition."""
        rig = TmfRig(nodes=("alpha", "beta"))
        rig.add_volume("alpha", "$data")
        rig.add_volume("beta", "$data")
        rig.dictionary.define(schema_for("alpha"))
        holder = {}

        def phase_one(proc):
            # beta is home; the data lives on alpha.
            tmf_b = rig.tmf["beta"]
            client_b = rig.clients["beta"]
            yield from client_b.create_file(proc, rig.dictionary.schema("alpha_accts"))
            holder["archive"] = dump_volume(rig.disc_processes[("alpha", "$data")])
            transid = yield from tmf_b.begin(proc)
            holder["transid"] = transid
            yield from client_b.insert(
                proc, "alpha_accts", {"aid": 1, "balance": 11}, transid=transid
            )
            # Cut alpha off the moment it acks phase 1, so phase 2 never
            # arrives before the crash.
            holder["home"] = yield from end_cut_off_at_ack(
                rig, "beta", transid, "alpha", (["beta"], ["alpha"])
            )

        rig.run("beta", phase_one)
        assert holder["home"] == "committed"
        total_failure_and_restart(rig, "alpha")
        rig.cluster.network.heal()

        def phase_two(proc):
            rollforward = Rollforward(rig.tmf["alpha"])
            rollforward.rebuild_dispositions()
            stats = yield from rollforward.recover_volume(
                proc, rig.disc_processes[("alpha", "$data")], holder["archive"]
            )
            record = yield from rig.clients["alpha"].read(proc, "alpha_accts", (1,))
            return stats, record

        stats, record = rig.run("alpha", phase_two, name="$rf")
        assert stats.negotiated == 1
        assert record == {"aid": 1, "balance": 11}

    def test_home_node_rule_discards_unresolved(self):
        """No commit record at the home node => the transaction aborts."""
        rig = TmfRig(nodes=("alpha",))
        rig.add_volume("alpha", "$data")
        rig.dictionary.define(schema_for("alpha"))
        holder = {}

        def phase_one(proc):
            tmf = rig.tmf["alpha"]
            client = rig.clients["alpha"]
            yield from client.create_file(proc, rig.dictionary.schema("alpha_accts"))
            holder["archive"] = dump_volume(rig.disc_processes[("alpha", "$data")])
            transid = yield from tmf.begin(proc)
            yield from client.insert(
                proc, "alpha_accts", {"aid": 1, "balance": 1}, transid=transid
            )
            # Force the audit to the trail (as phase one would: drain
            # the volume's boxcar, then force the trail), but crash
            # before the commit record is written.
            from repro.core import ForceAudit
            from repro.discprocess import ForceBoxcar
            yield from rig.cluster.fs("alpha").send(proc, "$data", ForceBoxcar(transid))
            yield from rig.cluster.fs("alpha").send(proc, "$aud", ForceAudit(transid))

        rig.run("alpha", phase_one)
        total_failure_and_restart(rig, "alpha")

        def phase_two(proc):
            rollforward = Rollforward(rig.tmf["alpha"])
            rollforward.rebuild_dispositions()
            stats = yield from rollforward.recover_volume(
                proc, rig.disc_processes[("alpha", "$data")], holder["archive"]
            )
            rows = yield from rig.clients["alpha"].scan(proc, "alpha_accts")
            return stats, rows

        stats, rows = rig.run("alpha", phase_two, name="$rf")
        assert rows == []
        assert stats.transactions_discarded == 1
