"""The TMFCOM operator utility."""

import pytest

from repro.core import Tmfcom
from repro.discprocess import FileSchema, KEY_SEQUENCED, PartitionSpec

from conftest import TmfRig, end_cut_off_at_ack


def schema(node="alpha"):
    return FileSchema(
        name="ops",
        organization=KEY_SEQUENCED,
        primary_key=("k",),
        audited=True,
        partitions=(PartitionSpec(node, "$data"),),
    )


@pytest.fixture
def rig():
    rig = TmfRig()
    rig.add_volume("alpha", "$data")
    rig.dictionary.define(schema())
    return rig


class TestStatus:
    def test_status_counts_and_health(self, rig):
        tmfcom = Tmfcom(rig.tmf["alpha"])

        def body(proc):
            tmf = rig.tmf["alpha"]
            client = rig.clients["alpha"]
            yield from client.create_file(proc, rig.dictionary.schema("ops"))
            for k in range(3):
                transid = yield from tmf.begin(proc)
                yield from client.insert(proc, "ops", {"k": k}, transid=transid)
                if k == 2:
                    yield from tmf.abort(proc, transid)
                else:
                    yield from tmf.end(proc, transid)

        rig.run("alpha", body)
        status = tmfcom.status()
        assert status["commits"] == 2
        assert status["aborts"] == 1
        assert status["tmp_available"]
        assert status["audit_processes"]["$aud"]["available"]
        text = tmfcom.render_status()
        assert "TMF STATUS" in text and "commits: 2" in text

    def test_transactions_listing_shows_active(self, rig):
        tmfcom = Tmfcom(rig.tmf["alpha"])
        holder = {}

        def body(proc):
            tmf = rig.tmf["alpha"]
            client = rig.clients["alpha"]
            yield from client.create_file(proc, rig.dictionary.schema("ops"))
            transid = yield from tmf.begin(proc)
            yield from client.insert(proc, "ops", {"k": 9}, transid=transid)
            holder["rows"] = tmfcom.transactions(state="active")
            yield from tmf.end(proc, transid)
            holder["after"] = tmfcom.transactions(state="active")

        rig.run("alpha", body)
        assert len(holder["rows"]) == 1
        assert holder["rows"][0]["volumes"] == ["$data"]
        assert holder["after"] == []

    def test_disposition_info(self, rig):
        tmfcom = Tmfcom(rig.tmf["alpha"])
        holder = {}

        def body(proc):
            tmf = rig.tmf["alpha"]
            client = rig.clients["alpha"]
            yield from client.create_file(proc, rig.dictionary.schema("ops"))
            transid = yield from tmf.begin(proc)
            yield from client.insert(proc, "ops", {"k": 1}, transid=transid)
            yield from tmf.end(proc, transid)
            holder["info"] = tmfcom.disposition(transid)

        rig.run("alpha", body)
        assert holder["info"]["disposition"] == "committed"


class TestScreens:
    """The status()/transactions() screens, plus INFO TRANSACTION, TRACE."""

    def test_transactions_unfiltered_lists_finished_units(self, rig):
        tmfcom = Tmfcom(rig.tmf["alpha"])

        def body(proc):
            tmf = rig.tmf["alpha"]
            client = rig.clients["alpha"]
            yield from client.create_file(proc, rig.dictionary.schema("ops"))
            committed = yield from tmf.begin(proc)
            yield from client.insert(proc, "ops", {"k": 1}, transid=committed)
            yield from tmf.end(proc, committed)
            aborted = yield from tmf.begin(proc)
            yield from client.insert(proc, "ops", {"k": 2}, transid=aborted)
            yield from tmf.abort(proc, aborted)

        rig.run("alpha", body)
        rows = tmfcom.transactions()
        assert len(rows) == 2
        by_state = {row["state"] for row in rows}
        assert by_state == {"ended", "aborted"} or by_state == {
            "committed", "aborted"
        }
        for row in rows:
            assert row["home"] is True      # this node began them
            assert row["volumes"] == ["$data"]
        # And the filtered view is consistent with the full listing.
        assert tmfcom.transactions(state="active") == []

    def test_status_reports_audit_backlog_fields(self, rig):
        tmfcom = Tmfcom(rig.tmf["alpha"])
        status = tmfcom.status()
        assert status["node"] == "alpha"
        assert status["active_transactions"] == 0
        assert status["safe_delivery_backlog"] == 0
        aud = status["audit_processes"]["$aud"]
        assert set(aud) == {"available", "trail_files", "trail_records",
                            "buffered"}
        text = tmfcom.render_status()
        assert "$aud: up" in text

    def test_trace_screen_without_collector(self, rig):
        tmfcom = Tmfcom(rig.tmf["alpha"])
        assert "tracing not enabled" in tmfcom.trace("\\alpha.0.1")

    def test_trace_screen_delegates_to_collector(self, rig):
        class FakeCollector:
            def has_trace(self, transid):
                return str(transid) == "\\alpha.0.1"

            def trace_of(self, transid):
                class Trace:
                    def render(self):
                        return "TRANSACTION \\alpha.0.1 — 1 spans"
                return Trace()

        tmfcom = Tmfcom(rig.tmf["alpha"], collector=FakeCollector())
        assert tmfcom.trace("\\alpha.0.1") == "TRANSACTION \\alpha.0.1 — 1 spans"
        assert "no trace recorded" in tmfcom.trace("\\alpha.0.2")


class TestResolution:
    def test_remote_query_and_force(self):
        """The full manual-override workflow through TMFCOM."""
        rig = TmfRig(nodes=("home", "remote"))
        rig.add_volume("remote", "$data")
        rig.dictionary.define(
            FileSchema(
                name="ops", organization=KEY_SEQUENCED, primary_key=("k",),
                audited=True, partitions=(PartitionSpec("remote", "$data"),),
            )
        )
        tmf_home = rig.tmf["home"]
        tmf_remote = rig.tmf["remote"]
        tmfcom_remote = Tmfcom(tmf_remote)
        observations = {}

        def body(proc):
            client = rig.clients["home"]
            yield from client.create_file(proc, rig.dictionary.schema("ops"))
            transid = yield from tmf_home.begin(proc)
            yield from client.insert(proc, "ops", {"k": 5}, transid=transid)
            observations["home"] = yield from end_cut_off_at_ack(
                rig, "home", transid, "remote", (["home"], ["remote"])
            )
            observations["transid"] = transid

        rig.run("home", body)
        assert observations["home"] == "committed"
        transid = observations["transid"]

        # On the stranded node: query fails (home unreachable), operator
        # learns the disposition out of band, forces it.
        def operator(proc):
            asked = yield from tmfcom_remote.query_remote_disposition(proc, transid)
            observations["query_during_partition"] = asked["disposition"]
            info = yield from tmfcom_remote.force_disposition(
                proc, transid, "committed"
            )
            observations["forced"] = info["disposition"]

        op = rig.cluster.os("remote").spawn("$op", 0, operator, register=False)
        rig.cluster.run(op.sim_process)
        assert observations["query_during_partition"] == "unknown"
        assert observations["forced"] == "committed"
        assert rig.disc_processes[("remote", "$data")].locks.held_count() == 0
        rig.cluster.network.heal()

    def test_force_validates_disposition(self, rig):
        tmfcom = Tmfcom(rig.tmf["alpha"])

        def body(proc):
            from repro.core import Transid
            with pytest.raises(ValueError):
                yield from tmfcom.force_disposition(
                    proc, Transid("alpha", 0, 1), "maybe"
                )
            return True

        assert rig.run("alpha", body)


class TestArchiveOps:
    def test_dump_recover_purge_cycle(self, rig):
        from test_rollforward import total_failure_and_restart

        tmfcom = Tmfcom(rig.tmf["alpha"])
        rig.audit_processes["alpha"].trail.records_per_file = 8
        holder = {}

        def phase_one(proc):
            tmf = rig.tmf["alpha"]
            client = rig.clients["alpha"]
            yield from client.create_file(proc, rig.dictionary.schema("ops"))
            for k in range(10):
                transid = yield from tmf.begin(proc)
                yield from client.insert(proc, "ops", {"k": k}, transid=transid)
                yield from tmf.end(proc, transid)
            holder["archive"] = tmfcom.dump_volume("$data")
            for k in range(100, 104):
                transid = yield from tmf.begin(proc)
                yield from client.insert(proc, "ops", {"k": k}, transid=transid)
                yield from tmf.end(proc, transid)

        rig.run("alpha", phase_one)
        purged = tmfcom.purge_audit([holder["archive"]])
        assert purged >= 1
        total_failure_and_restart(rig, "alpha")

        def phase_two(proc):
            stats = yield from tmfcom.recover_volume(proc, holder["archive"])
            rows = yield from rig.clients["alpha"].scan(proc, "ops")
            return stats, [k[0] for k, _ in rows]

        stats, keys = rig.run("alpha", phase_two, name="$rf")
        assert keys == list(range(10)) + [100, 101, 102, 103]

    def test_dump_unknown_volume(self, rig):
        tmfcom = Tmfcom(rig.tmf["alpha"])
        with pytest.raises(KeyError):
            tmfcom.dump_volume("$nope")
