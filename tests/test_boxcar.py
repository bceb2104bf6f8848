"""BOXCAR: group-commit audit pipelining on the DISCPROCESS write path.

The boxcar decouples audit forwarding from the operation that produced
the images: writes checkpoint their after-images into ``unforwarded``
and return; the images leave for the AUDITPROCESS in batches only when
something needs them — a full boxcar, TMF phase one, the quiesce before
backout, or a takeover.  The tests here pin down those departure rules
and, above all, the failure contract: **a committed transaction's audit
is never silently dropped**, whatever fails.
"""

import math

from repro.core import AppendAudit, ForceAudit, GetAudit
from repro.discprocess import FileSchema, ForceBoxcar, KEY_SEQUENCED, PartitionSpec
from repro.discprocess.volume import BOXCAR_RECORDS

from conftest import TmfRig, Trigger, end_outcome


def schema_for(node):
    return FileSchema(
        name=f"{node}_accts",
        organization=KEY_SEQUENCED,
        primary_key=("aid",),
        audited=True,
        partitions=(PartitionSpec(node, "$data"),),
    )


def make_rig():
    rig = TmfRig(nodes=("alpha",))
    rig.add_volume("alpha", "$data")
    rig.dictionary.define(schema_for("alpha"))
    return rig


def create_and_begin(rig, proc):
    tmf = rig.tmf["alpha"]
    client = rig.clients["alpha"]
    yield from client.create_file(proc, rig.dictionary.schema("alpha_accts"))
    transid = yield from tmf.begin(proc)
    return tmf, client, transid


# ----------------------------------------------------------------------
# Departure rules: max_records, force — and nothing else
# ----------------------------------------------------------------------
class TestFlushPolicies:
    def test_max_records_triggers_one_batch(self):
        rig = make_rig()
        dp = rig.disc_processes[("alpha", "$data")]

        def body(proc):
            tmf, client, transid = yield from create_and_begin(rig, proc)
            for i in range(BOXCAR_RECORDS):
                yield from client.insert(
                    proc, "alpha_accts", {"aid": i, "balance": i},
                    transid=transid,
                )
            yield rig.cluster.env.timeout(100)  # let the flush round-trip
            return dict(dp.state["unforwarded"])

        unforwarded = rig.run("alpha", body)
        assert unforwarded == {}, "the last record should trip the flush"
        assert dp.audit_batches_sent == 1
        assert dp.audit_records_forwarded == BOXCAR_RECORDS

    def test_cargo_waits_for_the_commit_drain(self):
        # No departure clock: an idle boxcar below BOXCAR_RECORDS keeps its
        # cargo until phase one needs it.
        rig = make_rig()
        dp = rig.disc_processes[("alpha", "$data")]

        def body(proc):
            tmf, client, transid = yield from create_and_begin(rig, proc)
            yield from client.insert(
                proc, "alpha_accts", {"aid": 1, "balance": 1}, transid=transid
            )
            yield rig.cluster.env.timeout(300)
            aboard = len(dp.state["unforwarded"])
            sent = dp.audit_batches_sent
            yield from tmf.end(proc, transid)
            return aboard, sent

        aboard, sent = rig.run("alpha", body)
        assert (aboard, sent) == (1, 0), "cargo stayed aboard while idle"
        assert dp.state["unforwarded"] == {}
        assert dp.audit_batches_sent == 1, "it left with the commit drain"

    def test_large_transaction_ships_full_boxcars(self):
        rig = make_rig()
        dp = rig.disc_processes[("alpha", "$data")]
        inserts = 50

        def body(proc):
            tmf, client, transid = yield from create_and_begin(rig, proc)
            for i in range(inserts):
                yield from client.insert(
                    proc, "alpha_accts", {"aid": i, "balance": i},
                    transid=transid,
                )
            yield from tmf.end(proc, transid)

        rig.run("alpha", body)
        assert dp.audit_records_forwarded == inserts
        assert dp.audit_batches_sent <= math.ceil(inserts / BOXCAR_RECORDS) + 1

    def test_commit_forces_the_drain(self):
        # Phase one's ForceBoxcar drains a part-full boxcar before the
        # trail force.
        rig = make_rig()
        dp = rig.disc_processes[("alpha", "$data")]

        def body(proc):
            tmf, client, transid = yield from create_and_begin(rig, proc)
            for i in range(2):
                yield from client.insert(
                    proc, "alpha_accts", {"aid": i, "balance": i},
                    transid=transid,
                )
            aboard = len(dp.state["unforwarded"])
            yield from tmf.end(proc, transid)
            return aboard

        aboard = rig.run("alpha", body)
        assert aboard == 2, "nothing left the boxcar before commit"
        assert dp.state["unforwarded"] == {}
        assert dp.audit_batches_sent == 1, "one batch, not one per record"
        trail = rig.audit_processes["alpha"].trail
        assert trail.total_records >= 2, "commit made the images durable"

    def test_drain_waits_only_for_its_own_images(self):
        # T1's drain ships T1's and T2's images together.  While that
        # batch is on the wire (the AUDITPROCESS is slow) T3's image
        # boards.  T2's drain then waits for the batch to land, and
        # leaves T3's image aboard: no second AppendAudit.
        rig = make_rig()
        env = rig.cluster.env
        dp = rig.disc_processes[("alpha", "$data")]
        audit = rig.audit_processes["alpha"]
        append = audit._append

        def slow_append(payload):
            yield env.timeout(50.0)
            return (yield from append(payload))

        audit._append = slow_append
        fs = rig.cluster.fs("alpha")
        seen = {}

        def body(proc):
            tmf, client, t1 = yield from create_and_begin(rig, proc)
            t2 = yield from tmf.begin(proc)
            t3 = yield from tmf.begin(proc)
            for aid, transid in enumerate((t1, t2)):
                yield from client.insert(
                    proc, "alpha_accts", {"aid": aid, "balance": 0}, transid=transid
                )

            def drain_t1(p):
                yield from fs.send(p, "$data", ForceBoxcar(t1))

            rig.cluster.os("alpha").spawn("$d1", 1, drain_t1, register=False)
            # The batch departs.
            yield Trigger(env, "rpc.send",
                          when=lambda r: isinstance(r.message.payload, AppendAudit))
            yield from client.insert(
                proc, "alpha_accts", {"aid": 3, "balance": 0}, transid=t3
            )
            seen["t3_aboard"] = t3 in (
                r.transid for r in dp.state["unforwarded"].values()
            )
            seen["reply"] = yield from fs.send(proc, "$data", ForceBoxcar(t2))
            seen["t2_landed"] = str(t2) in audit.state["by_tx"]
            seen["t3"] = t3

        rig.run("alpha", body)
        assert seen["t3_aboard"], "T3 boarded while the batch flew"
        assert seen["reply"] == {"ok": True, "flushed": 0}
        assert seen["t2_landed"], "T2's drain replied after its images landed"
        assert dp.audit_batches_sent == 1
        assert [r.transid for r in dp.state["unforwarded"].values()] == [seen["t3"]]

    def test_late_backout_images_do_not_revive_an_aborted_transaction(self):
        # Backout's compensation images stay aboard past the abort (no
        # one needs them) and reach the AUDITPROCESS with a later drain,
        # after the aborted transaction was forgotten there.
        rig = make_rig()
        audit = rig.audit_processes["alpha"]

        def body(proc):
            tmf, client, aborted = yield from create_and_begin(rig, proc)
            yield from client.insert(
                proc, "alpha_accts", {"aid": 1, "balance": 1}, transid=aborted
            )
            yield from tmf.abort(proc, aborted)
            transid = yield from tmf.begin(proc)
            yield from client.insert(
                proc, "alpha_accts", {"aid": 2, "balance": 2}, transid=transid
            )
            yield from tmf.end(proc, transid)

        rig.run("alpha", body)
        assert audit.state["by_tx"] == {}
        ops = sorted(record.op for record in audit.trail.scan_all())
        assert ops == ["backout", "insert", "insert"]


# ----------------------------------------------------------------------
# Failure contract: committed audit is never silently dropped
# ----------------------------------------------------------------------
class TestBoxcarFaults:
    def test_auditprocess_down_crashes_volume_not_drops_audit(self):
        """A drain that cannot reach the AUDITPROCESS must self-crash the
        volume — never ack a force while cargo is stranded aboard."""
        rig = make_rig()
        dp = rig.disc_processes[("alpha", "$data")]
        # Pin the AUDITPROCESS to its home CPUs so failing both really
        # downs the pair (it otherwise migrates to any spare CPU).
        rig.audit_processes["alpha"].allowed_cpus = {2, 3}

        def load(proc):
            tmf, client, transid = yield from create_and_begin(rig, proc)
            yield from client.insert(
                proc, "alpha_accts", {"aid": 1, "balance": 1}, transid=transid
            )
            return transid

        transid = rig.run("alpha", load)
        assert len(dp.state["unforwarded"]) == 1

        # Both AUDITPROCESS CPUs die with cargo still aboard.
        rig.cluster.node("alpha").fail_cpu(2)
        rig.cluster.node("alpha").fail_cpu(3)

        def force(proc):
            reply = yield from rig.cluster.fs("alpha").send(
                proc, "$data", ForceBoxcar(transid), timeout=20_000.0
            )
            return reply

        reply = rig.run("alpha", force)
        assert reply == {"ok": False, "error": "volume_down"}
        assert dp.crashed, "the volume self-crashed rather than lie"
        # The images are still in the replicated state: recovery (cold
        # restart -> reforward) re-ships them; nothing was dropped.
        assert len(dp.state["unforwarded"]) == 1

    def test_takeover_reforwards_checkpointed_cargo(self):
        """Cargo aboard at takeover was checkpointed with the write that
        produced it; the new primary must ship it unprompted."""
        rig = make_rig()
        dp = rig.disc_processes[("alpha", "$data")]

        def load(proc):
            tmf, client, transid = yield from create_and_begin(rig, proc)
            for i in range(2):
                yield from client.insert(
                    proc, "alpha_accts", {"aid": i, "balance": i},
                    transid=transid,
                )
            return transid

        # Run the transaction on CPU 2 so failing the volume's primary
        # CPU does not also kill the transaction's owner (which would
        # trigger a backout and muddy the cargo accounting).
        transid = rig.run("alpha", load, cpu=2)
        assert len(dp.state["unforwarded"]) == 2
        rig.cluster.node("alpha").fail_cpu(0)  # volume primary

        def settle(proc):
            yield rig.cluster.env.timeout(2000)
            reply = yield from rig.cluster.fs("alpha").send(
                proc, "$aud", GetAudit(transid)
            )
            return reply

        reply = rig.run("alpha", settle, cpu=2)  # cpu 0 is down
        assert dp.takeovers == 1
        assert dp.state["unforwarded"] == {}, "the new primary reforwarded"
        assert len(reply["records"]) == 2, (
            "every checkpointed image reached the AUDITPROCESS"
        )

    def test_takeover_before_removal_reaches_backup_reforwards_once(self):
        """A forward's removal rides on the next write's checkpoint; a
        takeover before that re-forwards images the AUDITPROCESS already
        holds, and it keeps each of them once."""
        rig = make_rig()
        dp = rig.disc_processes[("alpha", "$data")]
        audit = rig.audit_processes["alpha"]

        def load(proc):
            tmf, client, transid = yield from create_and_begin(rig, proc)
            for i in range(BOXCAR_RECORDS):
                yield from client.insert(
                    proc, "alpha_accts", {"aid": i, "balance": i},
                    transid=transid,
                )
            yield rig.cluster.env.timeout(100)  # let the full boxcar land
            return transid

        transid = rig.run("alpha", load, cpu=2)
        assert dp.audit_batches_sent == 1
        assert dp.state["unforwarded"] == {}, "the primary dropped them"
        assert len(dp.backup_state["unforwarded"]) == BOXCAR_RECORDS, (
            "no write has carried the removal to the backup yet"
        )
        rig.cluster.node("alpha").fail_cpu(0)  # volume primary

        def settle_and_commit(proc):
            yield rig.cluster.env.timeout(2000)
            reply = yield from rig.cluster.fs("alpha").send(
                proc, "$aud", GetAudit(transid)
            )
            yield from rig.tmf["alpha"].end(proc, transid)
            return reply

        reply = rig.run("alpha", settle_and_commit, cpu=2)
        assert dp.takeovers == 1
        assert dp.audit_batches_sent == 2, "the new primary re-forwarded"
        assert sorted(r.seq for r in reply["records"]) == list(range(BOXCAR_RECORDS))
        on_trail = [
            (record.volume, record.seq)
            for record in audit.trail.scan_all()
            if record.transid == transid
        ]
        assert sorted(on_trail) == [("$data", seq) for seq in range(BOXCAR_RECORDS)]

    def test_commit_aborts_when_drain_fails(self):
        """Phase one votes no if the boxcar cannot drain: the client
        never sees a commit whose audit did not reach the trail."""
        rig = TmfRig(nodes=("alpha",), cpu_count=6)
        # Rehome the AUDITPROCESS on CPUs 4/5 so killing it spares TMP.
        from repro.core import AuditProcess, AuditTrail

        node_os = rig.cluster.os("alpha")
        audit_volume = node_os.node.add_volume("$audvol2", 4, 5)
        trail = AuditTrail(audit_volume)
        audit = AuditProcess(node_os, "$aud2", 4, 5, trail)
        audit.allowed_cpus = {4, 5}  # no migration: failing both downs it
        rig.tmf["alpha"].register_audit_process("$aud2", audit)
        node_os.node.add_volume("$data", 0, 1)
        from repro.discprocess import DiscProcess

        dp = DiscProcess(
            node_os, "$data", 0, 1, node_os.node.volumes["$data"],
            rig.cluster.fs("alpha"), audit_process="$aud2",
            tmf_registry=rig.tmf["alpha"],
        )
        rig.tmf["alpha"].register_disc_process("$data", dp)
        rig.disc_processes[("alpha", "$data")] = dp
        rig.dictionary.define(schema_for("alpha"))

        def body(proc):
            tmf, client, transid = yield from create_and_begin(rig, proc)
            yield from client.insert(
                proc, "alpha_accts", {"aid": 1, "balance": 1}, transid=transid
            )
            # The AUDITPROCESS dies with the image still aboard.
            rig.cluster.node("alpha").fail_cpu(4)
            rig.cluster.node("alpha").fail_cpu(5)
            return (yield from end_outcome(tmf, proc, transid))

        assert rig.run("alpha", body) == "aborted"
        assert trail.total_records == 0, (
            "no commit claim was made for audit that never arrived"
        )

    def test_force_boxcar_empty_is_cheap_and_ok(self):
        rig = make_rig()

        def body(proc):
            tmf, client, transid = yield from create_and_begin(rig, proc)
            reply = yield from rig.cluster.fs("alpha").send(
                proc, "$data", ForceBoxcar(transid)
            )
            return reply

        reply = rig.run("alpha", body)
        assert reply["ok"] and reply["flushed"] == 0
