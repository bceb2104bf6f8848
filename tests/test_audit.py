"""Unit tests for audit trails and the AUDITPROCESS."""

import pytest

from repro.core import (
    AppendAudit,
    AuditProcess,
    AuditRecord,
    AuditTrail,
    ForceAudit,
    GetAudit,
    Transid,
)
from repro.guardian import Cluster
from repro.hardware import DiscDrive, IoController, MirroredVolume
from repro.sim import Environment

from conftest import Trigger

T1 = Transid("alpha", 0, 1)
T2 = Transid("alpha", 0, 2)


def record(seq, transid=T1, volume="$data", op="update"):
    return AuditRecord(
        transid=transid, volume=volume, file="f", op=op,
        key=(seq,), before={"v": 0}, after={"v": seq}, seq=seq,
    )


def make_volume(env):
    drives = [DiscDrive(env, "d0"), DiscDrive(env, "d1")]
    # Controllers are irrelevant to trail storage; one dummy channel set.
    from repro.hardware import Node
    node = Node(env, "x", cpu_count=2)
    controller = IoController(env, "c0", [node.cpus[0].channel])
    return MirroredVolume("$audvol", drives, [controller])


class TestAuditTrail:
    def test_append_and_scan(self):
        env = Environment()
        trail = AuditTrail(make_volume(env), records_per_file=4)
        for i in range(10):
            trail.append(record(i))
        assert trail.total_records == 10
        scanned = trail.scan_all()
        assert [r.seq for r in scanned] == list(range(10))

    def test_rollover_creates_numbered_files(self):
        env = Environment()
        trail = AuditTrail(make_volume(env), records_per_file=3)
        for i in range(8):
            trail.append(record(i))
        # ceil(8/3) = 3 files, numbered sequence
        assert trail.file_names == ["AA000001", "AA000002", "AA000003"]

    def test_append_many_coalesces_writes(self):
        env = Environment()
        trail = AuditTrail(make_volume(env), records_per_file=512,
                           entries_per_block=32)
        writes = trail.append_many([record(i) for i in range(20)])
        # 20 records fit one data block + header (+ new file header).
        assert writes <= 4
        assert trail.total_records == 20

    def test_discover_file_names(self):
        env = Environment()
        volume = make_volume(env)
        trail = AuditTrail(volume, records_per_file=2)
        for i in range(5):
            trail.append(record(i))
        names = AuditTrail.discover_file_names(volume, "AA")
        assert names == trail.file_names

    def test_attach_existing_resumes_counting(self):
        env = Environment()
        volume = make_volume(env)
        trail = AuditTrail(volume, records_per_file=4)
        for i in range(6):
            trail.append(record(i))
        fresh = AuditTrail(volume, records_per_file=4)
        fresh.attach_existing(AuditTrail.discover_file_names(volume, "AA"))
        assert fresh.total_records == 6
        fresh.append(record(6))
        assert fresh.scan_all()[-1].seq == 6

    def test_contents_survive_on_mirror(self):
        env = Environment()
        volume = make_volume(env)
        trail = AuditTrail(volume)
        trail.append(record(0))
        volume.drives[0].fail()
        assert [r.seq for r in trail.scan_all()] == [0]


class AuditRig:
    def __init__(self):
        self.cluster = Cluster(seed=3)
        self.node_os = self.cluster.add_node("alpha", cpu_count=4)
        self.cluster.connect_all()
        audit_volume = self.node_os.node.add_volume("$audvol", 2, 3)
        self.trail = AuditTrail(audit_volume)
        self.audit = AuditProcess(self.node_os, "$aud", 2, 3, self.trail)

    def request(self, payload, cpu=0):
        def body(proc):
            reply = yield from self.cluster.fs("alpha").send(proc, "$aud", payload)
            return reply

        proc = self.node_os.spawn("$req", cpu, body, register=False)
        return self.cluster.run(proc.sim_process)


class TestAuditProcess:
    def test_append_buffers_until_force(self):
        rig = AuditRig()
        reply = rig.request(AppendAudit("$data", (record(0), record(1))))
        assert reply == {"ok": True, "accepted": 2}
        assert rig.trail.total_records == 0  # buffered, not durable
        reply = rig.request(ForceAudit(T1))
        assert reply["ok"]
        assert rig.trail.total_records == 2

    def test_duplicate_sequences_suppressed(self):
        rig = AuditRig()
        rig.request(AppendAudit("$data", (record(0), record(1))))
        reply = rig.request(AppendAudit("$data", (record(0), record(1), record(2))))
        assert reply["accepted"] == 1  # only seq 2 is new

    def test_sequences_independent_per_volume(self):
        rig = AuditRig()
        rig.request(AppendAudit("$data", (record(0),)))
        reply = rig.request(AppendAudit("$other", (record(0, volume="$other"),)))
        assert reply["accepted"] == 1

    def test_get_audit_returns_transaction_records(self):
        rig = AuditRig()
        rig.request(AppendAudit("$data", (record(0, T1), record(1, T2), record(2, T1))))
        reply = rig.request(GetAudit(T1))
        assert [r.seq for r in reply["records"]] == [0, 2]

    def test_force_is_idempotent_and_empty_force_ok(self):
        rig = AuditRig()
        rig.request(AppendAudit("$data", (record(0),)))
        rig.request(ForceAudit(T1))
        reply = rig.request(ForceAudit(T1))
        assert reply["ok"]
        assert rig.trail.total_records == 1  # nothing written twice

    def test_overlapping_forces_write_each_image_once(self):
        # A second force arrives while the first one's trail write is
        # still on the disc: it must neither write the same images again
        # nor reply before that write ends.
        rig = AuditRig()
        env = rig.cluster.env
        fs = rig.cluster.fs("alpha")
        rig.request(AppendAudit("$data", tuple(record(i) for i in range(100))))
        seen = {}

        def first(proc):
            yield from fs.send(proc, "$aud", ForceAudit(T1))

        def second(proc):
            # $aud claims the images and books their write in the step
            # it takes the first force.
            yield Trigger(env, "serve.begin", proc="$aud")
            seen["write_end"] = max(d.free_at for d in rig.trail.volume.drives)
            seen["sent"] = env.now
            yield from fs.send(proc, "$aud", ForceAudit(T2))
            seen["replied"] = env.now

        rig.node_os.spawn("$f1", 0, first, register=False)
        proc = rig.node_os.spawn("$f2", 1, second, register=False)
        rig.cluster.run(proc.sim_process)
        assert seen["sent"] < seen["write_end"], "the forces overlapped"
        assert seen["replied"] >= seen["write_end"]
        on_trail = [(r.volume, r.seq) for r in rig.trail.scan_all()]
        assert sorted(on_trail) == [("$data", i) for i in range(100)]

    def test_force_time_is_half_a_disc_write_per_block(self):
        # A force books one write of blocks x disc_write / 2 on both arms
        # of the trail volume.  The figures are those of the single-queue
        # trail disc this model had before: 100 images fill 5 blocks
        # (62.5 ms), an empty force writes the commit-fence block
        # (12.5 ms), and the request's messages and checkpoint add 0.4
        # and 0.2 ms.  One drive left writes at the same speed.
        rig = AuditRig()
        env = rig.cluster.env
        rig.request(AppendAudit("$data", tuple(record(i) for i in range(100))))
        start = env.now
        rig.request(ForceAudit(T1))
        assert rig.audit.forced_block_writes == 5
        assert env.now - start == pytest.approx(62.9)
        for failed in (False, True):
            if failed:
                rig.trail.volume.drives[1].fail()
            start = env.now
            rig.request(ForceAudit(T2))
            assert env.now - start == pytest.approx(12.7)

    def test_takeover_preserves_buffer(self):
        rig = AuditRig()
        rig.request(AppendAudit("$data", (record(0), record(1))))
        rig.cluster.node("alpha").fail_cpu(2)  # audit primary
        reply = rig.request(ForceAudit(T1))
        assert reply["ok"]
        assert rig.trail.total_records == 2
        assert rig.audit.takeovers == 1

    def test_forget_transaction_clears_index(self):
        rig = AuditRig()
        rig.request(AppendAudit("$data", (record(0, T1),)))
        rig.audit.forget_transaction(T1)
        reply = rig.request(GetAudit(T1))
        assert reply["records"] == ()

    def test_forget_during_append_checkpoint_stays_forgotten(self):
        # The transaction is forgotten while its append's checkpoint is
        # in flight: the late mirror must not revive it in the backup.
        rig = AuditRig()
        env = rig.cluster.env

        def forget_mid_checkpoint(proc):
            # $aud indexes the images and sends their checkpoint in the
            # step it takes the append.
            yield Trigger(env, "serve.begin", proc="$aud")
            assert str(T1) not in rig.audit.backup_state.get("by_tx", {})
            rig.audit.forget_transaction(T1)

        rig.node_os.spawn("$cleanup", 1, forget_mid_checkpoint, register=False)
        rig.request(AppendAudit("$data", (record(0, T1),)))
        assert str(T1) not in rig.audit.backup_state.get("by_tx", {})
        assert rig.request(GetAudit(T1))["records"] == ()

    def test_cold_restart_rebuilds_from_trail(self):
        rig = AuditRig()
        rig.request(AppendAudit("$data", (record(0), record(1))))
        rig.request(ForceAudit(T1))
        rig.cluster.node("alpha").total_failure()
        rig.cluster.node("alpha").restore_all_cpus()
        rig.audit.cold_restart(2, 3)
        reply = rig.request(GetAudit(T1))
        assert [r.seq for r in reply["records"]] == [0, 1]
        # Duplicate suppression also survives: re-sent records rejected.
        reply = rig.request(AppendAudit("$data", (record(0), record(1))))
        assert reply["accepted"] == 0

    def test_unknown_request_rejected(self):
        rig = AuditRig()
        reply = rig.request({"op": "nonsense"})
        assert reply["ok"] is False
