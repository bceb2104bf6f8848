"""Integration tests for the DISCPROCESS (non-audited volumes).

Audited behaviour (audit trails, backout, commit) is covered by the TMF
tests; here we exercise the storage server itself: request dispatch,
partitioned files, locking through messages, I/O time accounting, and —
critically — takeover with no loss of data or locks.
"""

import pytest

from repro.core.transid import Transid
from repro.discprocess import (
    DataDictionary,
    DiscProcess,
    DuplicateKeyError,
    FileClient,
    FileSchema,
    FileUnavailableError,
    KEY_SEQUENCED,
    LockTimeoutError,
    NotFoundError,
    NotLockedError,
    PartitionSpec,
    RELATIVE,
    ENTRY_SEQUENCED,
)
from repro.guardian import Cluster

from conftest import StorageRig


def schema_people(audited=False):
    return FileSchema(
        name="people",
        organization=KEY_SEQUENCED,
        primary_key=("pid",),
        alternate_keys=("city",),
        audited=audited,
        partitions=(PartitionSpec("alpha", "$data"),),
    )


T1 = Transid("alpha", 0, 1)
T2 = Transid("alpha", 0, 2)


class TestBasicOps:
    def test_create_insert_read(self, rig):
        schema = rig.dictionary.define(schema_people())

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            key = yield from rig.client.insert(
                proc, "people", {"pid": 1, "city": "sf"}
            )
            record = yield from rig.client.read(proc, "people", key)
            return record

        assert rig.run(body) == {"pid": 1, "city": "sf"}

    def test_read_missing_returns_none(self, rig):
        schema = rig.dictionary.define(schema_people())

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            return (yield from rig.client.read(proc, "people", (9,)))

        assert rig.run(body) is None

    def test_duplicate_insert_raises(self, rig):
        schema = rig.dictionary.define(schema_people())

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            yield from rig.client.insert(proc, "people", {"pid": 1, "city": "sf"})
            try:
                yield from rig.client.insert(proc, "people", {"pid": 1, "city": "ny"})
            except DuplicateKeyError:
                return "dup"

        assert rig.run(body) == "dup"

    def test_update_delete_roundtrip(self, rig):
        schema = rig.dictionary.define(schema_people())

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            yield from rig.client.insert(proc, "people", {"pid": 1, "city": "sf"})
            yield from rig.client.update(proc, "people", {"pid": 1, "city": "la"})
            old = yield from rig.client.delete(proc, "people", (1,))
            gone = yield from rig.client.read(proc, "people", (1,))
            return old, gone

        old, gone = rig.run(body)
        assert old == {"pid": 1, "city": "la"}
        assert gone is None

    def test_update_missing_raises(self, rig):
        schema = rig.dictionary.define(schema_people())

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            try:
                yield from rig.client.update(proc, "people", {"pid": 5, "city": "x"})
            except NotFoundError:
                return "missing"

        assert rig.run(body) == "missing"

    def test_unknown_file_raises(self, rig):
        def body(proc):
            try:
                yield from rig.client.read(proc, "ghost", (1,))
            except FileUnavailableError:
                return "no file"

        assert rig.run(body) == "no file"

    def test_scan_and_index(self, rig):
        schema = rig.dictionary.define(schema_people())

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            for pid in range(10):
                yield from rig.client.insert(
                    proc, "people", {"pid": pid, "city": "sf" if pid % 2 else "ny"}
                )
            rows = yield from rig.client.scan(proc, "people", low=(3,), high=(6,))
            via = yield from rig.client.read_via_index(proc, "people", "city", "ny")
            return rows, via

        rows, via = rig.run(body)
        assert [k for k, _ in rows] == [(3,), (4,), (5,), (6,)]
        assert sorted(r["pid"] for r in via) == [0, 2, 4, 6, 8]

    def test_relative_and_entry_files(self, rig):
        rel = rig.dictionary.define(
            FileSchema(
                name="slots",
                organization=RELATIVE,
                partitions=(PartitionSpec("alpha", "$data"),),
            )
        )
        ent = rig.dictionary.define(
            FileSchema(
                name="journal",
                organization=ENTRY_SEQUENCED,
                partitions=(PartitionSpec("alpha", "$data"),),
            )
        )

        def body(proc):
            yield from rig.client.create_file(proc, rel)
            yield from rig.client.create_file(proc, ent)
            n = yield from rig.client.append_slot(proc, "slots", {"v": 1})
            old = yield from rig.client.write_slot(proc, "slots", n, {"v": 2})
            slot = yield from rig.client.read_slot(proc, "slots", n)
            esn = yield from rig.client.append_entry(proc, "journal", {"e": 1})
            entry = yield from rig.client.read_entry(proc, "journal", esn)
            return n, old, slot, esn, entry

        n, old, slot, esn, entry = rig.run(body)
        assert (n, esn) == (0, 0)
        assert old == {"v": 1}
        assert slot == {"v": 2}
        assert entry == {"e": 1}

    def test_io_takes_simulated_time(self, rig):
        schema = rig.dictionary.define(schema_people())

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            start = rig.cluster.env.now
            yield from rig.client.insert(proc, "people", {"pid": 1, "city": "sf"})
            return rig.cluster.env.now - start

        elapsed = rig.run(body)
        assert elapsed > 0


class TestLockingViaMessages:
    def test_transactional_lock_and_conflict(self, rig):
        schema = rig.dictionary.define(schema_people())
        events = []

        def writer(proc):
            yield from rig.client.create_file(proc, schema)
            yield from rig.client.insert(
                proc, "people", {"pid": 1, "city": "sf"}, transid=T1
            )
            # T1 holds the auto-generated insert lock.
            yield rig.cluster.env.timeout(100)
            from repro.discprocess.ops import ReleaseLocks
            yield from rig.cluster.fs("alpha").send(
                proc, "$data", ReleaseLocks(T1, committed=True)
            )
            events.append(("released", rig.cluster.env.now))

        def reader(proc):
            yield rig.cluster.env.timeout(60)
            record = yield from rig.client.read(
                proc, "people", (1,), transid=T2, lock=True, lock_timeout=500
            )
            events.append(("read", rig.cluster.env.now, record["pid"]))

        rig.node_os.spawn("$w", 2, writer, register=False)
        rig.node_os.spawn("$r", 3, reader, register=False)
        rig.cluster.run()
        assert events[0][0] == "released"
        assert events[1][0] == "read"
        assert events[1][1] >= events[0][1]

    def test_lock_timeout_surfaces_as_error(self, rig):
        schema = rig.dictionary.define(schema_people())
        outcome = []

        def holder(proc):
            yield from rig.client.create_file(proc, schema)
            yield from rig.client.insert(
                proc, "people", {"pid": 1, "city": "sf"}, transid=T1
            )
            yield rig.cluster.env.timeout(10_000)

        def contender(proc):
            yield rig.cluster.env.timeout(100)
            try:
                yield from rig.client.read(
                    proc, "people", (1,), transid=T2, lock=True, lock_timeout=50
                )
            except LockTimeoutError:
                outcome.append("timeout")

        rig.node_os.spawn("$h", 2, holder, register=False)
        rig.node_os.spawn("$c", 3, contender, register=False)
        rig.cluster.run(until=20_000)
        assert outcome == ["timeout"]

    def test_update_without_lock_rejected_when_audited(self):
        # Build an audited rig: volume with an audit process.
        from repro.core.audit import AuditProcess, AuditTrail

        rig = StorageRig()
        node = rig.cluster.node("alpha")
        audit_volume = node.add_volume("$audit", 2, 3)
        trail = AuditTrail(audit_volume)
        AuditProcess(rig.node_os, "$aud", 2, 3, trail)
        rig.add_volume("$data", cpus=(0, 1), audit_process="$aud")
        schema = rig.dictionary.define(schema_people(audited=True))

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            yield from rig.client.insert(
                proc, "people", {"pid": 1, "city": "sf"}, transid=T1
            )
            from repro.discprocess.ops import ReleaseLocks
            yield from rig.cluster.fs("alpha").send(
                proc, "$data", ReleaseLocks(T1, committed=True)
            )
            # T2 updates without ever locking: TMF protocol violation.
            try:
                yield from rig.client.update(
                    proc, "people", {"pid": 1, "city": "ny"}, transid=T2
                )
            except NotLockedError:
                return "rejected"

        assert rig.run(body) == "rejected"


class TestPartitionedFiles:
    def test_cross_volume_partitioning(self):
        rig = StorageRig()
        rig.add_volume("$d1", cpus=(0, 1))
        rig.add_volume("$d2", cpus=(2, 3))
        schema = rig.dictionary.define(
            FileSchema(
                name="accts",
                organization=KEY_SEQUENCED,
                primary_key=("aid",),
                partitions=(
                    PartitionSpec("alpha", "$d1"),
                    PartitionSpec("alpha", "$d2", low_key=(50,)),
                ),
            )
        )

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            for aid in [1, 49, 50, 99]:
                yield from rig.client.insert(proc, "accts", {"aid": aid})
            low = yield from rig.client.read(proc, "accts", (1,))
            high = yield from rig.client.read(proc, "accts", (99,))
            rows = yield from rig.client.scan(proc, "accts")
            return low, high, [k for k, _ in rows]

        low, high, keys = rig.run(body)
        assert low == {"aid": 1}
        assert high == {"aid": 99}
        assert keys == [(1,), (49,), (50,), (99,)]
        # The records physically live on different volumes.
        assert rig.disc_processes["$d1"].files["accts"].record_count == 2
        assert rig.disc_processes["$d2"].files["accts"].record_count == 2


class TestTakeover:
    def test_data_survives_primary_failure(self, rig):
        schema = rig.dictionary.define(schema_people())

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            for pid in range(20):
                yield from rig.client.insert(proc, "people", {"pid": pid, "city": "sf"})
            rig.cluster.node("alpha").fail_cpu(0)  # DISCPROCESS primary
            yield rig.cluster.env.timeout(5)
            rows = yield from rig.client.scan(proc, "people")
            return len(rows)

        assert rig.run(body) == 20
        assert rig.disc_processes["$data"].takeovers == 1

    def test_locks_survive_takeover(self, rig):
        schema = rig.dictionary.define(schema_people())
        outcome = []

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            yield from rig.client.insert(
                proc, "people", {"pid": 1, "city": "sf"}, transid=T1
            )
            rig.cluster.node("alpha").fail_cpu(0)
            yield rig.cluster.env.timeout(5)
            # T1's insert lock must still be held by the new primary.
            try:
                yield from rig.client.read(
                    proc, "people", (1,), transid=T2, lock=True, lock_timeout=40
                )
            except LockTimeoutError:
                outcome.append("still locked")
            return outcome

        assert rig.run(body) == ["still locked"]

    def test_mutation_during_takeover_applies_exactly_once(self, rig):
        schema = rig.dictionary.define(schema_people())

        def client_body(proc):
            yield from rig.client.create_file(proc, schema)
            yield from rig.client.insert(proc, "people", {"pid": 1, "city": "a"})
            yield from rig.client.insert(proc, "people", {"pid": 2, "city": "b"})
            rows = yield from rig.client.scan(proc, "people")
            return rows

        def saboteur(proc):
            yield rig.cluster.env.timeout(30)  # mid-insert
            rig.cluster.node("alpha").fail_cpu(0)

        rig.node_os.spawn("$sab", 3, saboteur, register=False)
        rows = rig.run(client_body)
        assert [k for k, _ in rows] == [(1,), (2,)]

    def test_volume_down_after_double_failure(self, rig):
        schema = rig.dictionary.define(schema_people())
        outcome = []

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            rig.cluster.node("alpha").fail_cpu(0)
            rig.cluster.node("alpha").fail_cpu(1)
            yield rig.cluster.env.timeout(5)
            try:
                yield from rig.client.read(proc, "people", (1,))
            except FileUnavailableError:
                outcome.append("down")
            return outcome

        assert rig.run(body) == ["down"]

    def test_cache_fills_and_hits(self, rig):
        schema = rig.dictionary.define(schema_people())

        def body(proc):
            yield from rig.client.create_file(proc, schema)
            for pid in range(50):
                yield from rig.client.insert(proc, "people", {"pid": pid, "city": "x"})
            for _ in range(3):
                for pid in range(50):
                    yield from rig.client.read(proc, "people", (pid,))
            stats = yield from rig.client.volume_stats(proc, "$data")
            return stats

        stats = rig.run(body)
        assert stats["cache"]["hit_ratio"] > 0.9
        assert stats["files"]["people"] == 50
        # Compression accounting is reported per key-sequenced file.
        # (Tiny integer keys don't compress — the ratio can be < 1; the
        # realistic key sets are measured in bench E7.)
        assert stats["compression"]["people"] > 0.0
