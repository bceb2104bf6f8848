"""Files partitioned by key range across volumes on multiple nodes.

"Partitioning of files — by key value range — across multiple disc
volumes (possibly on multiple nodes)" (§Data Base Management), combined
with distributed transactions: one logical file, three nodes, updates
spanning partitions committed atomically.
"""

import pytest

from repro.discprocess import (
    FileSchema,
    KEY_SEQUENCED,
    PartitionSpec,
)
from repro.encompass import SystemBuilder

from conftest import end_outcome


@pytest.fixture
def system():
    builder = SystemBuilder(seed=81)
    for name in ("east", "central", "west"):
        builder.add_node(name, cpus=4)
        builder.add_volume(name, "$data", cpus=(0, 1))
    builder.define_file(
        FileSchema(
            name="customers",
            organization=KEY_SEQUENCED,
            primary_key=("cid",),
            alternate_keys=("tier",),
            audited=True,
            partitions=(
                PartitionSpec("east", "$data"),                  # cid < 100
                PartitionSpec("central", "$data", low_key=(100,)),
                PartitionSpec("west", "$data", low_key=(200,)),
            ),
        )
    )
    return builder.build()


def load(system, proc, cids):
    tmf = system.tmf["east"]
    client = system.clients["east"]
    transid = yield from tmf.begin(proc)
    for cid in cids:
        yield from client.insert(
            proc, "customers",
            {"cid": cid, "tier": "gold" if cid % 2 else "basic"},
            transid=transid,
        )
    yield from tmf.end(proc, transid)


class TestCrossNodePartitioning:
    def test_records_land_on_their_partitions(self, system):
        def body(proc):
            yield from load(system, proc, [5, 150, 250])
            return True

        proc = system.spawn("east", "$l", body, cpu=0)
        assert system.cluster.run(proc.sim_process)
        assert system.disc_processes[("east", "$data")].files["customers"].record_count == 1
        assert system.disc_processes[("central", "$data")].files["customers"].record_count == 1
        assert system.disc_processes[("west", "$data")].files["customers"].record_count == 1

    def test_transparent_reads_from_any_node(self, system):
        def body(proc):
            yield from load(system, proc, [5, 150, 250])
            out = []
            for node in ("east", "central", "west"):
                client = system.clients[node]
                record = yield from client.read(proc, "customers", (150,))
                out.append(record["cid"])
            return out

        # All reads from an east process, via each node's client.
        proc = system.spawn("east", "$r", body, cpu=1)
        assert system.cluster.run(proc.sim_process) == [150, 150, 150]

    def test_scan_merges_partitions_in_key_order(self, system):
        def body(proc):
            yield from load(system, proc, [5, 250, 150, 99, 100, 201])
            rows = yield from system.clients["east"].scan(proc, "customers")
            return [key[0] for key, _record in rows]

        proc = system.spawn("east", "$s", body, cpu=0)
        assert system.cluster.run(proc.sim_process) == [5, 99, 100, 150, 201, 250]

    def test_scan_limit_stops_early(self, system):
        def body(proc):
            yield from load(system, proc, list(range(0, 300, 30)))
            rows = yield from system.clients["east"].scan(proc, "customers", limit=3)
            return [key[0] for key, _record in rows]

        proc = system.spawn("east", "$s2", body, cpu=0)
        assert system.cluster.run(proc.sim_process) == [0, 30, 60]

    def test_index_lookup_queries_every_partition(self, system):
        def body(proc):
            yield from load(system, proc, [1, 101, 201, 2, 102, 202])
            gold = yield from system.clients["west"].read_via_index(
                proc, "customers", "tier", "gold"
            )
            return sorted(record["cid"] for record in gold)

        proc = system.spawn("west", "$i", body, cpu=0)
        assert system.cluster.run(proc.sim_process) == [1, 101, 201]

    def test_cross_partition_transaction_is_atomic(self, system):
        """Updates on east and west partitions in one transaction either
        both commit or (on a mid-transaction partition) both back out."""
        tmf = system.tmf["east"]
        client = system.clients["east"]

        def body(proc):
            yield from load(system, proc, [10, 210])
            # Doomed attempt: network cut before END.
            transid = yield from tmf.begin(proc)
            east_rec = yield from client.read(proc, "customers", (10,),
                                              transid=transid, lock=True)
            west_rec = yield from client.read(proc, "customers", (210,),
                                              transid=transid, lock=True)
            east_rec["tier"] = "platinum"
            west_rec["tier"] = "platinum"
            yield from client.update(proc, "customers", east_rec, transid=transid)
            yield from client.update(proc, "customers", west_rec, transid=transid)
            system.cluster.network.partition(["east", "central"], ["west"])
            outcome = yield from end_outcome(tmf, proc, transid)
            system.cluster.network.heal()
            yield system.env.timeout(3000)  # safe-delivery abort drains
            east_after = yield from client.read(proc, "customers", (10,))
            west_after = yield from client.read(proc, "customers", (210,))
            return outcome, east_after["tier"], west_after["tier"]

        proc = system.spawn("east", "$tx", body, cpu=0)
        outcome, east_tier, west_tier = system.cluster.run(proc.sim_process)
        assert outcome == "aborted"
        assert east_tier == "basic" and west_tier == "basic"

    def test_cross_partition_commit_when_healthy(self, system):
        tmf = system.tmf["central"]
        client = system.clients["central"]

        def body(proc):
            yield from load(system, proc, [20, 220])
            transid = yield from tmf.begin(proc)
            for cid in (20, 220):
                record = yield from client.read(
                    proc, "customers", (cid,), transid=transid, lock=True
                )
                record["tier"] = "platinum"
                yield from client.update(proc, "customers", record, transid=transid)
            yield from tmf.end(proc, transid)
            a = yield from client.read(proc, "customers", (20,))
            b = yield from client.read(proc, "customers", (220,))
            return a["tier"], b["tier"]

        proc = system.spawn("central", "$tx2", body, cpu=0)
        assert system.cluster.run(proc.sim_process) == ("platinum", "platinum")
