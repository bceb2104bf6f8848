"""Each drive of a mirrored volume has its own arm.

A cache miss reads from whichever serviceable drive is free first, so a
mirrored pair serves two misses at once; a write occupies every
serviceable drive.  A failed drive takes no I/O until it is revived.
The schedule lives with the volume, so a DISCPROCESS takeover keeps it,
and each request books exactly the physical accesses it made.  A request
waits for its reads (and a flush for its writes), not for the write-back
of a dirty block it evicted, which runs on the arms behind it.
"""

from types import SimpleNamespace

import pytest

from repro.discprocess import FileSchema, PartitionSpec, RELATIVE
from repro.hardware import Latencies, Node
from repro.measure.sampler import SAMPLE_INTERVAL, Sampler
from repro.sim import Environment

from conftest import StorageRig

READ = Latencies().disc_read
WRITE = Latencies().disc_write
SLOTS_PER_BLOCK = 16


# ----------------------------------------------------------------------
# The schedule itself (hardware layer)
# ----------------------------------------------------------------------
def make_volume():
    node = Node(Environment(), "alpha", cpu_count=2)
    return node.add_volume("$data", cpu_a=0, cpu_b=1)


def test_reads_take_the_arm_free_first():
    volume = make_volume()
    assert [volume.book(0.0, 1, READ) for _ in range(3)] == [READ, READ, 2 * READ]
    first, second = volume.drives
    assert (first.free_at, second.free_at) == (2 * READ, READ)


def test_a_write_holds_both_arms():
    volume = make_volume()
    assert volume.book(0.0, writes=1, write_ms=WRITE) == WRITE
    assert {drive.free_at for drive in volume.drives} == {WRITE}
    assert volume.book(0.0, 1, READ) == WRITE + READ


def test_an_operation_runs_its_accesses_in_order():
    # Behind another operation's read, the second read waits for the
    # first to end, and the write starts on both arms when it has.
    volume = make_volume()
    volume.book(0.0, 1, READ)
    assert volume.book(0.0, 2, READ, 1, WRITE) == 2 * READ + WRITE
    assert {drive.free_at for drive in volume.drives} == {2 * READ + WRITE}


def test_a_failed_drive_takes_no_io_until_revived():
    volume = make_volume()
    spare = volume.drives[1]
    spare.fail()
    assert volume.book(0.0, 2, READ) == 2 * READ
    assert volume.book(0.0, writes=1, write_ms=WRITE) == 2 * READ + WRITE
    assert spare.free_at == 0.0
    spare.restore()
    assert volume.book(100.0, 1, READ) == 100.0 + READ  # still stale
    assert volume.book(100.0, 1, READ) == 100.0 + 2 * READ
    volume.revive()
    assert volume.book(200.0, 1, READ) == 200.0 + READ
    assert volume.book(200.0, 1, READ) == 200.0 + READ


def test_busy_time_counts_arm_time_over_arms():
    volume = make_volume()
    volume.book(0.0, 2, READ)
    assert volume.busy_ms == READ
    volume.book(0.0, writes=1, write_ms=WRITE)
    assert volume.busy_ms == READ + WRITE
    volume.drives[0].fail()
    volume.book(0.0, 1, READ)
    assert volume.busy_ms == 2 * READ + WRITE


# ----------------------------------------------------------------------
# Through the DISCPROCESS: cache misses on a relative file, one
# physical read per record (each record in its own block)
# ----------------------------------------------------------------------
def make_rig(blocks=4, cache_capacity=256):
    """A volume holding one record in each of the first ``blocks`` data
    blocks of ``slots``, on disc and in neither primary's nor backup's
    cache."""
    rig = StorageRig()
    dp = rig.add_volume(cache_capacity=cache_capacity)
    schema = rig.dictionary.define(FileSchema(
        name="slots", organization=RELATIVE,
        partitions=(PartitionSpec("alpha", "$data"),),
    ))

    def load(proc):
        yield from rig.client.create_file(proc, schema)
        for block in range(blocks + 1):
            yield from rig.client.write_slot(
                proc, "slots", block * SLOTS_PER_BLOCK, {"b": block}
            )
            if block == blocks - 1:
                # The next write's checkpoint tells the backup these
                # blocks are on disc.
                yield from rig.client.flush_volume(proc, "$data")
        yield rig.cluster.env.timeout(1_000.0)  # the arms fall idle

    rig.run(load)
    for block in range(blocks):
        dp.cache.discard(("slots", block + 1))
    return rig, dp


def reader(rig, block, took):
    """A client body that reads the record in ``block`` and notes in
    ``took`` how long the read took."""
    env = rig.cluster.env

    def body(proc):
        start = env.now
        yield from rig.client.read_slot(proc, "slots", block * SLOTS_PER_BLOCK)
        took[block] = env.now - start

    return body


def read_together(rig, blocks):
    """Read one record of each of ``blocks`` at the same instant; return
    how long each read took."""
    took = {}
    procs = [
        rig.node_os.spawn(f"$r{block}", 2, reader(rig, block, took), register=False)
        for block in blocks
    ]
    for proc in procs:
        rig.cluster.run(proc.sim_process)
    return [took[block] for block in blocks]


def lone_read():
    rig, _dp = make_rig()
    (took,) = read_together(rig, [0])
    return took


def test_two_misses_finish_in_one_read_and_three_in_two():
    lone = lone_read()
    rig, _dp = make_rig()
    assert read_together(rig, [0, 1]) == [lone, lone]
    rig, _dp = make_rig()
    assert read_together(rig, [0, 1, 2]) == [lone, lone, lone + READ]


def test_one_drive_left_serves_the_misses_one_after_another():
    lone = lone_read()
    rig, dp = make_rig()
    dp.volume.drives[1].fail()
    assert read_together(rig, [0, 1]) == [lone, lone + READ]
    dp.volume.drives[1].restore()
    dp.volume.revive()
    assert read_together(rig, [2, 3]) == [lone, lone]


def test_the_arms_survive_a_takeover():
    # Two misses occupy both arms; the primary fails while they read.
    # A miss served by the new primary still waits for a free arm.
    rig, dp = make_rig()
    env = rig.cluster.env
    took = {}
    for block in (0, 1):
        rig.node_os.spawn(f"$r{block}", 2, reader(rig, block, took), register=False)
    armed = {}

    def fail_then_read(proc):
        for _ in range(100):
            armed["free_at"] = min(drive.free_at for drive in dp.volume.drives)
            if armed["free_at"] > env.now:
                break
            yield env.timeout(0.1)
        armed["failed_at"] = env.now
        rig.cluster.node("alpha").fail_cpu(dp.primary_cpu)
        yield from reader(rig, 2, took)(proc)
        armed["ended"] = env.now

    rig.run(fail_then_read, cpu=3)
    assert armed["free_at"] > armed["failed_at"], "both arms were busy"
    assert dp.takeovers == 1
    assert armed["ended"] >= armed["free_at"] + READ


def test_each_request_books_the_accesses_it_made():
    # Two writers interleave: each makes its physical accesses, then
    # yields on its checkpoint while the other makes its own.  Each
    # access is booked once, by the request that made it.
    rig, dp = make_rig(blocks=8, cache_capacity=2)
    booked = {"reads": 0, "writes": 0}
    volume = dp.volume
    book = volume.book

    def counted_book(ready, reads=0, read_ms=0.0, writes=0, write_ms=0.0):
        booked["reads"] += reads
        booked["writes"] += writes
        return book(ready, reads, read_ms, writes, write_ms)

    volume.book = counted_book
    counters = dp.store.counters
    before = (counters.reads, counters.writes)
    env = rig.cluster.env

    def writer(first):
        def body(proc):
            for block in range(first, 8, 2):
                yield from rig.client.write_slot(
                    proc, "slots", block * SLOTS_PER_BLOCK, {"b": -block}
                )
        return body

    procs = [
        rig.node_os.spawn(f"$w{first}", 2, writer(first), register=False)
        for first in (0, 1)
    ]
    for proc in procs:
        rig.cluster.run(proc.sim_process)
    rig.cluster.run(until=env.now + 1_000.0)
    made = (counters.reads - before[0], counters.writes - before[1])
    assert made[0] >= 8 and made[1] > 0
    assert (booked["reads"], booked["writes"]) == made


# ----------------------------------------------------------------------
# Write-behind: a miss that evicts a dirty block replies once its read
# ends; the write-back still holds both arms after it
# ----------------------------------------------------------------------
def make_dirty_rig():
    """A volume with a 2-block cache whose next miss evicts a dirty
    block, with the arms idle."""
    rig, dp = make_rig(cache_capacity=2)

    def dirty(proc):
        yield from rig.client.write_slot(proc, "slots", 0, {"b": "new"})
        yield from reader(rig, 1, {})(proc)
        yield rig.cluster.env.timeout(1_000.0)  # the arms fall idle

    rig.run(dirty)
    return rig, dp


def test_a_miss_that_evicts_a_dirty_block_replies_after_its_read():
    lone = lone_read()
    rig, dp = make_dirty_rig()
    writebacks = dp.cache.stats.dirty_writebacks
    assert read_together(rig, [2]) == [lone]
    assert dp.cache.stats.dirty_writebacks == writebacks + 1


def test_the_next_read_waits_for_the_write_back_on_both_arms():
    # Alone, the second miss would take the other arm at once.
    lone = lone_read()
    rig, _dp = make_dirty_rig()
    assert read_together(rig, [2, 3]) == [lone, lone + WRITE + READ]


def test_a_flush_replies_after_its_writes():
    rig, _dp = make_dirty_rig()
    env = rig.cluster.env
    took = []

    def flush(proc):
        start = env.now
        written = yield from rig.client.flush_volume(proc, "$data")
        took.append((written, env.now - start))

    rig.run(flush)
    rig.run(flush)
    (written, dirty), (none, clean) = took
    assert written > 0 and none == 0
    assert dirty == clean + written * WRITE


def test_write_behind_books_the_same_arm_time():
    # Two misses, one of which evicts a dirty block: each access is
    # booked once, the read over the two arms and the write on both.
    rig, dp = make_dirty_rig()
    counters = dp.store.counters
    before = (counters.reads, counters.writes, dp.volume.busy_ms)
    read_together(rig, [2, 3])
    made = (counters.reads - before[0], counters.writes - before[1])
    assert made == (2, 1)
    assert dp.volume.busy_ms - before[2] == 2 * READ / 2 + WRITE


# ----------------------------------------------------------------------
# XRAY utilization
# ----------------------------------------------------------------------
def test_utilization_reads_arm_time_over_arms():
    blocks = 32
    rig, dp = make_rig(blocks=blocks, cache_capacity=1)
    env = rig.cluster.env
    system = SimpleNamespace(
        env=env, cluster=rig.cluster, metrics=SimpleNamespace(samples=[]),
        disc_processes={("alpha", "$data"): dp}, audit_processes={},
    )
    sampler = Sampler(system)
    busy_before, start = dp.volume.busy_ms, env.now
    sampler.install()
    window = 20 * SAMPLE_INTERVAL

    def scanner(first):
        def body(proc):
            block = first
            while env.now < start + window:
                yield from rig.client.read_slot(proc, "slots", block * SLOTS_PER_BLOCK)
                block = (block + 6) % blocks
        return body

    procs = [
        rig.node_os.spawn(f"$r{first}", 2, scanner(first), register=False)
        for first in range(6)
    ]
    for proc in procs:
        rig.cluster.run(proc.sim_process)
    utilization = [row["utilization"]["alpha.$data"] for row in system.metrics.samples]
    assert all(0.0 <= value <= 1.0 for value in utilization)
    assert sum(utilization) / len(utilization) > 0.9
    elapsed = env.now - start
    assert (dp.volume.busy_ms - busy_before) / elapsed == pytest.approx(1.0, abs=0.1)
