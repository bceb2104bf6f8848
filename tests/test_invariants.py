"""The invariant library (repro.simtest.invariants).

Each check is shown to fire on an injected violation and to stay quiet
on a working run: an empty or zero result means nothing unless the
check examined something.
"""

import random

from repro.apps.banking import build_banking_system, debit_credit_input
from repro.bench.experiments import _settle
from repro.core import AuditTrail
from repro.sim import Environment
from repro.simtest import (
    TrailIndex,
    agreement,
    check_durability_at_commits,
    figure3_edge,
    no_stranded_locks,
)
from repro.workloads import run_closed_loop

from conftest import TmfRig
from test_audit import make_volume, record


def test_agreement_flags_a_split_fate():
    rig = TmfRig(nodes=("alpha", "beta"))
    transid = rig.tmf["alpha"].generator.next(0)
    rig.tmf["alpha"].dispositions[transid] = "committed"
    rig.tmf["beta"].dispositions[transid] = "committed"
    assert agreement(rig) == {}
    rig.tmf["beta"].dispositions[transid] = "aborted"
    assert agreement(rig) == {
        str(transid): {"alpha": "committed", "beta": "aborted"}
    }


def test_no_stranded_locks_names_the_volume():
    rig = TmfRig()
    dp = rig.add_volume("alpha", "$data")
    assert no_stranded_locks(rig) == {}
    assert dp.locks.try_acquire_record("t1", "f", (1,))
    assert no_stranded_locks(rig) == {("alpha", "$data"): 1}


def test_figure3_edges():
    assert figure3_edge(None, "active")
    assert figure3_edge("ending", "aborting")
    assert not figure3_edge("active", "ended")
    assert not figure3_edge("aborted", "active")


def _e2_episode(monkeypatch=None):
    """E2's episode (seed 47, 64 accounts, 2,000 ms driven, 1,000 ms
    settled), durability checked at every commit."""
    system, terminals = build_banking_system(seed=47, accounts=64)
    if monkeypatch is not None:
        append_many = AuditTrail.append_many
        dropped = []

        def drop_one(trail, records):
            records = list(records)
            if records and not dropped:
                dropped.append(records.pop(0))
            return append_many(trail, records)

        monkeypatch.setattr(AuditTrail, "append_many", drop_one)
    totals = check_durability_at_commits(system)
    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals, debit_credit_input(64),
        duration=2000.0, think_time=15.0, rng=random.Random(5),
    )
    _settle(system, 1000.0)
    return result, totals


def test_e2_sized_run_examines_every_committed_image():
    result, totals = _e2_episode()
    assert result.committed > 100
    assert totals["images"] >= result.committed
    assert totals["missing"] == 0


def test_committed_image_kept_off_the_trail_is_a_violation(monkeypatch):
    _result, totals = _e2_episode(monkeypatch)
    assert totals["missing"] == 1


def test_trail_index_reads_only_the_new_records():
    """durability's view of a trail reads the records appended since it
    last looked, and reads the trail afresh when a purge drops a file."""
    trail = AuditTrail(make_volume(Environment()), records_per_file=4)
    index = TrailIndex()
    for seq in range(6):
        trail.append(record(seq))
    assert index.images_on(trail) == {("$data", seq) for seq in range(6)}
    trail.append(record(6))
    reads = trail.store.counters.reads
    trail.scan_all()
    full_scan = trail.store.counters.reads - reads
    reads = trail.store.counters.reads
    assert index.images_on(trail) == {("$data", seq) for seq in range(7)}
    assert trail.store.counters.reads - reads < full_scan / 2
    assert trail.purge({"$data": 4}) == 1
    assert index.images_on(trail) == {("$data", seq) for seq in range(4, 7)}
