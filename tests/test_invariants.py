"""The invariant library (repro.simtest.invariants).

Each check is shown to fire on an injected violation and to stay quiet
on a working run: an empty or zero result means nothing unless the
check examined something.
"""

from repro.bench.experiments import _build_banking, _drive, _settle
from repro.core import AuditTrail
from repro.simtest import (
    agreement,
    check_durability_at_commits,
    figure3_edge,
    no_stranded_locks,
)

from conftest import TmfRig


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
    system, terminals = _build_banking(seed=47, accounts=64, terminals=8)
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
    result = _drive(system, terminals, duration=2000.0, accounts=64)
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
