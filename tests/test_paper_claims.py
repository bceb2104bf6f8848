"""The paper's claims, checked on the figure-sized experiment tables.

Every experiment in :data:`repro.bench.EXPERIMENTS` runs once at
``full`` scale per session (the same scenarios whose tables
EXPERIMENTS.md quotes, regenerated by ``python -m repro.bench --full``);
each claim below asserts on that experiment's ``rows`` (its paper
table) and ``counters``.  The runs take about 12 s, so ``conftest.py``
starts them in a worker process as soon as collection finishes.
"""

import pytest

from repro.bench import EXPERIMENTS


def _column(rows, key):
    return [row[key] for row in rows]


def e1_online_recovery(rows, counters):
    # No system halt: both the DISCPROCESS-primary CPU and the
    # TCP/TMP/audit-primary CPU fail mid-load, and commits continue.
    assert _column(rows, "failed_cpu") == [0, 2]
    for row in rows:
        assert row["consistent"]
        assert row["commits_before"] > 0
        assert row["commits_during_outage"] > 0
        assert row["commits_after"] > 0


def e2_checkpoint_vs_wal(rows, counters):
    assert counters["committed"] > 50
    # Group commit forces far fewer blocks than one-force-per-update
    # WAL, because checkpointing protects the updates.
    assert counters["audit_forces"] < counters["audit_records"]
    disc_1981, _fast, near_ipc = rows
    assert disc_1981["tmf_protection_ms"] < disc_1981["wal_protection_ms"]
    assert disc_1981["wal_over_tmf"] > 2.0
    # With discs ~100x faster, forcing per update stops being the issue.
    assert near_ipc["wal_over_tmf"] < disc_1981["wal_over_tmf"]
    # Nothing commits before its audit is durable.
    assert counters["audit_missing"] == 0


def e3_commit_protocols(rows, counters):
    one, two, three = rows
    # Single node: the abbreviated protocol sends no network message.
    assert one["network_msgs_per_tx"] == 0
    # Distributed: cost rises with participants ...
    assert two["end_latency_ms"] > one["end_latency_ms"]
    assert three["network_msgs_per_tx"] > two["network_msgs_per_tx"]
    # ... and broadcasts stay at 3 per participating node per
    # transaction, not proportional to the 5-node network.
    assert one["state_broadcasts_per_tx"] == 3
    assert 5.5 <= two["state_broadcasts_per_tx"] <= 6.5
    assert 8.5 <= three["state_broadcasts_per_tx"] <= 9.5


def e4_locking(rows, counters):
    uniform, _mild, hot = rows
    assert all(_column(rows, "consistent"))
    assert uniform["tx_per_s"] > 0
    # A hot-record skew serializes transactions on the hot lock.
    assert hot["tx_per_s"] < uniform["tx_per_s"] * 0.92
    assert hot["mean_latency_ms"] > uniform["mean_latency_ms"]
    # Ablation: transfers that deadlock for real, every cycle the
    # waits-for graph sees is resolved by lock timeout.
    assert counters["ablation_cycles_seen"] > 0
    assert counters["ablation_lock_timeouts"] > 0
    assert counters["ablation_committed"] > 0
    assert counters["ablation_consistent"] == 1


def e5_rollforward(rows, counters):
    assert all(_column(rows, "exact")), "recovered state must equal pre-failure state"
    assert rows[2]["audit_records"] > rows[0]["audit_records"]
    assert rows[2]["recovery_ms"] > rows[0]["recovery_ms"]
    # Normal processing is not charged for restart: write-back caching
    # defers most data writes, audit carries durability.
    assert (counters["normal_data_block_writes"]
            < counters["normal_logical_updates"] / 2)


def e6_partition(rows, counters):
    assert _column(rows, "path") == ["wait for heal", "manual override"]
    for row in rows:
        assert row["home_outcome"] == "committed"
        assert row["locks_during"] > 0, "locks must be stranded while cut off"
        assert row["remote_state_during"] == "ending"
        assert row["locks_after"] == 0
        assert row["remote_done"] == "committed"


def e7_storage(rows, counters):
    table = {(r["feature"], r["setting"], r["metric"]): r["value"] for r in rows}
    btree = "key-sequenced B-tree", "5000 keys"
    assert table[btree + ("records",)] == 5000
    assert table[btree + ("scanned",)] == 5000 // 2 - 5000 // 5 + 1
    # A bigger cache: better hit ratio, fewer physical reads.
    assert (table["cache", "8 blocks", "hit_ratio"]
            < table["cache", "256 blocks", "hit_ratio"])
    assert (table["cache", "8 blocks", "physical_reads"]
            > table["cache", "256 blocks", "physical_reads"])
    # Multi-key access pays: the alternate-key query reads fewer blocks
    # than the full scan a predicate without an index needs.
    indexed, unindexed = 'region = "r7"', 'name = "customer 7"'
    assert table["query", indexed, "plan"] == "index-lookup"
    assert table["query", unindexed, "plan"] == "full-scan"
    assert (table["query", indexed, "physical_reads"]
            < table["query", unindexed, "physical_reads"])
    ratios = [r["value"] for r in rows if r["feature"] == "prefix compression"]
    assert len(ratios) == 3 and all(ratio > 1.5 for ratio in ratios)


def e8_restart(rows, counters):
    assert counters["consistent"] == 1
    assert counters["committed"] > 0
    assert max(_column(rows, "attempts")) > 1, "contention must cause restarts"


def e9_failure_sweep(rows, counters):
    assert len(rows) == 12
    for row in rows:
        assert row["consistent"], row
        assert row["committed_after_failure"] > 0, row["failed_component"]


def e10_process_pairs(rows, counters):
    metrics = {row["metric"]: row["value"] for row in rows}
    assert metrics["takeovers"] == 1
    assert metrics["state_after_takeover"] == 25, "checkpointed state survives"
    # A request in flight across a takeover completes transparently and
    # at most milliseconds late (in this model it is delivered to the
    # new primary directly, so it costs the same as a normal put).
    assert metrics["put_across_takeover_ms"] < 50
    assert metrics["put_across_takeover_ms"] >= metrics["put_latency_ms"] - 1e-9
    assert metrics["ckpt_per_request"] == 1.0
    # The protection cost is well under a disc I/O per request.
    assert metrics["ckpt_ms_per_request"] < 1.0


def e11_boxcar(rows, counters):
    sync, default, wide = rows
    assert all(_column(rows, "consistent"))
    # Group commit: boxcars cut audit round-trips to about one per
    # commit, from several under synchronous forwarding.
    assert default["round_trips_per_commit"] <= 1.0 < sync["round_trips_per_commit"]
    assert wide["audit_batches"] <= default["audit_batches"] < sync["audit_batches"]


def f1_hardware_paths(rows, counters):
    assert {row["kind"] for row in rows} == {
        "cpu", "channel", "bus", "controller", "drive", "line"}
    for row in rows:
        assert row["survivable"] == row["components"], row["kind"]
    assert counters["min_paths"] >= 2


def f2_configuration(rows, counters):
    assert _column(rows, "cpus") == [2, 4, 8]
    assert all(_column(rows, "consistent"))
    assert rows[0]["committed"] > 0
    # Adding CPUs and volumes must not reduce capacity.
    assert rows[-1]["tx_per_s"] >= rows[0]["tx_per_s"]


def f3_state_machine(rows, counters):
    edges = {(row["from"], row["to"]): row["count"] for row in rows}
    assert all(_column(rows, "in_figure3"))
    # The workload exercises both terminal paths of Figure 3.
    assert edges[("ending", "ended")] > 0, "commit path unused"
    assert edges[("aborting", "aborted")] > 0, "abort path unused"
    assert edges[("active", "aborting")] > 0
    # Every live CPU of the node sees each change: 4, or 3 during the
    # outage.
    assert {counters["fanout_min"], counters["fanout_max"]} <= {3, 4}
    # 3 broadcasts (active, ending, ended) per transaction.
    per_tx = counters["plain_broadcasts"] / counters["plain_transactions"]
    assert 2.5 <= per_tx <= 3.5


def f4_manufacturing(rows, counters):
    for row in rows:
        assert row["updates_during"] > 0, "node autonomy violated"
        assert row["converged"], "copies must converge after heal"
    assert rows[1]["suspense_depth"] >= rows[0]["suspense_depth"]
    # Ablation: the synchronous all-copy design commits while the
    # network is whole and fails during the partition.
    assert counters["sync_commits_whole_network"] == 1
    assert counters["sync_commits_partitioned"] == 0


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_paper_claims(request, name):
    section = request.session.paper_runs[name].result()
    assert section["rows"], f"{name} has no paper table"
    assert all(isinstance(v, int) for v in section["counters"].values())
    claims = globals()[name]  # every experiment has its claims above
    claims(section["rows"], section["counters"])
