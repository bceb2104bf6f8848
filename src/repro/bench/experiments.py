"""The experiment registry behind ``python -m repro.bench``.

Each experiment reproduces one figure or claim of the paper (E1–E11,
F1–F4; see EXPERIMENTS.md and DESIGN.md §3) at one of two scales:
``smoke`` runs a scaled-down episode suitable for CI, ``full`` the
figure-sized scenario whose table EXPERIMENTS.md quotes.  Every
experiment returns

``{"counters": {...}, "info": {...}, "rows": [...]}``

where ``counters`` holds only deterministic integers (exact-compared
against the baseline by :mod:`repro.bench.compare`), ``info`` holds
advisory wall-clock micro-timings that are reported but never gated
on, and ``rows`` is the experiment's paper
table (printed by ``--full``; ``tests/test_paper_claims.py`` asserts the
paper's claims on it).  An experiment made of several episodes reports
the episode counters summed.

Seeds are pinned per experiment and must never change casually: the
committed baseline encodes the exact history they produce.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.banking import (
    build_banking_system,
    check_consistency,
    debit_credit_input,
    install_banking,
    populate_banking,
)
from repro.apps.manufacturing import MANUFACTURING_NODES, build_manufacturing_system
from repro.apps.order_entry import install_order_entry
from repro.core import (
    LEGAL_TRANSITIONS,
    Rollforward,
    TmpForceDisposition,
    TransactionAborted,
    TxState,
    dump_volume,
)
from repro.discprocess import (
    FileError,
    FileSchema,
    FileUnavailableError,
    KEY_SEQUENCED,
    KeySequencedFile,
    MemoryBlockStore,
    PartitionSpec,
)
from repro.discprocess.compress import compress_keys, encoded_key_size, plain_key_size
from repro.encompass import SystemBuilder, compile_query
from repro.guardian import Cluster, ProcessPair
from repro.hardware import Latencies, Network, Node
from repro.sim import Environment
from repro.simtest import check_durability_at_commits, deadlock_cycle
from repro.workloads import KeyChooser, run_closed_loop

__all__ = [
    "EXPERIMENTS",
    "determinism_digests",
    "run_experiment",
    "run_suite",
]

SMOKE = "smoke"
FULL = "full"

Counters = Dict[str, int]
Row = Dict[str, Any]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _drive(system, terminals, duration, accounts, seed=5, think_time=15.0,
           **posting):
    return run_closed_loop(
        system, "alpha", "$tcp1", terminals, debit_credit_input(accounts, **posting),
        duration=duration, think_time=think_time, rng=random.Random(seed),
    )


def _run(system, node, name, body, cpu=0):
    """Run ``body`` as a process on ``node`` to completion; its result."""
    proc = system.spawn(node, name, body, cpu=cpu)
    return system.cluster.run(proc.sim_process)


def _settle(system, ms=1000.0, node="alpha"):
    _run(system, node, "$settle", lambda p: (yield system.env.timeout(ms)))


def _base_counters(system) -> Counters:
    """Deterministic counters every full-system experiment reports."""
    counts = system.probe.counts
    return {
        "events": int(system.env.events_processed),
        "msg_local": counts.get("msg_local", 0),
        "msg_network": counts.get("msg_network", 0),
        "commits": sum(t.commits for t in system.tmf.values()),
        "aborts": sum(t.aborts for t in system.tmf.values()),
        "audit_forces": sum(
            a.forced_block_writes for a in system.audit_processes.values()
        ),
    }


def _consistent(system, node="alpha") -> int:
    return int(bool(check_consistency(system, node)["consistent"]))


def _outcome(episodes: List[Tuple[Row, Counters]], **extra: int):
    """An experiment's result from its episodes' table rows and counters,
    the latter summed."""
    total: Counter = Counter()
    for _row, counters in episodes:
        total.update(counters)
    return {"counters": dict(total, **extra), "info": {},
            "rows": [row for row, _counters in episodes]}


# ----------------------------------------------------------------------
# E1 — online recovery through a CPU outage
# ----------------------------------------------------------------------
def e1_online_recovery(scale: str) -> Dict[str, Any]:
    """commits across an 800 ms CPU outage window"""
    if scale == SMOKE:
        runs = [(0, 1000.0, 3000.0, 1000.0)]
    else:
        # CPU 0 hosts the DISCPROCESS primary; CPU 2 hosts TCP/TMP/audit
        # primaries: both the storage and the coordination side.
        runs = [(0, 2000.0, 6000.0, 3000.0), (2, 2000.0, 6000.0, 3000.0)]
    episodes = []
    for fail_cpu, fail_at, duration, settle_ms in runs:
        restore_at = fail_at + 800.0
        system, terminals = build_banking_system(seed=41, accounts=32, terminals=8)

        def chaos(proc, fail_cpu=fail_cpu, fail_at=fail_at,
                  restore_at=restore_at, system=system):
            yield system.env.timeout(fail_at)
            system.cluster.node("alpha").fail_cpu(fail_cpu)
            yield system.env.timeout(restore_at - fail_at)
            system.cluster.node("alpha").restore_cpu(fail_cpu)

        system.spawn("alpha", "$chaos", chaos, cpu=(fail_cpu + 1) % 4)
        result = _drive(system, terminals, duration=duration, accounts=32)
        _settle(system, settle_ms)
        ends = [m.end for m in result.metrics if m.ok]
        during = sum(1 for end in ends if fail_at <= end < restore_at)
        counters = _base_counters(system)
        counters.update(
            committed=result.committed,
            failed=result.failed,
            commits_during_outage=during,
            consistent=_consistent(system),
        )
        episodes.append(({
            "failed_cpu": fail_cpu,
            "commits_before": sum(1 for end in ends if end < fail_at),
            "commits_during_outage": during,
            "commits_after": sum(1 for end in ends if end >= restore_at),
            "aborted_units": result.failed,
            "consistent": bool(counters["consistent"]),
        }, counters))
    return _outcome(episodes)


# ----------------------------------------------------------------------
# E2 — checkpoint-instead-of-WAL accounting
# ----------------------------------------------------------------------
def e2_checkpoint_vs_wal(scale: str) -> Dict[str, Any]:
    """checkpoint vs Write-Ahead-Log protection cost by disc speed"""
    duration, settle_ms = (2000.0, 1000.0) if scale == SMOKE else (5000.0, 3000.0)
    system, terminals = build_banking_system(seed=47, accounts=64, terminals=8)
    if scale == FULL:
        durability = check_durability_at_commits(system)
    result = _drive(system, terminals, duration=duration, accounts=64)
    _settle(system, settle_ms)
    dp = system.disc_processes[("alpha", "$data")]
    counters = _base_counters(system)
    counters.update(
        committed=result.committed,
        checkpoints=dp.checkpoints_sent,
        audit_records=dp.state["audit_seq"],
    )
    # TMF protects each update with an interprocessor checkpoint and
    # forces only the group-committed audit blocks plus the commit
    # records; WAL (computed over the same operation stream) would force
    # every audit record before its update.
    latencies = system.cluster.latencies
    commit_records = counters["commits"] + counters["aborts"]
    rows = []
    for label, disc_ms in (
        ("1981 disc (25 ms)", latencies.disc_write),
        ("fast disc (2.5 ms)", latencies.disc_write / 10),
        ("near-IPC disc (0.25 ms)", latencies.disc_write / 100),
    ):
        tmf_ms = (counters["checkpoints"] * latencies.checkpoint
                  + (counters["audit_forces"] + commit_records) * disc_ms / 2)
        wal_ms = (counters["audit_records"] + commit_records) * disc_ms / 2
        rows.append({
            "disc": label,
            "tmf_protection_ms": tmf_ms,
            "wal_protection_ms": wal_ms,
            "wal_over_tmf": wal_ms / tmf_ms,
        })
    if scale == FULL:
        counters["audit_missing"] = durability["missing"]
    return {"counters": counters, "info": {}, "rows": rows}


# ----------------------------------------------------------------------
# E3 — commit cost vs participating nodes
# ----------------------------------------------------------------------
def e3_commit_protocols(scale: str) -> Dict[str, Any]:
    """commit cost vs participating nodes (5-node network)"""
    per_shape = 3 if scale == SMOKE else 10
    nodes = ("n1", "n2", "n3", "n4", "n5")
    system = _ledger_system(53, nodes, {f"ledger.{name}": name for name in nodes})
    tmf = system.tmf["n1"]
    client = system.clients["n1"]
    shape_counters: Counters = {}
    rows = []
    for shape, touch in enumerate(
        (["n1"], ["n1", "n2"], ["n1", "n2", "n3"]), start=1
    ):
        net_before = system.probe.counts.get("msg_network", 0)
        broadcasts_before = _broadcasts(system)
        ended: Dict[str, float] = {}   # transid -> END-TRANSACTION return

        def body(proc, touch=touch, shape=shape, ended=ended):
            end_ms = 0.0
            for i in range(per_shape):
                transid = yield from tmf.begin(proc)
                for node in touch:
                    yield from client.insert(
                        proc, f"ledger.{node}",
                        {"entry": i + 1000 * shape, "value": i},
                        transid=transid,
                    )
                start = system.env.now
                yield from tmf.end(proc, transid)
                end_ms += system.env.now - start
                ended[str(transid)] = system.env.now
            yield system.env.timeout(1500)  # drain safe-delivery phase 2
            return end_ms

        end_ms = _run(system, "n1", f"$run{shape}", body)
        net = system.probe.counts.get("msg_network", 0) - net_before
        shape_counters[f"net_msgs_{shape}node"] = net
        # Phase-two lag: END-TRANSACTION returning to the last child's
        # ``ended`` broadcast (0 with no child).
        lag_ms = 0.0
        for transid, returned in ended.items():
            children = [
                record.time for record in system.probe.select(
                    "state_broadcast", transid=transid, state="ended"
                ) if record.node != "n1"
            ]
            lag_ms += (max(children, default=returned) - returned) / per_shape
        shape_counters[f"phase2_lag_us_{shape}node"] = round(lag_ms * 1000)
        rows.append({
            "participating_nodes": shape,
            "end_latency_ms": end_ms / per_shape,
            "phase2_lag_ms": lag_ms,
            "network_msgs_per_tx": net / per_shape,
            "state_broadcasts_per_tx":
                (_broadcasts(system) - broadcasts_before) / per_shape,
        })
    counters = dict(_base_counters(system), **shape_counters)
    return {"counters": counters, "info": {}, "rows": rows}


def _ledger_system(seed: int, nodes, files: Dict[str, str]):
    """One ``$data`` volume per node and an audited key-sequenced file
    per ``files`` entry (file name -> the node holding it)."""
    builder = SystemBuilder(seed=seed)
    for name in nodes:
        builder.add_node(name, cpus=4)
        builder.add_volume(name, "$data", cpus=(0, 1))
    for file, node in files.items():
        builder.define_file(
            FileSchema(
                name=file,
                organization=KEY_SEQUENCED,
                primary_key=("entry",),
                audited=True,
                partitions=(PartitionSpec(node, "$data"),),
            )
        )
    return builder.build()


def _broadcasts(system) -> int:
    return sum(t.broadcaster.broadcasts for t in system.tmf.values())


# ----------------------------------------------------------------------
# E4 — lock contention under key skew
# ----------------------------------------------------------------------
def e4_locking(scale: str) -> Dict[str, Any]:
    """throughput vs key skew (hot records)"""
    skews, duration, settle_ms = (
        ((1.2,), 1500.0, 1000.0) if scale == SMOKE
        else ((0.0, 1.2, 2.0), 4000.0, 3000.0))
    episodes = []
    for skew in skews:
        system, terminals = build_banking_system(seed=59, accounts=16, terminals=8)
        rng = random.Random(61)
        chooser = KeyChooser(rng, 16, skew=skew)

        def make_input(r, terminal_id, iteration, chooser=chooser):
            return {
                "account_id": chooser.choose(),
                "teller_id": r.randrange(8),
                "branch_id": r.randrange(2),
                "amount": r.choice([5, 10, -5]),
                "allow_overdraft": True,
            }

        result = run_closed_loop(
            system, "alpha", "$tcp1", terminals, make_input,
            duration=duration, think_time=10.0, rng=rng,
        )
        _settle(system, settle_ms)
        dp = system.disc_processes[("alpha", "$data")]
        counters = _base_counters(system)
        counters.update(
            committed=result.committed,
            lock_waits=dp.locks.waits,
            lock_timeouts=dp.locks.timeouts,
            restarts=result.restarts,
            consistent=_consistent(system),
        )
        episodes.append(({
            "zipf_skew": skew,
            "tx_per_s": result.throughput,
            "mean_latency_ms": result.mean_latency,
            "lock_waits": dp.locks.waits,
            "lock_timeouts": dp.locks.timeouts,
            "restarts": result.restarts,
            "consistent": bool(counters["consistent"]),
        }, counters))
    if scale == SMOKE:
        return _outcome(episodes)
    return _outcome(episodes, **_e4_deadlock_ablation())


def _e4_deadlock_ablation() -> Counters:
    """The timeout mechanism vs a waits-for-graph detector sampled
    beside it, on a transfer load that deadlocks."""
    system, terminals, make_input = _transfer_system(
        seed=67, restart_limit=10, lock_timeout=120, hold=15, accounts=6)
    dp = system.disc_processes[("alpha", "$data")]
    samples = Counter()

    def detector(proc):
        while proc.alive:
            yield system.env.timeout(25)
            samples["polls"] += 1
            if deadlock_cycle(dp.locks.waits_for_edges()) is not None:
                samples["cycles"] += 1

    system.spawn("alpha", "$detect", detector, cpu=0)
    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals, make_input,
        duration=4000.0, think_time=5.0, rng=random.Random(71),
    )
    _settle(system, 3000.0)
    return {
        "ablation_cycles_seen": samples["cycles"],
        "ablation_polls": samples["polls"],
        "ablation_lock_timeouts": dp.locks.timeouts,
        "ablation_committed": result.committed,
        "ablation_consistent": _consistent(system),
    }


# ----------------------------------------------------------------------
# E5 — ROLLFORWARD after total node failure
# ----------------------------------------------------------------------
def e5_rollforward(scale: str) -> Dict[str, Any]:
    """rollforward vs post-archive audit volume"""
    if scale == SMOKE:
        return _outcome([_e5_episode(1000.0, 1000.0, check_exact=False)])
    return _outcome(
        [_e5_episode(1500.0, post_archive, check_exact=True)
         for post_archive in (1000.0, 3000.0, 6000.0)],
        **_e5_normal_processing(),
    )


def _e5_episode(pre_archive: float, post_archive: float, check_exact: bool):
    system, terminals = build_banking_system(seed=73, accounts=48, terminals=6)
    dp = system.disc_processes[("alpha", "$data")]
    _drive(system, terminals, duration=pre_archive, accounts=48, seed=1)
    _settle(system)
    archive = dump_volume(dp)
    _drive(system, terminals, duration=post_archive, accounts=48, seed=2)
    _settle(system)
    # The consistency scan is simulated work: only the full scale pays
    # for the pre-failure snapshot the exactness check needs.
    before = check_consistency(system, "alpha") if check_exact else None

    node = system.cluster.node("alpha")
    node.total_failure()
    node.restore_all_cpus()
    tmf = system.tmf["alpha"]
    tmf.reset_after_total_failure()
    rollforward = Rollforward(tmf)
    rollforward.rebuild_dispositions()

    def recover(proc):
        return (yield from rollforward.recover_volume(proc, dp, archive))

    start = system.env.now
    stats = _run(system, "alpha", "$rf", recover)
    recovery_ms = system.env.now - start
    counters = _base_counters(system)
    after = check_consistency(system, "alpha")
    counters.update(
        audit_scanned=stats.audit_records_scanned,
        reapplied=stats.records_reapplied,
        consistent=int(bool(after["consistent"])),
    )
    row = {
        "post_archive_load_ms": post_archive,
        "audit_records": stats.audit_records_scanned,
        "reapplied": stats.records_reapplied,
        "recovery_ms": recovery_ms,
        "exact": after == before if check_exact else None,
    }
    return row, counters


def _e5_normal_processing() -> Counters:
    """Normal processing forces audit, not data blocks: restart pays."""
    system, terminals = build_banking_system(seed=79, accounts=48, terminals=6)
    _drive(system, terminals, duration=4000.0, accounts=48)
    _settle(system, 3000.0)
    dp = system.disc_processes[("alpha", "$data")]
    return {
        "normal_logical_updates": dp.state["audit_seq"],
        "normal_data_block_writes": dp.store.counters.writes,
    }


# ----------------------------------------------------------------------
# E6 — partition and the in-doubt window
# ----------------------------------------------------------------------
def e6_partition(scale: str) -> Dict[str, Any]:
    """in-doubt locks after a phase-1 ack"""
    if scale == SMOKE:
        return _outcome([_e6_episode(override=False, heal_wait=2000.0)])
    return _outcome([_e6_episode(override=False, heal_wait=2500.0),
                     _e6_episode(override=True, heal_wait=2500.0)])


def _e6_episode(override: bool, heal_wait: float):
    system = _ledger_system(83, ("home", "remote"), {"rledger": "remote"})
    tmf_home = system.tmf["home"]
    tmf_remote = system.tmf["remote"]
    dp_remote = system.disc_processes[("remote", "$data")]
    row: Row = {"path": "manual override" if override else "wait for heal"}

    def committer(proc, transid):
        try:
            yield from tmf_home.end(proc, transid)
            row["home_outcome"] = "committed"
        except TransactionAborted:
            row["home_outcome"] = "aborted"

    def body(proc):
        transid = yield from tmf_home.begin(proc)
        yield from system.clients["home"].insert(
            proc, "rledger", {"entry": 1, "value": 9}, transid=transid
        )
        node_os = system.cluster.os("home")
        commit_proc = node_os.spawn(
            "$c", 1, lambda p: committer(p, transid), register=False
        )
        while not tmf_remote.records[transid].phase1_acked:
            yield system.env.timeout(1)
        system.cluster.network.partition(["home"], ["remote"])
        partition_at = system.env.now
        yield commit_proc.sim_process
        yield system.env.timeout(1000)
        row["locks_during"] = dp_remote.locks.held_count()
        row["remote_state_during"] = str(
            tmf_remote.broadcaster.current_state(transid)
        )
        if override:
            # The three-step manual override: the operator reads the
            # disposition at the home node, "telephones" it, and forces
            # it at the cut-off node, still partitioned.
            disposition = tmf_home.dispositions.get(transid, "aborted")

            def operator(p):
                yield from system.cluster.fs("remote").send(
                    p, "$TMP", TmpForceDisposition(transid, disposition)
                )

            op = system.cluster.os("remote").spawn("$op", 0, operator,
                                                   register=False)
            yield op.sim_process
            row["freed_by"] = "manual override (still partitioned)"
        else:
            system.cluster.network.heal()
            yield system.env.timeout(heal_wait)
            row["freed_by"] = "safe delivery after heal"
        row["locks_after"] = dp_remote.locks.held_count()
        row["stranded_ms"] = system.env.now - partition_at
        row["remote_done"] = tmf_remote.records[transid].done
        if override:
            system.cluster.network.heal()

    _run(system, "home", "$episode", body)
    counters = _base_counters(system)
    counters.update(
        home_outcome=int(row["home_outcome"] == "committed"),
        locks_during=row["locks_during"],
        locks_after=row["locks_after"],
    )
    return row, counters


# ----------------------------------------------------------------------
# E7 — the data-base manager's storage features
# ----------------------------------------------------------------------
def e7_storage(scale: str) -> Dict[str, Any]:
    """structured-file storage features"""
    n = 1500 if scale == SMOKE else 5000
    store = MemoryBlockStore()
    tree = KeySequencedFile(store, "t", create=True)
    start = time.perf_counter()
    for i in range(n):
        tree.insert((i,), {"v": i})
    insert_ms = (time.perf_counter() - start) * 1000.0
    rng = random.Random(7)
    probe = [rng.randrange(n) for _ in range(500)]
    total = 0
    for key in probe:
        total += tree.read((key,))["v"]
    scanned = len(tree.scan(low=(n // 5,), high=(n // 2,)))
    counters = {
        "records": tree.record_count,
        "probe_sum": total,
        "scanned": scanned,
        "block_reads": store.counters.reads,
        "block_writes": store.counters.writes,
    }
    # The ascending load's shape: blocks packed full, and the levels a
    # keyed read descends (read after the I/O counters it adds to).
    counters["blocks"] = len(list(store.blocks_of("t")))
    counters["depth"] = tree.depth()
    rows = _measures("key-sequenced B-tree", f"{n} keys", **counters)
    if scale == FULL:
        rows += _e7_cache_sweep() + _e7_index_vs_scan() + _e7_compression()
    return {"counters": counters, "info": {"btree_insert_ms": round(insert_ms, 3)},
            "rows": rows}


def _measures(feature: str, setting: str, **metrics: Any) -> List[Row]:
    return [{"feature": feature, "setting": setting, "metric": metric,
             "value": value} for metric, value in metrics.items()]


def _e7_cache_sweep() -> List[Row]:
    """Bigger cache, better hit ratio, fewer physical reads."""
    rows = []
    for capacity in (8, 32, 256):
        system, terminals = build_banking_system(
            seed=89, accounts=256, terminals=6, cache_capacity=capacity,
        )
        _drive(system, terminals, duration=2500.0, accounts=256)
        dp = system.disc_processes[("alpha", "$data")]
        rows += _measures("cache", f"{capacity} blocks",
                          hit_ratio=dp.cache.stats.hit_ratio,
                          physical_reads=dp.store.counters.reads)
    return rows


def _e7_index_vs_scan() -> List[Row]:
    """'Multi-key access': an alternate-key query vs the full scan the
    same kind of predicate needs without an index (cold 8-block cache,
    400 customers over 80 regions)."""
    builder = SystemBuilder(seed=119, keep_trace=False)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1), cache_capacity=8)
    install_order_entry(builder, "alpha", "$data")
    system = builder.build()
    tmf = system.tmf["alpha"]
    client = system.clients["alpha"]
    dp = system.disc_processes[("alpha", "$data")]

    def loader(proc):
        for first in range(0, 400, 50):
            transid = yield from tmf.begin(proc)
            for cid in range(first, first + 50):
                yield from client.insert(proc, "customer", {
                    "customer_id": cid, "region": f"r{cid % 80}",
                    "name": f"customer {cid}"}, transid=transid)
            yield from tmf.end(proc, transid)

    _run(system, "alpha", "$ld", loader)
    rows = []
    for source in ('FROM customer\nWHERE region = "r7"',
                   'FROM customer\nWHERE name = "customer 7"'):
        query = compile_query(source, system.dictionary)
        _run(system, "alpha", "$fl",
             lambda p: client.flush_volume(p, "$data"), cpu=2)
        dp.cache.clear()  # cold cache; all blocks safely on disc
        before = dp.store.counters.reads

        def body(proc, query=query):
            result = yield from query.execute(proc, client)
            return len(result.rows)

        found = _run(system, "alpha", "$q", body, cpu=2)
        rows += _measures("query", source.split("WHERE ")[1], plan=query.plan,
                          rows=found,
                          physical_reads=dp.store.counters.reads - before)
    return rows


def _e7_compression() -> List[Row]:
    """Prefix compression of index keys on realistic sorted key sets."""
    key_sets = {
        "account ids (acct-%08d)": [(f"acct-{i:08d}",) for i in range(2000)],
        "name-like keys": sorted(
            (f"{chr(65 + i % 23)}{'aeiou'[i % 5]}son-{i % 100:03d}",)
            for i in range(2000)
        ),
        "compound (branch, teller)": [(f"branch-{b:04d}", f"teller-{t:04d}")
                                      for b in range(50) for t in range(40)],
    }
    rows = []
    for label, keys in key_sets.items():
        ratio = plain_key_size(keys) / encoded_key_size(compress_keys(keys))
        rows += _measures("prefix compression", label, ratio=ratio)
    return rows


# ----------------------------------------------------------------------
# E8 — restart limit under transfer contention
# ----------------------------------------------------------------------
def _transfer_system(seed: int, restart_limit: int, lock_timeout: float = 100,
                     hold: float = 20, accounts: int = 5):
    """Six terminals moving one unit between two random accounts, and
    their input maker: a deadlock generator, since each transfer locks
    its pair in random order and holds the first lock for ``hold`` ms."""
    builder = SystemBuilder(seed=seed, keep_trace=False)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    install_banking(builder, "alpha", "$data", server_instances=4)

    def transfer_server(ctx, request):
        a = yield from ctx.read("account", (request["a"],), lock=True,
                                lock_timeout=lock_timeout)
        yield from ctx.pause(request.get("hold", hold))
        b = yield from ctx.read("account", (request["b"],), lock=True,
                                lock_timeout=lock_timeout)
        a["balance"] -= 1
        b["balance"] += 1
        yield from ctx.update("account", a)
        yield from ctx.update("account", b)
        return {"ok": True}

    def transfer_program(ctx, data):
        yield from ctx.send_ok("$xfer", data)
        return True

    builder.add_server_class("alpha", "$xfer", transfer_server, instances=4)
    builder.add_tcp("alpha", "$tcp1", cpus=(2, 3), restart_limit=restart_limit)
    builder.add_program("alpha", "$tcp1", "transfer", transfer_program)
    terminals = [f"T{i}" for i in range(6)]
    for terminal in terminals:
        builder.add_terminal("alpha", "$tcp1", terminal, "transfer")
    system = builder.build()
    populate_banking(system, "alpha", branches=1, tellers_per_branch=1,
                     accounts=accounts)

    def make_input(rng, terminal_id, iteration):
        a, b = rng.sample(range(accounts), 2)
        return {"a": a, "b": b}

    return system, terminals, make_input


def e8_restart(scale: str) -> Dict[str, Any]:
    """attempts per committed unit (hot transfers)"""
    limit, duration, settle_ms, seed = (
        (4, 1500.0, 1000.0, 3) if scale == SMOKE else (10, 4000.0, 3000.0, 101))
    system, terminals, make_input = _transfer_system(97, restart_limit=limit)
    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals, make_input,
        duration=duration, think_time=5.0, rng=random.Random(seed),
    )
    _settle(system, settle_ms)
    attempts = Counter(m.attempts for m in result.metrics if m.ok)
    counters = _base_counters(system)
    counters.update(
        committed=result.committed,
        failed=result.failed,
        restarts=result.restarts,
        max_attempts=max(attempts, default=0),
    )
    if scale == FULL:
        counters["consistent"] = _consistent(system)
    rows = [
        {"attempts": k, "units": v, "share": v / max(result.committed, 1)}
        for k, v in sorted(attempts.items())
    ]
    return {"counters": counters, "info": {}, "rows": rows}


# ----------------------------------------------------------------------
# E9 — single-module failure mid-load
# ----------------------------------------------------------------------
_E9_SWEEP: List[Tuple[Callable[[Any], Any], str]] = [
    (lambda node: node.cpus[0], "cpu0 (DISCPROCESS primary)"),
    (lambda node: node.cpus[1], "cpu1 (DISCPROCESS backup)"),
    (lambda node: node.cpus[2], "cpu2 (TCP/TMP/audit primary)"),
    (lambda node: node.cpus[3], "cpu3 (TCP/TMP/audit backup)"),
    (lambda node: node.buses.x, "interprocessor bus X"),
    (lambda node: node.buses.y, "interprocessor bus Y"),
    (lambda node: node.volumes["$data"].controllers[0], "data controller 0"),
    (lambda node: node.volumes["$data"].controllers[1], "data controller 1"),
    (lambda node: node.volumes["$data"].drives[0], "data drive 0 (mirror)"),
    (lambda node: node.volumes["$data"].drives[1], "data drive 1 (mirror)"),
    (lambda node: node.volumes["$audvol"].drives[0], "audit drive 0 (mirror)"),
    (lambda node: node.volumes["$audvol"].controllers[0], "audit controller 0"),
]


def e9_failure_sweep(scale: str) -> Dict[str, Any]:
    """single-module failure sweep under load"""
    sweep, fail_at, outage, duration, settle_ms = (
        (_E9_SWEEP[:1], 800.0, 700.0, 2500.0, 1000.0) if scale == SMOKE
        else (_E9_SWEEP, 1200.0, 900.0, 4000.0, 3000.0))
    episodes = []
    for picker, label in sweep:
        system, terminals = build_banking_system(seed=109, accounts=32, terminals=6)
        node = system.cluster.node("alpha")
        component = picker(node)

        def chaos(component=component, node=node, system=system):
            yield system.env.timeout(fail_at)
            component.fail(reason="E9 sweep")
            yield system.env.timeout(outage)
            component.restore()
            if getattr(component, "stale", False):
                for volume in node.volumes.values():
                    if component in volume.drives:
                        volume.revive()

        # The injector is external to the node (a raw simulation
        # process), so failing any CPU cannot kill the injector itself.
        system.env.process(chaos(), name="chaos")
        result = _drive(system, terminals, duration=duration, accounts=32)
        _settle(system, settle_ms)
        after = sum(1 for m in result.metrics if m.ok and m.end >= fail_at)
        counters = _base_counters(system)
        counters.update(
            committed=result.committed,
            committed_after_failure=after,
            consistent=_consistent(system),
        )
        episodes.append(({
            "failed_component": label,
            "committed_total": result.committed,
            "committed_after_failure": after,
            "consistent": bool(counters["consistent"]),
        }, counters))
    return _outcome(episodes)


# ----------------------------------------------------------------------
# E10 — process-pair takeover and checkpoint overhead
# ----------------------------------------------------------------------
class _KvPair(ProcessPair):
    """A minimal replicated key-value service."""

    def state_defaults(self):
        return {"kv": {}}

    def serve_request(self, proc, message):
        op = message.payload
        if op.get("op") != "put":
            return {"ok": True, "value": self.state["kv"].get(op["key"])}
        self.state["kv"][op["key"]] = op["value"]
        reply = {"ok": True, "version": len(self.state["kv"])}
        yield from self.checkpoint_multi((
            ("kv", {op["key"]: op["value"]}, ()),
            self.reply_part(message, reply),
        ))
        return reply


def _kv_cluster():
    cluster = Cluster(seed=113)
    cluster.add_node("alpha", cpu_count=4)
    cluster.connect_all()
    pair = _KvPair(cluster.os("alpha"), "$kv", 0, 1)
    return cluster, pair


def _run_client(cluster, client):
    proc = cluster.os("alpha").spawn("$client", 2, client, register=False)
    return cluster.run(proc.sim_process)


def e10_process_pairs(scale: str) -> Dict[str, Any]:
    """process-pair takeover and checkpoint overhead"""
    if scale == FULL:
        return _e10_full()
    puts = 40
    cluster, pair = _kv_cluster()

    def client(proc):
        for i in range(puts):
            if i == puts // 2:
                cluster.node("alpha").fail_cpu(0)
            yield from proc.request(
                "alpha", "$kv", {"op": "put", "key": i % 8, "value": i},
                timeout=500.0,
            )
        reply = yield from proc.request(
            "alpha", "$kv", {"op": "get", "key": 0}, timeout=500.0
        )
        return reply["value"]

    final_value = _run_client(cluster, client)
    counters = {
        "events": int(cluster.env.events_processed),
        "msg_local": cluster.env.probe.counts.get("msg_local", 0),
        "takeovers": pair.takeovers,
        "checkpoints": pair.checkpoints_sent,
        "kv_size": len(pair.state["kv"]),
        "final_value": final_value,
    }
    rows = _metric_rows({"takeovers": pair.takeovers,
                         "ckpt_per_request": pair.checkpoints_sent / puts})
    return {"counters": counters, "info": {}, "rows": rows}


def _e10_full() -> Dict[str, Any]:
    # Takeover latency as a client sees it: 50 plain puts, then one put
    # whose server primary fails the moment the request departs.
    cluster, pair = _kv_cluster()
    fs = cluster.fs("alpha")

    def client(proc):
        start = cluster.env.now
        for i in range(50):
            yield from fs.send(proc, "$kv", {"op": "put", "key": i, "value": i})
        normal_ms = (cluster.env.now - start) / 50
        start = cluster.env.now
        request = fs.send(proc, "$kv", {"op": "put", "key": 999, "value": 1})
        cluster.node("alpha").fail_cpu(0)
        yield from request
        takeover_ms = cluster.env.now - start
        reply = yield from fs.send(proc, "$kv", {"op": "get", "key": 25})
        return normal_ms, takeover_ms, reply["value"]

    normal_ms, takeover_ms, state_after = _run_client(cluster, client)
    counters = {"events": int(cluster.env.events_processed),
                "takeovers": pair.takeovers,
                "state_after_takeover": state_after}
    # Checkpoint overhead on a fresh pair: 100 puts over 10 keys.
    cluster, pair = _kv_cluster()

    def puts(proc):
        for i in range(100):
            yield from cluster.fs("alpha").send(
                proc, "$kv", {"op": "put", "key": i % 10, "value": i}
            )

    _run_client(cluster, puts)
    counters["events"] += int(cluster.env.events_processed)
    counters["checkpoints_per_100_puts"] = pair.checkpoints_sent
    metrics = {
        "put_latency_ms": normal_ms,
        "put_across_takeover_ms": takeover_ms,
        "takeovers": counters["takeovers"],
        "state_after_takeover": state_after,
        "ckpt_per_request": pair.checkpoints_sent / 100,
        "ckpt_ms_per_request":
            pair.checkpoints_sent * cluster.latencies.checkpoint / 100,
    }
    return {"counters": counters, "info": {}, "rows": _metric_rows(metrics)}


def _metric_rows(metrics: Dict[str, Any]) -> List[Row]:
    return [{"metric": key, "value": value} for key, value in metrics.items()]


# ----------------------------------------------------------------------
# E11 — BOXCAR group commit (audit round-trips per commit)
# ----------------------------------------------------------------------
def e11_boxcar(scale: str) -> Dict[str, Any]:
    """audit round-trips per commit under BOXCAR group commit"""
    duration = 1200.0 if scale == SMOKE else 4000.0
    system, terminals = build_banking_system(seed=127, accounts=32, terminals=8)
    result = _drive(system, terminals, duration=duration, accounts=32, seed=6)
    _settle(system)
    dp = system.disc_processes[("alpha", "$data")]
    batches = dp.audit_batches_sent
    records = dp.audit_records_forwarded
    consistent = _consistent(system)
    return _outcome([({
        "policy": "default",
        "committed": result.committed,
        "audit_batches": batches,
        "audit_records": records,
        "round_trips_per_commit": batches / max(result.committed, 1),
        "consistent": bool(consistent),
    }, {
        "committed_default": result.committed,
        "audit_batches_default": batches,
        "audit_records_default": records,
        "rt_saved_default": records - batches,
        "consistent_default": consistent,
        "events": system.env.events_processed,
    })])


# ----------------------------------------------------------------------
# F1 — redundant-path survey of the hardware fabric
# ----------------------------------------------------------------------
def f1_hardware_paths(scale: str) -> Dict[str, Any]:
    """single-module failure survey"""
    env = Environment()
    network = Network(env, Latencies())
    for name in ("alpha", "beta", "gamma"):
        node = Node(env, name, cpu_count=4)
        node.add_volume("$d0", 0, 1)
        node.add_volume("$d1", 2, 3)
        network.add_node(node)
    network.connect_all()
    components: Counter = Counter()
    survivable: Counter = Counter()
    for node in network.nodes.values():
        for component in node.components():
            component.fail(reason="survey")
            volumes_ok = all(
                any(volume.accessible_from(cpu) for cpu in node.cpus)
                for volume in node.volumes.values()
            )
            components[component.kind] += 1
            survivable[component.kind] += volumes_ok and _routable(network)
            component.restore()
            for volume in node.volumes.values():
                if any(drive.stale for drive in volume.drives):
                    volume.revive()
    counters: Counters = {}
    if scale == FULL:
        for line in network.lines:
            line.fail(reason="survey")
            components["line"] += 1
            survivable["line"] += _routable(network)
            line.restore()
        counters["min_paths"] = _min_paths(network)
    counters["components"] = sum(components.values())
    counters["survivable"] = sum(survivable.values())
    rows = [{"kind": kind, "components": count, "survivable": survivable[kind]}
            for kind, count in components.items()]
    return {"counters": counters, "info": {}, "rows": rows}


def _routable(network) -> bool:
    return all(
        network.connected(a, b)
        for a in network.nodes
        for b in network.nodes
        if a < b and network.nodes[a].alive and network.nodes[b].alive
    )


def _min_paths(network) -> int:
    """Fewest redundant paths at any layer: volume to CPU, CPU to CPU
    (buses), node to node (direct lines plus routes via each other node)."""
    counts = [len(network.lines_between([a], [b])) + len(network.nodes) - 2
              for a in network.nodes for b in network.nodes if a < b]
    for node in network.nodes.values():
        counts.append(sum(bus.up for bus in node.buses.buses))
        counts += [
            min(volume.paths_from(cpu) for cpu in node.cpus
                if volume.accessible_from(cpu))
            for volume in node.volumes.values()
        ]
    return min(counts)


# ----------------------------------------------------------------------
# F2 — the debit/credit configuration workload (the FASTPATH yardstick)
# ----------------------------------------------------------------------
def f2_configuration(scale: str) -> Dict[str, Any]:
    """configuration scaling (debit/credit)"""
    shapes = [(4, 2)] if scale == SMOKE else [(2, 1), (4, 2), (8, 4)]
    episodes = []
    for cpus, volumes in shapes:
        system, terminals = build_banking_system(
            seed=17, cpus=cpus, volumes=volumes, accounts=512, terminals=16,
            branches=8, tellers=16, cache_capacity=16,
        )
        result = _drive(system, terminals, duration=5000.0, accounts=512,
                        think_time=5.0, branches=8, tellers=16)
        label = f"{cpus}cpu_{volumes}vol"
        consistent = _consistent(system)
        episodes.append(({
            "cpus": cpus,
            "volumes": volumes,
            "committed": result.committed,
            "tx_per_s": result.throughput,
            "mean_latency_ms": result.mean_latency,
            "consistent": bool(consistent),
        }, {
            f"committed_{label}": result.committed,
            f"consistent_{label}": consistent,
            "events": system.env.events_processed,
        }))
    return _outcome(episodes)


# ----------------------------------------------------------------------
# F3 — the Figure 3 state machine, observed
# ----------------------------------------------------------------------
def f3_state_machine(scale: str) -> Dict[str, Any]:
    """observed state transitions under commits, restarts and a CPU outage"""
    duration, settle_ms = (2000.0, 1000.0) if scale == SMOKE else (3000.0, 3000.0)
    # Hot accounts give deadlock restarts; the CPU outage, automatic aborts.
    system, terminals = build_banking_system(
        seed=23, accounts=6, terminals=6, keep_trace=True
    )

    def chaos(proc):
        yield system.env.timeout(900)
        system.cluster.node("alpha").fail_cpu(1)
        yield system.env.timeout(900)
        system.cluster.node("alpha").restore_cpu(1)

    system.spawn("alpha", "$chaos", chaos, cpu=0)
    result = _drive(system, terminals, duration=duration, accounts=6,
                    think_time=15.0)
    _settle(system, settle_ms)
    counters = _base_counters(system)
    counters.update(
        committed=result.committed,
        state_broadcasts=system.probe.counts.get("state_broadcast", 0),
    )
    last: Dict[str, TxState] = {}
    edges: Counter = Counter()
    fanouts = set()
    for record in system.probe.select("state_broadcast"):
        state = TxState(record.state)
        edges[last.get(record.transid), state] += 1
        last[record.transid] = state
        fanouts.add(record.cpus)
    rows = [
        {"from": str(src), "to": str(dst), "count": count,
         "in_figure3": dst in LEGAL_TRANSITIONS[src]}
        for (src, dst), count in sorted(edges.items(),
                                       key=lambda e: (str(e[0][0]), str(e[0][1])))
    ]
    if scale == FULL:
        counters.update(
            transactions=len(last),
            fanout_min=min(fanouts),
            fanout_max=max(fanouts),
            **_f3_plain_broadcasts(),
        )
    return {"counters": counters, "info": {}, "rows": rows}


def _f3_plain_broadcasts() -> Counters:
    """Broadcasts per transaction in a failure-free load (3: active,
    ending, ended, each to every CPU of the node)."""
    system, terminals = build_banking_system(seed=29, accounts=32, terminals=4,
                                             keep_trace=True)
    _drive(system, terminals, duration=2000.0, accounts=32)
    tmf = system.tmf["alpha"]
    return {"plain_broadcasts": system.probe.counts.get("state_broadcast", 0),
            "plain_transactions": tmf.commits + tmf.aborts}


# ----------------------------------------------------------------------
# F4 — manufacturing network: autonomy under partition
# ----------------------------------------------------------------------
def f4_manufacturing(scale: str) -> Dict[str, Any]:
    """partition episodes (record-master design)"""
    if scale == SMOKE:
        return _outcome([_f4_episode(400.0, updates=4)])
    return _outcome([_f4_episode(800.0, updates=4),
                     _f4_episode(2500.0, updates=8)],
                    **_f4_synchronous_ablation())


def _f4_episode(partition_ms: float, updates: int):
    app = build_manufacturing_system(seed=31, items_per_node=2,
                                     monitor_interval=150.0)
    system = app.system
    network = system.cluster.network
    network.partition(["neufahrn"],
                      [n for n in MANUFACTURING_NODES if n != "neufahrn"])
    start = system.env.now
    succeeded = 0
    for i in range(updates):
        # Neufahrn keeps updating the records it masters (items 6, 7).
        def op(proc, i=i):
            return (yield from app.update_item(
                proc, "neufahrn", 6 + (i % 2), {"qty_on_hand": 100 + i}
            ))

        succeeded += bool(_run(system, "neufahrn", f"$u{i}", op)["ok"])
    _run(system, "cupertino", "$hold", lambda p: (yield system.env.timeout(
        max(partition_ms - (system.env.now - start), 1)
    )))
    depth_during = _suspense_depth(app, "neufahrn")
    network.heal()
    heal_time = system.env.now
    converged = 0
    for _ in range(200):
        _run(system, "cupertino", "$poll",
             lambda p: (yield system.env.timeout(100)))
        if _suspense_depth(app, "neufahrn") == 0:
            converged = 1
            break
    counters = _base_counters(system)
    counters.update(
        updates_during=succeeded,
        suspense_depth=int(depth_during),
        converged=converged,
    )
    row = {
        "partition_ms": partition_ms,
        "updates_during": succeeded,
        "suspense_depth": depth_during,
        "converged": app.convergence_report()["converged"],
        "convergence_ms": system.env.now - heal_time,
    }
    return row, counters


def _suspense_depth(app, node: str) -> int:
    def reader(proc):
        rows = yield from app.system.clients[node].scan(proc, f"suspense.{node}")
        return len(rows)

    return _run(app.system, node, "$d", reader)


def _f4_synchronous_ablation() -> Counters:
    """The paper's rejected design: update all copies in one TMF
    transaction.  Consistent, but 'no node can run a global update
    transaction at a time when any other node is unavailable'."""
    app = build_manufacturing_system(seed=37, items_per_node=1,
                                     monitor_interval=150.0)
    system = app.system
    tmf = system.tmf["neufahrn"]
    client = system.clients["neufahrn"]

    def synchronous_update(proc):
        transid = yield from tmf.begin(proc)
        try:
            for node in MANUFACTURING_NODES:
                copy = f"item_master.{node}"
                record = yield from client.read(proc, copy, (3,),
                                                transid=transid, lock=True)
                record["qty_on_hand"] = 1
                yield from client.update(proc, copy, record, transid=transid)
            yield from tmf.end(proc, transid)
            return 1
        except (TransactionAborted, FileError, FileUnavailableError) as exc:
            yield from tmf.abort(proc, transid, str(exc))
            return 0

    whole = _run(system, "neufahrn", "$sync1", synchronous_update)
    system.cluster.network.partition(
        ["neufahrn"], [n for n in MANUFACTURING_NODES if n != "neufahrn"]
    )
    partitioned = _run(system, "neufahrn", "$sync2", synchronous_update, cpu=1)
    system.cluster.network.heal()
    return {"sync_commits_whole_network": whole,
            "sync_commits_partitioned": partitioned}


# ----------------------------------------------------------------------
# Registry and runner
# ----------------------------------------------------------------------
EXPERIMENTS: Dict[str, Callable[[str], Dict[str, Any]]] = {
    "e1_online_recovery": e1_online_recovery,
    "e2_checkpoint_vs_wal": e2_checkpoint_vs_wal,
    "e3_commit_protocols": e3_commit_protocols,
    "e4_locking": e4_locking,
    "e5_rollforward": e5_rollforward,
    "e6_partition": e6_partition,
    "e7_storage": e7_storage,
    "e8_restart": e8_restart,
    "e9_failure_sweep": e9_failure_sweep,
    "e10_process_pairs": e10_process_pairs,
    "e11_boxcar": e11_boxcar,
    "f1_hardware_paths": f1_hardware_paths,
    "f2_configuration": f2_configuration,
    "f3_state_machine": f3_state_machine,
    "f4_manufacturing": f4_manufacturing,
}


def run_experiment(
    name: str, scale: str = SMOKE, repeats: int = 1
) -> Dict[str, Any]:
    """Run one experiment ``repeats`` times; counters must agree exactly.

    Returns the experiment's section of the report: deterministic
    ``counters``, advisory ``info``, the paper-table ``rows``, and the
    wall-clock median.
    """
    fn = EXPERIMENTS[name]
    walls: List[float] = []
    section: Optional[Dict[str, Any]] = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        outcome = fn(scale)
        walls.append((time.perf_counter() - start) * 1000.0)
        if section is not None and outcome["counters"] != section["counters"]:
            raise AssertionError(
                f"{name}: deterministic counters differ between repeats — "
                f"{outcome['counters']} vs {section['counters']}"
            )
        section = outcome
    assert section is not None
    return {
        "counters": section["counters"],
        "info": section["info"],
        "rows": section["rows"],
        "wall_ms": {"median": round(median(walls), 3), "repeats": len(walls)},
    }


def run_suite(
    scale: str = SMOKE,
    repeats: int = 1,
    only: Optional[List[str]] = None,
    progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run the suite and assemble the schema-versioned report."""
    from .compare import SCHEMA

    names = list(EXPERIMENTS) if not only else [
        n for n in EXPERIMENTS if n in set(only)
    ]
    unknown = set(only or []) - set(EXPERIMENTS)
    if unknown:
        raise KeyError(f"unknown experiments: {sorted(unknown)}")
    experiments: Dict[str, Any] = {}
    for name in names:
        experiments[name] = run_experiment(name, scale=scale, repeats=repeats)
        if progress is not None:
            progress(name, experiments[name])
    return {"schema": SCHEMA, "mode": scale, "experiments": experiments}


# ----------------------------------------------------------------------
# Determinism digests (hash-randomization and fast-path identity proofs)
# ----------------------------------------------------------------------
def determinism_digests() -> Dict[str, str]:
    """SHA-256 digests of a measured+traced pinned-seed banking run.

    The run covers every layer the FASTPATH optimisation touched (event
    scheduling, checkpointing, DISCPROCESS record copies, audit images,
    message dispatch), so a byte-identical XRAY report and TRACE
    timeline across interpreter sessions — and across the optimisation
    itself — is strong evidence the simulated history is unchanged.
    """
    system, terminals = build_banking_system(
        seed=11, accounts=16, tellers=6, terminals=6,
        measure=True, trace=True,
    )
    _drive(system, terminals, duration=1500.0, accounts=16, seed=99,
           think_time=10.0, tellers=6, amounts=(-20, -5, 5, 10, 25))
    return {
        "xray_sha256": hashlib.sha256(
            system.xray_json().encode()
        ).hexdigest(),
        "timeline_sha256": hashlib.sha256(
            system.timeline_json().encode()
        ).hexdigest(),
    }
