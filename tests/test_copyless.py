"""Checkpoints share immutable images instead of copying them.

Stored blocks and audit images are immutable values: the structured
files put a fresh copy of every block they change (headers included),
and an audit record's images are private copies that whoever applies
them copies again.  Checkpoints therefore hand the backup the very
objects the primary holds.  These tests pin down what that relies on:

* nothing edits a shared image in place, through a banking load with a
  DISCPROCESS takeover;
* the AUDITPROCESS checkpoints only the images an append adds, however
  large the transaction, and still answers GetAudit and backout in full;
* a backup that shares a B-tree's blocks takes over a sound tree right
  after the root split.
"""

import random

from repro.apps.banking import (
    check_consistency,
    debit_credit_input,
    debit_credit_program,
    install_banking,
    populate_banking,
)
from repro.core import AuditProcess, AuditRecord, GetAudit
from repro.core.audit import AuditChain
from repro.discprocess import FileSchema, ForceBoxcar, KEY_SEQUENCED, PartitionSpec
from repro.encompass import SystemBuilder
from repro.guardian import ProcessPair
from repro.sim import fast_deepcopy
from repro.workloads import run_closed_loop

from conftest import TmfRig


def _snapshot(value):
    if value.__class__ is AuditRecord:
        return fast_deepcopy(dict(vars(value)))
    if value.__class__ is AuditChain:
        return (value.prev, value.record)
    return fast_deepcopy(value)


def _unchanged(value, snapshot):
    if value.__class__ is AuditRecord:
        return dict(vars(value)) == snapshot
    if value.__class__ is AuditChain:
        return value.prev is snapshot[0] and value.record is snapshot[1]
    return value == snapshot


def _spy_on_checkpoints(monkeypatch, before=None, after=None):
    """Call ``before``/``after(pair, parts)`` around every checkpoint body."""
    original = ProcessPair._replicate

    def spying(self, parts, *args):
        if before is not None:
            before(self, parts)
        result = yield from original(self, parts, *args)
        if after is not None:
            after(self, parts)
        return result

    monkeypatch.setattr(ProcessPair, "_replicate", spying)


# ----------------------------------------------------------------------
# Immutability guard
# ----------------------------------------------------------------------
def test_shared_images_are_never_edited_in_place(monkeypatch):
    shared = []  # (image, snapshot) for every value the backup shares

    def record_shared(pair, parts):
        if pair.backup_cpu is None:
            return
        for table, updates, _removals in parts:
            backup_table = pair.backup_state.get(table, {})
            for key, value in (updates or {}).items():
                if isinstance(value, (list, dict, AuditRecord, AuditChain)) and (
                    backup_table.get(key) is value
                ):
                    shared.append((value, _snapshot(value)))

    _spy_on_checkpoints(monkeypatch, after=record_shared)
    builder = SystemBuilder(seed=5, keep_trace=False)
    builder.add_node("alpha", cpus=4)
    builder.add_node("term", cpus=2)
    # A small cache: blocks are evicted to disc and read back while the
    # backup still shares them.
    builder.add_volume("alpha", "$data", cpus=(0, 1), cache_capacity=6)
    install_banking(builder, "alpha", "$data", server_instances=3)
    builder.add_tcp("alpha", "$tcp1", cpus=(2, 3), restart_limit=8)
    builder.add_program("alpha", "$tcp1", "debit-credit", debit_credit_program)
    terminals = [f"T{t}" for t in range(6)]
    for terminal in terminals:
        builder.add_terminal("alpha", "$tcp1", terminal, "debit-credit")
    system = builder.build()
    populate_banking(system, "alpha", branches=2, tellers_per_branch=4,
                     accounts=120)
    dp = system.disc_processes[("alpha", "$data")]
    node = system.cluster.node("alpha")

    def chaos(proc):
        yield system.env.timeout(1_500.0)
        node.fail_cpu(0)  # $data's primary: its backup takes over
        yield system.env.timeout(800.0)
        node.restore_cpu(0)

    system.spawn("alpha", "$chaos", chaos, cpu=2)

    result = run_closed_loop(
        system, "term", "\\alpha.$tcp1", terminals, debit_credit_input(120),
        duration=4_000.0, think_time=15.0, rng=random.Random(5),
    )
    settle = system.spawn(
        "alpha", "$settle", lambda p: (yield system.env.timeout(3_000)), cpu=2
    )
    system.cluster.run(settle.sim_process)

    assert dp.takeovers == 1
    assert result.committed > 0
    kinds = {value.__class__ for value, _snapshot in shared}
    assert {list, AuditRecord, AuditChain} <= kinds, kinds
    edited = [value for value, snapshot in shared if not _unchanged(value, snapshot)]
    assert not edited, f"{len(edited)} shared images were edited in place"
    report = check_consistency(system, "alpha")
    assert report["consistent"], report


# ----------------------------------------------------------------------
# A 1,000-update transaction
# ----------------------------------------------------------------------
ROWS = 200
UPDATES = 1_000


def test_large_transaction_checkpoints_only_new_images(monkeypatch):
    rig = TmfRig()
    rig.add_volume("alpha", "$data")
    rig.dictionary.define(FileSchema(
        name="accts", organization=KEY_SEQUENCED, primary_key=("aid",),
        audited=True, partitions=(PartitionSpec("alpha", "$data"),),
    ))
    audit = rig.audit_processes["alpha"]
    tmf = rig.tmf["alpha"]
    client = rig.clients["alpha"]
    shipped = []  # images each AUDITPROCESS checkpoint handed the backup
    backup_before = {}

    def before(pair, parts):
        if isinstance(pair, AuditProcess):
            backup_before.clear()
            backup_before.update(pair.backup_state.get("by_tx", {}))

    def after(pair, parts):
        if not isinstance(pair, AuditProcess):
            return
        for table, updates, _removals in parts:
            if table != "by_tx":
                continue
            for tx_key, link in updates.items():
                known, count = backup_before.get(tx_key), 0
                while link is not None and link is not known:
                    count, link = count + 1, link.prev
                shipped.append(count)

    def body(proc):
        yield from client.create_file(proc, rig.dictionary.schema("accts"))
        transid = yield from tmf.begin(proc)
        for aid in range(ROWS):
            yield from client.insert(
                proc, "accts", {"aid": aid, "balance": 1000}, transid=transid
            )
        yield from tmf.end(proc, transid)
        _spy_on_checkpoints(monkeypatch, before, after)
        transid = yield from tmf.begin(proc)
        for step in range(UPDATES):
            record = yield from client.read(
                proc, "accts", (step % ROWS,), transid=transid, lock=True
            )
            record["balance"] += step
            yield from client.update(proc, "accts", record, transid=transid)
        # Ship the images still aboard the volume's boxcar.
        reply = yield from rig.cluster.fs("alpha").send(
            proc, "$data", ForceBoxcar(transid)
        )
        assert reply["ok"]
        reply = yield from rig.cluster.fs("alpha").send(
            proc, "$aud", GetAudit(transid)
        )
        images = reply["records"]
        backup_images = list(audit.backup_state["by_tx"][str(transid)])
        appended = list(shipped)
        yield from tmf.abort(proc, transid, "test backout")
        rows = yield from client.scan(proc, "accts")
        return images, backup_images, appended, rows

    images, backup_images, appended, rows = rig.run("alpha", body)
    assert len(images) == UPDATES
    assert [record.seq for record in images] == sorted(record.seq for record in images)
    assert [record.after["balance"] for record in images[:3]] == [1000, 1001, 1002]
    assert backup_images == list(images)
    # Linear, not quadratic: each image crosses to the backup once.
    assert sum(appended) == UPDATES
    assert max(appended) <= 64
    assert {record["balance"] for _key, record in rows} == {1000}


# ----------------------------------------------------------------------
# Takeover right after a B-tree root split
# ----------------------------------------------------------------------
def test_takeover_right_after_root_split_keeps_a_sound_tree(monkeypatch):
    rig = TmfRig()
    dp = rig.add_volume("alpha", "$data")
    rig.dictionary.define(FileSchema(
        name="tree", organization=KEY_SEQUENCED, primary_key=("k",),
        audited=True, partitions=(PartitionSpec("alpha", "$data"),),
    ))
    tmf = rig.tmf["alpha"]
    client = rig.clients["alpha"]
    env = rig.cluster.env
    node = rig.cluster.node("alpha")
    capacity = 16  # KeySequencedFile's default leaf capacity
    split = {}

    def fail_primary():
        yield env.timeout(0.05)  # while the split's checkpoint is in flight
        node.fail_cpu(0)

    def fail_mid_split(pair, parts):
        if pair is dp and "armed" in split and "depth" not in split:
            split["depth"] = dp.files["tree"].base.depth()
            env.process(fail_primary())

    _spy_on_checkpoints(monkeypatch, before=fail_mid_split)

    def body(proc):
        yield from client.create_file(proc, rig.dictionary.schema("tree"))
        transid = yield from tmf.begin(proc)
        for k in range(capacity):
            yield from client.insert(proc, "tree", {"k": k}, transid=transid)
        split["armed"] = True
        # The File System retries the insert with the new primary, which
        # inherited the pre-split tree.
        yield from client.insert(proc, "tree", {"k": capacity}, transid=transid)
        yield from client.insert(proc, "tree", {"k": -1}, transid=transid)
        yield from tmf.end(proc, transid)

    rig.run("alpha", body, cpu=2)
    assert split["depth"] == 2, "the primary had split the root"
    assert dp.takeovers == 1
    tree = dp.files["tree"].base
    tree.check_invariants()
    assert tree.depth() == 2
    assert tree.record_count == capacity + 2
    assert tree.keys() == [(k,) for k in range(-1, capacity + 1)]
