"""TMF on a single node: atomicity, backout, the Figure 3 state machine,
the abbreviated two-phase commit, and online recovery from CPU failure.
"""

import pytest

from repro.core import (
    LEGAL_TRANSITIONS,
    TransactionAborted,
    TxState,
)
from repro.discprocess import (
    FileSchema,
    KEY_SEQUENCED,
    ENTRY_SEQUENCED,
    LockTimeoutError,
    PartitionSpec,
)

from conftest import TmfRig


def accounts_schema(node="alpha", volume="$data"):
    return FileSchema(
        name="accounts",
        organization=KEY_SEQUENCED,
        primary_key=("aid",),
        audited=True,
        partitions=(PartitionSpec(node, volume),),
    )


def history_schema(node="alpha", volume="$data"):
    return FileSchema(
        name="history",
        organization=ENTRY_SEQUENCED,
        audited=True,
        partitions=(PartitionSpec(node, volume),),
    )


def setup_accounts(rig, proc, balances):
    client = rig.clients["alpha"]
    tmf = rig.tmf["alpha"]
    yield from client.create_file(proc, rig.dictionary.schema("accounts"))
    transid = yield from tmf.begin(proc)
    for aid, balance in balances.items():
        yield from client.insert(
            proc, "accounts", {"aid": aid, "balance": balance}, transid=transid
        )
    yield from tmf.end(proc, transid)


class TestCommit:
    def test_commit_makes_updates_permanent(self, tmf_rig):
        tmf_rig.dictionary.define(accounts_schema())
        tmf = tmf_rig.tmf["alpha"]
        client = tmf_rig.clients["alpha"]

        def body(proc):
            yield from setup_accounts(tmf_rig, proc, {1: 100, 2: 200})
            transid = yield from tmf.begin(proc)
            a = yield from client.read(proc, "accounts", (1,), transid=transid, lock=True)
            b = yield from client.read(proc, "accounts", (2,), transid=transid, lock=True)
            a["balance"] -= 50
            b["balance"] += 50
            yield from client.update(proc, "accounts", a, transid=transid)
            yield from client.update(proc, "accounts", b, transid=transid)
            yield from tmf.end(proc, transid)
            one = yield from client.read(proc, "accounts", (1,))
            two = yield from client.read(proc, "accounts", (2,))
            return one["balance"], two["balance"]

        assert tmf_rig.run("alpha", body) == (50, 250)
        assert tmf.commits == 2

    def test_commit_forces_audit_to_trail(self, tmf_rig):
        tmf_rig.dictionary.define(accounts_schema())

        def body(proc):
            yield from setup_accounts(tmf_rig, proc, {1: 100})

        tmf_rig.run("alpha", body)
        trail = tmf_rig.audit_processes["alpha"].trail
        assert trail.total_records >= 1  # the insert's after-image is durable
        assert tmf_rig.audit_processes["alpha"].forces >= 1

    def test_commit_releases_locks(self, tmf_rig):
        tmf_rig.dictionary.define(accounts_schema())
        tmf = tmf_rig.tmf["alpha"]
        client = tmf_rig.clients["alpha"]

        def body(proc):
            yield from setup_accounts(tmf_rig, proc, {1: 100})
            # A second transaction can lock the same record immediately.
            transid = yield from tmf.begin(proc)
            record = yield from client.read(
                proc, "accounts", (1,), transid=transid, lock=True, lock_timeout=50
            )
            yield from tmf.end(proc, transid)
            return record["balance"]

        assert tmf_rig.run("alpha", body) == 100

    def test_transaction_state_sequence_commit(self, tmf_rig):
        tmf_rig.dictionary.define(accounts_schema())

        def body(proc):
            yield from setup_accounts(tmf_rig, proc, {1: 1})

        tmf_rig.run("alpha", body)
        records = tmf_rig.cluster.env.probe.select("state_broadcast")
        by_tx = {}
        for r in records:
            by_tx.setdefault(r.transid, []).append(r.state)
        assert all(
            states == ["active", "ending", "ended"] for states in by_tx.values()
        )

    def test_broadcast_reaches_all_cpus(self, tmf_rig):
        tmf_rig.dictionary.define(accounts_schema())

        def body(proc):
            yield from setup_accounts(tmf_rig, proc, {1: 1})

        tmf_rig.run("alpha", body)
        records = tmf_rig.cluster.env.probe.select("state_broadcast")
        # All 4 CPUs of the node see every broadcast, regardless of
        # participation (single-node rule of §Transaction State Change).
        assert all(r.cpus == 4 for r in records)


class TestAbortAndBackout:
    def test_voluntary_abort_backs_out_updates(self, tmf_rig):
        tmf_rig.dictionary.define(accounts_schema())
        tmf = tmf_rig.tmf["alpha"]
        client = tmf_rig.clients["alpha"]

        def body(proc):
            yield from setup_accounts(tmf_rig, proc, {1: 100})
            transid = yield from tmf.begin(proc)
            record = yield from client.read(
                proc, "accounts", (1,), transid=transid, lock=True
            )
            record["balance"] = 0
            yield from client.update(proc, "accounts", record, transid=transid)
            yield from client.insert(
                proc, "accounts", {"aid": 99, "balance": 1}, transid=transid
            )
            yield from tmf.abort(proc, transid, "user requested")
            one = yield from client.read(proc, "accounts", (1,))
            ninenine = yield from client.read(proc, "accounts", (99,))
            return one["balance"], ninenine

        balance, ninenine = tmf_rig.run("alpha", body)
        assert balance == 100     # update undone from before-image
        assert ninenine is None   # insert undone
        assert tmf.aborts == 1

    def test_abort_backs_out_deletes(self, tmf_rig):
        tmf_rig.dictionary.define(accounts_schema())
        tmf = tmf_rig.tmf["alpha"]
        client = tmf_rig.clients["alpha"]

        def body(proc):
            yield from setup_accounts(tmf_rig, proc, {7: 700})
            transid = yield from tmf.begin(proc)
            yield from client.read(proc, "accounts", (7,), transid=transid, lock=True)
            yield from client.delete(proc, "accounts", (7,), transid=transid)
            yield from tmf.abort(proc, transid)
            return (yield from client.read(proc, "accounts", (7,)))

        assert tmf_rig.run("alpha", body) == {"aid": 7, "balance": 700}

    def test_abort_backs_out_entry_appends(self, tmf_rig):
        tmf_rig.dictionary.define(accounts_schema())
        tmf_rig.dictionary.define(history_schema())
        tmf = tmf_rig.tmf["alpha"]
        client = tmf_rig.clients["alpha"]

        def body(proc):
            yield from client.create_file(proc, tmf_rig.dictionary.schema("history"))
            transid = yield from tmf.begin(proc)
            yield from client.append_entry(proc, "history", {"what": "x"}, transid=transid)
            yield from tmf.abort(proc, transid)
            rows = yield from client.scan_entries(proc, "history")
            return rows

        assert tmf_rig.run("alpha", body) == []

    def test_end_after_abort_raises(self, tmf_rig):
        tmf_rig.dictionary.define(accounts_schema())
        tmf = tmf_rig.tmf["alpha"]

        def body(proc):
            transid = yield from tmf.begin(proc)
            yield from tmf.abort(proc, transid, "changed my mind")
            try:
                yield from tmf.end(proc, transid)
            except TransactionAborted:
                return "rejected"

        assert tmf_rig.run("alpha", body) == "rejected"

    def test_abort_state_sequence(self, tmf_rig):
        tmf_rig.dictionary.define(accounts_schema())
        tmf = tmf_rig.tmf["alpha"]
        client = tmf_rig.clients["alpha"]

        def body(proc):
            yield from client.create_file(proc, tmf_rig.dictionary.schema("accounts"))
            transid = yield from tmf.begin(proc)
            yield from client.insert(
                proc, "accounts", {"aid": 1, "balance": 1}, transid=transid
            )
            yield from tmf.abort(proc, transid)
            return str(transid)

        transid_str = tmf_rig.run("alpha", body)
        states = [
            r.state
            for r in tmf_rig.cluster.env.probe.select("state_broadcast", transid=transid_str)
        ]
        assert states == ["active", "aborting", "aborted"]

    def test_every_observed_transition_is_in_figure3(self, tmf_rig):
        """No state broadcast sequence may use an edge not in Figure 3."""
        tmf_rig.dictionary.define(accounts_schema())
        tmf = tmf_rig.tmf["alpha"]
        client = tmf_rig.clients["alpha"]

        def body(proc):
            yield from client.create_file(proc, tmf_rig.dictionary.schema("accounts"))
            for i in range(5):
                transid = yield from tmf.begin(proc)
                yield from client.insert(
                    proc, "accounts", {"aid": i, "balance": i}, transid=transid
                )
                if i % 2:
                    yield from tmf.abort(proc, transid)
                else:
                    yield from tmf.end(proc, transid)

        tmf_rig.run("alpha", body)
        sequences = {}
        for r in tmf_rig.cluster.env.probe.select("state_broadcast"):
            sequences.setdefault(r.transid, []).append(TxState(r.state))
        for states in sequences.values():
            previous = None
            for state in states:
                assert state in LEGAL_TRANSITIONS[previous]
                previous = state

    def test_lock_timeout_then_restart_pattern(self, tmf_rig):
        """Deadlock resolution: timeout -> abort -> retry succeeds."""
        tmf_rig.dictionary.define(accounts_schema())
        tmf = tmf_rig.tmf["alpha"]
        client = tmf_rig.clients["alpha"]
        log = []

        def tx(proc, name, first, second, hold):
            for attempt in range(5):
                transid = yield from tmf.begin(proc)
                try:
                    r1 = yield from client.read(
                        proc, "accounts", first, transid=transid, lock=True,
                        lock_timeout=80,
                    )
                    yield tmf_rig.cluster.env.timeout(hold)
                    r2 = yield from client.read(
                        proc, "accounts", second, transid=transid, lock=True,
                        lock_timeout=80,
                    )
                    yield from tmf.end(proc, transid)
                    log.append((name, "committed", attempt))
                    return
                except LockTimeoutError:
                    yield from tmf.abort(proc, transid, "deadlock timeout")
                    log.append((name, "restart", attempt))
                    # Symmetry-breaking backoff before re-running from
                    # BEGIN-TRANSACTION (otherwise both deadlock again).
                    backoff = 25 if name == "t1" else 140
                    yield tmf_rig.cluster.env.timeout(backoff)

        def body(proc):
            yield from setup_accounts(tmf_rig, proc, {1: 10, 2: 20})
            node_os = tmf_rig.cluster.os("alpha")
            p1 = node_os.spawn("$tx1", 0, lambda p: tx(p, "t1", (1,), (2,), 30), register=False)
            p2 = node_os.spawn("$tx2", 1, lambda p: tx(p, "t2", (2,), (1,), 30), register=False)
            yield p1.sim_process
            yield p2.sim_process
            return log

        result = tmf_rig.run("alpha", body)
        assert ("t1", "committed", 0) in result or any(
            entry[1] == "committed" for entry in result if entry[0] == "t1"
        )
        assert any(entry[1] == "committed" for entry in result if entry[0] == "t2")
        assert any(entry[1] == "restart" for entry in result)


class TestOnlineRecovery:
    def test_discprocess_takeover_transparent_to_transaction(self, tmf_rig):
        tmf_rig.dictionary.define(accounts_schema())
        tmf = tmf_rig.tmf["alpha"]
        client = tmf_rig.clients["alpha"]

        def body(proc):
            yield from setup_accounts(tmf_rig, proc, {1: 100})
            transid = yield from tmf.begin(proc)
            record = yield from client.read(
                proc, "accounts", (1,), transid=transid, lock=True
            )
            # The primary DISCPROCESS CPU dies mid-transaction; handled
            # "automatically by the operating system transparently to
            # transaction processing".
            tmf_rig.cluster.node("alpha").fail_cpu(0)
            yield tmf_rig.cluster.env.timeout(5)
            record["balance"] = 42
            yield from client.update(proc, "accounts", record, transid=transid)
            yield from tmf.end(proc, transid)
            final = yield from client.read(proc, "accounts", (1,))
            return final["balance"]

        assert tmf_rig.run("alpha", body, cpu=2) == 42

    def test_origin_cpu_failure_auto_aborts(self, tmf_rig):
        tmf_rig.dictionary.define(accounts_schema())
        tmf = tmf_rig.tmf["alpha"]
        client = tmf_rig.clients["alpha"]
        results = {}

        def victim(proc):
            transid = yield from tmf.begin(proc)
            results["transid"] = transid
            yield from client.insert(
                proc, "accounts", {"aid": 5, "balance": 5}, transid=transid
            )
            yield tmf_rig.cluster.env.timeout(10_000)  # killed before end

        def body(proc):
            yield from client.create_file(proc, tmf_rig.dictionary.schema("accounts"))
            node_os = tmf_rig.cluster.os("alpha")
            node_os.spawn("$victim", 1, victim, register=False)
            yield tmf_rig.cluster.env.timeout(200)
            tmf_rig.cluster.node("alpha").fail_cpu(1)
            yield tmf_rig.cluster.env.timeout(2000)  # the TMP runs the auto-abort
            record = yield from client.read(proc, "accounts", (5,))
            return record

        assert tmf_rig.run("alpha", body, cpu=2) is None
        assert tmf.records[results["transid"]].done == "aborted"

    def test_unaffected_transactions_keep_committing(self, tmf_rig):
        """E1's core claim: a CPU failure aborts only transactions that
        touched that CPU; others proceed without interruption."""
        tmf_rig.dictionary.define(accounts_schema())
        tmf = tmf_rig.tmf["alpha"]
        client = tmf_rig.clients["alpha"]
        committed = []

        def worker(proc):
            for i in range(10):
                transid = yield from tmf.begin(proc)
                yield from client.insert(
                    proc, "accounts", {"aid": 1000 + i, "balance": i},
                    transid=transid,
                )
                yield from tmf.end(proc, transid)
                committed.append(i)

        def body(proc):
            yield from client.create_file(proc, tmf_rig.dictionary.schema("accounts"))
            node_os = tmf_rig.cluster.os("alpha")
            w = node_os.spawn("$w", 3, worker, register=False)
            yield tmf_rig.cluster.env.timeout(100)
            tmf_rig.cluster.node("alpha").fail_cpu(1)  # idle CPU
            yield w.sim_process
            return len(committed)

        assert tmf_rig.run("alpha", body, cpu=2) == 10
