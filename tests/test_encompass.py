"""The ENCOMPASS application layer: TCPs, screen programs, server
classes, Pathway control, and the banking application's consistency
assertions under concurrency and failures.
"""

import pytest

from repro.apps.banking import (
    build_banking_system,
    check_consistency,
    debit_credit_program,
    install_banking,
    populate_banking,
)
from repro.encompass import ServerClass, SystemBuilder, TerminalInput

from conftest import Trigger


class TestQuickFlow:
    def test_single_posting_commits(self):
        system, _terminals = build_banking_system(seed=3, accounts=40)
        reply = system.drive("alpha", "$tcp1", "T0", {
            "account_id": 1, "teller_id": 0, "branch_id": 1, "amount": 25,
        })
        assert reply["ok"]
        assert reply["result"] == 1025
        assert reply["attempts"] == 1
        assert "POSTED +25" in reply["display"][0]
        report = check_consistency(system, "alpha")
        assert report["consistent"]
        assert report["history_count"] == 1

    def test_insufficient_funds_aborts_voluntarily(self):
        system, _terminals = build_banking_system(seed=3, accounts=40)
        reply = system.drive("alpha", "$tcp1", "T0", {
            "account_id": 1, "teller_id": 0, "branch_id": 1, "amount": -99999,
        })
        assert not reply["ok"]
        assert reply["error"] == "aborted"
        assert "insufficient_funds" in reply["reason"]
        report = check_consistency(system, "alpha")
        assert report["consistent"]
        assert report["history_count"] == 0
        tmf = system.tmf["alpha"]
        assert tmf.aborts >= 1

    def test_inventory_matches_figure2(self):
        """Figure 2's component classes: a TCP pair, server-class
        instances, DISCPROCESS and AUDITPROCESS pairs."""
        system, _terminals = build_banking_system(seed=3, accounts=40)
        assert system.server_classes[("alpha", "$bank")].live_instances()
        for pair in (system.tcps[("alpha", "$tcp1")],
                     system.disc_processes[("alpha", "$data")],
                     system.audit_processes["alpha"]):
            assert None not in (pair.primary_cpu, pair.backup_cpu)

    def test_voluntary_abort_backs_out_applied_updates(self):
        """ABORT-TRANSACTION after updates to two accounts backs both out
        with no user-coded reversal, and is not restarted."""
        system, _terminals = build_banking_system(seed=3, accounts=40)
        before = check_consistency(system, "alpha")

        def fickle_server(ctx, request):
            a = yield from ctx.read("account", (0,), lock=True)
            a["balance"] += 1000
            yield from ctx.update("account", a)
            b = yield from ctx.read("account", (1,), lock=True)
            b["balance"] -= 1000
            yield from ctx.update("account", b)
            return {"ok": False, "error": "changed_my_mind"}

        def fickle_program(ctx, data):
            reply = yield from ctx.send("$fickle-1", data)
            if not reply.get("ok"):
                ctx.abort_transaction(reply["error"])
            return True

        ServerClass(system.cluster.os("alpha"), "$fickle", fickle_server,
                    system.clients["alpha"], instances=1)
        tcp = system.tcps[("alpha", "$tcp1")]
        tcp.add_program("fickle", fickle_program)
        tcp.add_terminal("TF", "fickle")
        reply = system.drive("alpha", "$tcp1", "TF", {})
        assert reply["error"] == "aborted"
        assert reply["attempts"] == 1
        after = check_consistency(system, "alpha")
        assert after["consistent"]
        assert after["account_total"] == before["account_total"]

    def test_unknown_terminal_rejected(self):
        system, _terminals = build_banking_system(seed=3, accounts=40)
        reply = system.drive("alpha", "$tcp1", "T99", {"amount": 1})
        assert reply == {"ok": False, "error": "unknown_terminal"}

    def test_terminal_limit_is_32(self):
        builder = SystemBuilder(seed=1)
        builder.add_node("alpha", cpus=4)
        builder.add_volume("alpha", "$data")
        install_banking(builder, "alpha", "$data")
        tcp = builder.add_tcp("alpha", "$tcp1", cpus=(2, 3))
        builder.add_program("alpha", "$tcp1", "p", debit_credit_program)
        for t in range(32):
            builder.add_terminal("alpha", "$tcp1", f"T{t}", "p")
        with pytest.raises(RuntimeError):
            builder.add_terminal("alpha", "$tcp1", "T32", "p")


class TestConcurrencyAndRestart:
    def test_concurrent_postings_keep_invariants(self):
        system, _terminals = build_banking_system(seed=3, accounts=10)
        results = []

        def user(proc, terminal, n, account):
            for i in range(n):
                reply = yield from system.terminal_request(
                    proc, "alpha", "$tcp1", terminal,
                    {"account_id": account, "teller_id": account % 8,
                     "branch_id": account % 2, "amount": 7},
                )
                results.append(reply["ok"])

        procs = []
        for t in range(6):
            # Several users hammer the same two hot accounts: guaranteed
            # lock conflicts and occasional deadlock-timeout restarts.
            procs.append(system.spawn(
                "alpha", f"$user{t}",
                (lambda tt: lambda p: user(p, f"T{tt}", 5, tt % 2))(t),
                cpu=t % 4,
            ))
        for p in procs:
            system.cluster.run(p.sim_process)
        assert all(results) and len(results) == 30
        report = check_consistency(system, "alpha")
        assert report["consistent"]
        assert report["history_count"] == 30
        assert report["history_sum"] == 30 * 7

    def test_deadlock_restart_is_transparent_to_user(self):
        """Two users lock the same pair of accounts in opposite order via
        a custom two-account transfer server: deadlock, timeout, restart
        -- and both ultimately commit."""
        builder = SystemBuilder(seed=5)
        builder.add_node("alpha", cpus=4)
        builder.add_volume("alpha", "$data", cpus=(0, 1))
        install_banking(builder, "alpha", "$data", server_instances=2)

        def transfer_server(ctx, request):
            first = yield from ctx.read(
                "account", (request["first"],), lock=True, lock_timeout=60,
            )
            yield from ctx.pause(30)  # hold the first lock: invite deadlock
            second = yield from ctx.read(
                "account", (request["second"],), lock=True, lock_timeout=60,
            )
            first["balance"] -= request["amount"]
            second["balance"] += request["amount"]
            yield from ctx.update("account", first)
            yield from ctx.update("account", second)
            return {"ok": True}

        def transfer_program(ctx, data):
            yield from ctx.send_ok("$xfer", data)
            return "done"

        builder.add_server_class("alpha", "$xfer", transfer_server, instances=2)
        builder.add_tcp("alpha", "$tcp1", cpus=(2, 3), restart_limit=8)
        builder.add_program("alpha", "$tcp1", "transfer", transfer_program)
        builder.add_terminal("alpha", "$tcp1", "TA", "transfer")
        builder.add_terminal("alpha", "$tcp1", "TB", "transfer")
        system = builder.build()
        populate_banking(system, "alpha", branches=1, tellers_per_branch=1,
                         accounts=4)

        replies = {}

        def user(proc, terminal, first, second):
            reply = yield from system.terminal_request(
                proc, "alpha", "$tcp1", terminal,
                {"first": first, "second": second, "amount": 10},
            )
            replies[terminal] = reply

        pa = system.spawn("alpha", "$ua", lambda p: user(p, "TA", 0, 1), cpu=0)
        pb = system.spawn("alpha", "$ub", lambda p: user(p, "TB", 1, 0), cpu=1)
        system.cluster.run(pa.sim_process)
        system.cluster.run(pb.sim_process)
        assert replies["TA"]["ok"] and replies["TB"]["ok"]
        total_attempts = replies["TA"]["attempts"] + replies["TB"]["attempts"]
        assert total_attempts >= 3  # at least one side restarted
        report = check_consistency(system, "alpha")
        assert report["consistent"]
        tcp = system.tcps[("alpha", "$tcp1")]
        assert tcp.restarts_total >= 1

    def test_restart_limit_gives_up(self):
        builder = SystemBuilder(seed=2)
        builder.add_node("alpha", cpus=4)
        builder.add_volume("alpha", "$data")

        def always_restart(ctx, data):
            ctx.restart_transaction("always")
            yield  # pragma: no cover

        builder.add_tcp("alpha", "$tcp1", cpus=(2, 3), restart_limit=3)
        builder.add_program("alpha", "$tcp1", "loop", always_restart)
        builder.add_terminal("alpha", "$tcp1", "T0", "loop")
        system = builder.build()
        reply = system.drive("alpha", "$tcp1", "T0", {})
        assert reply["ok"] is False
        assert reply["error"] == "restart_limit"
        assert reply["attempts"] == 4  # 1 + 3 restarts


class TestTcpFaultTolerance:
    def test_tcp_takeover_preserves_terminal_service(self):
        system, _terminals = build_banking_system(seed=3, accounts=40)
        tcp = system.tcps[("alpha", "$tcp1")]
        outcome = {}

        def user(proc):
            r1 = yield from system.terminal_request(
                proc, "alpha", "$tcp1", "T0",
                {"account_id": 0, "teller_id": 0, "branch_id": 0, "amount": 5},
            )
            system.cluster.node("alpha").fail_cpu(2)  # TCP primary
            yield system.env.timeout(10)
            r2 = yield from system.terminal_request(
                proc, "alpha", "$tcp1", "T0",
                {"account_id": 0, "teller_id": 0, "branch_id": 0, "amount": 5},
            )
            outcome["r1"], outcome["r2"] = r1, r2

        p = system.spawn("alpha", "$u", user, cpu=0)
        system.cluster.run(p.sim_process)
        assert outcome["r1"]["ok"] and outcome["r2"]["ok"]
        assert tcp.takeovers == 1
        report = check_consistency(system, "alpha")
        assert report["consistent"]
        assert report["history_sum"] == 10

    def test_tcp_failure_mid_unit_aborts_and_rerun_commits_once(self):
        """The primary TCP dies while a unit is in flight: TMF backs the
        transaction out; the retried input re-runs it exactly once."""
        system, _terminals = build_banking_system(seed=3, accounts=40)
        outcome = {}

        def user(proc):
            reply = yield from system.terminal_request(
                proc, "alpha", "$tcp1", "T1",
                {"account_id": 3, "teller_id": 1, "branch_id": 1, "amount": 11},
            )
            outcome["reply"] = reply

        def saboteur(proc):
            yield system.env.timeout(40)  # mid-unit (posting takes ~100ms+)
            system.cluster.node("alpha").fail_cpu(2)

        p = system.spawn("alpha", "$u", user, cpu=0)
        system.spawn("alpha", "$sab", saboteur, cpu=1)
        system.cluster.run(p.sim_process)
        # Let any stray abort/backout work drain before checking.
        idle = system.spawn(
            "alpha", "$idle", lambda pr: iter(()) or (yield system.env.timeout(3000)),
            cpu=0,
        )
        system.cluster.run(idle.sim_process)
        assert outcome["reply"]["ok"]
        report = check_consistency(system, "alpha")
        assert report["consistent"]
        assert report["history_sum"] == 11  # exactly once, not twice

    def test_committed_unit_not_rerun_after_takeover(self):
        """If the unit committed and the TCP died before replying, the
        retried request answers from the checkpointed reply."""
        system, _terminals = build_banking_system(seed=3, accounts=40)
        outcome = {}

        def user(proc):
            reply = yield from system.terminal_request(
                proc, "alpha", "$tcp1", "T2",
                {"account_id": 5, "teller_id": 2, "branch_id": 1, "amount": 9},
            )
            outcome["reply"] = reply

        def watcher(proc):
            # Fail the TCP primary the moment the unit's commit lands:
            # the TCP notes the unit's latency in that step.
            yield Trigger(system.env, "observe", name="unit.latency_ms")
            system.cluster.node("alpha").fail_cpu(2)

        p = system.spawn("alpha", "$u", user, cpu=0)
        system.spawn("alpha", "$w", watcher, cpu=1)
        system.cluster.run(p.sim_process)
        assert outcome["reply"]["ok"]
        report = check_consistency(system, "alpha")
        assert report["consistent"]
        assert report["history_sum"] == 9  # the posting applied exactly once


class TestPathway:
    def test_monitor_grows_server_class_under_load(self):
        builder = SystemBuilder(seed=4)
        builder.add_node("alpha", cpus=4)
        builder.add_volume("alpha", "$data")

        def slow_server(ctx, request):
            yield from ctx.pause(200)
            return {"ok": True}

        server_class = builder.add_server_class(
            "alpha", "$slow", slow_server, instances=1, max_instances=6
        )
        builder.add_pathway_monitor("alpha", interval=50)
        system = builder.build()

        def flood(proc):
            # fire-and-collect: issue requests concurrently
            procs = []
            for i in range(24):
                def one(p, idx=i):
                    target = server_class.pick_instance()
                    reply = yield from system.cluster.fs("alpha").send(
                        p, target, {"n": idx}, timeout=60_000
                    )
                    return reply
                procs.append(system.spawn("alpha", f"$f{i}", one, cpu=i % 4))
            for p in procs:
                yield p.sim_process
            return True

        p = system.spawn("alpha", "$flood", flood, cpu=0)
        system.cluster.run(p.sim_process)
        monitor = system.pathway_monitors["alpha"]
        assert monitor.grows >= 1
        assert len(server_class.live_instances()) > 1

    def test_requests_route_round_robin(self):
        builder = SystemBuilder(seed=4)
        builder.add_node("alpha", cpus=4)
        builder.add_volume("alpha", "$data")
        served = []

        def echo_server(ctx, request):
            served.append(ctx._proc.name)
            return {"ok": True}
            yield  # pragma: no cover

        server_class = builder.add_server_class(
            "alpha", "$echo", echo_server, instances=3
        )
        system = builder.build()

        def body(proc):
            for _ in range(6):
                target = server_class.pick_instance()
                yield from system.cluster.fs("alpha").send(proc, target, {})
            return served

        p = system.spawn("alpha", "$b", body, cpu=0)
        result = system.cluster.run(p.sim_process)
        assert len(set(result)) == 3  # all three instances used
