"""Unit and integration tests for the GUARDIAN-like OS layer."""

import pytest

from repro.guardian import (
    Cluster,
    FileSystemError,
    PathDown,
    ProcessDied,
    ProcessPair,
    ProcessUnavailable,
    ReceiveTimeout,
    parse_destination,
)


def make_cluster(nodes=("alpha",), cpus=4):
    cluster = Cluster(seed=1)
    for name in nodes:
        cluster.add_node(name, cpu_count=cpus)
    cluster.connect_all()
    return cluster


def echo_server(proc):
    while True:
        message = yield from proc.receive()
        proc.reply(message, ("echo", message.payload, message.transid))


class TestNames:
    def test_parse_local(self):
        assert parse_destination("alpha", "$srv") == ("alpha", "$srv")

    def test_parse_network(self):
        assert parse_destination("alpha", "\\beta.$srv") == ("beta", "$srv")

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            parse_destination("alpha", "\\beta")


class TestMessaging:
    def test_local_request_reply(self):
        cluster = make_cluster()
        node_os = cluster.os("alpha")
        node_os.spawn("$echo", 0, echo_server)

        def client(proc):
            reply = yield from proc.request("alpha", "$echo", "hi")
            return reply

        client_proc = node_os.spawn("$client", 1, client)
        result = cluster.run(client_proc.sim_process)
        assert result == ("echo", "hi", None)
        # Cross-CPU request+reply cost two bus transits.
        assert cluster.env.now == pytest.approx(2 * cluster.latencies.bus_message)

    def test_same_cpu_is_cheaper_than_cross_cpu(self):
        cluster = make_cluster()
        node_os = cluster.os("alpha")
        node_os.spawn("$echo", 0, echo_server)

        def client(proc):
            yield from proc.request("alpha", "$echo", "x")
            return cluster.env.now

        same = node_os.spawn("$c1", 0, client)
        t_same = cluster.run(same.sim_process)
        assert t_same == pytest.approx(2 * cluster.latencies.local_message)

    def test_remote_request(self):
        cluster = make_cluster(("alpha", "beta"))
        cluster.os("beta").spawn("$echo", 0, echo_server)

        def client(proc):
            reply = yield from proc.request("beta", "$echo", "remote")
            return (reply, cluster.env.now)

        proc = cluster.os("alpha").spawn("$client", 0, client)
        reply, elapsed = cluster.run(proc.sim_process)
        assert reply == ("echo", "remote", None)
        assert elapsed == pytest.approx(2 * cluster.latencies.network_hop)

    def test_unknown_name_unavailable(self):
        cluster = make_cluster()

        def client(proc):
            try:
                yield from proc.request("alpha", "$ghost", "x")
            except ProcessUnavailable:
                return "unavailable"

        proc = cluster.os("alpha").spawn("$client", 0, client)
        assert cluster.run(proc.sim_process) == "unavailable"

    def test_partition_raises_pathdown(self):
        cluster = make_cluster(("alpha", "beta"))
        cluster.os("beta").spawn("$echo", 0, echo_server)
        cluster.network.partition(["alpha"], ["beta"])

        def client(proc):
            try:
                yield from proc.request("beta", "$echo", "x")
            except PathDown:
                return "pathdown"

        proc = cluster.os("alpha").spawn("$client", 0, client)
        assert cluster.run(proc.sim_process) == "pathdown"

    def test_server_death_mid_request_fails_requester(self):
        cluster = make_cluster()
        node_os = cluster.os("alpha")

        def slow_server(proc):
            message = yield from proc.receive()
            yield cluster.env.timeout(100)  # dies before this completes
            proc.reply(message, "too late")

        node_os.spawn("$slow", 0, slow_server)

        def client(proc):
            try:
                yield from proc.request("alpha", "$slow", "x")
            except ProcessDied:
                return ("died", cluster.env.now)

        proc = node_os.spawn("$client", 1, client)

        def saboteur(p):
            yield cluster.env.timeout(10)
            cluster.node("alpha").fail_cpu(0)

        node_os_proc = node_os.spawn("$sab", 2, saboteur, register=False)
        result = cluster.run(proc.sim_process)
        assert result == ("died", 10)

    def test_request_timeout(self):
        cluster = make_cluster()
        node_os = cluster.os("alpha")

        def silent_server(proc):
            while True:
                yield from proc.receive()
                # never replies

        node_os.spawn("$silent", 0, silent_server)

        def client(proc):
            from repro.guardian import RequestTimeout
            try:
                yield from proc.request("alpha", "$silent", "x", timeout=50)
            except RequestTimeout:
                return cluster.env.now

        proc = node_os.spawn("$client", 1, client)
        assert cluster.run(proc.sim_process) == pytest.approx(50 + cluster.latencies.bus_message)

    def test_receive_timeout(self):
        cluster = make_cluster()

        def lonely(proc):
            try:
                yield from proc.receive(timeout=25)
            except ReceiveTimeout:
                return cluster.env.now

        proc = cluster.os("alpha").spawn("$lonely", 0, lonely)
        assert cluster.run(proc.sim_process) == 25

    def test_reply_lost_on_partition_mid_request(self):
        cluster = make_cluster(("alpha", "beta"))

        def server(proc):
            message = yield from proc.receive()
            yield cluster.env.timeout(50)
            cluster.network.partition(["alpha"], ["beta"])
            proc.reply(message, "lost")

        cluster.os("beta").spawn("$srv", 0, server)

        def client(proc):
            from repro.guardian import RequestTimeout
            try:
                yield from proc.request("beta", "$srv", "x", timeout=200)
            except RequestTimeout:
                return "timed out"

        proc = cluster.os("alpha").spawn("$client", 0, client)
        assert cluster.run(proc.sim_process) == "timed out"


class TestNodeOs:
    def test_cpu_failure_kills_resident_processes(self):
        cluster = make_cluster()
        node_os = cluster.os("alpha")
        node_os.spawn("$a", 0, echo_server)
        node_os.spawn("$b", 1, echo_server)
        cluster.node("alpha").fail_cpu(0)
        assert node_os.lookup("$a") is None
        assert node_os.lookup("$b") is not None

    def test_duplicate_live_name_rejected(self):
        cluster = make_cluster()
        node_os = cluster.os("alpha")
        node_os.spawn("$x", 0, echo_server)
        with pytest.raises(RuntimeError):
            node_os.spawn("$x", 1, echo_server)

    def test_spawn_on_dead_cpu_rejected(self):
        cluster = make_cluster()
        cluster.node("alpha").fail_cpu(2)
        with pytest.raises(RuntimeError):
            cluster.os("alpha").spawn("$x", 2, echo_server)

    def test_pick_cpu_prefers_least_loaded(self):
        cluster = make_cluster()
        node_os = cluster.os("alpha")
        node_os.spawn("$a", 0, echo_server)
        node_os.spawn("$b", 0, echo_server)
        assert node_os.pick_cpu(exclude=[1]) in (2, 3)


class CounterPair(ProcessPair):
    """A pair that counts requests, checkpointing after each one."""

    def on_start(self, proc):
        self.state.setdefault("count", 0)
        self.state.setdefault("completed", {})

    def handle(self, proc, message):
        completed = self.state["completed"]
        if message.msg_id in completed:
            proc.reply(message, completed[message.msg_id])
            return
        self.state["count"] += 1
        result = self.state["count"]
        completed[message.msg_id] = result
        yield from self.checkpoint(count=result, completed=completed)
        proc.reply(message, result)


class TestProcessPair:
    def test_normal_operation_counts(self):
        cluster = make_cluster()
        pair = CounterPair(cluster.os("alpha"), "$ctr", 0, 1, cluster.tracer)

        def client(proc):
            results = []
            for _ in range(3):
                value = yield from cluster.fs("alpha").send(proc, "$ctr", "inc")
                results.append(value)
            return results

        proc = cluster.os("alpha").spawn("$client", 2, client)
        assert cluster.run(proc.sim_process) == [1, 2, 3]
        assert pair.checkpoints_sent == 3

    def test_takeover_preserves_checkpointed_state(self):
        cluster = make_cluster()
        pair = CounterPair(cluster.os("alpha"), "$ctr", 0, 1, cluster.tracer)

        def client(proc):
            first = yield from cluster.fs("alpha").send(proc, "$ctr", "inc")
            cluster.node("alpha").fail_cpu(0)
            yield cluster.env.timeout(5)
            second = yield from cluster.fs("alpha").send(proc, "$ctr", "inc")
            return (first, second)

        proc = cluster.os("alpha").spawn("$client", 2, client)
        assert cluster.run(proc.sim_process) == (1, 2)
        assert pair.takeovers == 1
        assert pair.primary_cpu == 1
        assert pair.backup_cpu is not None  # re-protected on another CPU

    def test_filesystem_retry_hides_takeover(self):
        """The paper's transparency claim: a request in flight when the
        primary dies is retried automatically; the client never sees it."""
        cluster = make_cluster()
        CounterPair(cluster.os("alpha"), "$ctr", 0, 1, cluster.tracer)

        def client(proc):
            value = yield from cluster.fs("alpha").send(proc, "$ctr", "inc")
            return value

        def saboteur(proc):
            yield cluster.env.timeout(0.05)  # request is in flight
            cluster.node("alpha").fail_cpu(0)

        proc = cluster.os("alpha").spawn("$client", 2, client)
        cluster.os("alpha").spawn("$sab", 3, saboteur, register=False)
        assert cluster.run(proc.sim_process) == 1

    def test_duplicate_suppression_after_takeover(self):
        """If the old primary completed the op and checkpointed before
        dying, the retried request must not be applied twice."""
        cluster = make_cluster()
        pair = CounterPair(cluster.os("alpha"), "$ctr", 0, 1, cluster.tracer)

        def client(proc):
            v1 = yield from cluster.fs("alpha").send(proc, "$ctr", "inc")
            v2 = yield from cluster.fs("alpha").send(proc, "$ctr", "inc")
            return (v1, v2)

        def saboteur(proc):
            # Fail the primary after it has checkpointed+replied the first
            # op but (possibly) before the reply arrives.
            yield cluster.env.timeout(0.35)
            cluster.node("alpha").fail_cpu(0)

        proc = cluster.os("alpha").spawn("$client", 2, client)
        cluster.os("alpha").spawn("$sab", 3, saboteur, register=False)
        v1, v2 = cluster.run(proc.sim_process)
        assert (v1, v2) == (1, 2)  # not (1, 3): duplicate suppressed

    def test_pair_down_on_double_failure(self):
        cluster = make_cluster(cpus=2)
        pair = CounterPair(cluster.os("alpha"), "$ctr", 0, 1, cluster.tracer)
        cluster.node("alpha").fail_cpu(0)
        cluster.node("alpha").fail_cpu(1)
        assert not pair.available

    def test_backup_loss_recruits_replacement(self):
        cluster = make_cluster()
        pair = CounterPair(cluster.os("alpha"), "$ctr", 0, 1, cluster.tracer)
        cluster.node("alpha").fail_cpu(1)
        assert pair.available
        assert pair.backup_cpu in (2, 3)

    def test_reprotected_pair_survives_primary_loss(self):
        """Backup loss, re-protection on another CPU, then primary loss:
        the checkpointed state survives both."""
        cluster = make_cluster()
        pair = CounterPair(cluster.os("alpha"), "$ctr", 0, 1, cluster.tracer)

        def client(proc):
            yield from cluster.fs("alpha").send(proc, "$ctr", "inc")
            cluster.node("alpha").fail_cpu(1)
            protected = pair.protected
            yield from cluster.fs("alpha").send(proc, "$ctr", "inc")
            cluster.node("alpha").fail_cpu(0)
            value = yield from cluster.fs("alpha").send(proc, "$ctr", "inc")
            return protected, value

        proc = cluster.os("alpha").spawn("$client", 2, client)
        assert cluster.run(proc.sim_process) == (True, 3)
        assert pair.takeovers == 1

    def test_unprotected_until_cpu_returns(self):
        cluster = make_cluster(cpus=2)
        pair = CounterPair(cluster.os("alpha"), "$ctr", 0, 1, cluster.tracer)
        cluster.node("alpha").fail_cpu(1)
        assert pair.available and not pair.protected
        cluster.node("alpha").restore_cpu(1)
        assert pair.protected and pair.backup_cpu == 1

    def test_restart_after_pair_down(self):
        cluster = make_cluster(cpus=2)
        pair = CounterPair(cluster.os("alpha"), "$ctr", 0, 1, cluster.tracer)
        cluster.node("alpha").total_failure()
        assert not pair.available
        cluster.node("alpha").restore_all_cpus()
        pair.restart(0, 1)
        assert pair.available and pair.protected

    def test_operator_pair_service_continuity(self):
        """The paper's operator-process example: console formatting keeps
        working across the failure of the primary's processor."""
        cluster = make_cluster()
        console = []

        class OperatorPair(ProcessPair):
            def on_start(self, proc):
                self.state.setdefault("seq", 0)

            def handle(self, proc, message):
                self.state["seq"] += 1
                yield from self.checkpoint(seq=self.state["seq"])
                console.append(f"[{self.state['seq']:04d}] {message.payload}")
                proc.reply(message, "logged")

        OperatorPair(cluster.os("alpha"), "$opr", 0, 1, cluster.tracer)

        def reporter(proc):
            yield from cluster.fs("alpha").send(proc, "$opr", "disc error")
            cluster.node("alpha").fail_cpu(0)
            yield cluster.env.timeout(5)
            yield from cluster.fs("alpha").send(proc, "$opr", "cpu 0 down")
            return console

        proc = cluster.os("alpha").spawn("$rep", 2, reporter)
        out = cluster.run(proc.sim_process)
        assert out == ["[0001] disc error", "[0002] cpu 0 down"]
