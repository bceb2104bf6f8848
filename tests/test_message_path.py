"""The Guardian request path: engine cost and delivery semantics.

A request to a process-pair costs one transit timer, which delivers the
message and starts its handler in that step, and one reply event, which
:meth:`MessageSystem.reply` schedules to land after the reply's transit.
These tests pin that cost and the semantics the shorter path must keep:
timeout ties, lost replies, deaths in transit, and takeover races.
"""

import pytest

from repro.guardian import (
    Cluster,
    ConcurrentPair,
    ProcessUnavailable,
    RequestTimeout,
)
from repro.hardware import Latencies


class EchoPair(ConcurrentPair):
    """Replies with the payload after ``payload["wait"]`` ms, logging calls."""

    def __init__(self, *args, **kwargs):
        self.log = []
        super().__init__(*args, **kwargs)

    def on_start(self, proc):
        self.log.append(("start", proc.cpu.number))

    def serve_request(self, proc, message):
        self.log.append(("serve", message.msg_id))
        wait = message.payload.get("wait", 0.0)
        if wait:
            yield self.env.timeout(wait)
        proc.reply(message, message.payload)


def make_cluster(nodes=("alpha",), latencies=None):
    cluster = Cluster(seed=1, latencies=latencies)
    for name in nodes:
        cluster.add_node(name, cpu_count=4)
    cluster.connect_all()
    return cluster


def run_client(cluster, node, body, cpu=0):
    proc = cluster.os(node).spawn("$client", cpu, body, register=False)
    return cluster.run(proc.sim_process)


class TestEngineCost:
    @pytest.mark.parametrize("timeout", [None, 100.0])
    def test_local_request_costs_two_events(self, timeout):
        cluster = make_cluster()
        EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        env = cluster.env

        def client(proc):
            before = env.events_processed
            reply = yield from proc.request(
                "alpha", "$echo", {"n": 1}, timeout=timeout
            )
            return reply, env.events_processed - before

        reply, events = run_client(cluster, "alpha", client, cpu=0)
        assert reply == {"n": 1}
        # The transit timer (delivery plus the whole handler) and the
        # reply event.  A deadline's own timer pops later, not before.
        assert events == 2


class TestDeadline:
    # Binary fractions keep the time arithmetic exact, so a reply can be
    # made to land exactly on the deadline.
    LATENCIES = Latencies(local_message=0.25)

    def _request(self, wait, timeout=10.0):
        cluster = make_cluster(latencies=self.LATENCIES)
        EchoPair(cluster.os("alpha"), "$echo", 0, 1)

        def client(proc):
            try:
                reply = yield from proc.request(
                    "alpha", "$echo", {"wait": wait}, timeout=timeout
                )
            except RequestTimeout:
                return "timeout", cluster.env.now
            return reply, cluster.env.now

        return run_client(cluster, "alpha", client)

    def test_reply_landing_on_the_deadline_times_out(self):
        # Delivered at 0.25, deadline 10.25; the reply leaves at 10.0 and
        # lands at 10.25 — a tie, which the timeout wins.
        assert self._request(wait=9.75) == ("timeout", 10.25)

    def test_reply_landing_before_the_deadline_wins(self):
        assert self._request(wait=9.5) == ({"wait": 9.5}, 10.0)

    def test_reply_lost_to_a_partition_times_out(self):
        cluster = make_cluster(nodes=("alpha", "beta"))
        pair = EchoPair(cluster.os("beta"), "$echo", 0, 1)
        hop = cluster.latencies.network_hop

        def partition_later():
            yield cluster.env.timeout(hop + 1.0)
            cluster.network.partition(["alpha"], ["beta"])

        cluster.env.process(partition_later())

        def client(proc):
            try:
                yield from proc.request(
                    "beta", "$echo", {"wait": 5.0}, timeout=200.0
                )
            except RequestTimeout:
                return "timeout", cluster.env.now
            return "reply", cluster.env.now

        assert run_client(cluster, "alpha", client) == ("timeout", hop + 200.0)
        assert [entry[0] for entry in pair.log] == ["start", "serve"]


class TestDeathInTransit:
    def test_killed_requester_never_reaches_the_handler(self):
        cluster = make_cluster()
        pair = EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        bus = cluster.latencies.bus_message

        def client(proc):
            yield from proc.request("alpha", "$echo", {"n": 1})

        cluster.os("alpha").spawn("$client", 2, client, register=False)

        def fail_client_cpu():
            yield cluster.env.timeout(bus / 2)
            cluster.node("alpha").fail_cpu(2)

        cluster.env.process(fail_client_cpu())
        cluster.run()
        assert pair.log == [("start", 0)]

    def test_dead_destination_is_unavailable_and_retried_under_one_id(
        self, monkeypatch
    ):
        cluster = make_cluster()
        node_os = cluster.os("alpha")
        bus = cluster.latencies.bus_message
        served = []

        def server(proc):
            while True:
                message = yield from proc.receive()
                served.append(message.msg_id)
                proc.reply(message, "done")

        first = node_os.spawn("$srv", 1, server)

        def replace_server():
            # $srv dies while the first attempt is in transit; its
            # replacement registers before the file system's retry.
            yield cluster.env.timeout(bus / 2)
            first.kill("stopped")
            yield cluster.env.timeout(bus)
            node_os.spawn("$srv", 2, server)

        cluster.env.process(replace_server())

        ms = node_os.message_system
        request = ms.request
        attempts = []

        def recording_request(caller, dest_node, dest_name, payload, **kwargs):
            try:
                reply = yield from request(
                    caller, dest_node, dest_name, payload, **kwargs
                )
            except ProcessUnavailable:
                attempts.append((kwargs["msg_id"], "unavailable"))
                raise
            attempts.append((kwargs["msg_id"], reply))
            return reply

        monkeypatch.setattr(ms, "request", recording_request)

        def client(proc):
            reply = yield from cluster.fs("alpha").send(proc, "$srv", "x")
            return reply

        assert run_client(cluster, "alpha", client) == "done"
        msg_id = attempts[0][0]
        assert attempts == [(msg_id, "unavailable"), (msg_id, "done")]
        assert served == [msg_id]


class TestTakeoverRace:
    def test_request_to_unstarted_primary_is_served_after_on_start(self):
        cluster = make_cluster()
        pair = EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        bus = cluster.latencies.bus_message

        # This timer predates the request's transit timer, so at time
        # ``bus`` the takeover spawns the new primary first and the
        # request arrives before that primary's serve loop has run.
        fail_at = cluster.env.timeout(bus)
        fail_at.callbacks.append(lambda _e: cluster.node("alpha").fail_cpu(0))

        def client(proc):
            reply = yield from proc.request("alpha", "$echo", {"n": 2})
            return reply

        assert run_client(cluster, "alpha", client, cpu=2) == {"n": 2}
        assert pair.takeovers == 1
        assert [entry[0] for entry in pair.log] == ["start", "start", "serve"]
        assert pair.log[1] == ("start", 1)

    def test_spawned_coroutines_die_with_the_primary(self):
        cluster = make_cluster()
        pair = EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        ticks = []

        def background():
            while True:
                yield cluster.env.timeout(1.0)
                ticks.append(cluster.env.now)

        worker = pair.spawn(background(), "bg")
        cluster.run(until=2.5)
        cluster.node("alpha").fail_cpu(0)
        cluster.run(until=10.0)
        assert not worker.is_alive
        assert ticks == [1.0, 2.0]
