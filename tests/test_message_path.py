"""The Guardian request path: engine cost and delivery semantics.

A request to a process-pair costs one transit timer, which delivers the
message and starts its handler in that step, and one reply event, which
:meth:`MessageSystem.reply` schedules to land after the reply's transit.
A reply deadline waits in the message system's deadline queue and costs
an engine event only if it passes unanswered.  These tests pin that cost
and the semantics the shorter path must keep: timeout ties and order,
lost replies, deaths in transit, and takeover races.  A fan-out
(:meth:`FileSystem.send_all`) costs the events of its requests, and each
of its requests keeps the semantics of :meth:`FileSystem.send`.
"""

import gc
import weakref

import pytest

from repro.guardian import (
    Cluster,
    FileSystemError,
    PathDown,
    ProcessDied,
    ProcessPair,
    ProcessUnavailable,
    RequestTimeout,
)
from repro.hardware import Latencies
from repro.sim import ProcessKilled


class EchoPair(ProcessPair):
    """Replies with the payload after ``payload["wait"]`` ms, logging calls."""

    def __init__(self, *args, **kwargs):
        self.log = []
        self.served = []
        super().__init__(*args, **kwargs)

    def on_start(self, proc):
        self.log.append(("start", proc.cpu.number))

    def serve_request(self, proc, message):
        self.log.append(("serve", message.msg_id))
        self.served.append(weakref.ref(message))
        wait = message.payload.get("wait", 0.0)
        if wait:
            yield self.env.timeout(wait)
        return message.payload


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
        # reply event.
        assert events == 2

    def test_answered_deadline_costs_no_event(self):
        cluster = make_cluster()
        EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        env = cluster.env
        start = []

        def client(proc):
            start.append(env.events_processed)
            yield from proc.request("alpha", "$echo", {"n": 1}, timeout=100.0)

        cluster.os("alpha").spawn("$client", 0, client, register=False)
        cluster.run()
        # Even at quiescence, past the deadline: a per-request deadline
        # timer would have made it three.
        assert env.events_processed - start[0] == 2


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


class TestDeadlineQueue:
    LATENCIES = Latencies(local_message=0.25, bus_message=0.25)

    def test_mixed_timeouts_expire_in_deadline_order(self):
        cluster = make_cluster(latencies=self.LATENCIES)
        EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        env = cluster.env
        outcomes = []
        # (send at, timeout, server wait, msg_id).  Each request is
        # delivered 0.25 ms after it is sent.
        plan = [
            (0.0, 60000.0, 70000.0, 1),  # unanswered
            (0.0, 5000.0, 6000.0, 12),  # unanswered
            (0.0, 2000.0, 1.0, 3),  # answered at 1.5
            (1000.0, 2000.0, 3000.0, 4),  # unanswered
            (3000.0, 2000.0, 2500.0, 5),  # ties #12's deadline, later seq
            (3000.0, 5000.0, 10.0, 6),  # answered at 3010.5
            (4000.0, 2000.0, 1999.75, 7),  # reply lands on the deadline
            (4000.0, 60000.0, 59000.0, 8),  # answered at 63000.5
            (4500.0, 2000.0, 1500.0, 9),  # answered at 6000.5
        ]

        def client(at, timeout, wait, msg_id):
            def body(proc):
                yield env.timeout(at)
                try:
                    yield from proc.request(
                        "alpha", "$echo", {"wait": wait},
                        timeout=timeout, msg_id=msg_id,
                    )
                except RequestTimeout:
                    outcomes.append(("timeout", env.now, msg_id))
                else:
                    outcomes.append(("reply", env.now, msg_id))
            return body

        for n, entry in enumerate(plan):
            cluster.os("alpha").spawn(
                f"$c{n}", 2 + n % 2, client(*entry), register=False
            )
        cluster.run()
        assert outcomes == [
            ("reply", 1.5, 3),
            ("timeout", 3000.25, 4),
            ("reply", 3010.5, 6),
            # A tie fires in delivery order, not msg_id order.
            ("timeout", 5000.25, 12),
            ("timeout", 5000.25, 5),
            ("timeout", 6000.25, 7),
            ("reply", 6000.5, 9),
            ("timeout", 60000.25, 1),
            ("reply", 63000.5, 8),
        ]

    def test_lost_reply_behind_an_answered_head_times_out_on_time(self):
        # The first request is answered, so the armed timer pops stale at
        # its deadline and re-arms for the second, whose reply is lost.
        cluster = make_cluster(nodes=("alpha", "beta"))
        EchoPair(cluster.os("beta"), "$echo", 0, 1)
        env = cluster.env
        hop = cluster.latencies.network_hop

        def partition_later():
            yield env.timeout(50.0 + hop + 1.0)
            cluster.network.partition(["alpha"], ["beta"])

        env.process(partition_later())

        def client(proc):
            first = yield from proc.request(
                "beta", "$echo", {"n": 1}, timeout=200.0
            )
            yield env.timeout(50.0 - env.now)
            try:
                yield from proc.request(
                    "beta", "$echo", {"wait": 5.0}, timeout=200.0
                )
            except RequestTimeout:
                return first, env.now
            return first, "reply"

        assert run_client(cluster, "alpha", client) == (
            {"n": 1}, 50.0 + hop + 200.0
        )

    def test_deadline_after_the_disarmed_entry_popped_fires(self):
        # The first request empties the queue; its disarmed entry pops
        # unprocessed at 10.25, before the second request is delivered.
        cluster = make_cluster(latencies=self.LATENCIES)
        EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        env = cluster.env

        def client(proc):
            yield from proc.request("alpha", "$echo", {}, timeout=10.0)
            yield env.timeout(20.0)
            try:
                yield from proc.request(
                    "alpha", "$echo", {"wait": 50.0}, timeout=10.0
                )
            except RequestTimeout:
                return env.now
            return "reply"

        assert run_client(cluster, "alpha", client, cpu=2) == 20.5 + 10.25

    def test_deadline_after_a_run_ended_on_the_disarmed_entry_fires(self):
        # A run to exhaustion pops the answered request's disarmed entry
        # (10.25) but leaves the clock at its last live event, before
        # it: the next request's later deadline must arm an entry of its
        # own, not revive the popped one.
        cluster = make_cluster(latencies=self.LATENCIES)
        EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        env = cluster.env

        def first(proc):
            yield from proc.request("alpha", "$echo", {}, timeout=10.0)

        cluster.os("alpha").spawn("$first", 2, first, register=False)
        env.run()
        assert (env.now, env.horizon) == (0.5, 10.25)

        def client(proc):
            try:
                yield from proc.request(
                    "alpha", "$echo", {"wait": 50.0}, timeout=10.0
                )
            except RequestTimeout:
                return env.now
            return "reply"

        assert run_client(cluster, "alpha", client, cpu=2) == 0.75 + 10.0

    def test_answered_requests_hold_no_queue_entry_or_message(self):
        cluster = make_cluster()
        pair = EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        env = cluster.env

        def client(proc):
            for n in range(1000):
                yield from proc.request(
                    "alpha", "$echo", {"n": n}, timeout=60000.0
                )
            # White-box: the engine queue holds no entry per answered request.
            return len(env._queue)  # repro: allow[engine-private]

        assert run_client(cluster, "alpha", client) <= 5
        cluster.run()
        gc.collect()
        assert len(pair.served) == 1000
        assert [ref for ref in pair.served if ref() is not None] == []

    def test_push_releases_answered_messages_while_others_pend(self):
        # One request stays unanswered throughout, so only the pruning
        # at each push can release the answered ones.
        cluster = make_cluster()
        pair = EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        env = cluster.env

        def straggler(proc):
            yield from proc.request(
                "alpha", "$echo", {"wait": 90000.0}, timeout=120000.0
            )

        cluster.os("alpha").spawn("$slow", 1, straggler, register=False)

        def client(proc):
            for n in range(1000):
                yield from proc.request(
                    "alpha", "$echo", {"n": n}, timeout=60000.0
                )
            gc.collect()
            alive = [ref for ref in pair.served if ref() is not None]
            # White-box: the deadline entries left in the engine queue.
            return len(alive), len(env._queue)  # repro: allow[engine-private]

        alive, queued = run_client(cluster, "alpha", client)
        # The straggler and the last answered request; the straggler's
        # handler timer and its deadline entry.
        assert alive == 2
        assert queued <= 5

    def test_rearmed_deadline_keeps_its_delivery_tie_order(self):
        # #2's deadline is armed only when #1's answered entry pops at
        # 10.25, yet it still fires before a timer created after #2 was
        # delivered for the same instant.
        cluster = make_cluster(latencies=self.LATENCIES)
        pair = EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        env = cluster.env
        seen = []

        def client(proc):
            yield from proc.request("alpha", "$echo", {}, timeout=10.0)
            yield env.timeout(1.0 - env.now)
            try:
                yield from proc.request(
                    "alpha", "$echo", {"wait": 50.0}, timeout=10.0
                )
            except RequestTimeout:
                return env.now

        def same_instant(_event):
            seen.append(pair.served[1]().reply_event.triggered)

        def start_timer():
            yield env.timeout(2.0)
            env.timeout(9.25).callbacks.append(same_instant)

        env.process(start_timer())
        assert run_client(cluster, "alpha", client, cpu=2) == 11.25
        assert seen == [True]

    def test_requester_killed_before_its_deadline_does_not_abort(self):
        cluster = make_cluster()
        pair = EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        env = cluster.env

        def client(proc):
            yield from proc.request(
                "alpha", "$echo", {"wait": 50.0}, timeout=20.0
            )

        cluster.os("alpha").spawn("$client", 2, client, register=False)

        def fail_client_cpu():
            yield env.timeout(10.0)
            cluster.node("alpha").fail_cpu(2)

        env.process(fail_client_cpu())
        cluster.run()
        assert [entry[0] for entry in pair.log] == ["start", "serve"]
        assert env.now >= 20.0


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


class TestHandlerOwnership:
    """A handler is a member of ``_active_handlers`` while it runs."""

    def test_handlers_leave_the_owner_set_when_they_finish(self):
        cluster = make_cluster()
        pair = EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        during = []

        def client(proc):
            # Finishes inside its inline first segment: no wait.
            yield from proc.request("alpha", "$echo", {"n": 1})
            during.append(len(pair._active_handlers))
            yield from proc.request("alpha", "$echo", {"wait": 3.0})
            during.append(len(pair._active_handlers))

        def observer():
            yield cluster.env.timeout(cluster.latencies.local_message * 4 + 1.0)
            during.append(len(pair._active_handlers))

        cluster.env.process(observer())
        run_client(cluster, "alpha", client)
        # Empty after each request; one handler while the waiting one ran.
        assert during == [0, 1, 0]
        assert pair._active_handlers == set()

    def test_takeover_mid_request_kills_the_handler(self):
        cluster = make_cluster()
        pair = EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        in_flight = []

        def fail_primary():
            yield cluster.env.timeout(5.0)
            in_flight.extend(pair._active_handlers)
            cluster.node("alpha").fail_cpu(0)

        cluster.env.process(fail_primary())

        def client(proc):
            try:
                yield from proc.request("alpha", "$echo", {"wait": 10.0})
            except ProcessDied:
                return "died"
            return "replied"

        assert run_client(cluster, "alpha", client, cpu=2) == "died"
        assert pair.takeovers == 1
        assert len(in_flight) == 1
        handler = in_flight[0]
        assert not handler.is_alive
        assert isinstance(handler.value, ProcessKilled)
        assert pair._active_handlers == set()


class TestFanOut:
    """``FileSystem.send_all``/``post_all``: many requests, one join."""

    def test_destinations_answer_in_parallel(self):
        cluster = make_cluster(nodes=("alpha", "beta", "gamma"))
        EchoPair(cluster.os("beta"), "$echo", 0, 1)
        EchoPair(cluster.os("gamma"), "$echo", 0, 1)
        hop = cluster.latencies.network_hop

        def client(proc):
            replies = yield from cluster.fs("alpha").send_all(
                proc, [("\\beta.$echo", {"n": 1}), ("\\gamma.$echo", {"n": 2})],
                timeout=100.0,
            )
            return replies, cluster.env.now

        replies, now = run_client(cluster, "alpha", client)
        assert replies == [{"n": 1}, {"n": 2}]
        assert now == 2 * hop                   # one round trip, not two

    def test_one_destination_costs_what_send_costs(self):
        cluster = make_cluster()
        EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        EchoPair(cluster.os("alpha"), "$other", 0, 1)
        env = cluster.env
        fs = cluster.fs("alpha")

        def client(proc):
            def posted(requests):
                with fs.post_all(proc, requests, timeout=100.0) as fan:
                    yield from fan.join()

            one, two = [("$echo", {"n": 1})], [("$echo", {"n": 1}), ("$other", {"n": 2})]
            costs = []
            for send in (
                lambda: fs.send(proc, "$echo", {"n": 1}, timeout=100.0),
                lambda: fs.send_all(proc, one, timeout=100.0),
                lambda: posted(one),
                lambda: fs.send_all(proc, two, timeout=100.0),
                lambda: posted(two),
            ):
                before = env.events_processed
                yield from send()
                costs.append(env.events_processed - before)
            return costs

        # Two events per request, and no join event.
        assert run_client(cluster, "alpha", client, cpu=2) == [2, 2, 2, 4, 4]

    def test_a_dead_primary_is_retried_under_its_message_id(self):
        cluster = make_cluster()
        dying = EchoPair(cluster.os("alpha"), "$dying", 0, 1)
        steady = EchoPair(cluster.os("alpha"), "$steady", 2, 3)

        def fail_primary():
            yield cluster.env.timeout(5.0)
            cluster.node("alpha").fail_cpu(0)

        cluster.env.process(fail_primary())

        def client(proc):
            replies = yield from cluster.fs("alpha").send_all(
                proc, [("$dying", {"wait": 10.0}), ("$steady", {"wait": 1.0})]
            )
            return replies

        assert run_client(cluster, "alpha", client, cpu=2) == [
            {"wait": 10.0}, {"wait": 1.0},
        ]
        assert dying.takeovers == 1
        served = [entry[1] for entry in dying.log if entry[0] == "serve"]
        assert len(served) == 2 and served[0] == served[1]
        assert [entry[0] for entry in steady.log] == ["start", "serve"]

    def test_a_path_down_fills_only_its_own_slot(self):
        cluster = make_cluster(nodes=("alpha", "beta", "gamma"))
        EchoPair(cluster.os("beta"), "$echo", 0, 1)
        EchoPair(cluster.os("gamma"), "$echo", 0, 1)
        cluster.network.partition(["alpha", "beta"], ["gamma"])

        def client(proc):
            replies = yield from cluster.fs("alpha").send_all(
                proc, [("\\gamma.$echo", {"n": 1}), ("\\beta.$echo", {"n": 2})]
            )
            return replies

        down, reply = run_client(cluster, "alpha", client)
        assert isinstance(down, FileSystemError)
        assert isinstance(down.cause, PathDown)
        assert down.destination == "\\gamma.$echo"
        assert reply == {"n": 2}

    @pytest.mark.parametrize("joined", [True, False])
    def test_killed_requester_leaves_undelivered_requests_undelivered(self, joined):
        cluster = make_cluster(nodes=("alpha", "beta"))
        near = EchoPair(cluster.os("alpha"), "$echo", 0, 1)
        far = EchoPair(cluster.os("beta"), "$echo", 0, 1)
        hop = cluster.latencies.network_hop

        def client(proc):
            with cluster.fs("alpha").post_all(
                proc, [("$echo", {"n": 1}), ("\\beta.$echo", {"n": 2})]
            ) as fan:
                if not joined:
                    yield cluster.env.timeout(hop)    # other work first
                yield from fan.join()

        cluster.os("alpha").spawn("$client", 2, client, register=False)

        def fail_client_cpu():
            yield cluster.env.timeout(hop / 2)
            cluster.node("alpha").fail_cpu(2)

        cluster.env.process(fail_client_cpu())
        cluster.run()
        assert [entry[0] for entry in near.log] == ["start", "serve"]
        assert far.log == [("start", 0)]
