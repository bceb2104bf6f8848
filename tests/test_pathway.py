"""Pathway-style application control: dynamic server creation/deletion.

"[ENCOMPASS application control] provides for the dynamic creation and
deletion of application server processes to ensure good response time
and utilization of resources as the workload on the system changes."
(paper, §Transaction Flow and Application Control)
"""

import pytest

from repro.encompass import ServerClass, SystemBuilder
from repro.guardian import Cluster, ProcessDied


def build_slow_class(seed=61, service_ms=150.0, instances=1, max_instances=6,
                     monitor_interval=40.0):
    builder = SystemBuilder(seed=seed, keep_trace=False)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data")

    def slow_server(ctx, request):
        yield from ctx.pause(service_ms)
        return {"ok": True, "n": request.get("n")}

    server_class = builder.add_server_class(
        "alpha", "$slow", slow_server, instances=instances,
        max_instances=max_instances,
    )
    monitor = builder.add_pathway_monitor("alpha", interval=monitor_interval)
    system = builder.build()
    return system, server_class, monitor


def flood(system, server_class, count, spacing=1.0):
    node_os = system.cluster.os("alpha")
    cpu_numbers = node_os.alive_cpu_numbers()
    procs = []
    for i in range(count):
        def one(proc, idx=i):
            yield system.env.timeout(idx * spacing)
            target = server_class.pick_instance()
            reply = yield from system.cluster.fs("alpha").send(
                proc, target, {"n": idx}, timeout=120_000
            )
            return reply

        cpu = cpu_numbers[i % len(cpu_numbers)]
        procs.append(system.spawn("alpha", f"$f{i}", one, cpu=cpu))
    for proc in procs:
        system.cluster.run(proc.sim_process)


class TestPathwayDynamics:
    def test_grow_under_backlog(self):
        system, server_class, monitor = build_slow_class()
        flood(system, server_class, 24)
        assert monitor.grows >= 1
        assert len(server_class.live_instances()) > 1

    def test_shrink_when_idle(self):
        system, server_class, monitor = build_slow_class()
        flood(system, server_class, 24)
        grown_to = len(server_class.live_instances())
        assert grown_to > 1
        # Idle for a long stretch: the monitor retires surplus servers.
        idle = system.spawn(
            "alpha", "$idle", lambda p: (yield system.env.timeout(10_000)), cpu=0
        )
        system.cluster.run(idle.sim_process)
        assert monitor.shrinks >= 1
        assert len(server_class.live_instances()) < grown_to
        assert len(server_class.live_instances()) >= 1

    def test_max_instances_respected(self):
        system, server_class, monitor = build_slow_class(max_instances=2)
        flood(system, server_class, 30)
        assert len(server_class.live_instances()) <= 2

    def test_refusal_at_max_instances_is_counted(self):
        system, server_class, monitor = build_slow_class(max_instances=2)
        with system.env.probe.capture("server_grow_refused") as refusals:
            flood(system, server_class, 30)
        assert monitor.grows == 1
        assert monitor.refusals["max_instances"] >= 1
        assert system.env.probe.counts["server_grow_refused"] == len(refusals)
        assert len(refusals) == sum(monitor.refusals.values())
        assert {(r.server_class, r.reason) for r in refusals} == {
            ("$slow", "max_instances")
        }

    def test_instance_death_tolerated(self):
        """A server instance dying (its CPU fails) drops out of routing;
        the class keeps serving from survivors."""
        system, server_class, monitor = build_slow_class(instances=3)
        victims = [p for p in server_class.live_instances() if p.cpu.number == 1]
        system.cluster.node("alpha").fail_cpu(1)
        assert all(not v.alive for v in victims)
        live = server_class.live_instances()
        assert live, "survivors keep the class available"
        flood(system, server_class, 5)
        assert server_class.requests_served >= 5

    def test_grows_after_an_instance_died(self):
        """A new instance never takes the number of a live one, so the
        class can still grow after a lower-numbered instance died."""
        system, server_class, monitor = build_slow_class(instances=3)
        first = server_class.live_instances()[0]
        system.cluster.node("alpha").fail_cpu(first.cpu.number)
        assert [p.name for p in server_class.live_instances()] == [
            "$slow-2", "$slow-3"
        ]
        flood(system, server_class, 24)
        assert monitor.grows >= 1
        names = [p.name for p in server_class.live_instances()]
        assert len(names) > 2
        assert len(set(names)) == len(names)

    def test_served_counter(self):
        system, server_class, monitor = build_slow_class(instances=2)
        flood(system, server_class, 10)
        assert server_class.requests_served == 10


def echo_class():
    """A bare one-instance server class whose handler waits
    ``payload["wait"]`` ms."""
    cluster = Cluster(seed=1)
    cluster.add_node("alpha", cpu_count=4)
    log = []

    def handler(ctx, payload):
        log.append(("start", payload["n"], cluster.env.now))
        if payload.get("wait"):
            yield from ctx.pause(payload["wait"])
        log.append(("end", payload["n"], cluster.env.now))
        return {"n": payload["n"]}

    server_class = ServerClass(
        cluster.os("alpha"), "$echo", handler, client=None, cpus=[1],
    )
    cluster.run(until=1.0)  # the instance parks in receive()
    return cluster, server_class, log


def send(cluster, server_class, payload, delay=0.0):
    """Spawn a requester sending ``payload`` to the class's first instance."""
    instance = server_class.live_instances()[0].name

    def body(proc):
        if delay:
            yield cluster.env.timeout(delay)
        before = cluster.env.events_processed
        try:
            reply = yield from proc.request("alpha", instance, payload)
        except ProcessDied:
            return "died", cluster.env.events_processed - before
        return reply, cluster.env.events_processed - before

    return cluster.os("alpha").spawn(f"$c{payload['n']}", 0, body, register=False)


class TestServerClassDispatch:
    """A SEND to a parked instance runs its handler in the delivering
    step; a busy instance queues requests in its inbox."""

    def test_send_to_an_idle_instance_costs_transit_and_reply(self):
        cluster, server_class, log = echo_class()
        requester = send(cluster, server_class, {"n": 1})
        reply, events = cluster.run(requester.sim_process)
        assert reply == {"n": 1}
        # The transit timer (delivery plus the handler) and the reply.
        assert events == 2
        assert server_class.requests_served == 1

    def test_busy_instance_serves_one_request_at_a_time_in_fifo_order(self):
        cluster, server_class, log = echo_class()
        first = send(cluster, server_class, {"n": 1, "wait": 10.0})
        second = send(cluster, server_class, {"n": 2, "wait": 10.0}, delay=1.0)
        depths = []

        def observe():
            yield cluster.env.timeout(5.0)
            depths.append(server_class.queue_depth())

        cluster.env.process(observe())
        cluster.run(second.sim_process)
        assert first.sim_process.value[0] == {"n": 1}
        assert second.sim_process.value[0] == {"n": 2}
        assert depths == [1]
        assert [(kind, n) for kind, n, _ in log] == [
            ("start", 1), ("end", 1), ("start", 2), ("end", 2)
        ]
        assert log[2][2] == log[1][2]  # the second starts as the first ends

    def test_killed_instance_fails_the_requester_with_process_died(self):
        cluster, server_class, log = echo_class()
        requester = send(cluster, server_class, {"n": 1, "wait": 10.0})
        instance = server_class.live_instances()[0]

        def kill_later():
            yield cluster.env.timeout(5.0)
            instance.kill("test")

        cluster.env.process(kill_later())
        outcome, _events = cluster.run(requester.sim_process)
        assert outcome == "died"
        assert log == [("start", 1, log[0][2])]
        assert server_class.requests_served == 0
