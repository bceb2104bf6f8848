"""Pathway-style application control: dynamic server creation/deletion.

"[ENCOMPASS application control] provides for the dynamic creation and
deletion of application server processes to ensure good response time
and utilization of resources as the workload on the system changes."
(paper, §Transaction Flow and Application Control)
"""

import pytest

from repro.encompass import SystemBuilder


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
