"""Unit tests for the simulated hardware layer."""

import pytest

from repro.sim import Environment
from repro.hardware import (
    ComponentDown,
    Latencies,
    Network,
    NoRoute,
    Node,
    VolumeUnavailable,
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def node(env):
    node = Node(env, "alpha", cpu_count=4)
    node.add_volume("$data", cpu_a=0, cpu_b=1)
    return node


class TestComponent:
    def test_fail_and_restore(self, env):
        node = Node(env, "n", cpu_count=2)
        cpu = node.cpu(0)
        seen = []
        cpu.watch_failure(lambda c: seen.append(("fail", c.name)))
        cpu.watch_restore(lambda c: seen.append(("restore", c.name)))
        cpu.fail()
        cpu.fail()  # idempotent
        cpu.restore()
        cpu.restore()  # idempotent
        assert seen == [("fail", "n.cpu0"), ("restore", "n.cpu0")]

    def test_check_up_raises_when_down(self, env):
        node = Node(env, "n", cpu_count=2)
        cpu = node.cpu(1)
        cpu.fail()
        with pytest.raises(ComponentDown):
            cpu.check_up()

    def test_failure_traced(self):
        env = Environment()
        node = Node(env, "n", cpu_count=2)
        node.cpu(0).fail(reason="test")
        records = env.probe.select("component_failed")
        assert any(r.component == "cpu:n.cpu0" for r in records)


class TestCpu:
    def test_channel_fate_shares_with_cpu(self, node):
        cpu = node.cpu(0)
        assert cpu.channel.up
        cpu.fail()
        assert cpu.channel.down
        cpu.restore()
        assert cpu.channel.up

    def test_cpu_count_bounds(self, env):
        with pytest.raises(ValueError):
            Node(env, "tiny", cpu_count=1)
        with pytest.raises(ValueError):
            Node(env, "huge", cpu_count=17)
        assert len(Node(env, "max", cpu_count=16).cpus) == 16


class TestBusPair:
    def test_single_bus_failure_is_survivable(self, node):
        assert node.buses.available() is node.buses.x
        node.buses.x.fail()
        assert node.buses.available() is node.buses.y
        assert node.buses.any_up

    def test_double_bus_failure_kills_node(self, node):
        node.buses.x.fail()
        node.buses.y.fail()
        assert node.buses.available() is None
        assert not node.alive


class TestVolume:
    def test_two_paths_from_each_serving_cpu(self, node):
        volume = node.volumes["$data"]
        assert volume.paths_from(node.cpu(0)) == 2
        assert volume.paths_from(node.cpu(1)) == 2
        assert volume.paths_from(node.cpu(2)) == 0

    def test_single_controller_failure_keeps_access(self, node):
        volume = node.volumes["$data"]
        volume.controllers[0].fail()
        assert volume.accessible_from(node.cpu(0))
        assert volume.paths_from(node.cpu(0)) == 1

    def test_mirror_write_goes_to_both_drives(self, node):
        volume = node.volumes["$data"]
        volume.write_block("b1", ("image",))
        assert all(d.blocks["b1"] == ("image",) for d in volume.drives)

    def test_single_drive_failure_keeps_data(self, node):
        volume = node.volumes["$data"]
        volume.write_block("b1", "v1")
        volume.drives[0].fail()
        assert volume.read_block("b1") == "v1"
        volume.write_block("b2", "v2")
        assert volume.read_block("b2") == "v2"

    def test_double_drive_failure_loses_volume(self, node):
        volume = node.volumes["$data"]
        volume.write_block("b1", "v1")
        for drive in volume.drives:
            drive.fail()
        with pytest.raises(VolumeUnavailable):
            volume.read_block("b1")

    def test_restored_drive_is_stale_until_revived(self, node):
        volume = node.volumes["$data"]
        volume.write_block("b1", "v1")
        volume.drives[0].fail()
        volume.write_block("b2", "v2")
        volume.drives[0].restore()
        assert not volume.drives[0].serviceable
        copied = volume.revive()
        assert copied == 2
        assert volume.drives[0].blocks == volume.drives[1].blocks

    def test_revive_without_mirror_fails(self, node):
        volume = node.volumes["$data"]
        volume.write_block("b1", "v1")
        for drive in volume.drives:
            drive.fail()
        volume.drives[0].restore()
        with pytest.raises(VolumeUnavailable):
            volume.revive()

    def test_data_survives_total_cpu_failure(self, node):
        volume = node.volumes["$data"]
        volume.write_block("b1", "v1")
        node.total_failure()
        # Inaccessible (no CPU), but the bits are still on the platters.
        assert not volume.accessible_from(node.cpu(0))
        node.restore_all_cpus()
        assert volume.read_block("b1") == "v1"

    def test_cpu_failure_blocks_access_from_that_cpu_only(self, node):
        volume = node.volumes["$data"]
        node.fail_cpu(0)
        assert not volume.accessible_from(node.cpu(0))
        assert volume.accessible_from(node.cpu(1))

    def test_duplicate_volume_name_rejected(self, node):
        with pytest.raises(ValueError):
            node.add_volume("$data", cpu_a=2, cpu_b=3)

    def test_volume_needs_two_distinct_cpus(self, node):
        with pytest.raises(ValueError):
            node.add_volume("$other", cpu_a=1, cpu_b=1)


class TestFigure1PathProperty:
    """Figure 1: at least two paths connect any two components."""

    def test_every_volume_has_two_cpu_paths(self, env):
        node = Node(env, "f1", cpu_count=4)
        for i, pair in enumerate([(0, 1), (1, 2), (2, 3)]):
            node.add_volume(f"$v{i}", *pair)
        for volume in node.volumes.values():
            serving = [cpu for cpu in node.cpus if volume.accessible_from(cpu)]
            assert len(serving) == 2
            for cpu in serving:
                assert volume.paths_from(cpu) >= 2

    def test_no_single_failure_disables_any_volume(self, env):
        node = Node(env, "f1", cpu_count=4)
        node.add_volume("$v", 0, 1)
        volume = node.volumes["$v"]
        for component in node.components():
            component.fail(reason="sweep")
            still_served = any(volume.accessible_from(cpu) for cpu in node.cpus)
            assert still_served, f"single failure of {component.full_name} lost $v"
            component.restore()
            if component.kind == "drive":
                volume.revive()


class TestNetwork:
    def _net(self, env, names, mesh=True):
        net = Network(env)
        for name in names:
            net.add_node(Node(env, name, cpu_count=2))
        if mesh:
            net.connect_all()
        return net

    def test_direct_route(self, env):
        net = self._net(env, ["a", "b", "c"])
        assert len(net.route("a", "b")) == 1
        assert net.connected("a", "b")

    def test_reroute_on_line_failure(self, env):
        net = self._net(env, ["a", "b", "c"])
        direct = net.lines_between(["a"], ["b"])[0]
        direct.fail()
        path = net.route("a", "b")
        assert len(path) == 2  # a-c, c-b
        assert net.latency("a", "b") == pytest.approx(2 * net.latencies.network_hop)

    def test_partition_and_heal(self, env):
        net = self._net(env, ["a", "b", "c", "d"])
        net.partition(["a", "b"], ["c", "d"])
        assert net.connected("a", "b")
        assert not net.connected("a", "c")
        net.heal()
        assert net.connected("a", "c")

    def test_isolate_node(self, env):
        net = self._net(env, ["a", "b", "c"])
        net.isolate("c")
        assert not net.connected("a", "c")
        assert net.connected("a", "b")

    def test_dead_node_is_unreachable(self, env):
        net = self._net(env, ["a", "b"])
        for cpu in net.nodes["b"].cpus:
            cpu.fail()
        with pytest.raises(NoRoute):
            net.route("a", "b")

    def test_route_to_self_is_empty(self, env):
        net = self._net(env, ["a", "b"])
        assert net.route("a", "a") == []

    def test_best_path_prefers_fewer_hops(self, env):
        net = Network(env)
        for name in ["a", "b", "c"]:
            net.add_node(Node(env, name, cpu_count=2))
        net.connect("a", "b", latency=100.0)  # slow direct line
        net.connect("a", "c", latency=1.0)
        net.connect("c", "b", latency=1.0)
        # Fewest hops wins even though two cheap hops are lower latency.
        assert len(net.route("a", "b")) == 1

    def test_latency_scaling(self):
        base = Latencies()
        doubled = base.scaled(2.0)
        assert doubled.disc_read == base.disc_read * 2
        assert doubled.bus_message == base.bus_message * 2


class TestRouteCache:
    """Routes are cached per (source, destination) and per topology."""

    def _net(self, env, names):
        net = Network(env)
        for name in names:
            net.add_node(Node(env, name, cpu_count=2))
        net.connect_all()
        return net

    def test_line_failure_reroutes_a_cached_route(self, env):
        net = self._net(env, ["a", "b", "c"])
        direct = net.lines_between(["a"], ["b"])[0]
        assert net.route("a", "b") == [direct]
        direct.fail()
        assert len(net.route("a", "b")) == 2
        assert net.latency("a", "b") == pytest.approx(2 * net.latencies.network_hop)

    def test_partition_raises_no_route(self, env):
        net = self._net(env, ["a", "b", "c"])
        assert net.connected("a", "c")
        net.partition(["a", "b"], ["c"])
        with pytest.raises(NoRoute):
            net.route("a", "c")
        with pytest.raises(NoRoute):
            net.latency("a", "c")
        assert net.connected("a", "b")

    def test_heal_restores_the_direct_path(self, env):
        net = self._net(env, ["a", "b", "c"])
        direct = net.lines_between(["a"], ["b"])[0]
        direct.fail()
        assert len(net.route("a", "b")) == 2
        net.heal()
        assert net.route("a", "b") == [direct]
        assert net.latency("a", "b") == net.latencies.network_hop

    def test_failure_watchers_see_the_new_topology(self, env):
        # A watcher may route before any other watcher runs (the OS's
        # CPU-failure watcher fails requests and replies go out), so the
        # cache must already be stale when the first watcher runs.
        net = self._net(env, ["a", "b", "c"])
        direct = net.lines_between(["a"], ["b"])[0]
        assert net.route("a", "b") == [direct]
        seen = []
        direct.watch_failure(lambda _line: seen.append(len(net.route("a", "b"))))
        direct.fail()
        assert seen == [2]

    def test_node_death_invalidates_the_cache(self, env):
        net = self._net(env, ["a", "b"])
        assert net.connected("a", "b")
        for cpu in net.nodes["b"].cpus:
            cpu.fail()
        assert not net.connected("a", "b")
        net.nodes["b"].cpus[0].restore()
        assert net.connected("a", "b")

    def test_returned_path_is_a_copy(self, env):
        net = self._net(env, ["a", "b"])
        net.route("a", "b").clear()
        assert len(net.route("a", "b")) == 1
