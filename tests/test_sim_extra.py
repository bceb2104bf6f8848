"""Additional kernel, RNG, and probe coverage."""

import pytest

from repro.sim import (
    Channel,
    Environment,
    Event,
    Process,
    ProcessKilled,
    RandomStreams,
    SimulationError,
    zipf_weights,
)


class TestRandomStreams:
    def test_streams_are_independent(self):
        streams = RandomStreams(seed=1)
        a1 = [streams["arrivals"].random() for _ in range(5)]
        streams2 = RandomStreams(seed=1)
        # Draw from another stream first: 'arrivals' must be unaffected.
        [streams2["failures"].random() for _ in range(100)]
        a2 = [streams2["arrivals"].random() for _ in range(5)]
        assert a1 == a2

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1)["x"].random()
        b = RandomStreams(seed=2)["x"].random()
        assert a != b

    def test_same_name_same_stream_object(self):
        streams = RandomStreams(seed=0)
        assert streams["s"] is streams["s"]


def _emit_at(env, time, kind, **fields):
    """Advance ``env`` to ``time`` and emit there."""
    env.run(until=time)
    env.probe.emit(kind, **fields)


class TestTracer:
    """The probe's tracing side: counts, kept records, subscribers."""

    def test_counters_without_records(self):
        env = Environment()
        probe = env.probe
        probe.keep_records = False
        _emit_at(env, 1.0, "tick", n=1)
        _emit_at(env, 2.0, "tick", n=2)
        probe.count("tick.extra", 3)
        assert probe.counts == {"tick": 2, "tick.extra": 3}
        assert probe.records == []

    def test_recording_predicate(self):
        env = Environment()
        probe = env.probe
        assert probe.recording
        probe.keep_records = False
        assert not probe.recording

        def listener(record):
            pass

        probe.subscribe(listener)
        assert probe.recording
        probe.unsubscribe(listener)
        assert not probe.recording

    def test_select_filters_fields(self):
        env = Environment()
        _emit_at(env, 1.0, "msg", node="a")
        _emit_at(env, 2.0, "msg", node="b")
        _emit_at(env, 3.0, "other", node="a")
        assert [r.time for r in env.probe.select("msg", node="a")] == [1.0]

    def test_subscription(self):
        env = Environment()
        seen = []
        env.probe.subscribe(lambda record: seen.append(record.kind))
        _emit_at(env, 1.0, "x")
        _emit_at(env, 2.0, "y")
        assert seen == ["x", "y"]

    def test_unsubscribing_inside_a_callback_skips_no_one(self):
        env = Environment()
        seen = []

        def once(record):
            seen.append(("a", record.kind))
            env.probe.unsubscribe(once)

        env.probe.subscribe(once)
        env.probe.subscribe(lambda record: seen.append(("b", record.kind)))
        _emit_at(env, 1.0, "x")
        _emit_at(env, 2.0, "y")
        assert seen == [("a", "x"), ("b", "x"), ("b", "y")]

    def test_record_attribute_access(self):
        env = Environment()
        _emit_at(env, 1.0, "k", value=42)
        record = env.probe.records[0]
        assert record.value == 42 and record.time == 1.0
        with pytest.raises(AttributeError):
            record.missing

    def test_clear(self):
        env = Environment()
        _emit_at(env, 1.0, "x")
        env.probe.clear()
        assert env.probe.counts == {} and env.probe.records == []


class TestKernelEdges:
    def test_owned_process_leaves_its_owners_when_it_ends(self):
        env = Environment()
        owners = set()

        def quick():
            return
            yield  # pragma: no cover - generator marker

        def slow():
            yield env.timeout(5.0)

        inline = Process(env, quick(), inline=True, owners=owners)
        assert not inline.is_alive and owners == set()
        finishing = Process(env, slow(), owners=owners)
        killed = Process(env, slow(), owners=owners)
        assert owners == {finishing, killed}
        env.run(until=1.0)
        killed.kill("test")
        assert owners == {finishing}
        env.run()
        assert owners == set()

    def test_parked_getter_resumes_inside_put(self):
        env = Environment()
        channel = Channel(env)
        got = []

        def getter():
            got.append((yield channel.get()))

        env.process(getter())
        env.run()
        before = env.events_processed
        channel.put("item")
        # Resumed in the putter's step: no engine event was needed.
        assert got == ["item"]
        assert env.events_processed == before

    def test_self_kill_via_cpu_failure_is_safe(self):
        """A process triggering a failure that kills itself dies at its
        next yield instead of crashing the kernel."""
        from repro.guardian import Cluster

        cluster = Cluster(seed=1)
        cluster.add_node("alpha", cpu_count=2)
        progressed = []

        def suicidal(proc):
            yield cluster.env.timeout(1)
            cluster.node("alpha").fail_cpu(proc.cpu.number)
            progressed.append("returned from fail()")
            yield cluster.env.timeout(1)
            progressed.append("should never run")

        proc = cluster.os("alpha").spawn("$s", 0, suicidal, register=False)
        cluster.run(until=100)
        assert progressed == ["returned from fail()"]
        assert isinstance(proc.sim_process.value, ProcessKilled)

    def test_event_cannot_trigger_twice(self):
        env = Environment()
        event = Event(env)
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)
        with pytest.raises(SimulationError):
            event.fail(RuntimeError())

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Event(env).fail("not an exception")

    def test_nested_process_chain_value(self):
        env = Environment()

        def level(n):
            if n == 0:
                yield env.timeout(1)
                return 0
            value = yield env.process(level(n - 1))
            return value + 1

        assert env.run(env.process(level(5))) == 5
        assert env.now == 1  # only the innermost waited
