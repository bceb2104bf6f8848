"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    Channel,
    ChannelClosed,
    Environment,
    Event,
    ProcessKilled,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5)
        assert env.now == 5
        yield env.timeout(2.5)
        return env.now

    p = env.process(proc())
    assert env.run(p) == 7.5
    assert env.now == 7.5


def test_timeouts_fire_in_order():
    env = Environment()
    fired = []

    def waiter(delay, tag):
        yield env.timeout(delay)
        fired.append(tag)

    env.process(waiter(3, "c"))
    env.process(waiter(1, "a"))
    env.process(waiter(2, "b"))
    env.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    fired = []

    def waiter(tag):
        yield env.timeout(1)
        fired.append(tag)

    for tag in range(5):
        env.process(waiter(tag))
    env.run()
    assert fired == [0, 1, 2, 3, 4]


def test_process_return_value():
    env = Environment()

    def inner():
        yield env.timeout(1)
        return 42

    def outer():
        value = yield env.process(inner())
        return value + 1

    assert env.run(env.process(outer())) == 43


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def failing():
        yield env.timeout(1)
        raise ValueError("boom")

    def waiter():
        try:
            yield env.process(failing())
        except ValueError as exc:
            return str(exc)

    assert env.run(env.process(waiter())) == "boom"


def test_unhandled_process_failure_raises_from_run():
    env = Environment()

    def failing():
        yield env.timeout(1)
        raise ValueError("unseen")

    env.process(failing())
    with pytest.raises(ValueError):
        env.run()


def test_run_until_time():
    env = Environment()
    log = []

    def ticker():
        while True:
            yield env.timeout(10)
            log.append(env.now)

    env.process(ticker())
    env.run(until=35)
    assert log == [10, 20, 30]
    assert env.now == 35


def test_run_until_past_raises():
    env = Environment()
    env.run(until=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_yield_already_triggered_event_resumes():
    env = Environment()
    ev = env.event()
    ev.succeed("early")

    def proc():
        value = yield ev
        return value

    # Let the event be processed before the process yields it.
    env.run(until=0)
    assert env.run(env.process(proc())) == "early"


def test_kill_terminates_silently():
    env = Environment()
    progressed = []

    def victim():
        yield env.timeout(10)
        progressed.append("too far")

    p = env.process(victim())

    def killer():
        yield env.timeout(1)
        p.kill("crash")

    env.process(killer())
    env.run()
    assert progressed == []
    assert not p.is_alive
    assert isinstance(p.value, ProcessKilled)


def test_waiting_on_killed_process_raises_processkilled():
    env = Environment()

    def victim():
        yield env.timeout(10)

    p = env.process(victim())

    def watcher():
        try:
            yield p
        except ProcessKilled as exc:
            return ("killed", exc.reason)

    w = env.process(watcher())

    def killer():
        yield env.timeout(1)
        p.kill("cpu down")

    env.process(killer())
    assert env.run(w) == ("killed", "cpu down")


def test_yield_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    p = env.process(bad())
    with pytest.raises(SimulationError):
        env.run(p)


def test_run_on_empty_schedule():
    env = Environment()
    assert env.run() is None
    assert env.now == 0
    env.run(until=5.0)
    assert env.now == 5.0
    with pytest.raises(SimulationError, match="ran out of events"):
        env.run(env.event())


def test_reserved_seq_keeps_the_tie_order():
    # An event queued later under a reserved number pops exactly where a
    # timeout created at reservation time would have.
    env = Environment()
    order = []

    def mark(name):
        return lambda _event: order.append((env.now, name))

    env.timeout(5.0).callbacks.append(mark("before"))
    seq = env.reserve_seq()
    env.timeout(5.0).callbacks.append(mark("after"))
    env.timeout(1.0).callbacks.append(mark("early"))

    def late_push(_event):
        reserved = env.event()
        reserved._ok = True
        reserved._value = None
        reserved.callbacks.append(mark("reserved"))
        env.schedule_at(reserved, 5.0, seq)

    env.timeout(2.0).callbacks.append(late_push)
    env.run()
    assert order == [
        (1.0, "early"), (5.0, "before"), (5.0, "reserved"), (5.0, "after"),
    ]


class TestChannel:
    def test_put_then_get(self):
        env = Environment()
        ch = Channel(env)

        def proc():
            ch.put("x")
            value = yield ch.get()
            return value

        assert env.run(env.process(proc())) == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        ch = Channel(env)

        def getter():
            value = yield ch.get()
            return (env.now, value)

        def putter():
            yield env.timeout(7)
            ch.put("late")

        g = env.process(getter())
        env.process(putter())
        assert env.run(g) == (7, "late")

    def test_fifo_ordering(self):
        env = Environment()
        ch = Channel(env)
        got = []

        def getter(tag):
            value = yield ch.get()
            got.append((tag, value))

        env.process(getter("g1"))
        env.process(getter("g2"))

        def putter():
            yield env.timeout(1)
            ch.put("first")
            ch.put("second")

        env.process(putter())
        env.run()
        assert got == [("g1", "first"), ("g2", "second")]

    def test_close_fails_getters(self):
        env = Environment()
        ch = Channel(env)

        def getter():
            try:
                yield ch.get()
            except ChannelClosed:
                return "closed"

        g = env.process(getter())

        def closer():
            yield env.timeout(1)
            ch.close("owner died")

        env.process(closer())
        assert env.run(g) == "closed"
        assert ch.put("ignored") is False
