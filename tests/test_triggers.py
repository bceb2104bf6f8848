"""``conftest.Trigger``, the tests' one way to wait for a simulated
state, and the check that no test polls the clock for one instead."""

import ast
from pathlib import Path

import pytest

from repro.sim import Environment

from conftest import DEADLINE_MS, Trigger


def emitter(env, log):
    """Emit ``tick`` n=1 at 1 ms and n=2 at 2 ms, then end at 5 ms."""
    for n in (1, 2):
        yield env.timeout(1.0)
        env.probe.emit("tick", n=n, parity="odd")
        log.append(("emitted", n))
    yield env.timeout(3.0)


def test_fires_once_inside_the_emitting_step_and_wakes_its_waiter():
    env, log = Environment(), []
    trigger = Trigger(env, "tick", parity="odd",
                      action=lambda record: log.append(("action", record.n)))

    def waiter():
        record = yield trigger
        log.append(("woken", record.n, env.now))

    env.process(emitter(env, log))
    env.process(waiter())
    env.run(until=1.5)
    assert log == [("action", 1), ("emitted", 1), ("woken", 1, 1.0)]
    assert trigger.triggered and not env.probe.listening
    env.run()
    assert log[3:] == [("emitted", 2)]


def test_leaves_no_engine_event_behind():
    ends = []
    for armed in (False, True):
        env = Environment()
        if armed:
            trigger = Trigger(env, "tick", n=2)
        env.process(emitter(env, []))
        env.run()
        # The fired trigger is itself one processed event.
        ends.append((env.now, env.events_processed - armed))
    assert trigger.triggered and ends[0] == ends[1] == (5.0, 4)


def test_a_trigger_that_never_fires_fails_at_its_deadline():
    env = Environment()

    def tick_three(record):
        return record.n == 3

    Trigger(env, "tick", parity="odd", when=tick_three)
    env.process(emitter(env, []))
    with pytest.raises(AssertionError) as failure:
        env.run()
    assert str(failure.value) == (
        "trigger never fired: no tick record with {'parity': 'odd'} "
        "where tick_three by 10000.0 ms"
    )
    assert env.now == DEADLINE_MS and not env.probe.listening


def clock_polls(source):
    """Line numbers of ``while <condition>:`` loops that only yield a
    ``.timeout(...)``."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.While)
        and not isinstance(node.test, ast.Constant)
        and len(node.body) == 1
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Yield)
        and isinstance(node.body[0].value.value, ast.Call)
        and isinstance(node.body[0].value.value.func, ast.Attribute)
        and node.body[0].value.value.func.attr == "timeout"
    ]


def test_no_test_polls_the_clock_for_a_state():
    polls = [
        f"{path.name}:{line}"
        for path in sorted(Path(__file__).parent.glob("*.py"))
        for line in clock_polls(path.read_text())
    ]
    assert polls == [], "wait on a conftest.Trigger instead: " + ", ".join(polls)
