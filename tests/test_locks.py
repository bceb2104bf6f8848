"""Tests for the per-volume lock manager."""

import pytest

from repro.discprocess.locks import LockManager, LockTimeout
from repro.sim import Environment
from repro.simtest import deadlock_cycle


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def lm(env):
    return LockManager(env, name="$data")


def run(env, gen):
    return env.run(env.process(gen))


class TestBasicLocking:
    def test_grant_free_record_lock(self, env, lm):
        def proc():
            yield from lm.acquire_record("t1", "f", ("k",), timeout=100)
            return lm.holder_of_record("f", ("k",))

        assert run(env, proc()) == "t1"
        assert lm.grants == 1

    def test_reacquire_own_lock_is_noop_grant(self, env, lm):
        def proc():
            yield from lm.acquire_record("t1", "f", ("k",), timeout=100)
            yield from lm.acquire_record("t1", "f", ("k",), timeout=100)
            return True

        assert run(env, proc())
        assert lm.waits == 0

    def test_conflicting_lock_waits_until_release(self, env, lm):
        order = []

        def holder():
            yield from lm.acquire_record("t1", "f", ("k",), timeout=100)
            yield env.timeout(50)
            lm.release_all("t1")
            order.append(("released", env.now))

        def waiter():
            yield env.timeout(1)
            yield from lm.acquire_record("t2", "f", ("k",), timeout=200)
            order.append(("granted", env.now))

        env.process(holder())
        env.process(waiter())
        env.run()
        assert order == [("released", 50), ("granted", 50)]
        assert lm.holder_of_record("f", ("k",)) == "t2"

    def test_lock_timeout_raises(self, env, lm):
        outcome = []

        def holder():
            yield from lm.acquire_record("t1", "f", ("k",), timeout=10)
            yield env.timeout(1000)

        def waiter():
            yield env.timeout(1)
            try:
                yield from lm.acquire_record("t2", "f", ("k",), timeout=20)
            except LockTimeout as exc:
                outcome.append((env.now, exc.transid))

        env.process(holder())
        env.process(waiter())
        env.run(until=500)
        assert outcome == [(21, "t2")]
        assert lm.timeouts == 1

    def test_release_at_the_deadline_instant_grants_nothing(self, env, lm):
        # The deadline was queued before the release: the wait times out,
        # and the released lock must not go to the waiter that gave up.
        assert lm.try_acquire_record("T1", "f", 1)
        outcome = []

        def waiter():
            try:
                yield from lm.acquire_record("T2", "f", 1, timeout=10)
            except LockTimeout as exc:
                outcome.append((env.now, exc.transid))

        def releaser():
            yield env.timeout(10)
            lm.release_all("T1")

        env.process(waiter())
        env.process(releaser())
        env.run()
        assert outcome == [(10, "T2")]
        assert lm.holder_of_record("f", 1) is None
        assert lm.held_count() == 0

    def test_granted_wait_leaves_the_run_ending_at_its_last_event(self, env, lm):
        # The grant at 5 disarms the 10,000 ms deadline: its timer pops
        # as a tombstone, which moves no clock.
        def holder():
            yield from lm.acquire_record("t1", "f", ("k",), timeout=100)
            yield env.timeout(5)
            lm.release_all("t1")

        def waiter():
            yield from lm.acquire_record("t2", "f", ("k",), timeout=10_000)

        env.process(holder())
        env.process(waiter())
        env.run()
        assert lm.holder_of_record("f", ("k",)) == "t2"
        assert (env.now, env.horizon) == (5.0, 10_000.0)

    def test_fifo_grant_order(self, env, lm):
        granted = []

        def holder():
            yield from lm.acquire_record("t0", "f", ("k",), timeout=10)
            yield env.timeout(10)
            lm.release_all("t0")

        def waiter(tid, delay):
            yield env.timeout(delay)
            yield from lm.acquire_record(tid, "f", ("k",), timeout=500)
            granted.append(tid)
            yield env.timeout(5)
            lm.release_all(tid)

        env.process(holder())
        env.process(waiter("t1", 1))
        env.process(waiter("t2", 2))
        env.process(waiter("t3", 3))
        env.run()
        assert granted == ["t1", "t2", "t3"]

    def test_release_all_returns_count(self, env, lm):
        def proc():
            yield from lm.acquire_record("t1", "f", ("a",), timeout=10)
            yield from lm.acquire_record("t1", "f", ("b",), timeout=10)
            yield from lm.acquire_file("t1", "g", timeout=10)
            return lm.release_all("t1")

        assert run(env, proc()) == 3
        assert lm.held_count() == 0


class TestFileLocks:
    def test_file_lock_blocks_record_lock(self, env, lm):
        events = []

        def file_holder():
            yield from lm.acquire_file("t1", "f", timeout=10)
            yield env.timeout(30)
            lm.release_all("t1")

        def record_waiter():
            yield env.timeout(1)
            yield from lm.acquire_record("t2", "f", ("k",), timeout=100)
            events.append(env.now)

        env.process(file_holder())
        env.process(record_waiter())
        env.run()
        assert events == [30]

    def test_record_lock_blocks_file_lock(self, env, lm):
        events = []

        def record_holder():
            yield from lm.acquire_record("t1", "f", ("k",), timeout=10)
            yield env.timeout(30)
            lm.release_all("t1")

        def file_waiter():
            yield env.timeout(1)
            yield from lm.acquire_file("t2", "f", timeout=100)
            events.append(env.now)

        env.process(record_holder())
        env.process(file_waiter())
        env.run()
        assert events == [30]

    def test_own_record_locks_do_not_block_own_file_lock(self, env, lm):
        def proc():
            yield from lm.acquire_record("t1", "f", ("k",), timeout=10)
            yield from lm.acquire_file("t1", "f", timeout=10)
            return True

        assert run(env, proc())

    def test_file_locks_on_different_files_independent(self, env, lm):
        def proc():
            yield from lm.acquire_file("t1", "f", timeout=10)
            yield from lm.acquire_file("t2", "g", timeout=10)
            return (lm.holder_of_file("f"), lm.holder_of_file("g"))

        assert run(env, proc()) == ("t1", "t2")


class TestDeadlock:
    def _start_deadlock(self, env, lm, timeout_a=100, timeout_b=100):
        """t1 holds a, wants b; t2 holds b, wants a."""
        outcomes = []

        def tx(tid, first, second, timeout):
            yield from lm.acquire_record(tid, "f", first, timeout=10)
            yield env.timeout(5)
            try:
                yield from lm.acquire_record(tid, "f", second, timeout=timeout)
                outcomes.append((tid, "granted"))
            except LockTimeout:
                outcomes.append((tid, "timeout"))
                lm.release_all(tid)

        env.process(tx("t1", ("a",), ("b",), timeout_a))
        env.process(tx("t2", ("b",), ("a",), timeout_b))
        return outcomes

    def test_deadlock_resolved_by_timeout(self, env, lm):
        outcomes = self._start_deadlock(env, lm, timeout_a=20, timeout_b=200)
        env.run()
        # t1 times out first, releases, t2 then gets its lock.
        assert ("t1", "timeout") in outcomes
        assert ("t2", "granted") in outcomes

    def test_waits_for_graph_sees_cycle(self, env, lm):
        self._start_deadlock(env, lm)
        env.run(until=10)  # both are now waiting on each other
        cycle = deadlock_cycle(lm.waits_for_edges())
        assert cycle is not None
        assert set(cycle) == {"t1", "t2"}

    def test_no_cycle_when_simple_wait(self, env, lm):
        def holder():
            yield from lm.acquire_record("t1", "f", ("k",), timeout=10)
            yield env.timeout(100)

        def waiter():
            yield env.timeout(1)
            yield from lm.acquire_record("t2", "f", ("k",), timeout=300)

        env.process(holder())
        env.process(waiter())
        env.run(until=10)
        assert deadlock_cycle(lm.waits_for_edges()) is None
        assert lm.waits_for_edges() == [("t2", "t1")]

    def test_three_way_cycle_detected(self, env, lm):
        def tx(tid, first, second):
            yield from lm.acquire_record(tid, "f", first, timeout=10)
            yield env.timeout(5)
            try:
                yield from lm.acquire_record(tid, "f", second, timeout=1000)
            except LockTimeout:
                lm.release_all(tid)

        env.process(tx("t1", ("a",), ("b",)))
        env.process(tx("t2", ("b",), ("c",)))
        env.process(tx("t3", ("c",), ("a",)))
        env.run(until=20)
        cycle = deadlock_cycle(lm.waits_for_edges())
        assert cycle is not None
        assert set(cycle) == {"t1", "t2", "t3"}


class TestTryAcquire:
    def test_try_acquire_success_and_failure(self, env, lm):
        assert lm.try_acquire_record("t1", "f", ("k",))
        assert not lm.try_acquire_record("t2", "f", ("k",))
        assert lm.try_acquire_record("t1", "f", ("k",))  # own lock

    def test_zero_timeout_is_immediate_failure(self, env, lm):
        def proc():
            yield from lm.acquire_record("t1", "f", ("k",), timeout=10)
            try:
                yield from lm.acquire_record("t2", "f", ("k",), timeout=0)
            except LockTimeout:
                return "immediate"

        assert run(env, proc()) == "immediate"
