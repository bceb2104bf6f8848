"""Property-based tests of the lock manager against a reference model."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discprocess.locks import LockManager, LockTimeout
from repro.sim import Environment


# Operations: ('try', tx, key) | ('release', tx) over small domains.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("try"),
            st.integers(0, 4),      # transaction
            st.integers(0, 5),      # record key
        ),
        st.tuples(st.just("release"), st.integers(0, 4)),
        st.tuples(
            st.just("tryfile"),
            st.integers(0, 4),
            st.integers(0, 1),      # file index
        ),
    ),
    max_size=80,
)


class Model:
    """Reference semantics: exclusive record + file locks, no queues."""

    def __init__(self):
        self.record_owner = {}
        self.file_owner = {}

    def try_record(self, tx, file, key):
        fo = self.file_owner.get(file)
        if fo is not None and fo != tx:
            return False
        ro = self.record_owner.get((file, key))
        if ro is not None and ro != tx:
            return False
        self.record_owner[(file, key)] = tx
        return True

    def try_file(self, tx, file):
        fo = self.file_owner.get(file)
        if fo is not None and fo != tx:
            return False
        for (f, _k), owner in self.record_owner.items():
            if f == file and owner != tx:
                return False
        self.file_owner[file] = tx
        return True

    def release(self, tx):
        self.record_owner = {
            k: o for k, o in self.record_owner.items() if o != tx
        }
        self.file_owner = {
            f: o for f, o in self.file_owner.items() if o != tx
        }


def run_gen(env, gen):
    return env.run(env.process(gen))


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_lock_manager_matches_model(ops):
    env = Environment()
    lm = LockManager(env, "$t")
    model = Model()

    def body():
        for op in ops:
            if op[0] == "try":
                _tag, tx, key = op
                expected = model.try_record(tx, "f", key)
                # The real manager with timeout=0 either grants
                # immediately or raises LockTimeout.
                from repro.discprocess.locks import LockTimeout
                try:
                    yield from lm.acquire_record(tx, "f", key, timeout=0)
                    got = True
                except LockTimeout:
                    got = False
                assert got == expected, (op, ops)
            elif op[0] == "tryfile":
                _tag, tx, file_index = op
                file_name = f"file{file_index}"
                expected = model.try_file(tx, file_name)
                from repro.discprocess.locks import LockTimeout
                try:
                    yield from lm.acquire_file(tx, file_name, timeout=0)
                    got = True
                except LockTimeout:
                    got = False
                assert got == expected, (op, ops)
            else:
                _tag, tx = op
                model.release(tx)
                lm.release_all(tx)
        # Final ownership tables agree.
        for (file_name, key), owner in model.record_owner.items():
            assert lm.holder_of_record(file_name, key) == owner
        for file_name, owner in model.file_owner.items():
            assert lm.holder_of_file(file_name) == owner
        assert lm.held_count() == (
            len(model.record_owner) + len(model.file_owner)
        )

    run_gen(env, body())


@settings(max_examples=30, deadline=None)
@given(
    holders=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                     min_size=1, max_size=10),
)
def test_release_all_always_leaves_no_trace(holders):
    env = Environment()
    lm = LockManager(env, "$t")

    def body():
        for tx, key in holders:
            try:
                yield from lm.acquire_record(tx, "f", key, timeout=0)
            except LockTimeout:
                pass
        for tx in {tx for tx, _ in holders}:
            lm.release_all(tx)
        assert lm.held_count() == 0
        assert lm.waits_for_edges() == []

    run_gen(env, body())
