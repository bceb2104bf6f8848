"""Unit tests for the transaction state machine and its broadcaster."""

import pytest

from repro.core import (
    IllegalTransition,
    LEGAL_TRANSITIONS,
    StateBroadcaster,
    Transid,
    TransidGenerator,
    TxState,
)
from repro.hardware import Node
from repro.sim import Environment


@pytest.fixture
def node():
    return Node(Environment(), "alpha", cpu_count=4)


@pytest.fixture
def broadcaster(node):
    return StateBroadcaster(node)


T = Transid("alpha", 0, 1)


class TestTransids:
    def test_uniqueness_per_cpu(self):
        generator = TransidGenerator("alpha")
        ids = [generator.next(cpu) for cpu in (0, 0, 1, 1, 0)]
        assert len(set(ids)) == 5
        assert ids[0].sequence == 1 and ids[1].sequence == 2
        assert ids[2].cpu == 1 and ids[2].sequence == 1

    def test_network_form(self):
        assert str(Transid("beta", 3, 47)) == "\\beta.3.47"

    def test_ordering_and_hashing(self):
        a = Transid("alpha", 0, 1)
        b = Transid("alpha", 0, 2)
        assert a < b
        assert len({a, b, Transid("alpha", 0, 1)}) == 2

    def test_hash_is_the_field_tuple_hash(self):
        # Sets and dicts of transids iterate in hash order: the hash is
        # that of (home_node, cpu, sequence), so their order is stable.
        transid = Transid("alpha", 2, 9)
        assert hash(transid) == hash(("alpha", 2, 9))
        assert (transid.home_node, transid.cpu, transid.sequence) == ("alpha", 2, 9)
        assert sorted([Transid("b", 0, 1), Transid("a", 1, 1), Transid("a", 0, 2)]) == [
            Transid("a", 0, 2), Transid("a", 1, 1), Transid("b", 0, 1)
        ]


class TestLegalTransitions:
    def test_figure3_edge_set(self):
        assert set(LEGAL_TRANSITIONS[None]) == {TxState.ACTIVE}
        assert set(LEGAL_TRANSITIONS[TxState.ACTIVE]) == {
            TxState.ENDING, TxState.ABORTING,
        }
        assert set(LEGAL_TRANSITIONS[TxState.ENDING]) == {
            TxState.ENDED, TxState.ABORTING,
        }
        assert set(LEGAL_TRANSITIONS[TxState.ABORTING]) == {TxState.ABORTED}
        assert LEGAL_TRANSITIONS[TxState.ENDED] == ()
        assert LEGAL_TRANSITIONS[TxState.ABORTED] == ()


class TestBroadcaster:
    def test_broadcast_reaches_all_live_cpus(self, node, broadcaster):
        broadcaster.broadcast(T, TxState.ACTIVE)
        for cpu in node.cpus:
            assert broadcaster.tables[cpu.number][T] == TxState.ACTIVE

    def test_illegal_transition_rejected(self, broadcaster):
        broadcaster.broadcast(T, TxState.ACTIVE)
        with pytest.raises(IllegalTransition):
            broadcaster.broadcast(T, TxState.ENDED)
        with pytest.raises(IllegalTransition):
            broadcaster.broadcast(T, TxState.ABORTED)

    def test_double_begin_rejected(self, broadcaster):
        broadcaster.broadcast(T, TxState.ACTIVE)
        with pytest.raises(IllegalTransition):
            broadcaster.broadcast(T, TxState.ACTIVE)

    def test_terminal_states_remove_transid(self, broadcaster, node):
        broadcaster.broadcast(T, TxState.ACTIVE)
        broadcaster.broadcast(T, TxState.ENDING)
        broadcaster.broadcast(T, TxState.ENDED)
        assert broadcaster.current_state(T) is None
        for cpu in node.cpus:
            assert T not in broadcaster.tables[cpu.number]

    def test_abort_path(self, broadcaster):
        broadcaster.broadcast(T, TxState.ACTIVE)
        broadcaster.broadcast(T, TxState.ENDING)
        broadcaster.broadcast(T, TxState.ABORTING)
        assert broadcaster.current_state(T) == TxState.ABORTING
        broadcaster.broadcast(T, TxState.ABORTED)
        assert broadcaster.current_state(T) is None

    def test_single_cpu_failure_loses_nothing(self, node, broadcaster):
        broadcaster.broadcast(T, TxState.ACTIVE)
        node.fail_cpu(0)
        assert broadcaster.tables[0] == {}       # that CPU's memory is gone
        assert broadcaster.current_state(T) == TxState.ACTIVE  # survivors know

    def test_restored_cpu_reseeded_at_next_broadcast(self, node, broadcaster):
        broadcaster.broadcast(T, TxState.ACTIVE)
        other = Transid("alpha", 1, 9)
        broadcaster.broadcast(other, TxState.ACTIVE)
        node.fail_cpu(0)
        node.restore_cpu(0)
        assert broadcaster.tables[0] == {}
        broadcaster.broadcast(T, TxState.ENDING)
        # The restored CPU learned about BOTH transactions via re-seed.
        assert broadcaster.tables[0][T] == TxState.ENDING
        assert broadcaster.tables[0][other] == TxState.ACTIVE

    def test_broadcast_returns_bus_time(self, node, broadcaster):
        cost = broadcaster.broadcast(T, TxState.ACTIVE)
        assert cost == node.latencies.bus_broadcast

    def test_live_transids(self, broadcaster):
        a = Transid("alpha", 0, 1)
        b = Transid("alpha", 0, 2)
        broadcaster.broadcast(a, TxState.ACTIVE)
        broadcaster.broadcast(b, TxState.ACTIVE)
        broadcaster.broadcast(a, TxState.ENDING)
        broadcaster.broadcast(a, TxState.ENDED)
        assert broadcaster.live_transids() == [b]

    def test_broadcast_counter(self, broadcaster):
        broadcaster.broadcast(T, TxState.ACTIVE)
        broadcaster.broadcast(T, TxState.ENDING)
        broadcaster.broadcast(T, TxState.ENDED)
        assert broadcaster.broadcasts == 3
