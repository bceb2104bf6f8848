"""Unit tests for the workload-generation package."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guardian import Cluster
from repro.measure import format_table
from repro.sim import zipf_weights
from repro.workloads import (
    FailureEvent,
    FailureSchedule,
    KeyChooser,
    random_failure_schedule,
)


class TestZipf:
    def test_uniform_degenerate(self):
        weights = zipf_weights(4, 0.0)
        assert all(w == pytest.approx(0.25) for w in weights)

    def test_skew_orders_weights(self):
        weights = zipf_weights(10, 1.0)
        assert weights == sorted(weights, reverse=True)
        assert sum(weights) == pytest.approx(1.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(5, -1.0)


class TestKeyChooser:
    def test_uniform_covers_space(self):
        chooser = KeyChooser(random.Random(1), 10, skew=0.0)
        seen = {chooser.choose() for _ in range(500)}
        assert seen == set(range(10))

    def test_skew_concentrates_on_low_keys(self):
        chooser = KeyChooser(random.Random(2), 100, skew=1.5)
        draws = [chooser.choose() for _ in range(2000)]
        hot_share = sum(1 for k in draws if k < 5) / len(draws)
        assert hot_share > 0.5

    def test_choose_distinct(self):
        chooser = KeyChooser(random.Random(3), 8, skew=1.0)
        keys = chooser.choose_distinct(8)
        assert sorted(keys) == list(range(8))
        with pytest.raises(ValueError):
            chooser.choose_distinct(9)

    def test_deterministic_given_seed(self):
        a = KeyChooser(random.Random(7), 50, skew=0.9)
        b = KeyChooser(random.Random(7), 50, skew=0.9)
        assert [a.choose() for _ in range(20)] == [b.choose() for _ in range(20)]

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 50), skew=st.floats(0, 3))
    def test_property_draws_in_range(self, n, skew):
        chooser = KeyChooser(random.Random(0), n, skew=skew)
        assert all(0 <= chooser.choose() < n for _ in range(50))


class TestSweepAndTables:
    def test_format_table_alignment(self):
        text = format_table(
            [{"a": 1, "bb": 2.5}, {"a": 10, "bb": 0.125}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a " in lines[1] and "bb" in lines[1]
        assert "2.50" in text and "0.12" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="X")


class TestFailureSchedules:
    def _cluster(self):
        cluster = Cluster(seed=9)
        cluster.add_node("alpha", cpu_count=4)
        cluster.add_node("beta", cpu_count=2)
        cluster.connect_all()
        cluster.node("alpha").add_volume("$d", 0, 1)
        return cluster

    def test_schedule_fails_and_restores(self):
        cluster = self._cluster()
        cpu = cluster.node("alpha").cpus[1]
        FailureSchedule(cluster, [FailureEvent(at=10, component=cpu, restore_at=30)])
        cluster.run(until=20)
        assert cpu.down
        cluster.run(until=40)
        assert cpu.up

    def test_schedule_orders_events(self):
        cluster = self._cluster()
        a = cluster.node("alpha").cpus[2]
        b = cluster.node("alpha").cpus[3]
        schedule = FailureSchedule(cluster, [
            FailureEvent(at=50, component=a, restore_at=60),
            FailureEvent(at=10, component=b, restore_at=20),
        ])
        cluster.run(until=100)
        log = [entry for _t, entry in schedule.injected]
        assert log == [
            "fail:cpu:alpha.cpu3", "restore:cpu:alpha.cpu3",
            "fail:cpu:alpha.cpu2", "restore:cpu:alpha.cpu2",
        ]

    def test_restored_drive_revived_from_mirror(self):
        cluster = self._cluster()
        volume = cluster.node("alpha").volumes["$d"]
        volume.write_block(("f", 1), "x")
        drive = volume.drives[1]
        FailureSchedule(cluster, [FailureEvent(at=5, component=drive, restore_at=10)])
        cluster.run(until=20)
        assert drive.serviceable
        assert drive.blocks == volume.drives[0].blocks

    def test_random_schedule_respects_protect_and_kinds(self):
        cluster = self._cluster()
        rng = random.Random(4)
        protect = [cluster.node("alpha").cpus[0]]
        events = random_failure_schedule(
            cluster, rng, duration=1000, count=20,
            kinds=("cpu",), protect=protect,
        )
        assert len(events) == 20
        for event in events:
            assert event.component.kind == "cpu"
            assert event.component is not protect[0]
            assert 0 < event.at < 1000
            assert event.restore_at > event.at

    def test_random_schedule_deterministic(self):
        cluster = self._cluster()
        events_a = random_failure_schedule(
            cluster, random.Random(5), 1000, 5, kinds=("cpu", "bus")
        )
        events_b = random_failure_schedule(
            cluster, random.Random(5), 1000, 5, kinds=("cpu", "bus")
        )
        assert [(e.at, e.component.full_name) for e in events_a] == [
            (e.at, e.component.full_name) for e in events_b
        ]
