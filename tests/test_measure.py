"""The XRAY measurement subsystem (repro.measure).

Four properties pin the design:

* the log-scale histogram tracks a sorted-sample oracle — count, min,
  max and mean exactly, percentiles within one bucket's relative width;
* span trees fold into the documented critical-path breakdown (children
  charged in full, uncovered root time to ``cpu``), with first-closer
  semantics for distributed transactions;
* measurement is deterministic: two same-seed measured runs produce a
  byte-identical JSON report;
* measurement never perturbs the simulation: the measured run commits
  exactly what the unmeasured same-seed run commits, and unmeasured
  runs carry no registry at all.
"""

import math
import random

from repro.apps.banking import (
    debit_credit_program,
    install_banking,
    populate_banking,
)
from repro.encompass import SystemBuilder
from repro.measure import Histogram, MetricsRegistry
from repro.measure.spans import CATEGORIES, SpanLog
from repro.sim import Environment
from repro.workloads import run_closed_loop


# ---------------------------------------------------------------------------
# Histogram vs. a sorted-sample oracle
# ---------------------------------------------------------------------------

def _oracle_percentile(sorted_samples, q):
    rank = min(max(int(math.ceil(q * len(sorted_samples))), 1),
               len(sorted_samples))
    return sorted_samples[rank - 1]


def _check_against_oracle(samples, buckets_per_decade=50):
    hist = Histogram("t", buckets_per_decade=buckets_per_decade)
    for value in samples:
        hist.record(value)
    ordered = sorted(samples)
    assert hist.count == len(samples)
    assert hist.min == ordered[0]
    assert hist.max == ordered[-1]
    assert hist.mean == sum(samples) / len(samples)
    growth = 10 ** (1.0 / buckets_per_decade)
    for q in (0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
        exact = _oracle_percentile(ordered, q)
        approx = hist.percentile(q)
        # Clamping to [min, max] means the bound holds even at the tails.
        assert exact / growth <= approx <= exact * growth, (
            f"q={q}: approx={approx} vs exact={exact}"
        )
    assert hist.percentile(1.0) == ordered[-1]


def test_histogram_tracks_sorted_sample_oracle():
    rng = random.Random(42)
    lognormal = [math.exp(rng.gauss(3.0, 1.5)) for _ in range(5000)]
    uniform = [rng.uniform(0.5, 800.0) for _ in range(2000)]
    _check_against_oracle(lognormal)
    _check_against_oracle(uniform)
    _check_against_oracle(uniform, buckets_per_decade=10)


def test_histogram_edges_and_merge():
    hist = Histogram("edges", lo=1.0, hi=1000.0)
    for value in (0.001, 0.5, 1.0):      # at-or-below lo -> underflow bucket
        hist.record(value)
    hist.record(5e6)                      # above hi -> overflow bucket
    assert hist.count == 4
    assert hist.min == 0.001 and hist.max == 5e6
    assert hist.percentile(0.25) <= 1.0   # underflow reads back clamped low
    assert hist.percentile(1.0) == 5e6    # overflow reads back as max
    empty = Histogram("empty", lo=1.0, hi=1000.0)
    assert empty.percentile(0.5) == 0.0
    assert empty.summary() == {"count": 0}
    other = Histogram("other", lo=1.0, hi=1000.0)
    for value in (2.0, 30.0, 400.0):
        other.record(value)
    hist.merge(other)
    assert hist.count == 7
    assert hist.max == 5e6 and hist.min == 0.001
    assert math.isclose(hist.total, 0.001 + 0.5 + 1.0 + 5e6 + 432.0)


# ---------------------------------------------------------------------------
# Span nesting and critical-path accounting
# ---------------------------------------------------------------------------

def test_span_breakdown_charges_children_and_cpu_residue():
    log = SpanLog()
    log.begin_tx("t1", 0.0)
    log.begin_tx("t1", 5.0)               # idempotent: first begin wins
    log.record("t1", "disc-io", "disc", 10.0, 22.0)
    lock = log.record("t1", "lock-wait", "lock", 30.0, 45.0)
    # Nesting: a span attached to an explicit parent contributes its
    # duration to its own category and shrinks the parent's self time.
    log.record("t1", "escalation", "bus", 40.0, 44.0, parent=lock)
    record = log.end_tx("t1", 100.0, "committed")
    assert record is not None
    assert record.latency == 100.0
    assert record.breakdown["disc"] == 12.0
    assert record.breakdown["lock"] == 11.0        # 15 minus the 4ms child
    assert record.breakdown["bus"] == 4.0
    assert record.breakdown["audit"] == 0.0
    # Root residue -> cpu: 100 - (12 + 15) directly-attached child time.
    assert record.breakdown["cpu"] == 100.0 - 12.0 - 15.0
    assert math.isclose(sum(record.breakdown.values()), 100.0)
    shares = record.shares()
    assert math.isclose(sum(shares.values()), 1.0)
    assert set(shares) == set(CATEGORIES)


def test_overlapping_siblings_charge_shared_time_once():
    # A boxcar drain and an audit force in parallel: [0, 10) and [5, 20).
    log = SpanLog()
    log.begin_tx("t1", 0.0)
    log.record("t1", "boxcar-drain", "disc", 0.0, 10.0)
    log.record("t1", "audit-force", "audit", 5.0, 20.0)
    record = log.end_tx("t1", 30.0)
    assert record.root.self_time() == 10.0       # 30 less the union [0, 20)
    # The shared [5, 10) goes to the force, which ends last.
    assert record.breakdown == {
        "cpu": 10.0, "bus": 0.0, "disc": 5.0, "lock": 0.0, "audit": 15.0,
        "other": 0.0,
    }
    assert max(record.breakdown.values()) <= 15.0
    assert math.isclose(sum(record.shares().values()), 1.0)


def test_span_first_closer_wins_and_unattributed():
    log = SpanLog()
    log.begin_tx("d1", 0.0)
    assert log.is_open("d1")
    first = log.end_tx("d1", 50.0, "committed")
    second = log.end_tx("d1", 60.0, "aborted")     # late participant
    assert first is not None and second is None
    assert log.finished == 1
    assert log.outcomes == {"committed": 1}
    # Background work (no open transaction) lands in ``unattributed``.
    assert log.record("nobody", "audit-force", "audit", 0.0, 8.0) is None
    assert log.unattributed == {"audit-force": 8.0}
    aggregate = log.aggregate()
    assert aggregate["transactions"] == 1
    assert aggregate["total_latency_ms"] == 50.0
    assert aggregate["unattributed_ms"] == {"audit-force": 8.0}


def test_registry_tx_hooks_feed_latency_histogram():
    env = Environment()
    registry = MetricsRegistry()
    env.probe.subscribe(registry.on_record)

    def note_at(time, kind, **fields):
        env.run(until=time)
        env.probe.note(kind, **fields)

    note_at(0.0, "tx.begin", transid="t1")
    note_at(10.0, "tx.begin", transid="t2")
    note_at(40.0, "tx.end", transid="t1", outcome="committed")
    note_at(100.0, "tx.end", transid="t2", outcome="aborted")
    note_at(120.0, "tx.end", transid="t2", outcome="aborted")  # ignored (already closed)
    assert registry.spans.outcomes == {"committed": 1, "aborted": 1}
    hist = registry.histograms["tx.latency_ms"]
    assert hist.count == 2
    assert hist.min == 40.0 and hist.max == 90.0


# ---------------------------------------------------------------------------
# Measured banking runs: determinism and non-perturbation
# ---------------------------------------------------------------------------

def _run_banking(measure):
    builder = SystemBuilder(seed=11, keep_trace=False, measure=measure)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    install_banking(builder, "alpha", "$data", server_instances=2)
    builder.add_tcp("alpha", "$tcp1", cpus=(2, 3))
    builder.add_program("alpha", "$tcp1", "post", debit_credit_program)
    terminals = [f"T{i}" for i in range(4)]
    for terminal in terminals:
        builder.add_terminal("alpha", "$tcp1", terminal, "post")
    system = builder.build()
    populate_banking(system, "alpha", branches=2, tellers_per_branch=2,
                     accounts=8)

    def make_input(rng, terminal_id, iteration):
        return {
            "account_id": rng.randrange(8),
            "teller_id": rng.randrange(4),
            "branch_id": rng.randrange(2),
            "amount": rng.choice([5, -5, 10]),
            "allow_overdraft": True,
        }

    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals, make_input,
        duration=1500.0, think_time=10.0, rng=random.Random(3),
    )
    return system, result


def test_same_seed_measured_runs_are_byte_identical():
    system1, result1 = _run_banking(measure=True)
    system2, result2 = _run_banking(measure=True)
    blob1, blob2 = system1.xray_json(), system2.xray_json()
    assert blob1 == blob2
    assert result1.committed == result2.committed
    # And the report actually measured something.
    report = system1.xray_report()
    assert report["transactions"]["transactions"] > 0
    assert report["histograms"]["tx.latency_ms"]["count"] > 0
    assert system1.sampler is not None and len(system1.metrics.samples) > 0


def test_measurement_does_not_perturb_the_simulation():
    measured, result_measured = _run_banking(measure=True)
    unmeasured, result_unmeasured = _run_banking(measure=False)
    assert result_measured.committed == result_unmeasured.committed
    assert result_measured.failed == result_unmeasured.failed
    assert [m.end for m in result_measured.metrics] == [
        m.end for m in result_unmeasured.metrics
    ]
    # Unmeasured runs carry no registry at all: nothing listens.
    assert not unmeasured.probe.listening and unmeasured.metrics is None
    assert unmeasured.sampler is None
    # The unmeasured report renders: the always-on counters are there,
    # the measured-only sections are empty.
    report = unmeasured.xray_report()
    assert report["meta"]["measured"] is False
    assert report["counters"] == measured.xray_report()["counters"]
    assert report["counters"]["commit"] == unmeasured.tmf["alpha"].commits
    assert report["transactions"]["transactions"] == 0
    assert report["histograms"] == {}
    assert "XRAY RUN REPORT" in unmeasured.xray_screen()
