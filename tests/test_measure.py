"""The XRAY measurement subsystem (repro.measure).

Four properties pin the design:

* the log-scale histogram tracks a sorted-sample oracle — count, min,
  max and mean exactly, percentiles within one bucket's relative width;
* the collector's span trees fold into the documented critical-path
  breakdown (the sibling that ends last owns shared time, a request's
  transit goes to its medium and its wait for a server to ``queue``,
  uncovered time to ``unattributed``), with first-closer semantics for
  distributed transactions, and on a real run every instant of a
  transaction has a named cause;
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
from repro.bench.experiments import _build_banking, _drive
from repro.encompass import SystemBuilder
from repro.guardian import Message
from repro.measure import CATEGORIES, Histogram, MetricsRegistry, fold
from repro.sim import Environment
from repro.trace import TraceCollector
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
# The fold of the collector's span tree: hand-built trees fed as notes
# ---------------------------------------------------------------------------

def _measured_env():
    """A bare environment with the collector and the registry that folds
    its trees, as ``SystemBuilder(measure=True)`` wires them."""
    env = Environment()
    collector = TraceCollector(env)
    return env, collector, MetricsRegistry(collector)


def _run(env, *bodies):
    """Run each generator body as its own simulation process."""
    for body in bodies:
        env.process(body)
    env.run()


def _request(dest_node="alpha"):
    """A request of transaction t1 from \\alpha.$req to ``dest_node``'s $srv."""
    return Message("alpha", "$req", dest_node, "$srv", None, "t1")


def _serve(env, message, begin, busy, phases=(), cpu=1):
    """A server process: takes ``message`` at ``begin``, works ``busy`` ms,
    noting each (name, category, start, end) of ``phases`` at its end."""
    yield env.timeout(begin)
    env.probe.note("serve.begin", message=message, node=message.dest_node,
                   proc=message.dest_name, cpu=cpu)
    for name, category, start, end in phases:
        yield env.timeout(end - env.now)
        env.probe.note("phase", transid=None, name=name, category=category,
                       start=start)
    yield env.timeout(begin + busy - env.now)
    env.probe.note("serve.end", message=message)


def test_span_breakdown_charges_children_and_unattributed_residue():
    # A client process's transaction [0, 100): a disc phase [10, 22) and, at 30,
    # a request over the bus (2 ms each way) whose server waits for a
    # lock [32, 43) and replies at 45.
    env, collector, registry = _measured_env()
    message = _request()

    def client():
        env.probe.note("tx.begin", transid="t1")
        yield env.timeout(22.0)
        env.probe.note("phase", transid="t1", name="disc-io", category="disc",
                       start=10.0)
        yield env.timeout(8.0)
        env.probe.note("rpc.send", message=message, transit=2.0, medium="bus")
        yield env.timeout(15.0)
        env.probe.note("rpc.done", message=message)
        yield env.timeout(55.0)
        env.probe.note("tx.end", transid="t1", outcome="committed")

    _run(env, client(),
         _serve(env, message, 32.0, 11.0, [("lock-wait", "lock", 32.0, 43.0)]))
    breakdown = registry.category_ms
    assert registry.total_latency == 100.0
    assert breakdown["disc"] == 12.0
    assert breakdown["lock"] == 11.0        # the rpc's 15 less its 4 of bus
    assert breakdown["bus"] == 4.0
    assert breakdown["audit"] == 0.0 and breakdown["queue"] == 0.0
    # Root residue -> unattributed: 100 - (12 + 15) of the root's children.
    assert breakdown["unattributed"] == 100.0 - 12.0 - 15.0
    assert math.isclose(sum(breakdown.values()), 100.0)
    aggregate = registry.aggregate()
    assert math.isclose(sum(aggregate["category_share"].values()), 1.0)
    assert set(aggregate["category_share"]) == set(CATEGORIES)
    # TRACE reads the same tree: the phase spans are its leaves.
    root, = collector.trace_of("t1").roots
    assert [(c.kind, c.name) for c in root.children] == [
        ("phase", "disc-io"), ("rpc", "alpha.$srv"),
    ]
    serve, = root.children[1].children
    assert [(c.name, c.category) for c in serve.children] == [("lock-wait", "lock")]


def test_overlapping_siblings_charge_shared_time_once():
    # A boxcar drain and an audit force in parallel: [0, 10) and [5, 20).
    env, _collector, registry = _measured_env()

    def client():
        env.probe.note("tx.begin", transid="t1")
        yield env.timeout(10.0)
        env.probe.note("phase", transid="t1", name="boxcar-drain",
                       category="disc", start=0.0)
        yield env.timeout(10.0)
        env.probe.note("phase", transid="t1", name="audit-force",
                       category="audit", start=5.0)
        yield env.timeout(10.0)
        env.probe.note("tx.end", transid="t1", outcome="committed")

    _run(env, client())
    # The shared [5, 10) goes to the force, which ends last; the root
    # keeps 30 less the union [0, 20).
    assert registry.category_ms == {
        "cpu": 0.0, "bus": 0.0, "network": 0.0, "disc": 5.0, "lock": 0.0,
        "audit": 15.0, "queue": 0.0, "unattributed": 10.0,
    }


def test_span_first_closer_wins_and_background():
    env, collector, registry = _measured_env()

    def note_at(time, kind, **fields):
        yield env.timeout(time - env.now)
        env.probe.note(kind, **fields)

    def script():
        yield from note_at(0.0, "tx.begin", transid="d1")
        assert collector.windows["d1"].end is None
        yield from note_at(50.0, "tx.end", transid="d1", outcome="committed")
        yield from note_at(60.0, "tx.end", transid="d1", outcome="aborted")
        # Phase time outside every open window is background.
        yield from note_at(68.0, "phase", transid="nobody", name="audit-force",
                           category="audit", start=60.0)

    _run(env, script())
    assert collector.windows["d1"].end == 50.0      # the first closer wins
    assert registry.transactions == 1
    assert registry.outcomes == {"committed": 1}
    assert collector.background == {"audit-force": 8.0}
    aggregate = registry.aggregate()
    assert aggregate["transactions"] == 1
    assert aggregate["total_latency_ms"] == 50.0
    assert aggregate["background_ms"] == {"audit-force": 8.0}
    assert aggregate["open"] == 0


def test_registry_tx_hooks_feed_latency_histogram():
    env, _collector, registry = _measured_env()

    def note_at(time, kind, **fields):
        env.run(until=time)
        env.probe.note(kind, **fields)

    note_at(0.0, "tx.begin", transid="t1")
    note_at(10.0, "tx.begin", transid="t2")
    note_at(40.0, "tx.end", transid="t1", outcome="committed")
    note_at(100.0, "tx.end", transid="t2", outcome="aborted")
    note_at(120.0, "tx.end", transid="t2", outcome="aborted")  # ignored (already closed)
    assert registry.outcomes == {"committed": 1, "aborted": 1}
    hist = registry.histograms["tx.latency_ms"]
    assert hist.count == 2
    assert hist.min == 40.0 and hist.max == 90.0


def test_waiting_for_a_busy_server_instance_is_queue():
    env, _collector, registry = _measured_env()
    message = _request()

    def unit():
        env.probe.note("tx.begin", transid="t1")
        env.probe.note("rpc.send", message=message, transit=1.0, medium="bus")
        yield env.timeout(37.0)        # 1 there, 30 queued, 5 served, 1 back
        env.probe.note("rpc.done", message=message)
        env.probe.note("tx.end", transid="t1", outcome="committed")

    _run(env, unit(),
         _serve(env, message, 31.0, 5.0, [("disc-io", "disc", 31.0, 36.0)]))
    assert registry.category_ms["queue"] == 30.0
    assert registry.category_ms["bus"] == 2.0
    assert registry.category_ms["disc"] == 5.0
    assert registry.category_ms["unattributed"] == 0.0


def test_inter_node_request_charges_network_both_ways():
    env, _collector, registry = _measured_env()
    message = _request(dest_node="beta")

    def unit():
        env.probe.note("tx.begin", transid="t1")
        env.probe.note("rpc.send", message=message, transit=10.0,
                       medium="network")
        yield env.timeout(25.0)
        env.probe.note("rpc.done", message=message)
        env.probe.note("tx.end", transid="t1", outcome="committed")

    _run(env, unit(),
         _serve(env, message, 10.0, 5.0, [("lock-wait", "lock", 10.0, 15.0)]))
    assert registry.category_ms["network"] == 20.0    # its transit both ways
    assert registry.category_ms["lock"] == 5.0
    assert registry.category_ms["queue"] == 0.0


def test_same_cpu_request_charges_cpu():
    env, _collector, registry = _measured_env()
    message = _request()

    def unit():
        env.probe.note("tx.begin", transid="t1")
        env.probe.note("rpc.send", message=message, transit=0.25, medium="cpu")
        yield env.timeout(4.5)
        env.probe.note("rpc.done", message=message)
        env.probe.note("tx.end", transid="t1", outcome="committed")

    _run(env, unit(), _serve(
        env, message, 0.25, 4.0, [("lock-wait", "lock", 0.25, 4.25)], cpu=0,
    ))
    assert registry.category_ms["cpu"] == 0.5
    assert registry.category_ms["lock"] == 4.0
    assert registry.category_ms["bus"] == 0.0


def test_phase_without_an_active_span_lands_under_its_root():
    # A TMP worker holds no span: its phase goes under the transid's root.
    env, collector, registry = _measured_env()

    def unit():
        env.probe.note("tx.begin", transid="t1")
        yield env.timeout(20.0)
        env.probe.note("tx.end", transid="t1", outcome="committed")

    def worker():
        yield env.timeout(17.5)
        env.probe.note("phase", transid="t1", name="completion-write",
                       category="audit", start=5.0)

    _run(env, unit(), worker())
    root, = collector.trace_of("t1").roots
    leaf, = root.children
    assert (leaf.kind, leaf.name, leaf.category) == (
        "phase", "completion-write", "audit",
    )
    assert registry.category_ms["audit"] == 12.5
    assert registry.category_ms["unattributed"] == 7.5


def test_every_instant_of_a_measured_run_has_a_named_cause():
    """The pinned digest run: the categories explain each transaction."""
    system, terminals = _build_banking(
        seed=11, accounts=16, tellers=6, terminals=6,
        measure=True, trace=True,
    )
    _drive(system, terminals, duration=1500.0, accounts=16, seed=99,
           think_time=10.0, tellers=6, amounts=(-20, -5, 5, 10, 25))
    collector = system.trace_collector
    closed = {t: w for t, w in collector.windows.items() if w.end is not None}
    assert closed
    for trace_id, window in closed.items():
        breakdown = fold(collector.forest(trace_id), window.begin, window.end)
        assert math.isclose(
            sum(breakdown.values()), window.end - window.begin, abs_tol=1e-6
        ), trace_id
    tx = system.xray_report()["transactions"]
    total = tx["total_latency_ms"]
    assert math.isclose(sum(tx["category_ms"].values()), total)
    assert tx["category_ms"]["unattributed"] < 0.01 * total
    # XRAY's cpu is CPU work on some transaction's critical path: no more
    # than the processors were charged in all.
    busy = sum(cpu.busy_ms for cpu in system.cluster.node("alpha").cpus)
    assert 0.0 < tx["category_ms"]["cpu"] <= busy
    # The Monitor Audit Trail write is a span of the commit.
    committed = next(t for t, w in closed.items() if w.outcome == "committed")
    assert any(
        (span.kind, span.name, span.category)
        == ("phase", "completion-write", "audit")
        for span in system.trace_of(committed).spans
    )


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
