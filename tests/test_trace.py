"""The TRACE causal-tracing subsystem (repro.trace).

Four properties pin the design, mirroring tests/test_measure.py:

* tracing is deterministic: two same-seed traced runs produce a
  byte-identical timeline JSON;
* tracing never perturbs the simulation: the traced run commits exactly
  what the untraced same-seed run commits, and untraced runs have no
  subscriber on the probe;
* the assembled trace of a distributed transaction is a causally
  ordered tree spanning the nodes it touched, with TCP, server,
  DISCPROCESS, audit and TMP hops all present;
* the export is valid Chrome ``trace_event`` JSON.

Plus the satellite fixes: :class:`repro.sim.TraceRecord` survives
copy/pickle, and the probe's per-kind index stays coherent with the
full record list through ``clear()``.
"""

import copy
import json
import pickle
import random

import pytest

from conftest import build_two_child_ledgers
from repro.apps.banking import build_banking_system, debit_credit_input
from repro.core import Tmfcom
from repro.discprocess import FileSchema, KEY_SEQUENCED, PartitionSpec
from repro.encompass import SystemBuilder
from repro.sim import Environment, TraceRecord
from repro.simtest import Watchdog
from repro.workloads import run_closed_loop


# ---------------------------------------------------------------------------
# Satellite fixes: TraceRecord dunder guard, Probe kind index
# ---------------------------------------------------------------------------

def test_trace_record_survives_copy_and_pickle():
    record = TraceRecord(time=3.5, kind="checkpoint", fields={"node": "a"})
    assert record.node == "a"
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert clone.time == 3.5 and clone.kind == "checkpoint"
        assert clone.node == "a"
    with pytest.raises(AttributeError):
        record.missing_field
    # Dunder probes must fail fast instead of recursing into fields.
    with pytest.raises(AttributeError):
        record.__getstate_probe__


def test_tracer_kind_index_matches_full_scan_through_clear():
    """The probe's per-kind record index (its tracing side)."""
    probe = Environment().probe
    for i in range(6):
        probe.emit("even" if i % 2 == 0 else "odd", n=i)
    assert [r.n for r in probe.iter("even")] == [0, 2, 4]
    assert [r.n for r in probe.select("odd", n=3)] == [3]
    # The index selects exactly what a linear scan over records would.
    for kind in ("even", "odd"):
        assert list(probe.iter(kind)) == [
            r for r in probe.records if r.kind == kind
        ]
    probe.clear()
    assert probe.records == [] and list(probe.iter("even")) == []
    probe.emit("even", n=8)
    assert [r.n for r in probe.iter("even")] == [8]
    assert len(probe.records) == 1


# ---------------------------------------------------------------------------
# Traced banking runs: determinism and non-perturbation
# ---------------------------------------------------------------------------

def _run_banking(trace):
    system, terminals = build_banking_system(
        seed=11, accounts=8, tellers=4, terminals=4, keep_trace=trace,
        trace=trace,
    )
    if trace:
        Watchdog(system)
    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals,
        debit_credit_input(8, 4, 2, (5, -5, 10)),
        duration=1500.0, think_time=10.0, rng=random.Random(3),
    )
    return system, result


def test_same_seed_traced_runs_are_byte_identical():
    system1, result1 = _run_banking(trace=True)
    system2, result2 = _run_banking(trace=True)
    blob1, blob2 = system1.timeline_json(), system2.timeline_json()
    assert blob1 == blob2
    assert result1.committed == result2.committed
    # And the run actually traced something.
    ids = system1.trace_collector.trace_ids()
    assert ids
    unit = next(t for t in ids if ".2." in t)   # a TCP-begun transaction
    assert system1.trace_of(unit).render() == system2.trace_of(unit).render()


def test_tracing_does_not_perturb_the_simulation():
    traced, result_traced = _run_banking(trace=True)
    untraced, result_untraced = _run_banking(trace=False)
    assert result_traced.committed == result_untraced.committed
    assert result_traced.failed == result_untraced.failed
    assert [m.end for m in result_traced.metrics] == [
        m.end for m in result_untraced.metrics
    ]
    # A clean run alarms nothing.
    assert traced.watchdog.summary()["alarms"] == 0
    assert traced.xray_report()["watchdog"]["alarms"] == 0
    # Untraced runs have no subscriber on the probe...
    assert not untraced.probe.listening
    assert untraced.trace_collector is None and untraced.watchdog is None
    assert "watchdog" not in untraced.xray_report()
    # ...and the accessors refuse rather than degrade silently.
    with pytest.raises(RuntimeError, match="tracing is disabled"):
        untraced.trace_of("anything")
    with pytest.raises(RuntimeError, match="tracing is disabled"):
        untraced.timeline_json()


# ---------------------------------------------------------------------------
# The distributed acceptance trace: 3 nodes, every hop kind
# ---------------------------------------------------------------------------

def _build_three_node_traced():
    builder = SystemBuilder(seed=21, trace=True)
    for name in ("node1", "node2", "node3"):
        builder.add_node(name, cpus=4)
        builder.add_volume(name, "$data", cpus=(0, 1))
    builder.define_file(
        FileSchema(
            name="ledger",
            organization=KEY_SEQUENCED,
            primary_key=("entry",),
            audited=True,
            partitions=(PartitionSpec("node3", "$data"),),
        )
    )

    def ledger_server(ctx, request):
        key = (request["entry"],)
        record = yield from ctx.read("ledger", key, lock=True)
        if record is None:
            yield from ctx.insert("ledger", {"entry": request["entry"],
                                             "value": request["value"]})
        else:
            record["value"] = request["value"]
            yield from ctx.update("ledger", record)
        return {"ok": True}

    builder.add_server_class("node2", "$ledger", ledger_server, instances=1)

    def post_entry(ctx, data):
        yield from ctx.send_ok("\\node2.$ledger-1", data)
        return {"posted": data["entry"]}

    builder.add_tcp("node1", "$tcp", cpus=(2, 3))
    builder.add_program("node1", "$tcp", "post-entry", post_entry)
    builder.add_terminal("node1", "$tcp", "T1", "post-entry")
    return builder.build()


@pytest.fixture(scope="module")
def distributed_trace():
    system = _build_three_node_traced()

    def driver(proc):
        reply = yield from system.terminal_request(
            proc, "node1", "$tcp", "T1", {"entry": 1, "value": 100}
        )
        return reply

    proc = system.spawn("node1", "$term", driver, cpu=2)
    reply = system.cluster.run(proc.sim_process)
    assert reply["ok"], reply
    # Phase two leaves for the children as the reply does: settle, so
    # every span of the transaction has ended.
    system.cluster.run(until=system.env.now + 1000.0)
    return system, system.trace_of(reply["transid"])


def _phase_two_roots(trace):
    """The trace's roots that are a parent TMP's phase-two request.

    A delivery worker sends them outside the unit's serve span, so each is a root
    of its own, named for the child TMP and sent by its parent's TMP.
    """
    return [root for root in trace.roots
            if root.kind == "rpc" and root.requester == "$TMP"]


def test_distributed_trace_spans_nodes_and_hop_kinds(distributed_trace):
    _system, trace = distributed_trace
    assert len(trace.nodes) >= 2
    assert {"node1", "node2", "node3"} <= set(trace.nodes)
    # Every required hop appears as a span endpoint: the TCP, the
    # application server, the DISCPROCESS, the audit process, the TMP.
    processes = set(trace.processes)
    assert "$tcp" in processes
    assert any(p.startswith("$ledger") for p in processes)
    assert "$data" in processes and "$aud" in processes
    assert "$TMP" in processes
    # The unit's root is the TCP's serve span (the unit adopted its
    # transid); the other roots are the phase-two requests.
    phase_two = _phase_two_roots(trace)
    unit_roots = [root for root in trace.roots if root not in phase_two]
    assert len(unit_roots) == 1
    root = unit_roots[0]
    assert root.kind == "serve" and root.name == "$tcp"
    assert root.node == "node1"
    # node2 is node1's child and node3 node2's (the $ledger server on
    # node2 reads node3): each child's phase two comes from its
    # parent's TMP, and ends.
    assert sorted((span.node, span.name) for span in phase_two) == [
        ("node1", "node2.$TMP"), ("node2", "node3.$TMP"),
    ]
    assert all(span.end is not None for span in phase_two)


def test_distributed_trace_is_causally_ordered(distributed_trace):
    _system, trace = distributed_trace

    def walk(span, depth=0):
        assert span.end is not None and span.end >= span.start
        previous_start = None
        for child in span.children:
            # A child starts within its parent and after its siblings.
            assert child.start >= span.start
            assert child.hop > span.hop or span.kind == "rpc"
            if previous_start is not None:
                assert child.start >= previous_start
            previous_start = child.start
            walk(child, depth + 1)

    for root in trace.roots:
        walk(root)
    # spans is the same set, in (start, emission) order.
    starts = [span.start for span in trace.spans]
    assert starts == sorted(starts)


def test_timeline_export_is_valid_chrome_trace_event_json(
        distributed_trace, tmp_path):
    system, trace = distributed_trace
    path = tmp_path / "timeline.json"
    system.write_timeline(str(path), [trace.transid])
    with open(path) as handle:
        document = json.load(handle)
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    assert events
    phases = {event["ph"] for event in events}
    assert "X" in phases and "M" in phases
    for event in events:
        assert event["ph"] in ("M", "X", "i")
        assert isinstance(event["pid"], int)
        if event["ph"] == "M":
            assert event["name"] in ("process_name", "thread_name")
            continue
        assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0
            assert event["args"]["trace_id"] == trace.transid
    # Three simulated nodes -> three timeline processes.
    pids = {e["pid"] for e in events if e["ph"] != "M"}
    assert len({e["pid"] for e in events}) >= 3
    assert pids  # at least one span/instant event landed


def test_flight_recorder_screen_and_tmfcom_delegation(distributed_trace):
    system, trace = distributed_trace
    screen = system.trace_screen(trace.transid)
    assert screen.startswith(f"TRANSACTION {trace.transid}")
    assert "[serve]" in screen and "[rpc]" in screen
    assert "3 nodes" in screen
    # TMFCOM's INFO TRANSACTION, TRACE delegates to the collector.
    tmfcom = system.tmfcom("node1")
    assert tmfcom.trace(trace.transid) == screen
    assert "no trace recorded" in tmfcom.trace("\\nowhere.9.9")
    bare = Tmfcom(system.tmf["node1"])
    assert "tracing not enabled" in bare.trace(trace.transid)


def test_phase_one_polls_the_children_in_parallel():
    """A home node with two child nodes sends both ``TmpPhase1`` at once."""
    system = build_two_child_ledgers(seed=5, trace=True)
    tmf, client = system.tmf["node1"], system.clients["node1"]

    def driver(proc):
        transid = yield from tmf.begin(proc)
        for name in ("node2", "node3"):
            yield from client.insert(
                proc, f"ledger.{name}", {"entry": 1}, transid=transid
            )
        yield from tmf.end(proc, transid)
        return transid

    proc = system.spawn("node1", "$run", driver, cpu=2)
    transid = system.cluster.run(proc.sim_process)
    trace = system.trace_of(transid)
    # The TMP's first request to each child TMP is its phase one (the
    # remote begins came from the driver; phase two follows later).
    phase_one = {}
    for span in trace.spans:
        if span.kind == "rpc" and span.requester == "$TMP" and span.node == "node1":
            phase_one.setdefault(span.name, span)
    assert sorted(phase_one) == ["node2.$TMP", "node3.$TMP"]
    first, second = phase_one.values()
    assert max(first.start, second.start) < min(first.end, second.end)
