"""Shared test fixtures and builders."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core import TransactionAborted
from repro.discprocess import (
    KEY_SEQUENCED,
    DataDictionary,
    DiscProcess,
    FileClient,
    FileSchema,
    PartitionSpec,
)
from repro.encompass import SystemBuilder
from repro.guardian import Cluster
from repro.sim import Event
from repro.sim.probe import _matches


class StorageRig:
    """A one-node cluster with DISCPROCESS volumes, for storage tests."""

    def __init__(self, cpu_count=4, seed=1, audited=False, audit_builder=None):
        self.cluster = Cluster(seed=seed)
        self.node_os = self.cluster.add_node("alpha", cpu_count=cpu_count)
        self.cluster.connect_all()
        self.dictionary = DataDictionary()
        self.client = FileClient(self.cluster.fs("alpha"), self.dictionary)
        self.disc_processes = {}

    def add_volume(self, name="$data", cpus=(0, 1), audit_process=None, **kwargs):
        volume = self.cluster.node("alpha").add_volume(name, *cpus)
        dp = DiscProcess(
            self.node_os,
            name,
            cpus[0],
            cpus[1],
            volume,
            self.cluster.fs("alpha"),
            audit_process=audit_process,
            **kwargs,
        )
        self.disc_processes[name] = dp
        return dp

    def run(self, gen, cpu=2, name="$t"):
        """Run a client generator as a process and return its result."""
        proc = self.node_os.spawn(name, cpu, lambda p: gen(p), register=False)
        return self.cluster.run(proc.sim_process)


@pytest.fixture
def rig():
    rig = StorageRig()
    rig.add_volume()
    return rig


class TmfRig:
    """A multi-node cluster with full TMF on every node.

    Wired by :class:`SystemBuilder` but never built: no file is created
    and every node is connected to every other.
    """

    def __init__(self, nodes=("alpha",), cpu_count=4, seed=1):
        self.builder = SystemBuilder(seed=seed)
        for name in nodes:
            self.builder.add_node(name, cpus=cpu_count, tmf_cpus=(2, 3))
        self.system = self.builder.system
        self.cluster = self.system.cluster
        self.cluster.connect_all()
        self.dictionary = self.system.dictionary
        self.tmf = self.system.tmf
        self.clients = self.system.clients
        self.audit_processes = self.system.audit_processes
        self.disc_processes = self.system.disc_processes

    def add_volume(self, node_name, volume_name, cpus=(0, 1), audited=True):
        return self.builder.add_volume(node_name, volume_name, cpus=cpus, audited=audited)

    def run(self, node_name, gen, cpu=0, name="$t"):
        node_os = self.cluster.os(node_name)
        proc = node_os.spawn(name, cpu, lambda p: gen(p), register=False)
        return self.cluster.run(proc.sim_process)


@pytest.fixture
def tmf_rig():
    rig = TmfRig()
    rig.add_volume("alpha", "$data")
    return rig


def build_two_child_ledgers(seed=5, trace=False):
    """node1, node2 and node3, each with a ``$data`` volume; the audited
    files ``ledger.node2`` and ``ledger.node3`` live on their nodes.

    A transaction begun on node1 that inserts into both has node2 and
    node3 as its children, polled in parallel at phase one.
    """
    builder = SystemBuilder(seed=seed, trace=trace)
    for name in ("node1", "node2", "node3"):
        builder.add_node(name, cpus=4)
        builder.add_volume(name, "$data", cpus=(0, 1))
    for name in ("node2", "node3"):
        builder.define_file(FileSchema(
            name=f"ledger.{name}", organization=KEY_SEQUENCED,
            primary_key=("entry",), audited=True,
            partitions=(PartitionSpec(name, "$data"),),
        ))
    return builder.build()


#: How long a :class:`Trigger` waits, in simulated ms, before it fails.
DEADLINE_MS = 10_000.0


class Trigger(Event):
    """The first probe record of ``kind`` (any, if None) whose fields
    equal ``fields``, matched as :meth:`Probe.capture` matches, and for
    which ``when(record)``, if given, holds.

    ``action(record)`` runs inside the step that emits it; the trigger,
    an event, then succeeds with it for a waiting process to ``yield``.
    Unfired :data:`DEADLINE_MS` of simulated time on, it fails the run,
    naming what it awaited.  It leaves no subscriber and no pending
    engine event behind.
    """

    def __init__(self, env, kind=None, *, action=None, when=None, **fields):
        super().__init__(env)
        self.kind, self.fields, self.when, self.action = kind, fields, when, action
        self.deadline = env.now + DEADLINE_MS
        self._timer = env.timeout(DEADLINE_MS)
        self._timer.callbacks.append(self._expire)
        # Unsubscribed when processed, in the step after it fires.
        self.callbacks.append(lambda _: env.probe.unsubscribe(self._on_record))
        env.probe.subscribe(self._on_record)

    def _on_record(self, record):
        if (self.triggered or self.kind not in (None, record.kind)
                or not _matches(record, self.fields)
                or (self.when is not None and not self.when(record))):
            return
        # Disarmed, the deadline pops as a tombstone that moves no clock.
        self._timer.callbacks = None
        self.succeed(record)
        if self.action is not None:
            self.action(record)

    def _expire(self, _timer):
        self.env.probe.unsubscribe(self._on_record)
        where = f" where {self.when.__name__}" if self.when else ""
        raise AssertionError(f"trigger never fired: no {self.kind or 'probe'} record "
                             f"with {self.fields}{where} by {self.deadline} ms")


def end_outcome(tmf, proc, transid):
    """END-TRANSACTION ``transid`` at ``tmf``; returns "committed", or
    "aborted" if it raised :class:`TransactionAborted`."""
    try:
        yield from tmf.end(proc, transid)
    except TransactionAborted:
        return "aborted"
    return "committed"


def end_cut_off_at_ack(rig, home, transid, child, sides):
    """END-TRANSACTION ``transid`` at ``home`` and partition the network
    into ``sides`` the moment ``child`` acks phase one, after its reply
    left; returns the commit's outcome, "committed" or "aborted"."""
    commit = rig.cluster.os(home).spawn(
        "$commit", 1, lambda p: end_outcome(rig.tmf[home], p, transid), register=False
    )
    yield Trigger(rig.cluster.env, "phase1_acked", node=child, transid=str(transid))
    rig.cluster.network.partition(*sides)
    return (yield commit.sim_process)


def kill_tmp_primary_at(tmf, state):
    """Fail the CPU of ``tmf``'s TMP primary inside the first broadcast of
    ``state`` (a Figure 3 state name) on its node after this call.

    Returns the :class:`Trigger`; its ``triggered`` is true once the
    kill happened.
    """
    return Trigger(
        tmf.env, "state_broadcast", node=tmf.node_name, state=state,
        action=lambda _: tmf.node_os.node.fail_cpu(tmf.tmp.primary_cpu),
    )


def pytest_collection_finish(session):
    """Start the figure-sized experiment runs that the selected
    ``test_paper_claims`` cases check.  One worker process runs them
    (about 12 s in all) while this process runs the rest of the suite."""
    names = [item.callspec.params["name"] for item in session.items
             if getattr(item, "originalname", None) == "test_paper_claims"]
    if not names or session.config.option.collectonly:
        return
    from repro.bench import run_experiment

    pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"))
    session.paper_runs = {
        name: pool.submit(run_experiment, name, "full") for name in names
    }
    pool.shutdown(wait=False)  # the submitted runs still complete


def pytest_sessionfinish(session):
    # A session stopped early (-x, ^C) drops the runs no test will read.
    for run in getattr(session, "paper_runs", {}).values():
        run.cancel()
