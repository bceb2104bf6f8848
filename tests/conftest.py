"""Shared test fixtures and builders."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.discprocess import DataDictionary, DiscProcess, FileClient
from repro.encompass import SystemBuilder
from repro.guardian import Cluster


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


def kill_tmp_primary_at(tmf, state):
    """Fail the CPU of ``tmf``'s TMP primary inside the first broadcast of
    ``state`` (a Figure 3 state name) on its node after this call.

    Returns a dict that gets ``fired=True`` when the kill happens; it
    stays empty if the broadcast never happens.
    """
    kill = {}

    def on_record(record):
        if (record.kind == "state_broadcast" and not kill
                and record.node == tmf.node_name and record.state == state):
            kill["fired"] = True
            tmf.node_os.node.fail_cpu(tmf.tmp.primary_cpu)

    tmf.env.probe.subscribe(on_record)
    return kill


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
