"""Shared test fixtures and builders."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.discprocess import DataDictionary, DiscProcess, FileClient
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
            tracer=self.cluster.tracer,
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
    """A multi-node cluster with full TMF on every node."""

    def __init__(self, nodes=("alpha",), cpu_count=4, seed=1):
        from repro.core import AuditProcess, AuditTrail, TmfNode

        self.cluster = Cluster(seed=seed)
        self.dictionary = DataDictionary()
        self.tmf = {}
        self.clients = {}
        self.audit_processes = {}
        self.disc_processes = {}
        for name in nodes:
            node_os = self.cluster.add_node(name, cpu_count=cpu_count)
            node = node_os.node
            audit_volume = node.add_volume("$audvol", 2, 3)
            trail = AuditTrail(audit_volume)
            audit_process = AuditProcess(
                node_os, "$aud", 2, 3, trail, self.cluster.tracer
            )
            tmf = TmfNode(
                node_os,
                self.cluster.fs(name),
                monitor_volume=audit_volume,
                tmp_cpus=(2, 3),
                tracer=self.cluster.tracer,
            )
            tmf.register_audit_process("$aud", audit_process)
            self.tmf[name] = tmf
            self.audit_processes[name] = audit_process
            self.clients[name] = FileClient(self.cluster.fs(name), self.dictionary)
        self.cluster.connect_all()

    def add_volume(self, node_name, volume_name, cpus=(0, 1), audited=True,
                   boxcar=True):
        node_os = self.cluster.os(node_name)
        volume = node_os.node.add_volume(volume_name, *cpus)
        dp = DiscProcess(
            node_os,
            volume_name,
            cpus[0],
            cpus[1],
            volume,
            self.cluster.fs(node_name),
            audit_process="$aud" if audited else None,
            tmf_registry=self.tmf[node_name],
            tracer=self.cluster.tracer,
            boxcar=boxcar,
        )
        self.tmf[node_name].register_disc_process(volume_name, dp)
        self.disc_processes[(node_name, volume_name)] = dp
        return dp

    def run(self, node_name, gen, cpu=0, name="$t"):
        node_os = self.cluster.os(node_name)
        proc = node_os.spawn(name, cpu, lambda p: gen(p), register=False)
        return self.cluster.run(proc.sim_process)


@pytest.fixture
def tmf_rig():
    rig = TmfRig()
    rig.add_volume("alpha", "$data")
    return rig


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
