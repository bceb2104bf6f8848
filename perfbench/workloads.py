"""The four benchmark workloads, built only through the public API.

Each workload is a closed loop: every simulated terminal is a coroutine
that sends one input screen to a TCP, waits for the reply, thinks for a
few simulated milliseconds, and repeats a fixed number of times.  A
workload object knows how to

* ``build(seed)``  -- assemble the system with ``SystemBuilder`` and load
  its data (the timed set-up phase);
* ``drive(...)``   -- run the load phase and return a ``LoadResult``;
* ``check(...)``   -- settle the system and verify its outputs, raising
  ``CorrectnessError`` on any violation.

All inputs come from ``random.Random(seed)``; the same seed replays the
same simulated history bit for bit.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.banking import (
    banking_schemas,
    bank_server,
    check_consistency,
    debit_credit_program,
    populate_banking,
)
from repro.discprocess import FileSchema, KEY_SEQUENCED, PartitionSpec
from repro.encompass import SystemBuilder
from repro.guardian import FileSystemError
from repro.workloads import FailureEvent, FailureSchedule, LoadResult, TransactionMetrics

__all__ = ["CorrectnessError", "WORKLOADS", "Workload"]

#: simulated ms the system runs after the last unit, before the checks
SETTLE_MS = 3000.0


class CorrectnessError(Exception):
    """A workload's outputs violate one of its correctness checks."""


class Run:
    """One episode's live system plus what the driver recorded."""

    def __init__(self, system: Any, terminals: List[str]):
        self.system = system
        self.terminals = terminals
        #: (input data, reply) of every unit, in completion order
        self.units: List[Tuple[Dict[str, Any], Any]] = []
        #: host ``perf_counter()`` at each committed unit's reply
        self.commit_clock: List[float] = []
        self.failures: Optional[FailureSchedule] = None


class Workload:
    """Common closed-loop driver; subclasses build and check."""

    name = ""
    node = "alpha"
    tcp = "$tcp1"
    terminals = 16
    units_per_terminal = 64
    #: the terminal think time is uniform in [0.5, 1.5] x this (simulated ms)
    think_ms = 1000.0
    #: independent input sets (one episode each) pooled into a run; many
    #: short episodes give a run more set-up samples and host-speed probes
    #: than a few long ones with the same units
    input_sets = 4
    #: CPU the terminal coroutines run on (None: round-robin over CPUs)
    terminal_cpu: Optional[int] = None

    def build(self, seed: int, **builder_options: Any) -> Run:
        raise NotImplementedError

    def make_input(self, rng: random.Random, terminal: str) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, run: Run) -> None:
        raise NotImplementedError

    def before_load(self, run: Run) -> None:
        """Hook: schedule anything that must run alongside the load."""

    # ------------------------------------------------------------------
    def drive(self, run: Run, seed: int) -> LoadResult:
        system = run.system
        env = system.env
        rng = random.Random(f"{self.name}/{seed}/inputs")
        result = LoadResult()
        start = env.now
        self.before_load(run)

        def user(proc, terminal):
            for _ in range(self.units_per_terminal):
                data = self.make_input(rng, terminal)
                begin = env.now
                try:
                    reply = yield from system.terminal_request(
                        proc, self.node, self.tcp, terminal, data
                    )
                except FileSystemError as exc:
                    result.metrics.append(
                        TransactionMetrics(begin, env.now, False, error=str(exc))
                    )
                    run.units.append((data, None))
                else:
                    if reply.get("ok"):
                        run.commit_clock.append(perf_counter())
                    result.metrics.append(
                        TransactionMetrics(
                            begin, env.now, bool(reply.get("ok")),
                            attempts=reply.get("attempts", 1),
                            error=reply.get("error"),
                        )
                    )
                    run.units.append((data, reply))
                yield env.timeout(self.think_ms * (0.5 + rng.random()))

        cpus = system.node_os(self.node).alive_cpu_numbers()
        users = []
        for index, terminal in enumerate(run.terminals):
            cpu = self.terminal_cpu
            if cpu is None:
                cpu = cpus[index % len(cpus)]
            users.append(
                system.spawn(
                    self.node, f"$user-{terminal}",
                    (lambda t: lambda proc: user(proc, t))(terminal), cpu=cpu,
                )
            )
        for user_proc in users:
            system.cluster.run(user_proc.sim_process)
        result.duration = env.now - start
        return result

    def settle(self, run: Run) -> None:
        system = run.system
        proc = system.spawn(
            self.node, "$settle",
            lambda p: (yield system.env.timeout(SETTLE_MS)),
            cpu=self.terminal_cpu or 0,
        )
        system.cluster.run(proc.sim_process)

    def check_locks(self, run: Run) -> None:
        for (node, volume), disc in sorted(run.system.disc_processes.items()):
            held = disc.locks.held_count()
            if held:
                raise CorrectnessError(
                    f"{node}.{volume}: {held} locks still held after settle"
                )


# ----------------------------------------------------------------------
# Banking (TP1) workloads
# ----------------------------------------------------------------------
class _Banking(Workload):
    cpus = 4
    accounts = 2048
    branches = 16
    tellers = 64
    volumes: Tuple[Tuple[str, Tuple[int, int]], ...] = (
        ("$data0", (0, 1)), ("$data1", (1, 0)),
    )
    cache_blocks = 16
    server_cpus: Optional[List[int]] = None
    server_instances = 4
    tcp_cpus = (2, 3)
    post_share = 1.0

    def build(self, seed: int, **builder_options: Any) -> Run:
        builder = SystemBuilder(seed=seed, keep_trace=False, **builder_options)
        builder.add_node(self.node, cpus=self.cpus, tmf_cpus=(2, 3))
        for volume, cpus in self.volumes:
            builder.add_volume(
                self.node, volume, cpus=cpus, cache_capacity=self.cache_blocks
            )
        names = [volume for volume, _cpus in self.volumes]
        if len(names) == 1:
            partitions: Tuple[PartitionSpec, ...] = (PartitionSpec(self.node, names[0]),)
            history = None
        else:
            half = self.accounts // 2
            partitions = (
                PartitionSpec(self.node, names[0]),
                PartitionSpec(self.node, names[1], low_key=(half,)),
            )
            history = PartitionSpec(self.node, names[1])
        for schema in banking_schemas(
            partitions, PartitionSpec(self.node, names[0]), history
        ):
            builder.define_file(schema)
        builder.add_server_class(
            self.node, "$bank", bank_server,
            instances=self.server_instances, cpus=self.server_cpus,
        )
        builder.add_tcp(self.node, self.tcp, cpus=self.tcp_cpus, restart_limit=16)
        builder.add_program(self.node, self.tcp, "teller", self.program)
        terminals = [f"T{i:02d}" for i in range(self.terminals)]
        for terminal in terminals:
            builder.add_terminal(self.node, self.tcp, terminal, "teller")
        system = builder.build()
        populate_banking(
            system, self.node, branches=self.branches,
            tellers_per_branch=self.tellers // self.branches,
            accounts=self.accounts,
        )
        return Run(system, terminals)

    @staticmethod
    def program(ctx, data):
        return debit_credit_program(ctx, data)

    def make_input(self, rng: random.Random, terminal: str) -> Dict[str, Any]:
        # As in TP1, a terminal is one teller of one branch; only the
        # account varies, so terminals contend on accounts alone.
        number = int(terminal[1:])
        branch = number % self.branches
        per_branch = self.tellers // self.branches
        data: Dict[str, Any] = {
            "account_id": rng.randrange(self.accounts),
            "teller_id": branch * per_branch + (number // self.branches) % per_branch,
            "branch_id": branch,
            "amount": rng.choice((-20, -5, 5, 10, 25, 50)),
            "allow_overdraft": True,
        }
        if rng.random() >= self.post_share:
            data["op"] = "balance"
        return data

    def check(self, run: Run) -> None:
        self.settle(run)
        self.check_locks(run)
        report = check_consistency(run.system, self.node)
        if not report["consistent"]:
            raise CorrectnessError(f"banking invariants violated: {report}")
        posted = [
            data["amount"] for data, reply in run.units
            if reply is not None and reply.get("ok") and data.get("op") != "balance"
        ]
        # Exactly-once: one history record per committed posting.
        if report["history_count"] != len(posted) or report["history_sum"] != sum(posted):
            raise CorrectnessError(
                f"history holds {report['history_count']} postings summing "
                f"{report['history_sum']}; the terminals saw {len(posted)} "
                f"commits summing {sum(posted)}"
            )
        if report["accounts"] != self.accounts:
            raise CorrectnessError(f"account file holds {report['accounts']} rows")


class DebitCredit(_Banking):
    """TP1 postings; the account file is 8x the two 16-block caches."""

    name = "debit_credit"
    units_per_terminal = 32
    input_sets = 8


class InquiryMix(_Banking):
    """95% balance inquiries on one volume whose data fits the cache."""

    name = "inquiry_mix"
    units_per_terminal = 16
    think_ms = 4.0
    volumes = (("$data", (0, 1)),)
    cache_blocks = 1024
    server_instances = 1
    post_share = 0.05

    @staticmethod
    def program(ctx, data):
        if data.get("op") != "balance":
            return debit_credit_program(ctx, data)
        return _inquiry(ctx, data)


def _inquiry(ctx, data):
    reply = yield from ctx.send_ok("$bank", data)
    ctx.display(f"BALANCE {data['account_id']} {reply['balance']}")
    return reply["balance"]


class CpuFailover(_Banking):
    """The debit_credit load while CPUs fail and recover in turn.

    CPU 4 hosts the terminals and the server class and is never failed,
    so every lost unit is the system's fault, not the driver's.
    """

    name = "cpu_failover"
    cpus = 5
    terminal_cpu = 4
    server_cpus = [4]
    #: CPUs failed in turn: 0 holds $data0's primary, 2 the
    #: AUDITPROCESS/TMP primaries, 3 the TCP primary, 1 $data1's primary
    #: (and $data0's after the first takeover).
    failed_cpus = (0, 2, 3, 1)
    #: one failure every ``failure_every_ms`` from 2 s into the load, each
    #: restored ``outage_ms`` later; the last restore comes well before
    #: the ~90 s load ends, and the run settles before the checks.
    failures = 10
    failure_every_ms = 3_500.0
    outage_ms = 1_200.0
    tcp_cpus = (3, 2)

    def before_load(self, run: Run) -> None:
        node = run.system.cluster.node(self.node)
        start = run.system.env.now
        events = []
        for index in range(self.failures):
            at = start + 2_000.0 + index * self.failure_every_ms
            cpu = node.cpus[self.failed_cpus[index % len(self.failed_cpus)]]
            events.append(FailureEvent(at=at, component=cpu, restore_at=at + self.outage_ms))
        run.failures = FailureSchedule(run.system.cluster, events)


# ----------------------------------------------------------------------
# Distributed two-phase commit across three nodes
# ----------------------------------------------------------------------
def _post_server(ctx, request):
    """Add ``amount`` to each listed ledger row of this node's file."""
    for key in request["keys"]:
        record = yield from ctx.read(request["file"], (key,), lock=True)
        if record is None:
            return {"ok": False, "error": "no_such_row"}
        record["balance"] += request["amount"]
        yield from ctx.update(request["file"], record)
    return {"ok": True}


class DistributedBatch(Workload):
    """Units that update rows on three nodes and commit by 2PC."""

    name = "distributed_batch"
    node = "node1"
    tcp = "$tcp"
    nodes = ("node1", "node2", "node3")
    rows = 1024
    cache_blocks = 256
    #: range of the one-hop EXPAND line delays (simulated ms)
    line_ms = (14.0, 16.0)
    keys_per_node = 4
    terminals = 4
    units_per_terminal = 64
    input_sets = 8
    think_ms = 600.0

    def build(self, seed: int, **builder_options: Any) -> Run:
        builder = SystemBuilder(seed=seed, keep_trace=False, **builder_options)
        for node in self.nodes:
            builder.add_node(node, cpus=4)
            builder.add_volume(
                node, "$data", cpus=(0, 1), cache_capacity=self.cache_blocks
            )
            builder.define_file(
                FileSchema(
                    name=f"ledger_{node}",
                    organization=KEY_SEQUENCED,
                    primary_key=("row",),
                    audited=True,
                    partitions=(PartitionSpec(node, "$data"),),
                )
            )
            builder.add_server_class(node, "$post", _post_server, cpus=[0])
        # The EXPAND lines' transit delays are an input of the run: each
        # seed draws its own, so the uncontended unit latency varies with
        # the seed instead of being one structural constant.
        lines = random.Random(f"{self.name}/{seed}/network")
        for index, node in enumerate(self.nodes):
            for other in self.nodes[index + 1:]:
                builder.connect(node, other, latency=lines.uniform(*self.line_ms))
        builder.add_tcp(self.node, self.tcp, cpus=(2, 3), restart_limit=16)
        builder.add_program(self.node, self.tcp, "batch", self._program)
        terminals = [f"B{i:02d}" for i in range(self.terminals)]
        for terminal in terminals:
            builder.add_terminal(self.node, self.tcp, terminal, "batch")
        system = builder.build()
        self._load(system)
        return Run(system, terminals)

    def _program(self, ctx, data):
        for node, keys in data["posts"]:
            server = "$post" if node == self.node else f"\\{node}.$post-1"
            yield from ctx.send_ok(
                server,
                {"file": f"ledger_{node}", "keys": keys, "amount": data["amount"]},
            )
        return data["amount"]

    def _load(self, system: Any) -> None:
        client = system.clients[self.node]
        tmf = system.tmf[self.node]

        def loader(proc):
            for node in self.nodes:
                for start in range(0, self.rows, 64):
                    transid = yield from tmf.begin(proc)
                    for row in range(start, min(start + 64, self.rows)):
                        yield from client.insert(
                            proc, f"ledger_{node}", {"row": row, "balance": 0},
                            transid=transid,
                        )
                    yield from tmf.end(proc, transid)
            return True

        proc = system.spawn(self.node, "$loader", loader, cpu=0)
        system.cluster.run(proc.sim_process)

    def make_input(self, rng: random.Random, terminal: str) -> Dict[str, Any]:
        posts = [
            (node, sorted(rng.sample(range(self.rows), self.keys_per_node)))
            for node in self.nodes
        ]
        return {"posts": posts, "amount": rng.choice((1, 2, 3, 5, 8))}

    def check(self, run: Run) -> None:
        self.settle(run)
        self.check_locks(run)
        system = run.system
        expected: Dict[str, Dict[int, int]] = {node: {} for node in self.nodes}
        committed = set()
        for data, reply in run.units:
            if reply is None or not reply.get("ok"):
                continue
            committed.add(reply["transid"])
            for node, keys in data["posts"]:
                for key in keys:
                    expected[node][key] = expected[node].get(key, 0) + data["amount"]
        # Atomicity across nodes: one disposition per transid everywhere.
        seen: Dict[str, str] = {}
        for node in self.nodes:
            for transid, disposition in system.tmf[node].dispositions.items():
                other = seen.setdefault(str(transid), disposition)
                if other != disposition:
                    raise CorrectnessError(
                        f"{transid} is {other} at one node and {disposition} at {node}"
                    )
        for node in self.nodes:
            found = {str(t): d for t, d in system.tmf[node].dispositions.items()}
            missing = [t for t in committed if found.get(t) != "committed"]
            if missing:
                raise CorrectnessError(f"{missing[0]} not committed at {node}")
        client = system.clients[self.node]

        def reader(proc):
            rows = {}
            for node in self.nodes:
                rows[node] = yield from client.scan(proc, f"ledger_{node}")
            return rows

        proc = system.spawn(self.node, "$check", reader, cpu=0)
        rows = system.cluster.run(proc.sim_process)
        for node in self.nodes:
            actual = {
                record["row"]: record["balance"]
                for _key, record in rows[node] if record["balance"]
            }
            if actual != expected[node]:
                raise CorrectnessError(f"ledger on {node} differs from committed units")
            if len(rows[node]) != self.rows:
                raise CorrectnessError(f"ledger on {node} holds {len(rows[node])} rows")


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "debit_credit": DebitCredit,
    "inquiry_mix": InquiryMix,
    "distributed_batch": DistributedBatch,
    "cpu_failover": CpuFailover,
}
