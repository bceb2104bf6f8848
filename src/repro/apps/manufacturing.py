"""The paper's distributed manufacturing application (Figure 4).

"Tandem's Manufacturing Division uses ENCOMPASS to implement a reliable
distributed data base to coordinate its four manufacturing facilities in
Cupertino, Santa Clara, Reston and Neufahrn ...  Each node has a copy of
the 'global' files: Item Master File, Bill of Materials File, and the
Purchase Order Header File.  In addition, each node has a set of 'local'
files ...  For the purpose of update, each global file record is
assigned a master node ... The update of a global record can occur only
if its master node is available.  An update request is sent to a server
on the record's master node.  The server executes a TMF transaction
which updates the master copy of the record and queues 'deferred' update
requests for the non-master copies ... in a 'suspense file' at the
record's master node.  A dedicated process, called the 'suspense
monitor', scans the suspense file looking for work to do ...  When the
network is re-connected and all accumulated updates are applied, global
file copies converge to a consistent state."  (paper, §A Distributed
Data Base Application)

The design trades replica consistency for **node autonomy**: a node can
update records it masters even while partitioned from every other node.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Sequence

from ..discprocess import (
    ENTRY_SEQUENCED,
    FileSchema,
    KEY_SEQUENCED,
    RELATIVE,
    PartitionSpec,
)
from ..encompass import ServerContext, SystemBuilder

__all__ = [
    "MANUFACTURING_NODES",
    "GLOBAL_FILES",
    "LOCAL_FILES",
    "ManufacturingApp",
    "build_manufacturing_system",
]

#: the four facilities of Figure 4
MANUFACTURING_NODES = ("cupertino", "santaclara", "reston", "neufahrn")

#: global (replicated) files
GLOBAL_FILES = ("item_master", "bill_of_materials", "po_header")

#: local (per-node) files
LOCAL_FILES = ("stock", "work_in_progress", "tx_history", "po_detail")


def _copy_name(file: str, node: str) -> str:
    """The name of one node's copy of a global file."""
    return f"{file}.{node}"


def _local_name(file: str, node: str) -> str:
    return f"{file}.{node}"


class ManufacturingApp:
    """Runtime handle over a built manufacturing system."""

    def __init__(self, system: Any, nodes: Sequence[str]):
        self.system = system
        self.nodes = tuple(nodes)

    def _gupd_destination(self, from_node: str, dest_node: str) -> str:
        """Route to a live $gupd server instance at ``dest_node``.

        (The Pathway link manager's job: class name -> instance.)
        """
        server_class = self.system.server_classes[(dest_node, "$gupd")]
        instance = server_class.pick_instance() or f"{server_class.name}-1"
        if dest_node == from_node:
            return instance
        return f"\\{dest_node}.{instance}"

    # ------------------------------------------------------------------
    # Server handler (global update protocol)
    # ------------------------------------------------------------------
    def make_global_server(self, node: str):
        """The global-update server for ``node`` (runs at that node)."""
        app = self

        def handler(ctx: ServerContext, request: Dict[str, Any]) -> Generator:
            op = request.get("op")
            if op == "update_global":
                result = yield from app._update_global(ctx, node, request)
                return result
            if op == "apply_deferred":
                result = yield from app._apply_deferred(ctx, node, request)
                return result
            if op == "read_global":
                copy = _copy_name(request["file"], node)
                record = yield from ctx.read(copy, tuple(request["key"]))
                return {"ok": True, "record": record}
            return {"ok": False, "error": "bad_op"}

        return handler

    def _update_global(self, ctx: ServerContext, node: str, request: Dict[str, Any]) -> Generator:
        """Master-node update: local copy + suspense entries, one TMF txn."""
        file = request["file"]
        key = tuple(request["key"])
        fields = request["fields"]
        copy = _copy_name(file, node)
        record = yield from ctx.read(copy, key, lock=True)
        if record is None:
            return {"ok": False, "error": "not_found"}
        if record["master_node"] != node:
            # "The update of a global record can occur only if its master
            # node is available" — and only *at* the master node.
            return {"ok": False, "error": "not_master",
                    "master_node": record["master_node"]}
        record.update(fields)
        record["version"] += 1
        yield from ctx.update(copy, record)
        # Queue deferred updates for every non-master copy, in suspense-
        # file order (a per-node sequence from a locked control record).
        control_file = _local_name("repl_ctl", node)
        control = yield from ctx.read_slot(control_file, 0, lock=True)
        seq = control["next_seq"]
        control["next_seq"] = seq + len(self.nodes) - 1
        yield from ctx.write_slot(control_file, 0, control)
        suspense = _local_name("suspense", node)
        for dest in self.nodes:
            if dest == node:
                continue
            yield from ctx.insert(
                suspense,
                {
                    "seq": seq,
                    "dest": dest,
                    "file": file,
                    "key": list(key),
                    "fields": dict(fields),
                    "version": record["version"],
                },
            )
            seq += 1
        return {"ok": True, "version": record["version"]}

    def _apply_deferred(self, ctx: ServerContext, node: str, request: Dict[str, Any]) -> Generator:
        """Non-master node applies one deferred update to its copy."""
        copy = _copy_name(request["file"], node)
        key = tuple(request["key"])
        record = yield from ctx.read(copy, key, lock=True)
        if record is None:
            return {"ok": False, "error": "not_found"}
        if request["version"] <= record["version"]:
            return {"ok": True, "skipped": True}  # already applied (replay)
        record.update(request["fields"])
        record["version"] = request["version"]
        yield from ctx.update(copy, record)
        return {"ok": True, "skipped": False}

    # ------------------------------------------------------------------
    # The suspense monitor
    # ------------------------------------------------------------------
    def suspense_monitor(self, node: str, interval: float = 300.0):
        """A dedicated process draining ``node``'s suspense file.

        For each destination currently accessible, applies deferred
        updates in suspense-file order: one TMF transaction per entry —
        send the update to a server at the non-master node and delete
        the suspense entry (exactly the paper's procedure).
        """
        app = self
        system = self.system
        client = system.clients[node]
        tmf = system.tmf[node]
        suspense = _local_name("suspense", node)

        def monitor(proc) -> Generator:
            from ..discprocess import FileError
            from ..guardian import FileSystemError
            from ..core import TransactionAborted

            while proc.alive:
                yield system.env.timeout(interval)
                try:
                    rows = yield from client.scan(proc, suspense)
                except FileError:
                    continue
                # Per-destination FIFO: entries are keyed by (seq,) so a
                # scan yields them in queueing order.
                blocked: set = set()
                for _key, entry in rows:
                    dest = entry["dest"]
                    if dest in blocked:
                        continue
                    if not system.cluster.network.connected(node, dest):
                        blocked.add(dest)
                        continue
                    transid = yield from tmf.begin(proc)
                    try:
                        reply = yield from system.cluster.fs(node).send(
                            proc,
                            app._gupd_destination(node, dest),
                            {
                                "op": "apply_deferred",
                                "file": entry["file"],
                                "key": entry["key"],
                                "fields": entry["fields"],
                                "version": entry["version"],
                            },
                            transid=transid,
                            timeout=5000.0,
                        )
                        if not reply.get("ok"):
                            raise FileSystemError(dest, RuntimeError(reply.get("error")))
                        yield from client.lock_record(
                            proc, suspense, (entry["seq"],), transid
                        )
                        yield from client.delete(
                            proc, suspense, (entry["seq"],), transid=transid
                        )
                        yield from tmf.end(proc, transid)
                    except (FileSystemError, FileError, TransactionAborted):
                        yield from tmf.abort(proc, transid, "deferred apply failed")
                        blocked.add(dest)

        return monitor

    # ------------------------------------------------------------------
    # Application operations (run from a utility process)
    # ------------------------------------------------------------------
    def update_item(self, proc, from_node: str, item_id: Any, fields: Dict[str, Any],
                    file: str = "item_master") -> Generator:
        """Update a global record from any node (routed to its master)."""
        client = self.system.clients[from_node]
        tmf = self.system.tmf[from_node]
        # Reads are always directed to the local copy.
        local = yield from client.read(proc, _copy_name(file, from_node), (item_id,))
        if local is None:
            return {"ok": False, "error": "not_found"}
        master = local["master_node"]
        transid = yield from tmf.begin(proc)
        from ..core import TransactionAborted
        from ..guardian import FileSystemError
        try:
            reply = yield from self.system.cluster.fs(from_node).send(
                proc,
                self._gupd_destination(from_node, master),
                {"op": "update_global", "file": file, "key": [item_id],
                 "fields": fields},
                transid=transid,
                timeout=5000.0,
            )
            if not reply.get("ok"):
                yield from tmf.abort(proc, transid, str(reply.get("error")))
                return reply
            yield from tmf.end(proc, transid)
            return reply
        except (FileSystemError, TransactionAborted) as exc:
            yield from tmf.abort(proc, transid, str(exc))
            return {"ok": False, "error": "master_unavailable", "master_node": master}

    def local_transaction(self, proc, node: str, item_id: Any, delta: int) -> Generator:
        """A purely local stock movement (most transactions in Figure 4)."""
        client = self.system.clients[node]
        tmf = self.system.tmf[node]
        stock_file = _local_name("stock", node)
        history = _local_name("tx_history", node)
        transid = yield from tmf.begin(proc)
        record = yield from client.read(proc, stock_file, (item_id,), transid=transid, lock=True)
        if record is None:
            record = {"item_id": item_id, "qty": 0}
            record["qty"] += delta
            yield from client.insert(proc, stock_file, record, transid=transid)
        else:
            record["qty"] += delta
            yield from client.update(proc, stock_file, record, transid=transid)
        yield from client.append_entry(
            proc, history, {"item_id": item_id, "delta": delta}, transid=transid
        )
        yield from tmf.end(proc, transid)
        return record["qty"]

    # ------------------------------------------------------------------
    # Convergence checking
    # ------------------------------------------------------------------
    def convergence_report(self, file: str = "item_master") -> Dict[str, Any]:
        """Compare all copies of a global file across nodes."""
        copies: Dict[str, Dict[Any, Any]] = {}

        def reader(proc, node):
            client = self.system.clients[node]
            rows = yield from client.scan(proc, _copy_name(file, node))
            copies[node] = {key: record for key, record in rows}

        for node in self.nodes:
            p = self.system.spawn(node, "$conv", (lambda n: lambda pr: reader(pr, n))(node), cpu=0)
            self.system.cluster.run(p.sim_process)
        reference = copies[self.nodes[0]]
        converged = all(copies[node] == reference for node in self.nodes[1:])
        suspense_depth = {}

        def depth_reader(proc, node):
            client = self.system.clients[node]
            rows = yield from client.scan(proc, _local_name("suspense", node))
            suspense_depth[node] = len(rows)

        for node in self.nodes:
            p = self.system.spawn(node, "$depth", (lambda n: lambda pr: depth_reader(pr, n))(node), cpu=0)
            self.system.cluster.run(p.sim_process)
        return {
            "converged": converged,
            "copies": copies,
            "suspense_depth": suspense_depth,
        }


def build_manufacturing_system(
    seed: int = 0,
    nodes: Sequence[str] = MANUFACTURING_NODES,
    items_per_node: int = 4,
    monitor_interval: float = 300.0,
    cpus: int = 4,
) -> ManufacturingApp:
    """Build the Figure 4 network: files, servers, suspense monitors, data."""
    builder = SystemBuilder(seed=seed)
    for node in nodes:
        builder.add_node(node, cpus=cpus)
        builder.add_volume(node, "$data", cpus=(0, 1))
    # Global file copies: one per (file, node), all audited.
    for file in GLOBAL_FILES:
        for node in nodes:
            builder.define_file(
                FileSchema(
                    name=_copy_name(file, node),
                    organization=KEY_SEQUENCED,
                    primary_key=("item_id",),
                    audited=True,
                    partitions=(PartitionSpec(node, "$data"),),
                )
            )
    # Local files.
    for node in nodes:
        builder.define_file(
            FileSchema(
                name=_local_name("stock", node),
                organization=KEY_SEQUENCED,
                primary_key=("item_id",),
                audited=True,
                partitions=(PartitionSpec(node, "$data"),),
            )
        )
        builder.define_file(
            FileSchema(
                name=_local_name("work_in_progress", node),
                organization=KEY_SEQUENCED,
                primary_key=("wip_id",),
                audited=True,
                partitions=(PartitionSpec(node, "$data"),),
            )
        )
        builder.define_file(
            FileSchema(
                name=_local_name("po_detail", node),
                organization=KEY_SEQUENCED,
                primary_key=("po_id", "line"),
                audited=True,
                partitions=(PartitionSpec(node, "$data"),),
            )
        )
        builder.define_file(
            FileSchema(
                name=_local_name("tx_history", node),
                organization=ENTRY_SEQUENCED,
                audited=True,
                partitions=(PartitionSpec(node, "$data"),),
            )
        )
        builder.define_file(
            FileSchema(
                name=_local_name("suspense", node),
                organization=KEY_SEQUENCED,
                primary_key=("seq",),
                audited=True,
                partitions=(PartitionSpec(node, "$data"),),
            )
        )
        builder.define_file(
            FileSchema(
                name=_local_name("repl_ctl", node),
                organization=RELATIVE,
                audited=True,
                partitions=(PartitionSpec(node, "$data"),),
            )
        )
    app = ManufacturingApp(builder.system, nodes)
    # Global-update server class per node.
    for node in nodes:
        builder.add_server_class(node, "$gupd", app.make_global_server(node), instances=2)
    system = builder.build()
    # Suspense monitor per node ("a dedicated process").
    for node in nodes:
        system.cluster.os(node).spawn(
            f"$susp-{node}", cpus - 1, app.suspense_monitor(node, monitor_interval),
            register=False,
        )
    # Initial data: items mastered round-robin across nodes, replicated
    # everywhere; control records.
    def loader(proc):
        for node in nodes:
            client = system.clients[node]
            tmf = system.tmf[node]
            transid = yield from tmf.begin(proc)
            yield from client.write_slot(
                proc, _local_name("repl_ctl", node), 0, {"next_seq": 0},
                transid=transid,
            )
            yield from tmf.end(proc, transid)
        client = system.clients[nodes[0]]
        tmf = system.tmf[nodes[0]]
        item_id = 0
        for master in nodes:
            for _ in range(items_per_node):
                transid = yield from tmf.begin(proc)
                for copy_node in nodes:
                    yield from client.insert(
                        proc,
                        _copy_name("item_master", copy_node),
                        {
                            "item_id": item_id,
                            "master_node": master,
                            "description": f"item {item_id}",
                            "qty_on_hand": 100,
                            "version": 0,
                        },
                        transid=transid,
                    )
                yield from tmf.end(proc, transid)
                item_id += 1
        return item_id

    p = system.spawn(nodes[0], "$mload", loader, cpu=0)
    system.cluster.run(p.sim_process)
    # Quiesce: the loader's distributed commits release remote locks via
    # safe-delivery phase-2 messages; drain them so callers start from a
    # lock-free network.
    settle = system.spawn(
        nodes[0], "$msettle", lambda proc: (yield system.env.timeout(1500)), cpu=0
    )
    system.cluster.run(settle.sim_process)
    return app
