"""A debit/credit banking application (TP1-style).

The canonical online-transaction-processing workload of the era (and of
Tandem's marketing): tellers post debits and credits against accounts;
every posting updates the account, the teller's cash drawer, the branch
total, and appends a history record — one atomic TMF transaction across
four files.

The application supplies the paper's "application-dependent set of
assertions" that define consistency (§Transaction Management):

* sum(account.balance) == sum(branch.balance);
* sum(teller.balance grouped by branch) == branch.balance;
* every committed posting has exactly one history record.

``check_consistency`` evaluates these against a live system; the
atomicity experiments assert they hold after arbitrary failures.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..discprocess import (
    ENTRY_SEQUENCED,
    FileSchema,
    KEY_SEQUENCED,
    PartitionSpec,
)
from ..encompass import ScreenContext, ServerContext, SystemBuilder

__all__ = [
    "banking_schemas",
    "bank_server",
    "build_banking_system",
    "debit_credit_input",
    "debit_credit_program",
    "install_banking",
    "populate_banking",
    "check_consistency",
]

#: every account's balance after :func:`populate_banking`.
INITIAL_BALANCE = 1000


def banking_schemas(
    data_partitions: Tuple[PartitionSpec, ...],
    meta_partition: Optional[PartitionSpec] = None,
    history_partition: Optional[PartitionSpec] = None,
) -> List[FileSchema]:
    """Schemas for the four banking files.

    ``data_partitions`` locates the (possibly partitioned) account file;
    ``meta_partition`` locates branch/teller (defaults to the first data
    partition); ``history_partition`` locates the history journal
    (defaults to the meta partition) — spreading these over volumes is
    how a configuration scales (bench F2).
    """
    meta = meta_partition or data_partitions[0]
    history = history_partition or meta
    return [
        FileSchema(
            name="account",
            organization=KEY_SEQUENCED,
            primary_key=("account_id",),
            alternate_keys=("branch_id",),
            audited=True,
            partitions=data_partitions,
        ),
        FileSchema(
            name="teller",
            organization=KEY_SEQUENCED,
            primary_key=("teller_id",),
            audited=True,
            partitions=(meta,),
        ),
        FileSchema(
            name="branch",
            organization=KEY_SEQUENCED,
            primary_key=("branch_id",),
            audited=True,
            partitions=(meta,),
        ),
        FileSchema(
            name="history",
            organization=ENTRY_SEQUENCED,
            audited=True,
            partitions=(history,),
        ),
    ]


def bank_server(ctx: ServerContext, request: Dict[str, Any]) -> Generator:
    """The context-free banking server: one debit/credit posting.

    Locks are acquired at read time (the TMF discipline); a lock timeout
    propagates out as the ``lock_timeout`` error reply that tells the
    screen program to RESTART-TRANSACTION.
    """
    op = request.get("op")
    if op == "balance":
        account = yield from ctx.read("account", (request["account_id"],))
        if account is None:
            return {"ok": False, "error": "no_such_account"}
        return {"ok": True, "balance": account["balance"]}
    if op != "post":
        return {"ok": False, "error": "bad_op"}

    amount = request["amount"]
    account = yield from ctx.read(
        "account", (request["account_id"],), lock=True,
        lock_timeout=request.get("lock_timeout", 400.0),
    )
    if account is None:
        return {"ok": False, "error": "no_such_account"}
    teller = yield from ctx.read(
        "teller", (request["teller_id"],), lock=True,
        lock_timeout=request.get("lock_timeout", 400.0),
    )
    branch = yield from ctx.read(
        "branch", (request["branch_id"],), lock=True,
        lock_timeout=request.get("lock_timeout", 400.0),
    )
    if teller is None or branch is None:
        return {"ok": False, "error": "bad_teller_or_branch"}
    if account["balance"] + amount < 0 and not request.get("allow_overdraft"):
        return {"ok": False, "error": "insufficient_funds"}
    account["balance"] += amount
    teller["balance"] += amount
    branch["balance"] += amount
    yield from ctx.update("account", account)
    yield from ctx.update("teller", teller)
    yield from ctx.update("branch", branch)
    yield from ctx.append_entry(
        "history",
        {
            "account_id": request["account_id"],
            "teller_id": request["teller_id"],
            "branch_id": request["branch_id"],
            "amount": amount,
            "transid": str(ctx.transid),
        },
    )
    return {"ok": True, "balance": account["balance"]}


def debit_credit_program(ctx: ScreenContext, data: Dict[str, Any]) -> Generator:
    """The teller's screen program: one posting per input screen."""
    request = {"op": "post"}
    request.update(data)
    reply = yield from ctx.send_ok(data.get("server", "$bank"), request)
    ctx.display(
        f"POSTED {data['amount']:+d} TO {data['account_id']} "
        f"NEW BAL {reply['balance']}"
    )
    return reply["balance"]


def install_banking(
    builder: SystemBuilder,
    node: str = "alpha",
    volume: str = "$data",
    server_instances: int = 2,
    data_partitions: Optional[Tuple[PartitionSpec, ...]] = None,
    meta_partition: Optional[PartitionSpec] = None,
    history_partition: Optional[PartitionSpec] = None,
) -> None:
    """Define the banking files and the ``$bank`` server class."""
    partitions = data_partitions or (PartitionSpec(node, volume),)
    for schema in banking_schemas(partitions, meta_partition, history_partition):
        builder.define_file(schema)
    builder.add_server_class(node, "$bank", bank_server, instances=server_instances)


def populate_banking(
    system: Any,
    node: str,
    branches: int,
    tellers_per_branch: int,
    accounts: int,
) -> None:
    """Load the initial data set (one transaction per branch)."""
    client = system.clients[node]
    tmf = system.tmf[node]

    def loader(proc):
        for branch_id in range(branches):
            transid = yield from tmf.begin(proc)
            yield from client.insert(
                proc, "branch", {"branch_id": branch_id, "balance": 0},
                transid=transid,
            )
            for t in range(tellers_per_branch):
                teller_id = branch_id * tellers_per_branch + t
                yield from client.insert(
                    proc,
                    "teller",
                    {"teller_id": teller_id, "branch_id": branch_id, "balance": 0},
                    transid=transid,
                )
            yield from tmf.end(proc, transid)
        for start in range(0, accounts, 50):
            transid = yield from tmf.begin(proc)
            for account_id in range(start, min(start + 50, accounts)):
                yield from client.insert(
                    proc,
                    "account",
                    {
                        "account_id": account_id,
                        "branch_id": account_id % branches,
                        "balance": INITIAL_BALANCE,
                    },
                    transid=transid,
                )
            yield from tmf.end(proc, transid)
        # Branch totals start equal to the sum of their accounts.
        transid = yield from tmf.begin(proc)
        rows = yield from client.scan(proc, "account")
        per_branch: Dict[int, int] = {}
        for _key, record in rows:
            per_branch[record["branch_id"]] = (
                per_branch.get(record["branch_id"], 0) + record["balance"]
            )
        for branch_id in range(branches):
            branch = yield from client.read(
                proc, "branch", (branch_id,), transid=transid, lock=True
            )
            branch["balance"] = per_branch.get(branch_id, 0)
            yield from client.update(proc, "branch", branch, transid=transid)
        yield from tmf.end(proc, transid)
        return True

    node_os = system.cluster.os(node)
    proc = node_os.spawn("$loader", 0, loader, register=False)
    system.cluster.run(proc.sim_process)


def build_banking_system(seed: int, cpus: int = 4, volumes: int = 1,
                         accounts: int = 24, branches: int = 2, tellers: int = 8,
                         terminals: int = 8, keep_trace: bool = False,
                         cache_capacity: int = 256,
                         **options: Any) -> Tuple[Any, List[str]]:
    """The populated bank on node ``alpha`` and the names of its terminals
    on TCP ``$tcp1``; ``options`` go to :class:`SystemBuilder`."""
    builder = SystemBuilder(seed=seed, keep_trace=keep_trace, **options)
    builder.add_node("alpha", cpus=cpus)
    cpu_pairs = [(c, c + 1) for c in range(0, cpus - 1, 2)]
    names = [f"$data{v}" if volumes > 1 else "$data" for v in range(volumes)]
    for v, name in enumerate(names):
        builder.add_volume("alpha", name, cpus=cpu_pairs[v % len(cpu_pairs)],
                           cache_capacity=cache_capacity)
    # Branch/teller on volume 0, history on volume 1, the account file
    # key-range partitioned over the rest (over all, with one or two).
    account_volumes = names[2:] or names
    step = max(accounts // len(account_volumes), 1)
    install_banking(
        builder, "alpha", names[0], server_instances=3,
        data_partitions=tuple(
            PartitionSpec("alpha", name, low_key=(i * step,) if i else None)
            for i, name in enumerate(account_volumes)
        ),
        meta_partition=PartitionSpec("alpha", names[0]),
        history_partition=PartitionSpec("alpha", names[1 % volumes]),
    )
    builder.add_tcp("alpha", "$tcp1", cpus=(cpus - 2, cpus - 1), restart_limit=8)
    builder.add_program("alpha", "$tcp1", "debit-credit", debit_credit_program)
    terminal_ids = [f"T{i}" for i in range(terminals)]
    for terminal in terminal_ids:
        builder.add_terminal("alpha", "$tcp1", terminal, "debit-credit")
    system = builder.build()
    populate_banking(system, "alpha", branches=branches,
                     tellers_per_branch=tellers // branches, accounts=accounts)
    return system, terminal_ids


def debit_credit_input(accounts: int, tellers: int = 8, branches: int = 2,
                       amounts: Sequence[int] = (5, 10, 25, -5)) -> Callable:
    """A ``run_closed_loop`` input maker: one random posting per screen."""
    def make_input(rng, terminal_id, iteration):
        return {
            "account_id": rng.randrange(accounts),
            "teller_id": rng.randrange(tellers),
            "branch_id": rng.randrange(branches),
            "amount": rng.choice(amounts),
            "allow_overdraft": True,
        }

    return make_input


def check_consistency(system: Any, node: str) -> Dict[str, Any]:
    """Evaluate the application's consistency assertions.

    Returns a report dict with ``consistent`` plus the totals, so
    experiments can assert and also print the evidence.
    """
    client = system.clients[node]
    report: Dict[str, Any] = {}

    def checker(proc):
        accounts = yield from client.scan(proc, "account")
        branches = yield from client.scan(proc, "branch")
        tellers = yield from client.scan(proc, "teller")
        history = yield from client.scan_entries(proc, "history")
        account_total = sum(record["balance"] for _k, record in accounts)
        branch_total = sum(record["balance"] for _k, record in branches)
        teller_total = sum(record["balance"] for _k, record in tellers)
        history_sum = sum(record["amount"] for _esn, record in history)
        # Invariant A: accounts and branch totals move in lockstep.
        # Invariant B: teller drawers hold exactly the committed postings,
        # and so does the history file.
        report.update(
            {
                "account_total": account_total,
                "branch_total": branch_total,
                "teller_total": teller_total,
                "history_sum": history_sum,
                "history_count": len(history),
                "accounts": len(accounts),
                "consistent": (
                    account_total == branch_total
                    and teller_total == history_sum
                ),
            }
        )
        return report

    node_os = system.cluster.os(node)
    proc = node_os.spawn("$check", 0, checker, register=False)
    return system.cluster.run(proc.sim_process)
