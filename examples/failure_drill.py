"""Failure drill: every failure class the paper discusses, narrated.

1. single CPU failure — DISCPROCESS/TCP takeover, transactions continue;
2. mirrored-drive failure — the volume keeps serving from its mirror;
3. bus failure — invisible (the second bus carries the traffic);
4. transaction deadlock — timeout, backout, automatic restart;
5. total node failure — archive + ROLLFORWARD reconstruct exactly the
   committed state.

Run:  python examples/failure_drill.py
"""

from repro.apps.banking import (
    check_consistency,
    debit_credit_program,
    install_banking,
    populate_banking,
)
from repro.core import Tmfcom
from repro.encompass import SystemBuilder


def build():
    builder = SystemBuilder(seed=13)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    install_banking(builder, "alpha", "$data", server_instances=2)
    builder.add_tcp("alpha", "$tcp1", cpus=(2, 3))
    builder.add_program("alpha", "$tcp1", "debit-credit", debit_credit_program)
    builder.add_terminal("alpha", "$tcp1", "T1", "debit-credit")
    system = builder.build()
    populate_banking(system, "alpha", branches=2, tellers_per_branch=2, accounts=8)
    return system


def post(system, amount, account=1):
    return system.drive("alpha", "$tcp1", "T1", {
        "account_id": account, "teller_id": 0, "branch_id": account % 2,
        "amount": amount, "allow_overdraft": True,
    })


def main():
    system = build()
    node = system.cluster.node("alpha")
    dp = system.disc_processes[("alpha", "$data")]

    print("== drill 1: CPU failure (DISCPROCESS primary) ==")
    post(system, 10)
    node.fail_cpu(0)
    reply = post(system, 10)
    print(f"  posting after CPU 0 failure: ok={reply['ok']} "
          f"(takeovers={dp.takeovers})")
    node.restore_cpu(0)

    print("== drill 2: disc drive failure (mirror carries on) ==")
    volume = node.volumes["$data"]
    flusher = system.spawn(
        "alpha", "$flush",
        lambda p: system.clients["alpha"].flush_volume(p, "$data"), cpu=2,
    )
    written = system.cluster.run(flusher.sim_process)
    print(f"  cache flushed: {written} blocks on both mirrors")
    volume.drives[1].fail(reason="head crash")
    reply = post(system, 10)
    print(f"  posting with one drive dead: ok={reply['ok']}")
    volume.drives[1].restore()
    copied = volume.revive()
    print(f"  drive revived from mirror: {copied} blocks copied")

    print("== drill 3: interprocessor bus failure (invisible) ==")
    node.buses.x.fail(reason="bus fault")
    reply = post(system, 10)
    print(f"  posting with bus X dead: ok={reply['ok']}")
    node.buses.x.restore()

    print("== drill 4: total node failure + ROLLFORWARD (via TMFCOM) ==")
    tmf = system.tmf["alpha"]
    tmfcom = Tmfcom(tmf)
    archive = tmfcom.dump_volume("$data")       # DUMP FILES
    print(f"  online archive taken (audit watermark {archive.taken_at_seq})")
    post(system, 100, account=2)   # committed after the archive
    before = check_consistency(system, "alpha")
    node.total_failure()
    print("  ...every CPU down; process memory (and caches) lost...")
    node.restore_all_cpus()
    tmf.reset_after_total_failure()

    def recover(proc):
        stats = yield from tmfcom.recover_volume(proc, archive)  # RECOVER FILES
        return stats

    proc = system.spawn("alpha", "$rf", recover, cpu=0)
    stats = system.cluster.run(proc.sim_process)
    print(f"  rollforward: {stats.records_reapplied} after-images reapplied, "
          f"{stats.transactions_discarded} uncommitted transactions discarded")
    after = check_consistency(system, "alpha")
    print(f"  totals before failure: {before['account_total']}, "
          f"after recovery: {after['account_total']}")
    assert after == before, "recovered state must equal pre-failure state"
    assert after["consistent"]
    print()
    print(tmfcom.render_status())
    print("failure drill OK")


if __name__ == "__main__":
    main()
