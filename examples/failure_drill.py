"""Failure drill: the paper's hardware failure classes, narrated.

1. single CPU failure — DISCPROCESS/TCP takeover, transactions continue;
2. mirrored-drive failure — the volume keeps serving from its mirror;
3. bus failure — invisible (the second bus carries the traffic);
4. total node failure — archive + ROLLFORWARD reconstruct exactly the
   committed state.

(Transaction deadlock — timeout, backout, automatic restart — is shown
by ``examples/banking_debit_credit.py``.)

Run:  python examples/failure_drill.py
"""

from repro.apps.banking import build_banking_system, check_consistency
from repro.core import Tmfcom


def post(system, amount, account=1):
    return system.drive("alpha", "$tcp1", "T0", {
        "account_id": account, "teller_id": 0, "branch_id": account % 2,
        "amount": amount, "allow_overdraft": True,
    })


def main():
    system, _terminals = build_banking_system(seed=13, accounts=8, tellers=4,
                                              terminals=1)
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
