"""TMP takeovers in the middle of settling a transaction.

* The TMP primary runs each queued automatic abort as its own worker.
  When the primary's CPU fails while a worker is inside one, the new
  primary adopts the half-settled transaction and aborts it itself.
  The dead primary's worker must stop where its CPU died: if it carried
  on, the transaction would be settled twice, and its second ABORTED
  broadcast would find the transid already gone (``None -> aborted``,
  an illegal Figure 3 edge that stopped the whole simulation).
* When the primary dies in phase two, after the commit record is
  durable, the transaction IS committed.  An abort request for it — a
  TCP resolving an in-doubt unit sends one — must complete phase two
  and answer ``committed``, not back out a committed transaction.
"""

from repro.apps.banking import check_consistency, install_banking, populate_banking
from repro.core import TMP_NAME, TmpAbort
from repro.encompass import SystemBuilder

from conftest import Trigger

ACCOUNTS = 20
#: the transaction's home CPU, and the TMP (and AUDITPROCESS) primary's
HOME_CPU, TMP_CPU = 1, 2


def build():
    builder = SystemBuilder(seed=7, keep_trace=False)
    builder.add_node("alpha", cpus=4, tmf_cpus=(TMP_CPU, 3))
    builder.add_volume("alpha", "$data", cpus=(0, HOME_CPU))
    install_banking(builder, "alpha", "$data", server_instances=1)
    system = builder.build()
    populate_banking(system, "alpha", branches=2, tellers_per_branch=2,
                     accounts=ACCOUNTS)
    return system


def run_scenario():
    system = build()
    env = system.env
    node = system.cluster.node("alpha")
    tmf = system.tmf["alpha"]
    client = system.client("alpha")
    seen = {}

    def teller(proc):
        # Begun in HOME_CPU: that CPU's failure queues an automatic abort.
        transid = yield from tmf.begin(proc)
        seen["transid"] = transid
        for account_id in range(4):
            record = yield from client.read(
                proc, "account", (account_id,), transid=transid, lock=True
            )
            record["balance"] -= 100
            yield from client.update(proc, "account", record, transid=transid)
        yield env.timeout(10_000.0)  # never ends the transaction itself

    def chaos(proc):
        yield Trigger(env, "begin_transaction")
        yield env.timeout(50.0)
        transid = seen["transid"]
        # Wait until the abort worker is inside the abort, then kill its CPU.
        aborting = Trigger(env, "state_broadcast", transid=str(transid),
                           state="aborting")
        node.fail_cpu(HOME_CPU)
        yield aborting
        seen["tmp_failed_at"] = env.now
        node.fail_cpu(TMP_CPU)
        yield env.timeout(1_000.0)
        node.restore_cpu(HOME_CPU)
        node.restore_cpu(TMP_CPU)
        yield env.timeout(5_000.0)

    system.spawn("alpha", "$teller", teller, cpu=HOME_CPU)
    done = system.spawn("alpha", "$chaos", chaos, cpu=0)
    system.run(done.sim_process)
    return system, seen


def test_tmp_takeover_mid_abort_settles_once():
    system, seen = run_scenario()
    tmf = system.tmf["alpha"]
    transid = seen["transid"]
    assert "tmp_failed_at" in seen, "the TMP failure must land mid-abort"
    assert system.tmf["alpha"].tmp.takeovers == 1
    assert tmf.dispositions[transid] == "aborted"
    assert tmf.status(transid).done == "aborted"
    assert tmf.aborts == 1
    assert tmf.broadcaster.current_state(transid) is None
    report = check_consistency(system, "alpha")
    assert report["consistent"], report
    balances = {}

    def reader(proc):
        for account_id in range(4):
            record = yield from system.client("alpha").read(
                proc, "account", (account_id,)
            )
            balances[account_id] = record["balance"]

    system.run(system.spawn("alpha", "$reader", reader, cpu=0).sim_process)
    assert balances == {account_id: 1000 for account_id in range(4)}


def test_abort_after_the_commit_point_completes_the_commit():
    system = build()
    env = system.env
    node = system.cluster.node("alpha")
    tmf = system.tmf["alpha"]
    client = system.client("alpha")
    seen = {}

    def posting(proc, name, account_id):
        transid = yield from tmf.begin(proc)
        seen[name] = transid
        record = yield from client.read(
            proc, "account", (account_id,), transid=transid, lock=True
        )
        record["balance"] -= 100
        yield from client.update(proc, "account", record, transid=transid)
        return transid

    def aborted_teller(proc):
        transid = yield from posting(proc, "aborted", 1)
        # The other posting's commit begins: its settle broadcasts ENDING.
        yield Trigger(env, "state_broadcast", state="ending")
        yield from tmf.abort(proc, transid, "user abort")

    def committed_teller(proc):
        yield env.timeout(5.0)  # begun second: resolved second after a takeover
        transid = yield from posting(proc, "committed", 0)
        yield from tmf.end(proc, transid)
        seen["ended"] = True

    def commit_durable_while_abort_settles(record):
        return (tmf.dispositions.get(seen.get("committed")) == "committed"
                and tmf.status(seen["aborted"]).settling)

    def in_doubt_resolver(proc):
        # Phase two under way (the commit record is durable) while the
        # other transaction's abort is still settling.  No record marks
        # that window: the state is read at every record.
        yield Trigger(env, when=commit_durable_while_abort_settles)
        transid = seen["committed"]
        node.fail_cpu(TMP_CPU)
        # The new primary's worker resolves the aborting transaction;
        # this request, as a TCP resolving an in-doubt unit sends it,
        # arrives meanwhile.
        reply = yield from system.cluster.fs("alpha").send(
            proc, TMP_NAME, TmpAbort(transid, "resolving an in-doubt unit")
        )
        seen["disposition"] = reply["disposition"]
        yield env.timeout(2_000.0)

    system.spawn("alpha", "$teller0", aborted_teller, cpu=HOME_CPU)
    system.spawn("alpha", "$teller1", committed_teller, cpu=HOME_CPU)
    done = system.spawn("alpha", "$resolver", in_doubt_resolver, cpu=0)
    system.run(done.sim_process)
    transid = seen["committed"]
    assert seen["disposition"] == "committed"
    assert seen.get("ended"), "END-TRANSACTION completed after the takeover"
    assert tmf.dispositions[transid] == "committed"
    assert tmf.status(transid).done == "committed"
    assert tmf.dispositions[seen["aborted"]] == "aborted"
    assert system.disc_processes[("alpha", "$data")].locks.held_count() == 0
    balances = {}

    def reader(proc):
        for account_id in (0, 1):
            record = yield from client.read(proc, "account", (account_id,))
            balances[account_id] = record["balance"]

    system.run(system.spawn("alpha", "$reader", reader, cpu=0).sim_process)
    assert balances == {0: 900, 1: 1000}
