"""A process-pair answers each request once: the reply log.

A reply that rode in a checkpoint answers any retry of the same message
id, on the primary and, after a takeover, on the new primary; the log
keeps the newest ``REPLY_RETENTION`` replies on both halves.
"""

from conftest import TmfRig
from repro.discprocess import KEY_SEQUENCED, FileSchema, PartitionSpec
from repro.discprocess.ops import CreateFile, InsertRecord, ReadRecord
from repro.encompass import TerminalControlProcess, TerminalInput
from repro.guardian import REPLY_RETENTION

NOTES = FileSchema(
    name="notes", organization=KEY_SEQUENCED, primary_key=("id",),
    audited=False, partitions=(PartitionSpec("alpha", "$data"),),
)


def unaudited_volume():
    rig = TmfRig()
    dp = rig.add_volume("alpha", "$data", audited=False)
    send(rig, "$data", CreateFile(NOTES))
    return rig, dp


def send(rig, server, payload, msg_id=None):
    """One request; ``msg_id`` pins the id, as a File System retry does."""

    def body(proc):
        return (yield from proc.request("alpha", server, payload, msg_id=msg_id))

    return rig.run("alpha", body, cpu=2, name="$client")


def newest(table):
    return next(reversed(table))


def assert_keeps_only_the_newest(pair, oldest_id):
    for table in (pair.state["completed"], pair.backup_state["completed"]):
        assert len(table) == REPLY_RETENTION
        assert oldest_id not in table


def test_disc_process_keeps_the_newest_replies_and_answers_a_retry_after_takeover():
    rig, dp = unaudited_volume()
    for n in range(REPLY_RETENTION + 1):
        assert send(rig, "$data", InsertRecord("notes", {"id": n})) == {
            "ok": True, "key": (n,),
        }
        if n == 0:
            oldest_id = newest(dp.state["completed"])
    assert_keeps_only_the_newest(dp, oldest_id)
    last_id = newest(dp.state["completed"])

    rig.cluster.node("alpha").fail_cpu(dp.primary_cpu)
    assert dp.takeovers == 1
    # The retry carries a different record: it is answered, not served.
    retry = InsertRecord("notes", {"id": -1})
    assert send(rig, "$data", retry, msg_id=last_id) == {
        "ok": True, "key": (REPLY_RETENTION,),
    }
    assert send(rig, "$data", ReadRecord("notes", (-1,))) == {"ok": True, "record": None}


def test_a_crashed_volume_answers_a_retry_from_its_recorded_reply():
    rig, dp = unaudited_volume()
    assert send(rig, "$data", InsertRecord("notes", {"id": 1})) == {
        "ok": True, "key": (1,),
    }
    done_id = newest(dp.state["completed"])
    dp.crashed = True
    retry = InsertRecord("notes", {"id": 2})
    assert send(rig, "$data", retry, msg_id=done_id) == {"ok": True, "key": (1,)}
    assert send(rig, "$data", retry) == {"ok": False, "error": "volume_down"}


def counting_tcp(rig):
    """A TCP whose one-terminal program commits an empty unit per input."""
    tmf = rig.tmf["alpha"]
    tcp = TerminalControlProcess(
        rig.cluster.os("alpha"), "$tcp", 0, 1, rig.cluster.fs("alpha"), tmf
    )
    units = []

    def program(context, data):
        units.append(data)
        return data
        yield  # pragma: no cover - generator marker

    tcp.add_program("count", program)
    tcp.add_terminal("T1", "count")
    return tcp, units


def test_tcp_keeps_the_newest_replies_and_answers_a_retry_after_takeover():
    rig = TmfRig()
    tcp, units = counting_tcp(rig)
    for n in range(REPLY_RETENTION + 1):
        reply = send(rig, "$tcp", TerminalInput("T1", n))
        assert reply["ok"] and reply["result"] == n
        if n == 0:
            oldest_id = newest(tcp.state["completed"])
    assert_keeps_only_the_newest(tcp, oldest_id)
    last_id = newest(tcp.state["completed"])
    last_reply = tcp.state["completed"][last_id]

    rig.cluster.node("alpha").fail_cpu(tcp.primary_cpu)
    assert tcp.takeovers == 1
    assert send(rig, "$tcp", TerminalInput("T1", -1), msg_id=last_id) == last_reply
    assert units == list(range(REPLY_RETENTION + 1))
