"""Every way a DISCPROCESS refuses a request, pinned reply dict by reply dict.

Each case sends one raw request payload to a real DISCPROCESS pair (an
audited volume under a full TMF node) and compares the whole reply, so a
change to the request path that alters a code, a detail string or the
order of the checks shows up here.
"""

import pytest

from conftest import TmfRig
from repro.core import Transid
from repro.discprocess import (
    ENTRY_SEQUENCED,
    KEY_SEQUENCED,
    RELATIVE,
    FileSchema,
    PartitionSpec,
    SecuritySpec,
)
from repro.discprocess.client import _ERROR_CLASSES
from repro.discprocess.ops import (
    ERROR_CODES,
    AppendEntry,
    CreateFile,
    DeleteRecord,
    InsertRecord,
    LockFile,
    LockRecord,
    ReadEntry,
    ReadRecord,
    ReadSlot,
    UpdateRecord,
)
from repro.encompass import TerminalControlProcess

ON_DATA = (PartitionSpec("alpha", "$data"),)
ACCOUNTS = FileSchema(
    name="accounts", organization=KEY_SEQUENCED, primary_key=("id",),
    audited=True, partitions=ON_DATA,
)
SLOTS = FileSchema(
    name="slots", organization=RELATIVE, audited=True, partitions=ON_DATA,
)
LOG = FileSchema(
    name="log", organization=ENTRY_SEQUENCED, audited=True, partitions=ON_DATA,
)
PAYROLL = FileSchema(
    name="payroll", organization=KEY_SEQUENCED, primary_key=("emp",),
    audited=True, partitions=ON_DATA,
    security=SecuritySpec(read=("alpha.*",), write=("alpha.$payroll*",)),
)


class Volume:
    """One audited ``$data`` volume holding the four files above."""

    def __init__(self):
        self.rig = TmfRig()
        self.rig.add_volume("alpha", "$data")
        self.fs = self.rig.cluster.fs("alpha")
        self.tmf = self.rig.tmf["alpha"]
        for schema in (ACCOUNTS, SLOTS, LOG, PAYROLL):
            assert self.send(CreateFile(schema)) == {"ok": True}

    def send(self, payload, transid=None, name="$t"):
        """One raw request; returns the reply dict."""

        def body(proc):
            return (yield from self.fs.send(proc, "$data", payload, transid=transid))

        return self.rig.run("alpha", body, name=name)

    def begin(self, cpu=0):
        """An active transaction, begun by a finished client process."""

        def body(proc):
            return (yield from self.tmf.begin(proc))

        return self.rig.run("alpha", body, cpu=cpu, name="$begin")


@pytest.fixture
def volume():
    return Volume()


#: every refusal code this module receives
PINNED_CODES = (
    "no_such_file", "file_exists", "audit_requires_transaction",
    "tx_not_active", "security_violation", "not_locked", "bad_request",
    "duplicate_key", "not_found",
)


def refused(code, **extra):
    assert code in PINNED_CODES
    return {"ok": False, "error": code, **extra}


class TestNoSuchFile:
    def test_missing_file(self, volume):
        assert volume.send(ReadRecord("ghost", (1,))) == refused(
            "no_such_file", file="ghost"
        )

    def test_wrong_organization(self, volume):
        assert volume.send(ReadSlot("accounts", 0)) == refused(
            "no_such_file", file="accounts is not relative"
        )
        assert volume.send(ReadEntry("slots", 0)) == refused(
            "no_such_file", file="slots is not entry-sequenced"
        )

    def test_missing_file_is_checked_before_the_transaction(self, volume):
        late = Transid("alpha", 0, 999)
        assert volume.send(InsertRecord("ghost", {"id": 1}), transid=late) == refused(
            "no_such_file", file="ghost"
        )

    def test_explicit_lock_on_a_missing_file(self, volume):
        """An explicit lock looks its file up like every other request,
        so a refused lock makes the volume no participant."""
        transid = volume.begin()
        assert volume.send(LockRecord("ghost", (1,)), transid=transid) == refused(
            "no_such_file", file="ghost"
        )
        assert volume.send(LockFile("ghost"), transid=transid) == refused(
            "no_such_file", file="ghost"
        )
        assert volume.tmf.records[transid].local_volumes == set()
        # Any organization will do for an explicit lock.
        assert volume.send(LockRecord("slots", 3), transid=transid) == {"ok": True}
        assert volume.send(LockFile("log"), transid=transid) == {"ok": True}


def test_file_exists(volume):
    assert volume.send(CreateFile(ACCOUNTS)) == refused("file_exists")


def test_audited_file_on_unaudited_volume_is_a_bad_request():
    rig = TmfRig()
    rig.add_volume("alpha", "$plain", audited=False)
    fs = rig.cluster.fs("alpha")

    def body(proc):
        return (yield from fs.send(proc, "$plain", CreateFile(ACCOUNTS)))

    assert rig.run("alpha", body) == refused(
        "bad_request", detail="audited file accounts on unaudited volume $plain"
    )


def test_audit_requires_transaction(volume):
    assert volume.send(InsertRecord("accounts", {"id": 1})) == refused(
        "audit_requires_transaction"
    )
    assert volume.send(AppendEntry("log", {"n": 1})) == refused(
        "audit_requires_transaction"
    )


def test_tx_not_active(volume):
    late = Transid("alpha", 0, 999)  # never begun: not 'active' anywhere
    assert volume.send(InsertRecord("accounts", {"id": 1}), transid=late) == refused(
        "tx_not_active", transid=str(late)
    )
    assert volume.send(LockRecord("accounts", (1,)), transid=late) == refused(
        "tx_not_active", transid=str(late)
    )


class TestSecurityViolation:
    def test_write_refused(self, volume):
        transid = volume.begin()
        reply = volume.send(InsertRecord("payroll", {"emp": 1}), transid=transid, name="$rogue")
        assert reply == refused(
            "security_violation", detail="alpha.$rogue may not write payroll"
        )

    def test_lock_is_a_write(self, volume):
        reply = volume.send(LockFile("payroll"), name="$rogue")
        assert reply == refused(
            "security_violation", detail="alpha.$rogue may not write payroll"
        )

    def test_security_is_checked_before_the_transaction(self, volume):
        # No transid at all: security still answers first.
        reply = volume.send(InsertRecord("payroll", {"emp": 1}), name="$rogue")
        assert reply == refused(
            "security_violation", detail="alpha.$rogue may not write payroll"
        )


def test_not_locked(volume):
    transid = volume.begin()
    assert volume.send(UpdateRecord("accounts", {"id": 4}), transid=transid) == refused(
        "not_locked", key=(4,)
    )


class TestBadRequest:
    def test_locking_read_without_transaction(self, volume):
        assert volume.send(ReadRecord("accounts", (1,), lock=True)) == refused(
            "bad_request", detail="lock requires a transaction"
        )
        assert volume.send(ReadSlot("slots", 0, lock=True)) == refused(
            "bad_request", detail="lock requires a transaction"
        )

    def test_explicit_lock_without_transaction(self, volume):
        assert volume.send(LockRecord("accounts", (1,))) == refused(
            "bad_request", detail="lock requires a transaction"
        )

    def test_unknown_payload(self, volume):
        assert volume.send("nonsense") == refused("bad_request", detail="'nonsense'")


def test_duplicate_key(volume):
    transid = volume.begin()
    assert volume.send(InsertRecord("accounts", {"id": 1}), transid=transid) == {
        "ok": True, "key": (1,),
    }
    assert volume.send(InsertRecord("accounts", {"id": 1}), transid=transid) == refused(
        "duplicate_key"
    )


def test_not_found(volume):
    transid = volume.begin()
    assert volume.send(LockRecord("accounts", (7,)), transid=transid) == {"ok": True}
    assert volume.send(UpdateRecord("accounts", {"id": 7}), transid=transid) == refused(
        "not_found"
    )
    assert volume.send(DeleteRecord("accounts", (7,)), transid=transid) == refused(
        "not_found"
    )


def test_append_checkpoints_only_the_entry_lock_it_got(volume):
    """T1 holds an explicit lock on the entry T2 then appends: T2's append
    succeeds without the lock, and the backup's table still says T1.

    Both begin in CPU 1, the DISCPROCESS backup's, which survives the
    takeover: a transaction begun in the failed CPU is aborted at once.
    """
    first, second = volume.begin(cpu=1), volume.begin(cpu=1)
    assert volume.send(LockRecord("log", 0), transid=first) == {"ok": True}
    assert volume.send(AppendEntry("log", {"n": 1}), transid=second) == {
        "ok": True, "esn": 0,
    }
    dp = volume.rig.disc_processes[("alpha", "$data")]
    assert dp.locks.holder_of_record("log", 0) == first
    assert dp.backup_state["locks"][("rec", "log", 0)] == first
    volume.rig.cluster.node("alpha").fail_cpu(dp.primary_cpu)
    volume.rig.cluster.run(until=volume.rig.cluster.env.now + 50.0)
    assert dp.takeovers == 1
    assert dp.locks.holder_of_record("log", 0) == first


def test_one_error_vocabulary():
    assert set(PINNED_CODES) <= set(ERROR_CODES)
    assert set(_ERROR_CLASSES) <= set(ERROR_CODES)


@pytest.mark.parametrize("server, reply", [
    ("$aud", refused("bad_request", detail="'nonsense'")),
    ("$TMP", refused("bad_request", detail="'nonsense'")),
    ("$BACKOUT", refused("bad_request", detail="'nonsense'")),
    ("$data", refused("bad_request", detail="'nonsense'")),
    ("$tcp", refused("bad_request", detail="'nonsense'")),
])
def test_tmf_processes_refuse_an_unknown_payload_as_a_bad_request(volume, server, reply):
    """Every process-pair refuses a payload it does not serve alike."""
    TerminalControlProcess(
        volume.rig.cluster.os("alpha"), "$tcp", 0, 1, volume.fs, volume.tmf
    )

    def body(proc):
        return (yield from volume.fs.send(proc, server, "nonsense"))

    assert volume.rig.run("alpha", body) == reply
