"""TMF — the Transaction Monitoring Facility (the paper's contribution).

Transids, the Figure 3 transaction state machine with node-wide
broadcast, distributed audit trails and AUDITPROCESSes, the
BACKOUTPROCESS, the TMP with critical-response / safe-delivery network
messaging, the abbreviated and distributed two-phase commit protocols,
the Monitor Audit Trail, and ROLLFORWARD.
"""

from .audit import (
    AppendAudit,
    AuditProcess,
    AuditRecord,
    AuditTrail,
    CompletionRecord,
    ForceAudit,
    GetAudit,
)
from .backout import BackoutProcess, BackoutTx
from .rollforward import (
    RecoveryStats,
    Rollforward,
    VolumeArchive,
    dump_volume,
    purge_audit_trails,
)
from .states import (
    IllegalTransition,
    LEGAL_TRANSITIONS,
    StateBroadcaster,
    TxState,
)
from .tmf import TMP_NAME, TmfNode, TransactionAborted, TransactionRecord
from .tmfcom import Tmfcom
from .tmp import (
    TmpAbort,
    TmpAbortRemote,
    TmpCommit,
    TmpForceDisposition,
    TmpPhase1,
    TmpPhase2,
    TmpProcess,
    TmpQuery,
    TmpRemoteBegin,
)
from .transid import Transid, TransidGenerator

__all__ = [
    "AppendAudit",
    "AuditProcess",
    "AuditRecord",
    "AuditTrail",
    "BackoutProcess",
    "BackoutTx",
    "CompletionRecord",
    "ForceAudit",
    "GetAudit",
    "IllegalTransition",
    "LEGAL_TRANSITIONS",
    "RecoveryStats",
    "Rollforward",
    "StateBroadcaster",
    "TMP_NAME",
    "TmfNode",
    "Tmfcom",
    "TmpAbort",
    "TmpAbortRemote",
    "TmpCommit",
    "TmpForceDisposition",
    "TmpPhase1",
    "TmpPhase2",
    "TmpProcess",
    "TmpQuery",
    "TmpRemoteBegin",
    "TransactionAborted",
    "TransactionRecord",
    "Transid",
    "TransidGenerator",
    "TxState",
    "VolumeArchive",
    "dump_volume",
    "purge_audit_trails",
]
