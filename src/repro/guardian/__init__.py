"""The GUARDIAN-like operating system layer.

Message-based, decentralized, no master: named OS processes with
inboxes, a location-transparent message system, fault-tolerant
process-pairs with checkpointing and takeover, and the File System layer
that gives applications transparent retry and automatic transid
propagation.
"""

from .cluster import Cluster
from .filesystem import FileSystem, FileSystemError, parse_destination
from .message import (
    DeliveryError,
    Message,
    MessageSystem,
    PathDown,
    ProcessDied,
    ProcessUnavailable,
    RequestTimeout,
)
from .pair import REPLY_RETENTION, PairDown, ProcessPair, bad_request
from .process import NodeOs, OsProcess

__all__ = [
    "Cluster",
    "DeliveryError",
    "FileSystem",
    "FileSystemError",
    "Message",
    "MessageSystem",
    "NodeOs",
    "OsProcess",
    "PairDown",
    "PathDown",
    "ProcessDied",
    "ProcessPair",
    "ProcessUnavailable",
    "REPLY_RETENTION",
    "RequestTimeout",
    "bad_request",
    "parse_destination",
]
