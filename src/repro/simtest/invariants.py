"""The paper's guarantees, each checked by one function.

TMF promises "logical data base consistency ... despite processor
failure, application process failure, network partition, transaction
deadlock", and commits a transaction only once its audit is forced and
its commit record is on the Monitor Audit Trail.  Each guarantee has one
check here:

* :func:`agreement` — one fate per transaction across every node;
* :func:`durability` — a committed transaction's audit images are on
  their trail;
* :func:`no_stranded_locks` — a settled system holds no lock;
* :func:`deadlock_cycle` — the one waits-for cycle search;
* :func:`figure3_edge` — a state change is an edge of Figure 3.

The system checks take an :class:`~repro.encompass.EncompassSystem`, or
any object with its ``cluster`` and ``tmf`` dict of
:class:`~repro.core.TmfNode` (the tests' rigs): volumes and trails are
reached through each node's ``disc_objects`` and ``audit_objects``.
Every check is read-only.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core import LEGAL_TRANSITIONS, AuditRecord, TxState
from repro.discprocess.entryseq import EntrySequencedFile

__all__ = [
    "TrailIndex",
    "agreement",
    "check_durability_at_commits",
    "deadlock_cycle",
    "durability",
    "figure3_edge",
    "no_stranded_locks",
]


def agreement(system: Any) -> Dict[str, Dict[str, str]]:
    """Transactions committed in one node's ``dispositions`` and
    aborted in another's, as ``{transid: {node: disposition}}``.

    The commit decision is one value (Gray & Lamport, *Consensus on
    Transaction Commit*): an empty result means every node that
    recorded a fate recorded the same one.
    """
    fates: Dict[str, Dict[str, str]] = {}
    for node, tmf in sorted(system.tmf.items()):
        for transid, disposition in tmf.dispositions.items():
            fates.setdefault(str(transid), {})[node] = disposition
    return {
        transid: by_node for transid, by_node in sorted(fates.items())
        if len(set(by_node.values())) > 1
    }


class TrailIndex:
    """The ``(volume, seq)`` of every audit image on each trail, read so far.

    A trail only grows at its end, so each one is read on from the last
    record read: a check that consults the index at every commit costs
    the new records, not the whole trail.  A trail whose files are no
    longer the ones read (a purge dropped its oldest, a restart
    re-attached it) is read afresh.
    """

    def __init__(self) -> None:
        # trail -> (its images, the files read, next entry of the last)
        self._read: Dict[Any, Tuple[Set[Tuple[str, int]], List[str], int]] = {}

    def images_on(self, trail: Any) -> Set[Tuple[str, int]]:
        keys, files, next_esn = self._read.get(trail, (set(), [], 0))
        if trail.file_names[:len(files)] != files:
            keys, files, next_esn = set(), [], 0
        for name in trail.file_names[max(len(files) - 1, 0):]:
            if not files or files[-1] != name:
                files.append(name)
                next_esn = 0
            trail_file = EntrySequencedFile(
                trail.store, name, entries_per_block=trail.entries_per_block
            )
            end = trail_file.record_count
            for _esn, record in trail_file.scan(next_esn):
                if isinstance(record, AuditRecord):
                    keys.add((record.volume, record.seq))
            next_esn = end
        self._read[trail] = (keys, files, next_esn)
        return keys


def durability(system: Any, node: str, transid: Any,
               index: TrailIndex) -> Tuple[int, List[AuditRecord]]:
    """Check ``transid``'s audit images on ``node`` against their trails.

    At ``transid``'s ``ended`` broadcast the audit has been forced, so
    every image of it that the node still knows — in an AUDITPROCESS's
    ``by_tx`` index or a DISCPROCESS's ``unforwarded`` table — must be
    on the trail of its AUDITPROCESS.  Call it while the images are
    known: TMF forgets them once the transaction has settled.  The
    trails are read through the caller's ``index``.  Returns the number
    of images examined and the ones missing from the trail.
    """
    tmf = system.tmf[node]
    key = str(transid)
    images: Dict[str, List[AuditRecord]] = {}
    for name, audit in sorted(tmf.audit_objects.items()):
        images[name] = list(audit.state.get("by_tx", {}).get(key, ()))
    for _volume, disc in sorted(tmf.disc_objects.items()):
        if disc.audit_process is not None:
            images.setdefault(disc.audit_process, []).extend(
                image for image in disc.state.get("unforwarded", {}).values()
                if str(image.transid) == key
            )
    examined = 0
    missing: List[AuditRecord] = []
    for name, pending in sorted(images.items()):
        if not pending:
            continue
        examined += len(pending)
        on_trail = index.images_on(tmf.audit_objects[name].trail)
        missing.extend(
            image for image in pending if (image.volume, image.seq) not in on_trail
        )
    return examined, missing


def check_durability_at_commits(system: Any) -> Counter:
    """Run :func:`durability` at every ``ended`` broadcast from now on.

    The returned counter keeps the running totals: ``images`` examined
    and ``missing`` from their trails.
    """
    totals: Counter = Counter()
    index = TrailIndex()

    def on_record(record: Any) -> None:
        if record.kind == "state_broadcast" and record.fields["state"] == "ended":
            examined, missing = durability(
                system, record.fields["node"], record.fields["transid"], index
            )
            totals["images"] += examined
            totals["missing"] += len(missing)

    system.cluster.env.probe.subscribe(on_record)
    return totals


def no_stranded_locks(system: Any) -> Dict[Tuple[str, str], int]:
    """Locks still held, as ``{(node, volume): count}``.

    Every lock is released when its transaction settles, so once no
    transaction is in flight the result must be empty.
    """
    return {
        (node, volume): disc.locks.held_count()
        for node, tmf in sorted(system.tmf.items())
        for volume, disc in sorted(tmf.disc_objects.items())
        if disc.locks.held_count()
    }


def deadlock_cycle(edges: Iterable[Tuple[Any, Any]]) -> Optional[List[Any]]:
    """A cycle in the waits-for graph of ``(waiter, owner)`` edges, or None.

    TMF itself detects deadlock by lock timeout; this search is the
    comparator (bench E4's ablation, the watchdog's global monitor over
    every volume's edges).  Nodes are visited in edge order, so the
    result is deterministic.
    """
    graph: Dict[Any, List[Any]] = {}
    for waiter, owner in edges:
        graph.setdefault(waiter, []).append(owner)
    visiting: Set[Any] = set()
    done: Set[Any] = set()
    stack: List[Any] = []

    def visit(node: Any) -> Optional[List[Any]]:
        visiting.add(node)
        stack.append(node)
        for neighbour in graph.get(node, ()):
            if neighbour in visiting:
                return stack[stack.index(neighbour):]
            if neighbour not in done:
                found = visit(neighbour)
                if found is not None:
                    return found
        visiting.discard(node)
        done.add(node)
        stack.pop()
        return None

    for node in list(graph):
        if node not in done:
            found = visit(node)
            if found is not None:
                return found
    return None


def figure3_edge(current: Optional[str], new: str) -> bool:
    """True when ``current -> new`` is an edge of Figure 3.

    States are named as the ``state_broadcast`` records name them
    (``"active"`` ...); ``current`` is None for a transid not seen yet.
    """
    before = None if current is None else TxState(current)
    return TxState(new) in LEGAL_TRANSITIONS[before]
