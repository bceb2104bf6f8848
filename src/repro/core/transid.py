"""Transaction identifiers.

"Execution of BEGIN-TRANSACTION causes a unique transaction identifier,
or 'transid', to be generated.  The transid consists of a sequence
number, qualified by the number of the processor in which
BEGIN-TRANSACTION was called, qualified by the number of the network
node which originated the transaction, designated the 'home' node for
the transaction."  (paper, §Transaction Management)
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from ..sim import register_immutable

__all__ = ["Transid", "TransidGenerator"]


@register_immutable
class Transid(NamedTuple):
    """A network-wide unique transaction identity.

    A tuple: hashing, equality and ordering run in C, on the fields in
    this order.  Transids key the state tables, lock tables and audit
    indices, so they are hashed and compared on every operation.
    """

    home_node: str
    cpu: int
    sequence: int

    def __str__(self) -> str:
        return "\\%s.%s.%s" % self


class TransidGenerator:
    """Per-node transid factory: one sequence counter per CPU."""

    def __init__(self, node_name: str):
        self.node_name = node_name
        self._sequences: Dict[int, int] = {}

    def next(self, cpu_number: int) -> Transid:
        sequence = self._sequences.get(cpu_number, 0) + 1
        self._sequences[cpu_number] = sequence
        return Transid(self.node_name, cpu_number, sequence)
