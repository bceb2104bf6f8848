"""Fast deep copies of plain-data trees (checkpoints, replies, recovery).

A process-pair's backup has its own memory, so a checkpointed value that
the primary (or a reply holder) may still mutate reaches the backup as a
private copy; so do DISCPROCESS record replies.  Those values are plain
data — dicts, lists, tuples and scalars — for which the generic
:func:`copy.deepcopy` machinery (memo dict, reduce protocol) is pure
overhead.  :func:`fast_deepcopy` copies exactly those shapes by direct
recursion and falls back to :func:`copy.deepcopy` for anything else; it
suits value data only (no aliasing within the tree, no cycles).

Values that are never edited after they are built are not copied at all
(stored blocks and audit images are shared by checkpoints).  Layers
above ``sim`` declare their carrier types:

* :func:`register_immutable` — instances are immutable values, returned
  as-is (transids, audit records);
* :func:`register_fastcopy` — a custom copier for a type whose fields
  are plain data (a terminal's input screen).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Type

__all__ = [
    "ATOMIC_TYPES",
    "fast_deepcopy",
    "register_immutable",
    "register_fastcopy",
]

#: exact types returned as-is (deeply immutable).  Registered frozen
#: dataclasses of scalars join this set via :func:`register_immutable`.
_ATOMIC = {
    type(None), bool, int, float, complex, str, bytes, type, range,
}

#: public alias (the same live set) for callers that want to inline the
#: "is it atomic?" test at their own hot sites before paying the call.
ATOMIC_TYPES = _ATOMIC

#: exact type -> copier, for registered carrier types.
_COPIERS: dict = {}


def register_immutable(cls: Type) -> Type:
    """Mark ``cls`` as deeply immutable: instances are shared, not copied.

    Usable as a class decorator.  Only exact instances are recognized
    (subclasses still take the generic fallback).
    """
    _ATOMIC.add(cls)
    return cls


def register_fastcopy(cls: Type, copier: Callable[[Any], Any]) -> None:
    """Register ``copier`` as the fast copier for exact instances of ``cls``."""
    _COPIERS[cls] = copier


def fast_deepcopy(obj: Any) -> Any:
    """A deep copy of ``obj``, specialized for plain-data trees.

    Equivalent to :func:`copy.deepcopy` for acyclic value data; shared
    sub-objects are duplicated rather than kept shared (the memo of the
    generic machinery is what this function exists to avoid).  Dict keys
    are hashable — immutable for plain data — and are shared.
    """
    cls = obj.__class__
    if cls in _ATOMIC:
        return obj
    # Containers inline the atomic test for each element: the leaves of
    # record trees are overwhelmingly scalars, and skipping a recursive
    # call per scalar is most of this module's win.
    atomic = _ATOMIC
    if cls is dict:
        return {
            key: value if value.__class__ in atomic else fast_deepcopy(value)
            for key, value in obj.items()
        }
    if cls is list:
        return [
            item if item.__class__ in atomic else fast_deepcopy(item)
            for item in obj
        ]
    if cls is tuple:
        return tuple(
            item if item.__class__ in atomic else fast_deepcopy(item)
            for item in obj
        )
    if cls is set:
        return {
            item if item.__class__ in atomic else fast_deepcopy(item)
            for item in obj
        }
    if cls is frozenset:
        return frozenset(
            item if item.__class__ in atomic else fast_deepcopy(item)
            for item in obj
        )
    copier = _COPIERS.get(cls)
    if copier is not None:
        return copier(obj)
    return copy.deepcopy(obj)
