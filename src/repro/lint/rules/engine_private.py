"""Rule ``engine-private``: only ``repro.sim`` touches the engine's state.

The event queue's tie order is the determinism contract: two events at
the same instant pop in the order their insertion numbers were drawn.
The engine keeps that order in four private slots of
:class:`~repro.sim.Environment`: ``_queue``, ``_eid``, ``_now`` and
``_active_process``.  Code outside ``repro.sim`` that pushed onto the
queue or drew numbers by hand could reorder history unnoticed, so it
must go through the public surface instead (``now``, ``schedule``,
``reserve_seq``/``schedule_at``, ``active_process``).

Any attribute access with one of those names outside ``repro.sim`` is a
finding, as is ``getattr``/``setattr``/``hasattr``/``delattr`` with the
name as a string literal.  No other class in the tree uses the names,
so no type inference is needed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Finding, ModuleInfo, Rule, register

__all__ = ["EnginePrivateRule", "ENGINE_PRIVATE"]

#: the private slots of ``repro.sim.Environment``.
ENGINE_PRIVATE = frozenset({"_queue", "_eid", "_now", "_active_process"})

_REFLECTION = frozenset({"getattr", "setattr", "hasattr", "delattr"})


@register
class EnginePrivateRule(Rule):
    name = "engine-private"
    description = (
        "the Environment's private slots (_queue, _eid, _now, "
        "_active_process) are read or written only inside repro.sim"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.repro_package == "sim":
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _REFLECTION
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                name = node.args[1].value
            else:
                continue
            if name in ENGINE_PRIVATE:
                yield self.finding(
                    module,
                    node,
                    f"`{name}` is private to the simulation engine — use "
                    "the Environment's public API (now, schedule, "
                    "reserve_seq/schedule_at, active_process)",
                )
