"""Rule ``probe-coverage``: guardian send paths must reach a probe.

Observability rides the environment: the always-on ``env.probe`` is
the one channel (counters, records and the notes its XRAY and TRACE
subscribers fold).  The convention only works if every send/rpc path
actually *reaches* it — a new message path added without a probe is
invisible to the counters, the XRAY report and the causal tracer, and
nothing at runtime notices.

A function in ``repro/guardian/`` is a **send path** if it constructs a
``Message``, calls ``record_transfer`` (bus/transit accounting), or
calls ``accept`` (delivery into an inbox).  Every send path must be
*probe-covered*: its body reads ``<...>.env.probe``, or it calls — by
name, to fixpoint across the scanned files — a function that is.
Delegation is the norm (``reply`` probes via ``_transit_latency``), so
coverage propagates through the static call graph rather than
demanding a probe per function.

BOXCAR extended the convention into ``repro/discprocess/``: the audit
boxcar forwards off the operation's critical path, so an unprobed flush
is *doubly* invisible — no caller ever waits on it.  A DISCPROCESS
function is therefore a send path too when it constructs an
``AppendAudit`` (ships audit cargo to the AUDITPROCESS) or is a boxcar
coroutine (a generator whose name contains ``boxcar`` — the flush
machinery).  The same coverage rule applies; plain helpers (no
``yield``) that merely mention a boxcar stay out of scope.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from ..base import Finding, ModuleInfo, Rule, register

__all__ = ["ProbeCoverageRule"]


#: call targets that make a guardian function a send path.
_SEND_MARKERS = frozenset({"record_transfer", "accept"})

#: constructed types that make a discprocess function a send path —
#: the ops that ship audit cargo off-node.
_AUDIT_SHIP_TYPES = frozenset({"AppendAudit"})

#: names too generic to carry coverage credit across the call graph —
#: container/IO methods and simulation plumbing collide with unrelated
#: definitions and would launder coverage through e.g. ``list.append``.
_GENERIC_NAMES = frozenset(
    {
        "add", "append", "appendleft", "clear", "close", "copy", "count",
        "deepcopy", "discard", "emit", "extend", "format", "get", "index",
        "insert", "items", "join", "keys", "kill", "len", "max", "min",
        "next", "open", "pop", "popleft", "print", "process", "put",
        "read", "remove", "run", "setdefault", "sort", "sorted", "split",
        "start", "strip", "succeed", "timeout", "update", "values",
        "write",
    }
)


def _called_names(func: ast.AST) -> Set[str]:
    """Credit-bearing simple/attr names of everything ``func`` calls."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name and name not in _GENERIC_NAMES and not name.startswith("__"):
                names.add(name)
    return names


def _constructs(func: ast.AST, targets: frozenset) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else (
                callee.attr if isinstance(callee, ast.Attribute) else None
            )
            if name in targets:
                return True
    return False


_MESSAGE_TYPES = frozenset({"Message"})


def _is_coroutine(func: ast.AST) -> bool:
    """True when the body yields — i.e. it runs on simulated time."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _has_direct_probe(func: ast.AST) -> bool:
    """True when the body reads ``<...>.env.probe``."""
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "probe"
            and isinstance(node.value, (ast.Name, ast.Attribute))
        ):
            base = node.value
            base_name = base.id if isinstance(base, ast.Name) else base.attr
            if base_name == "env":
                return True
    return False


@register
class ProbeCoverageRule(Rule):
    name = "probe-coverage"
    description = (
        "every guardian send/rpc path (Message construction, transit "
        "accounting, inbox delivery) and every discprocess boxcar/audit-"
        "shipping path must reach env.probe, "
        "directly or through its callees"
    )

    def __init__(self) -> None:
        # (display_path, qualname, node) of functions that must be
        # covered, plus the cross-module name tables for the fixpoint.
        self._required: List[Tuple[ModuleInfo, str, ast.AST]] = []
        self._covered_names: Set[str] = set()
        self._calls_by_name: Dict[str, Set[str]] = {}

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        functions = self._functions(module)
        for qualname, func in functions:
            name = func.name
            if _has_direct_probe(func):
                self._covered_names.add(name)
            called = _called_names(func)
            self._calls_by_name.setdefault(name, set()).update(called)
            if module.repro_package == "guardian":
                if _constructs(func, _MESSAGE_TYPES) or (called & _SEND_MARKERS):
                    self._required.append((module, qualname, func))
            elif module.repro_package == "discprocess":
                # BOXCAR probe sites: audit shipped to the AUDITPROCESS,
                # and the flush coroutines that decide when it departs.
                if _constructs(func, _AUDIT_SHIP_TYPES) or (
                    "boxcar" in name and _is_coroutine(func)
                ):
                    self._required.append((module, qualname, func))
        return
        yield  # pragma: no cover - all findings deferred to finalize()

    # ------------------------------------------------------------------
    def finalize(self) -> Iterator[Finding]:
        """Resolve coverage once every module's call edges are known.

        Deferred because credit flows across files: a send path in
        ``filesystem.py`` may be covered by a probe in ``message.py``
        scanned later in the same run.
        """
        covered = self._fixpoint()
        for module, qualname, func in self._required:
            if func.name in covered:
                continue
            yield self.finding(
                module,
                func,
                f"send path {qualname}() reaches env.probe on no static "
                f"call path — count or emit it through env.probe",
            )
        self._required = []

    def _fixpoint(self) -> Set[str]:
        covered = set(self._covered_names)
        changed = True
        while changed:
            changed = False
            for name, callees in self._calls_by_name.items():
                if name not in covered and callees & covered:
                    covered.add(name)
                    changed = True
        return covered

    # ------------------------------------------------------------------
    @staticmethod
    def _functions(module: ModuleInfo) -> List[Tuple[str, ast.AST]]:
        found: List[Tuple[str, ast.AST]] = []

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    found.append((qualname, child))
                    visit(child, f"{qualname}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(module.tree, "")
        return found
