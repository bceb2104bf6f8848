"""Core types of the GUARDRAIL framework: findings, rules, module info.

A :class:`Rule` inspects one parsed module at a time and yields
:class:`Finding` objects.  Rules register themselves into
:data:`REGISTRY` via the :func:`register` decorator; the engine
instantiates every registered rule per run (rules may keep per-run
state, e.g. the probe-coverage call-graph).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Type

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "REGISTRY",
    "register",
    "all_rules",
    "suppressed_lines",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location (every one is an error)."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: the stripped source line.
    code: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "code": self.code,
        }


@dataclass
class ModuleInfo:
    """One parsed source module plus the context rules need."""

    path: Path
    display_path: str
    tree: ast.Module
    lines: List[str]
    #: dotted package parts starting at ``repro`` (e.g. ``("repro",
    #: "guardian")``); empty when the file is outside a repro tree.
    package: Tuple[str, ...] = ()
    #: local name -> dotted origin ("dt" -> "datetime.datetime"),
    #: built lazily from the module's imports.
    _aliases: Optional[Dict[str, str]] = field(default=None, repr=False)
    _parents: Optional[Dict[ast.AST, ast.AST]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def repro_package(self) -> Optional[str]:
        """The top-level repro sub-package ("guardian", "sim", ...)."""
        if len(self.package) >= 2 and self.package[0] == "repro":
            return self.package[1]
        return None

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # ------------------------------------------------------------------
    # Import aliases
    # ------------------------------------------------------------------
    @property
    def aliases(self) -> Dict[str, str]:
        if self._aliases is None:
            self._aliases = self._build_aliases()
        return self._aliases

    def _build_aliases(self) -> Dict[str, str]:
        aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self.resolve_import_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    aliases[local] = f"{base}.{alias.name}"
        return aliases

    def resolve_import_from(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted module an ``from X import ...`` refers to."""
        if node.level == 0:
            return node.module
        if not self.package:
            return None
        # ``level=1`` is the module's own package; each extra level
        # climbs one package up.
        anchor = self.package[: len(self.package) - (node.level - 1)]
        if not anchor:
            return None
        base = ".".join(anchor)
        return f"{base}.{node.module}" if node.module else base

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of an expression, or None if not import-rooted.

        ``datetime.now`` with ``from datetime import datetime`` resolves
        to ``"datetime.datetime.now"``; a call on a local variable
        resolves to None.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    # ------------------------------------------------------------------
    # Parent links (for guard-context walks)
    # ------------------------------------------------------------------
    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        if self._parents is None:
            table: Dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    table[child] = parent
            self._parents = table
        return self._parents


class Rule:
    """Base class of every GUARDRAIL rule.

    Subclasses set :attr:`name` / :attr:`description` and implement
    :meth:`check`.  One instance is created per run, so per-run caches
    (cross-module tables) are safe instance state.
    """

    name: str = ""
    description: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finalize(self) -> Iterator[Finding]:
        """Findings resolvable only after every module was scanned.

        Cross-module rules (e.g. probe-coverage's call-graph fixpoint)
        record sites during :meth:`check` and emit here.
        """
        return iter(())

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.name,
            path=module.display_path,
            line=line,
            col=col,
            message=message,
            code=module.line_text(line),
        )


REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no rule name")
    if cls.name in REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    REGISTRY[cls.name] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Registered rule classes, in deterministic (name) order."""
    from . import rules  # noqa: F401 - imported for registration side effect

    return [REGISTRY[name] for name in sorted(REGISTRY)]


_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")


def suppressed_lines(lines: List[str]) -> Dict[int, frozenset]:
    """Per-line suppression sets from ``# repro: allow[rule,...]`` marks.

    A mark suppresses the named rules on its own line *and* the line
    below, so it can ride the offending line or sit just above it.
    """
    table: Dict[int, frozenset] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        names = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        if not names:
            continue
        for target in (number, number + 1):
            table[target] = table.get(target, frozenset()) | names
    return table
