"""The GUARDRAIL engine: walk paths, parse, run rules, render findings.

The engine is deliberately import-light and deterministic: files are
visited in sorted order, findings are sorted by (path, line, col, rule),
and the JSON form is byte-stable for identical inputs — the same
property the simulation's own reports guarantee.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .base import (
    Finding,
    ModuleInfo,
    Rule,
    Severity,
    all_rules,
    suppressed_lines,
)
from .baseline import Baseline

__all__ = ["LintResult", "run_lint", "render_findings", "findings_to_json"]

#: directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".pytest_cache"}


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: Tuple[str, ...] = ()
    suppressed: int = 0
    baselined: int = 0

    def count_at_least(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity >= severity)


def _iter_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            if not any(part in _SKIP_DIRS for part in candidate.parts):
                yield candidate


def _package_of(path: Path) -> Tuple[str, ...]:
    """Dotted package parts from the last ``repro`` path component on.

    ``src/repro/guardian/pair.py`` -> ``("repro", "guardian")``;
    a file outside any repro tree gets an empty package (rules that
    depend on layout skip it).
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return tuple(parts[index:-1])
    return ()


def load_module(path: Path, display_path: Optional[str] = None) -> ModuleInfo:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleInfo(
        path=path,
        display_path=display_path or path.as_posix(),
        tree=tree,
        lines=source.splitlines(),
        package=_package_of(path),
    )


def run_lint(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Sequence[str] = (),
    baseline: Optional[Baseline] = None,
) -> LintResult:
    """Lint ``paths`` with every registered rule (minus select/ignore)."""
    rule_classes = all_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - {cls.name for cls in rule_classes}
        if unknown:
            raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")
        rule_classes = [cls for cls in rule_classes if cls.name in wanted]
    if ignore:
        unknown = set(ignore) - {cls.name for cls in all_rules()}
        if unknown:
            raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")
        rule_classes = [cls for cls in rule_classes if cls.name not in set(ignore)]
    rules: List[Rule] = [cls() for cls in rule_classes]

    result = LintResult(rules_run=tuple(rule.name for rule in rules))
    raw: List[Finding] = []
    # Suppression tables by display path, kept for finalize()-stage
    # findings whose module was scanned earlier.
    suppression_tables: Dict[str, Dict[int, frozenset]] = {}
    for file_path in _iter_files([Path(p) for p in paths]):
        result.files_scanned += 1
        try:
            module = load_module(file_path)
        except SyntaxError as exc:
            raw.append(
                Finding(
                    rule="parse",
                    severity=Severity.ERROR,
                    path=file_path.as_posix(),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        file_findings = [f for rule in rules for f in rule.check(module)]
        suppressions = suppressed_lines(module.lines)
        suppression_tables[module.display_path] = suppressions
        for finding in file_findings:
            allowed = suppressions.get(finding.line, frozenset())
            if finding.rule in allowed:
                result.suppressed += 1
            else:
                raw.append(finding)
    for rule in rules:
        for finding in rule.finalize():
            table = suppression_tables.get(finding.path, {})
            if finding.rule in table.get(finding.line, frozenset()):
                result.suppressed += 1
            else:
                raw.append(finding)
    if baseline is not None:
        kept = baseline.filter(raw)
        result.baselined = len(raw) - len(kept)
        raw = kept
    result.findings = sorted(raw, key=Finding.sort_key)
    return result


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_findings(result: LintResult, threshold: Severity = Severity.WARNING) -> str:
    """Human-readable report of findings at/above ``threshold``."""
    shown = [f for f in result.findings if f.severity >= threshold]
    lines = [
        f"{f.path}:{f.line}:{f.col}: [{f.rule}] {f.severity}: {f.message}"
        for f in shown
    ]
    by_severity: Dict[str, int] = {}
    for finding in shown:
        key = str(finding.severity)
        by_severity[key] = by_severity.get(key, 0) + 1
    if shown:
        breakdown = ", ".join(
            f"{count} {name}" for name, count in sorted(by_severity.items())
        )
        lines.append(
            f"repro.lint: {len(shown)} finding(s) ({breakdown}) "
            f"in {result.files_scanned} file(s)"
        )
    else:
        extras = []
        if result.suppressed:
            extras.append(f"{result.suppressed} suppressed")
        if result.baselined:
            extras.append(f"{result.baselined} baselined")
        suffix = f" ({', '.join(extras)})" if extras else ""
        lines.append(
            f"repro.lint: clean — {result.files_scanned} file(s), "
            f"{len(result.rules_run)} rule(s){suffix}"
        )
    return "\n".join(lines)


def findings_to_json(result: LintResult, threshold: Severity = Severity.WARNING) -> str:
    """Deterministic JSON report (stable ordering, sorted keys)."""
    shown = [f for f in result.findings if f.severity >= threshold]
    payload = {
        "version": 1,
        "files_scanned": result.files_scanned,
        "rules": list(result.rules_run),
        "suppressed": result.suppressed,
        "baselined": result.baselined,
        "findings": [f.to_dict() for f in shown],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
