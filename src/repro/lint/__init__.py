"""GUARDRAIL: repo-specific static analysis for the reproduction.

The simulation's correctness rests on invariants that runtime checks can
only sample: bit-determinism (no wall-clock or ambient entropy), the
paper's layering (hardware -> GUARDIAN -> DISCPROCESS/TMF -> ENCOMPASS),
Figure 3's transaction state graph, probe coverage on every guardian
send path, exception hygiene in recovery code, and an event queue whose
private state only the engine touches.  ``repro.lint``
enforces them *at rest*: an AST pass over the source that fails CI on
any code path that could violate them, before a seed ever executes.

Usage::

    python -m repro.lint [paths] [--format json] [--select RULES] [--ignore RULES]

Findings are suppressed per line with ``# repro: allow[rule]`` (same
line or the line above); any other finding fails the run.  See README
"Static analysis" for the rule table.
"""

from .base import (
    Finding,
    ModuleInfo,
    REGISTRY,
    Rule,
    all_rules,
    register,
)
from .engine import LintResult, findings_to_json, render_findings, run_lint

__all__ = [
    "Finding",
    "LintResult",
    "ModuleInfo",
    "REGISTRY",
    "Rule",
    "all_rules",
    "findings_to_json",
    "register",
    "render_findings",
    "run_lint",
]
