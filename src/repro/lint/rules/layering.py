"""Rule ``layering``: enforce the paper's import DAG at rest.

The stack must keep Figure 1/2's shape::

    sim -> hardware -> guardian -> discprocess -> core (TMF)
        -> encompass -> apps / workloads

A module may import repro packages at its own tier or below, never
above.  The measurement subsystems (``measure``, ``trace``) sit outside
the stack: they are subscribers of the always-on ``env.probe`` of
``repro.sim``, and the stack reaches them only by counting, emitting
and noting on that one stream.  A direct import is legal only in the
composition root that *subscribes* them (``encompass.config``) and the
documented convergence points (the workload drivers' Histogram and the
shared table renderer).  ``repro.lint`` and ``repro.bench`` are
tooling: nothing imports them, and they import the stack freely.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..base import Finding, ModuleInfo, Rule, register

__all__ = ["LayeringRule"]

#: tier of each stacked package; higher may import lower, never the
#: reverse.  core sits above discprocess (TMF drives disc operations);
#: apps and workloads share the top tier.
RANKS = {
    "sim": 0,
    "hardware": 1,
    "guardian": 2,
    "discprocess": 3,
    "core": 4,
    "encompass": 5,
    "apps": 6,
    "workloads": 6,
}

#: probe subscribers: the stack reaches them only through env.probe.
PROBE_PACKAGES = frozenset({"measure", "trace"})

#: tool packages: they import the stack freely, nothing imports them.
TOOLING_PACKAGES = frozenset({"lint", "bench"})

#: modules allowed to import measure/trace directly: the composition
#: root that subscribes them to the probe (config), plus the documented
#: convergence point — the closed-loop load generator's Histogram.
PROBE_IMPORT_ALLOWLIST = frozenset(
    {
        ("repro", "encompass", "config"),
        ("repro", "workloads", "drivers"),
    }
)


@register
class LayeringRule(Rule):
    name = "layering"
    description = (
        "imports must follow sim -> hardware -> guardian -> discprocess -> "
        "core -> encompass -> apps/workloads; measure/trace only as "
        "env.probe subscribers"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        own = module.repro_package
        if own is None or own in TOOLING_PACKAGES:
            return
        module_id = self._module_id(module)
        for node in ast.walk(module.tree):
            targets = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                resolved = module.resolve_import_from(node)
                if resolved is not None:
                    targets = [resolved]
            for dotted in targets:
                finding = self._check_edge(module, node, own, module_id, dotted)
                if finding is not None:
                    yield finding

    # ------------------------------------------------------------------
    @staticmethod
    def _module_id(module: ModuleInfo) -> Tuple[str, ...]:
        stem = module.path.stem
        if stem == "__init__":
            return module.package
        return module.package + (stem,)

    def _check_edge(
        self,
        module: ModuleInfo,
        node: ast.AST,
        own: str,
        module_id: Tuple[str, ...],
        dotted: str,
    ) -> Optional[Finding]:
        parts = dotted.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return None
        target = parts[1]
        if target == own:
            return None
        if target in TOOLING_PACKAGES:
            return self.finding(
                module,
                node,
                f"repro.{target} is tooling — runtime code must not import it",
            )
        if target in PROBE_PACKAGES:
            if own in PROBE_PACKAGES or module_id in PROBE_IMPORT_ALLOWLIST:
                return None
            return self.finding(
                module,
                node,
                f"direct import of repro.{target} from {own} — note on "
                f"env.probe; repro.{target} subscribes to it",
            )
        own_rank = RANKS.get(own)
        target_rank = RANKS.get(target)
        if target_rank is None:
            return self.finding(
                module, node, f"import of unknown repro package {dotted!r}"
            )
        if own_rank is None:
            # measure/trace themselves: leaves of the stack, may only
            # import sim.
            if own in PROBE_PACKAGES and target_rank <= RANKS["sim"]:
                return None
            return self.finding(
                module,
                node,
                f"repro.{own} must stay import-free of the stack "
                f"(imports repro.{target})",
            )
        if target_rank > own_rank:
            return self.finding(
                module,
                node,
                f"upward import: {own} (tier {own_rank}) imports "
                f"{target} (tier {target_rank}) — the DAG flows "
                f"sim -> hardware -> guardian -> discprocess -> core -> "
                f"encompass -> apps/workloads",
            )
        return None
