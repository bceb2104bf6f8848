"""Rule ``figure3``: only edges of Figure 3's state graph can be written.

The paper's transaction state machine (active -> ending -> ended,
active/ending -> aborting -> aborted) is defined once, in
``core/states.py`` as ``LEGAL_TRANSITIONS``; the runtime broadcaster
raises on any other edge.  This rule moves that check to rest:

* every ``TxState.X`` attribute must name a real member (a typo like
  ``TxState.PREPARED`` is a finding, not a runtime AttributeError);
* every transition site — a ``broadcast(transid, TxState.X)`` /
  ``_broadcast_timed(transid, TxState.X, ...)`` call, or an assignment
  of a ``TxState`` literal into a table/attribute — whose *from*-state
  is statically known from an enclosing positive guard
  (``state == TxState.Y`` or ``state in (TxState.Y, ...)``) must be an
  edge of ``LEGAL_TRANSITIONS``;
* any literal transition table outside ``core/states.py`` (a dict of
  ``TxState`` to ``TxState`` collections) must be a subgraph of
  ``LEGAL_TRANSITIONS``.

Sites with no statically known from-state are left to the runtime
broadcaster and the invariant watchdog — the rule never guesses.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..base import Finding, ModuleInfo, Rule, register

__all__ = ["Figure3Rule"]

_TRANSITION_CALLS = frozenset({"broadcast", "_broadcast_timed"})


def _state_tables() -> Tuple[Set[str], dict]:
    """(member names, legal edges by name) from the live Figure 3 tables.

    Imported lazily so the lint framework stays importable without the
    full stack; the linter always checks against the tables the runtime
    actually enforces.
    """
    from ...core.states import LEGAL_TRANSITIONS, TxState

    members = {state.name for state in TxState}
    edges = {
        (source.name if source is not None else None): {
            target.name for target in targets
        }
        for source, targets in LEGAL_TRANSITIONS.items()
    }
    return members, edges


@register
class Figure3Rule(Rule):
    name = "figure3"
    description = (
        "TxState references must be real members and every statically "
        "guarded transition must be an edge of Figure 3 (LEGAL_TRANSITIONS)"
    )

    def __init__(self) -> None:
        self._members, self._edges = _state_tables()

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.display_path.endswith("core/states.py"):
            return  # the definition site itself
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                finding = self._check_member(module, node)
                if finding is not None:
                    yield finding
            elif isinstance(node, ast.Call):
                yield from self._check_transition_call(module, node)
            elif isinstance(node, ast.Assign):
                yield from self._check_assignment(module, node)
            elif isinstance(node, ast.Dict):
                yield from self._check_table_literal(module, node)

    # ------------------------------------------------------------------
    # TxState.X extraction
    # ------------------------------------------------------------------
    @staticmethod
    def _is_txstate(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == "TxState"

    def _member_of(self, node: ast.AST) -> Optional[str]:
        """``"X"`` when ``node`` is exactly ``TxState.X``, else None."""
        if isinstance(node, ast.Attribute) and self._is_txstate(node.value):
            return node.attr
        return None

    def _check_member(self, module: ModuleInfo, node: ast.Attribute) -> Optional[Finding]:
        member = self._member_of(node)
        if member is None or not member.isupper():
            return None
        if member not in self._members:
            known = ", ".join(sorted(self._members))
            return self.finding(
                module,
                node,
                f"TxState.{member} is not a Figure-3 state (known: {known})",
            )
        return None

    # ------------------------------------------------------------------
    # Guard context
    # ------------------------------------------------------------------
    def _guard_states(self, module: ModuleInfo, node: ast.AST) -> Optional[Set[str]]:
        """From-states established by the nearest positive ``if`` guard.

        Walks ancestors until a function boundary; returns the state set
        of the first enclosing ``if`` whose test pins the current state
        via ``== TxState.Y`` or ``in (TxState.Y, ...)`` *and* whose body
        (not ``orelse``) contains the site.  None = statically unknown.
        """
        parents = module.parents
        child = node
        while True:
            parent = parents.get(child)
            if parent is None or isinstance(
                parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
            ):
                return None
            if isinstance(parent, ast.If) and self._contains(parent.body, child):
                states = self._states_from_test(parent.test)
                if states:
                    return states
            child = parent

    @staticmethod
    def _contains(body: List[ast.stmt], node: ast.AST) -> bool:
        return any(node is stmt or node in ast.walk(stmt) for stmt in body)

    def _states_from_test(self, test: ast.AST) -> Optional[Set[str]]:
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None
        op = test.ops[0]
        comparator = test.comparators[0]
        if isinstance(op, ast.Eq):
            member = self._member_of(comparator)
            if member is None:
                member = self._member_of(test.left)
            return {member} if member in self._members else None
        if isinstance(op, ast.In) and isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
            members = [self._member_of(element) for element in comparator.elts]
            if members and all(m in self._members for m in members):
                return set(members)
        return None

    def _check_edge_set(
        self, module: ModuleInfo, node: ast.AST, target: str
    ) -> Iterator[Finding]:
        sources = self._guard_states(module, node)
        if sources is None or target not in self._members:
            return
        for source in sorted(sources):
            if target not in self._edges.get(source, set()):
                yield self.finding(
                    module,
                    node,
                    f"transition {source} -> {target} is not an edge of "
                    f"Figure 3 (LEGAL_TRANSITIONS)",
                )

    # ------------------------------------------------------------------
    # Sites
    # ------------------------------------------------------------------
    def _check_transition_call(
        self, module: ModuleInfo, node: ast.Call
    ) -> Iterator[Finding]:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name not in _TRANSITION_CALLS:
            return
        for arg in node.args:
            target = self._member_of(arg)
            if target is not None and target in self._members:
                yield from self._check_edge_set(module, node, target)

    def _check_assignment(self, module: ModuleInfo, node: ast.Assign) -> Iterator[Finding]:
        target_state = self._member_of(node.value)
        if target_state is None or target_state not in self._members:
            return
        # Only stored transitions count: table[tid] = TxState.X or
        # obj.state = TxState.X.  Plain locals are bookkeeping, not
        # transitions.
        if any(isinstance(t, (ast.Subscript, ast.Attribute)) for t in node.targets):
            yield from self._check_edge_set(module, node, target_state)

    def _check_table_literal(self, module: ModuleInfo, node: ast.Dict) -> Iterator[Finding]:
        for key, value in zip(node.keys, node.values):
            if key is None:
                continue  # ** expansion
            source = self._member_of(key)
            if source is None and not (
                isinstance(key, ast.Constant) and key.value is None
            ):
                continue
            if not isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                continue
            targets = [self._member_of(element) for element in value.elts]
            if not targets or any(t is None for t in targets):
                continue
            legal = self._edges.get(source, set())
            for target in targets:
                if target in self._members and target not in legal:
                    yield self.finding(
                        module,
                        key,
                        f"literal transition table declares "
                        f"{source or 'None'} -> {target}, not an edge of "
                        f"Figure 3",
                    )
