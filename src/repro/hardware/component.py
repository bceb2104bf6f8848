"""Base class for failable hardware components.

Every physical element of the simulated Tandem system — CPU, bus, I/O
channel, I/O controller, disc drive, communication line — is a
:class:`Component`: it is either *up* or *down*, and higher layers can
subscribe to its failure/restore transitions.  Failure semantics are
modelled structurally (paths through up components), exactly the property
Figure 1 of the paper illustrates.
"""

from __future__ import annotations

from typing import Any, Callable, List

from ..sim import Environment

__all__ = ["Component", "ComponentDown"]


class ComponentDown(Exception):
    """An operation required a component that is currently down."""

    def __init__(self, component: "Component"):
        super().__init__(f"{component.full_name} is down")
        self.component = component


class Component:
    """A named hardware module with up/down state and watchers."""

    kind = "component"

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self._up = True
        self._failure_watchers: List[Callable[["Component"], None]] = []
        self._restore_watchers: List[Callable[["Component"], None]] = []

    @property
    def up(self) -> bool:
        return self._up

    @property
    def down(self) -> bool:
        return not self._up

    @property
    def full_name(self) -> str:
        return f"{self.kind}:{self.name}"

    def check_up(self) -> None:
        """Raise :class:`ComponentDown` unless the component is up."""
        if not self._up:
            raise ComponentDown(self)

    def fail(self, reason: Any = None) -> None:
        """Take the component down; notifies failure watchers once."""
        if not self._up:
            return
        self._up = False
        # Before the watchers: one of them may already route a message.
        self.env.topology_epoch += 1
        self._trace("component_failed", reason=reason)
        self.on_fail(reason)
        for watcher in list(self._failure_watchers):
            watcher(self)

    def restore(self) -> None:
        """Bring the component back up; notifies restore watchers once."""
        if self._up:
            return
        self._up = True
        self.env.topology_epoch += 1
        self._trace("component_restored")
        self.on_restore()
        for watcher in list(self._restore_watchers):
            watcher(self)

    def watch_failure(self, callback: Callable[["Component"], None]) -> None:
        self._failure_watchers.append(callback)

    def watch_restore(self, callback: Callable[["Component"], None]) -> None:
        self._restore_watchers.append(callback)

    def on_fail(self, reason: Any) -> None:
        """Subclass hook run before watchers on failure."""

    def on_restore(self) -> None:
        """Subclass hook run before watchers on restore."""

    def _trace(self, kind: str, **fields: Any) -> None:
        self.env.probe.emit(kind, component=self.full_name, **fields)

    def __repr__(self) -> str:
        state = "up" if self._up else "DOWN"
        return f"<{type(self).__name__} {self.name} {state}>"
