"""FIFO channels (mailboxes) for process communication.

A :class:`Channel` is an unbounded FIFO queue of items.  ``put`` never
blocks; ``get`` returns an event that succeeds with the oldest item as
soon as one is available.  Getters are served in request order.  A
getter parked before the item arrived is resumed inside ``put``, in the
putter's step: handing over an item costs no engine event.

Channels are the building block of the message system: every OS process
owns one as its inbox.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Environment
from .events import Event

__all__ = ["Channel", "ChannelClosed"]


class ChannelClosed(Exception):
    """Raised into getters when the channel is closed (owner died)."""

    def __init__(self, reason: Any = None):
        super().__init__(reason)
        self.reason = reason


class Channel:
    """An unbounded FIFO queue connecting simulation processes."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed: Optional[ChannelClosed] = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed is not None

    def put(self, item: Any) -> bool:
        """Deposit ``item``; returns False if the channel is closed."""
        if self._closed is not None:
            return False
        if self._getters:
            self._getters.popleft().succeed_inline(item)
            return True
        self._items.append(item)
        return True

    def get(self) -> Event:
        """Return an event yielding the next item."""
        event = Event(self.env)
        if self._closed is not None:
            event.fail(self._closed)
            event.defused = True
            return event
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def close(self, reason: Any = None) -> None:
        """Close the channel; pending and future getters fail."""
        if self._closed is not None:
            return
        self._closed = ChannelClosed(reason)
        while self._getters:
            getter = self._getters.popleft()
            getter.defused = True
            getter.fail(self._closed)

    def drain(self) -> list:
        """Remove and return all queued items (without waking getters)."""
        items = list(self._items)
        self._items.clear()
        return items
