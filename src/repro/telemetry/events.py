"""Bounded event trace — a ring buffer of interesting moments.

Counters say *how often* something happened; the trace says *what*, in
order, with context (which span blocked, which region's worm aborted).
The buffer is bounded so a million-trial sweep cannot grow memory
without limit: old events fall off the front and are tallied in
``dropped``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Tuple

__all__ = ["Event", "EventTrace"]


@dataclass(frozen=True)
class Event:
    """One traced moment: a sequence number, a name, and free-form fields."""

    seq: int
    name: str
    fields: Tuple[Tuple[str, Any], ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "name": self.name, **dict(self.fields)}


class EventTrace:
    """A bounded, append-only ring of :class:`Event` records."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("trace needs capacity for at least one event")
        self.capacity = capacity
        self._ring: Deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0

    def record(self, name: str, **fields: Any) -> Event:
        """Append one event; evicts the oldest when the ring is full."""
        if len(self._ring) == self.capacity:
            self.dropped += 1
        event = Event(self._seq, name, tuple(sorted(fields.items())))
        self._seq += 1
        self._ring.append(event)
        return event

    def clear(self) -> None:
        self._ring.clear()
        self._seq = 0
        self.dropped = 0

    def events(self, name: str) -> List[Event]:
        """All retained events with the given name, oldest first."""
        return [e for e in self._ring if e.name == name]

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [e.as_dict() for e in self._ring]

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._ring)
