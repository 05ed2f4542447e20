"""The object stack (paper section 2.4).

"An array of physical objects composes a stack structure.  The stack
structure creates a deterministic and locality based placement; this
placement is always on the top of the stack.  Because a stack shift
sorts the objects in the array, a replacement, based on an LRU
algorithm, is easily implemented, and objects close to the bottom of the
stack are candidates for the replacement."

The stack holds logical objects bound to the array's physical objects in
recency order: position 0 is the top (most recent), position C-1 the
bottom (least recent, next eviction victim).  Entering a new object at
the top shifts everything else down one position — the *stack shift* —
evicting the bottom occupant when full.  A hit promotes the hit object
to the top (the LRU sort).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import CapacityError, ConfigurationError
from repro.ap.objects import LogicalObject, PhysicalObject

__all__ = ["ObjectStack"]


class ObjectStack:
    """A capacity-``C`` LRU stack of objects over the physical array."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise CapacityError("stack capacity must be positive")
        self.capacity = capacity
        self.array: List[PhysicalObject] = [
            PhysicalObject(position=i) for i in range(capacity)
        ]
        #: Logical objects in recency order; index = stack position.
        self._order: List[LogicalObject] = []
        #: IDs of objects whose execution fabric is awake (acquired).
        self._active_ids: set = set()
        self.shift_count = 0
        self.eviction_count = 0

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, object_id: int) -> bool:
        return self.position_of(object_id) is not None

    @property
    def is_full(self) -> bool:
        return len(self._order) >= self.capacity

    def position_of(self, object_id: int) -> Optional[int]:
        """Stack position (0 = top) of an object, or None on a miss."""
        for pos, logical in enumerate(self._order):
            if logical.object_id == object_id:
                return pos
        return None

    def stack_distance(self, object_id: int) -> Optional[int]:
        """The paper's stack distance: distance from the top of the stack
        to the hit location.  ``None`` on a miss (infinite distance)."""
        return self.position_of(object_id)

    def at(self, position: int) -> Optional[LogicalObject]:
        """The logical object at a stack position, or None if empty."""
        if not 0 <= position < self.capacity:
            raise CapacityError(f"position {position} outside capacity {self.capacity}")
        if position < len(self._order):
            return self._order[position]
        return None

    def contents(self) -> List[LogicalObject]:
        """Top-to-bottom snapshot of the stack."""
        return list(self._order)

    # -- mutations --------------------------------------------------------

    def push(self, logical: LogicalObject) -> Optional[LogicalObject]:
        """Enter an object at the top of the stack (stack shift).

        Everything below shifts down one position; when the stack is
        full, the bottom occupant is evicted and returned (for the
        library write-back of section 2.5).

        Raises
        ------
        ConfigurationError
            If an object with this ID is already on the stack (use
            :meth:`touch` for hits).
        """
        if logical.object_id in self:
            raise ConfigurationError(
                f"object {logical.object_id} already on the stack"
            )
        evicted: Optional[LogicalObject] = None
        if self.is_full:
            evicted = self._order.pop()
            self._active_ids.discard(evicted.object_id)
            self.eviction_count += 1
        self._order.insert(0, logical)
        self.shift_count += 1
        self._rebind()
        return evicted

    def touch(self, object_id: int) -> int:
        """LRU hit: promote the object to the top of the stack.

        Returns the stack distance it was found at (before promotion).

        Raises
        ------
        ConfigurationError
            On a miss.
        """
        pos = self.position_of(object_id)
        if pos is None:
            raise ConfigurationError(f"object {object_id} not on the stack")
        if pos:
            logical = self._order.pop(pos)
            self._order.insert(0, logical)
            self.shift_count += 1
            self._rebind()
        return pos

    def evict(self, object_id: int) -> LogicalObject:
        """Explicitly remove an object (the swap-out path)."""
        pos = self.position_of(object_id)
        if pos is None:
            raise ConfigurationError(f"object {object_id} not on the stack")
        logical = self._order.pop(pos)
        self._active_ids.discard(object_id)
        self.eviction_count += 1
        self._rebind()
        return logical

    def wake(self, object_id: int) -> PhysicalObject:
        """Activate the hit object's execution fabric (Figure 1 step 2).

        Returns the physical object it currently occupies.
        """
        pos = self.position_of(object_id)
        if pos is None:
            raise ConfigurationError(f"object {object_id} not on the stack")
        self._active_ids.add(object_id)
        pe = self.array[pos]
        pe.active = True
        return pe

    def release(self, object_id: int) -> None:
        """Fire the release token: deactivate but keep the object cached."""
        self._active_ids.discard(object_id)
        pos = self.position_of(object_id)
        if pos is not None:
            self.array[pos].active = False

    def bottom_candidates(self, n: int = 1) -> List[LogicalObject]:
        """The ``n`` objects nearest the bottom — the replacement
        candidates of section 2.4."""
        if n < 0:
            raise ValueError("candidate count cannot be negative")
        return list(reversed(self._order[-n:])) if n else []

    # -- internal ---------------------------------------------------------

    def _rebind(self) -> None:
        """Keep physical-object bindings aligned with stack positions.

        The stack shift physically moves object state between PEs; here
        that is re-binding logical objects to the PE at their new
        position.
        """
        for pe in self.array:
            pe.logical = None
            pe.active = False
        for pos, logical in enumerate(self._order):
            self.array[pos].logical = logical
            self.array[pos].active = logical.object_id in self._active_ids
