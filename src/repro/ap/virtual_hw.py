"""Virtual hardware: the object library and swap machinery (section 2.5).

"An unused object should be swapped out to a memory block to make room
for a newly requested object(s).  This replacement is equivalent to the
write-back policy of conventional cache memory.  When it is an object
cache-miss, cache missed object(s) is loaded, and replaceable object(s)
is stored if necessary.  The replacement is scheduled using a special
interconnection network composing a scheduling table."

The :class:`ObjectLibrary` lives in the memory blocks and serves logical
objects by ID with a load latency; the :class:`SwapScheduler` is the
scheduling table: a FIFO of pending store-backs drained one per cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.ap.objects import LogicalObject

__all__ = ["ObjectLibrary", "SwapScheduler"]


class ObjectLibrary:
    """Logical objects stored in the memory blocks, keyed by ID."""

    def __init__(
        self,
        objects: Iterable[LogicalObject] = (),
        load_latency: int = 4,
    ) -> None:
        if load_latency < 1:
            raise ValueError("load latency must be at least one cycle")
        self.load_latency = load_latency
        self._store: Dict[int, LogicalObject] = {}
        self.loads = 0
        self.stores = 0
        for obj in objects:
            self.add(obj)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._store

    def add(self, obj: LogicalObject) -> None:
        """Install a logical object into the library.

        Raises
        ------
        ConfigurationError
            On a duplicate ID (IDs are the stream's only namespace).
        """
        if obj.object_id in self._store:
            raise ConfigurationError(
                f"library already holds object {obj.object_id}"
            )
        self._store[obj.object_id] = obj

    def load(self, object_id: int) -> Tuple[LogicalObject, int]:
        """Fetch an object for a cache miss; returns (object, latency).

        Raises
        ------
        ConfigurationError
            For an ID the library has never seen — the application
            requested an object that does not exist.
        """
        obj = self._store.get(object_id)
        if obj is None:
            raise ConfigurationError(f"object {object_id} not in library")
        self.loads += 1
        return obj, self.load_latency

    def store(self, obj: LogicalObject) -> int:
        """Write back an evicted object; returns the store latency.

        Overwrites any stale copy (write-back semantics).
        """
        self._store[obj.object_id] = obj
        self.stores += 1
        return self.load_latency


class SwapScheduler:
    """The scheduling table: pending write-backs drained one per cycle."""

    def __init__(self, library: ObjectLibrary) -> None:
        self.library = library
        self._pending: Deque[LogicalObject] = deque()
        self.scheduled = 0

    def schedule_store(self, obj: LogicalObject) -> None:
        """Queue an evicted object for write-back."""
        self._pending.append(obj)
        self.scheduled += 1

    @property
    def backlog(self) -> int:
        return len(self._pending)

    def drain_one(self) -> Optional[LogicalObject]:
        """Perform one scheduled write-back; None when the table is empty."""
        if not self._pending:
            return None
        obj = self._pending.popleft()
        self.library.store(obj)
        return obj

    def drain_all(self) -> List[LogicalObject]:
        """Flush the table (e.g. before the AP releases its resources)."""
        out: List[LogicalObject] = []
        while self._pending:
            drained = self.drain_one()
            assert drained is not None
            out.append(drained)
        return out
