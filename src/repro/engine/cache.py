"""A small bounded LRU cache with hit/miss accounting.

The engine's trial cache needs a dict with an eviction policy and
enough bookkeeping to report a hit rate.  ``functools.lru_cache`` wraps
functions, not keys the caller constructs, and carries no eviction
counter — so the engine owns this ~60-line cache instead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable

__all__ = ["LRUCache", "MISSING"]

#: Public miss sentinel returned by :meth:`LRUCache.get_or_miss` — the
#: only value the cache can never store, so a cached ``None`` (or any
#: other falsy result) is distinguishable from a genuine miss.
MISSING = object()

_MISSING = MISSING


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency; ``put`` inserts (or refreshes) and evicts
    the stalest entry once ``capacity`` is exceeded.  ``hits`` /
    ``misses`` / ``evictions`` make cache effectiveness observable.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_data")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache needs capacity for at least one entry")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def get_or_miss(self, key: Hashable) -> Any:
        """Like :meth:`get`, but a miss returns the :data:`MISSING`
        sentinel instead of ``None`` — callers that may legitimately
        cache falsy values (``None``, ``0``, ``()``) must use this, or
        every such entry is recomputed (and miscounted as a miss)
        forever."""
        value = self._data.get(key, MISSING)
        if value is MISSING:
            self.misses += 1
            return MISSING
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        # membership test, deliberately without touching recency or stats
        return key in self._data

    def clear(self) -> None:
        """Drop every entry; the hit/miss tallies survive (they describe
        lifetime effectiveness, not current contents)."""
        self._data.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LRUCache(size={len(self._data)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
