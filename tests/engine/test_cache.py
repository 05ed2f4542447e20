"""Unit tests for the bounded LRU the engine's trial cache sits on."""

from repro.engine import LRUCache, MISSING


class TestBasics:
    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_missing_returns_none(self):
        cache = LRUCache(4)
        assert cache.get("nope") is None

    def test_put_refreshes_value(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1


class TestGetOrMiss:
    def test_miss_returns_sentinel(self):
        cache = LRUCache(4)
        assert cache.get_or_miss("nope") is MISSING
        assert cache.stats()["misses"] == 1

    def test_cached_falsy_values_hit(self):
        cache = LRUCache(4)
        for key, falsy in (("n", None), ("z", 0), ("t", ()), ("s", "")):
            cache.put(key, falsy)
        for key, falsy in (("n", None), ("z", 0), ("t", ()), ("s", "")):
            got = cache.get_or_miss(key)
            assert got is not MISSING
            assert got == falsy
        stats = cache.stats()
        assert stats["hits"] == 4 and stats["misses"] == 0

    def test_hit_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", None)
        cache.put("b", 2)
        assert cache.get_or_miss("a") is None  # "b" is now the oldest
        cache.put("c", 3)                      # evicts "b"
        assert cache.get_or_miss("a") is None
        assert cache.get_or_miss("b") is MISSING

    def test_sentinel_shared_across_caches(self):
        # one module-level sentinel: callers compare with `is`
        a, b = LRUCache(2), LRUCache(2)
        assert a.get_or_miss("x") is b.get_or_miss("x") is MISSING


class TestEviction:
    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")     # "b" is now the oldest
        cache.put("c", 3)  # evicts "b"
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_contains_does_not_refresh(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache  # must NOT promote "a"
        cache.put("c", 3)    # still evicts "a"
        assert cache.get("a") is None

    def test_capacity_never_exceeded(self):
        cache = LRUCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3


class TestStats:
    def test_hit_miss_eviction_tallies(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.get("zz")
        cache.put("c", 3)
        stats = cache.stats()
        assert stats == {
            "size": 2,
            "capacity": 2,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
        }

    def test_contains_does_not_count(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_clear_keeps_tallies(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
