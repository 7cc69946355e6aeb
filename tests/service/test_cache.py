"""Unit tests of the LRU cache layer: eviction order, counters, identity."""

import pytest

from repro.errors import ServiceError
from repro.service import ExpansionService, LRUCache


class TestEviction:
    def test_oldest_entry_evicted_first(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert "a" not in cache
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")     # "b" is now oldest
        cache.put("c", 3)  # evicts "b", not "a"
        assert "a" in cache
        assert "b" not in cache

    def test_put_refreshes_recency_and_overwrites(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, no eviction
        cache.put("c", 3)   # evicts "b"
        assert cache.get("a") == 10
        assert "b" not in cache
        assert len(cache) == 2

    def test_keys_ordered_least_to_most_recent(self):
        cache = LRUCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.get("a")
        assert list(cache.keys()) == ["b", "c", "a"]

    def test_size_one_always_keeps_latest(self):
        cache = LRUCache(1)
        for n in range(5):
            cache.put(n, n)
        assert list(cache.keys()) == [4]
        assert cache.stats.evictions == 4

    def test_invalid_size_rejected(self):
        with pytest.raises(ServiceError):
            LRUCache(0)


class TestCounters:
    def test_hit_and_miss_counts(self):
        cache = LRUCache(4)
        assert cache.get("nope") is None
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        stats = cache.stats
        assert (stats.hits, stats.misses) == (2, 1)
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_peek_does_not_count_or_refresh(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("nope") is None
        stats = cache.stats
        assert (stats.hits, stats.misses) == (0, 0)
        cache.put("c", 3)  # "a" still oldest: peek must not have refreshed it
        assert "a" not in cache

    def test_clear_keeps_lifetime_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_empty_hit_rate_is_zero(self):
        assert LRUCache(2).stats.hit_rate == 0.0


class TestInvalidationEpoch:
    """A value computed from state an invalidation replaced must not be
    published afterwards (see tests/updates/test_stale_publish.py for
    the end-to-end race this closes)."""

    def test_put_with_a_current_epoch_publishes(self):
        cache = LRUCache(4)
        epoch = cache.epoch
        cache.put("k", "v", epoch=epoch)
        assert cache.peek("k") == "v"

    def test_evict_where_advances_the_epoch_even_when_nothing_matches(self):
        cache = LRUCache(4)
        epoch = cache.epoch
        assert cache.evict_where(lambda key: False) == 0
        cache.put("k", "stale", epoch=epoch)
        assert "k" not in cache
        cache.put("k", "fresh", epoch=cache.epoch)
        assert cache.peek("k") == "fresh"

    def test_invalidate_advances_without_evicting(self):
        cache = LRUCache(4)
        cache.put("kept", 1)
        epoch = cache.epoch
        cache.invalidate()
        cache.put("late", 2, epoch=epoch)
        assert cache.peek("kept") == 1 and "late" not in cache
        assert cache.stats.evictions == 0

    def test_a_stale_put_does_not_overwrite_a_fresh_entry(self):
        cache = LRUCache(4)
        epoch = cache.epoch
        cache.evict_where(lambda key: True)
        cache.put("k", "fresh", epoch=cache.epoch)
        cache.put("k", "stale", epoch=epoch)
        assert cache.peek("k") == "fresh"

    def test_plain_put_and_clear_ignore_the_epoch(self):
        cache = LRUCache(4)
        epoch = cache.epoch
        cache.clear()
        assert cache.epoch == epoch
        cache.invalidate()
        cache.put("warmed", 1)  # warm_expansions-style unconditional put
        assert cache.peek("warmed") == 1


class TestCachedExpansionIdentity:
    def test_cached_result_identical_to_cold(self, small_benchmark):
        service = ExpansionService.from_benchmark(small_benchmark)
        keywords = small_benchmark.topics[0].keywords

        cold = service.expand_query(keywords)
        warm = service.expand_query(keywords)

        assert not cold.expansion_cached
        assert warm.expansion_cached and warm.link_cached
        # The cached ExpansionResult is the very object the cold pass built,
        # and the ranked lists derived from it agree exactly.
        assert warm.expansion is cold.expansion
        assert warm.link is cold.link
        assert warm.results == cold.results

        stats = service.stats()
        assert stats.expansion_cache.hits == 1
        assert stats.expansion_cache.misses == 1
        assert stats.link_cache.hits == 1
        assert stats.link_cache.misses == 1

    def test_distinct_phrasings_share_one_expansion(self, small_benchmark):
        service = ExpansionService.from_benchmark(small_benchmark)
        keywords = small_benchmark.topics[0].keywords

        first = service.expand_query(keywords)
        shouted = service.expand_query(keywords.upper() + "!")

        assert shouted.normalized_query == first.normalized_query
        assert shouted.expansion is first.expansion
