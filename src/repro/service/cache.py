"""Size-bounded LRU caching for the online expansion service.

Two cache instances back :class:`repro.service.server.ExpansionService`:
one keyed on normalised query text holding ``LinkResult``s, one keyed on
the linked-entity frozenset holding ``ExpansionResult``s.  Both layers are
instances of the same :class:`LRUCache`; hit/miss/eviction counters are
kept per cache so the service can report them (and the latency benchmark
can derive a hit rate).

The cache is thread-safe on its own: the service serves concurrent
requests and must not corrupt the recency list or under-count stats.
Values are expected to be immutable (the pipeline's result types are
frozen dataclasses), so a hit can hand back the stored object directly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable, Iterator
from dataclasses import dataclass

from repro.errors import ServiceError

__all__ = ["CacheStats", "LRUCache"]


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Point-in-time counters of one cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    max_size: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when nothing was looked up)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    @classmethod
    def aggregate(cls, stats: "list[CacheStats] | tuple[CacheStats, ...]") -> "CacheStats":
        """Sum several caches into one logical view (the router reports
        its N per-shard expansion caches this way)."""
        return cls(
            hits=sum(s.hits for s in stats),
            misses=sum(s.misses for s in stats),
            evictions=sum(s.evictions for s in stats),
            size=sum(s.size for s in stats),
            max_size=sum(s.max_size for s in stats),
        )

    def as_dict(self) -> dict:
        """JSON-ready counters, including the bound and current occupancy
        (``serve --stats`` consumers size caches from these).

        ``capacity`` and ``max_size`` carry the same value: ``max_size``
        is the key PR 1 shipped and existing consumers parse; ``capacity``
        is the clearer name going forward.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "max_size": self.max_size,
            "capacity": self.max_size,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    ``get`` counts a hit or a miss and refreshes recency; ``peek`` does
    neither (the service uses it for double-checks under its own lock, so
    one logical lookup is never counted twice).  ``put`` inserts or
    refreshes; when the bound is exceeded the oldest entry is dropped and
    the eviction counter incremented.

    Invalidation epoch: a value computed from state that an invalidation
    replaces (a graph view, a linker) must not be published after that
    invalidation ran — nothing would evict it again.  Such a computation
    reads :attr:`epoch` *before* it reads the state and passes it to
    :meth:`put`, which drops the value when :meth:`evict_where` or
    :meth:`invalidate` moved the epoch on in between.
    """

    def __init__(self, max_size: int) -> None:
        if max_size < 1:
            raise ServiceError("cache max_size must be >= 1")
        self._max_size = max_size
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._epoch = 0

    @property
    def max_size(self) -> int:
        return self._max_size

    @property
    def epoch(self) -> int:
        """Count of invalidations so far (see the class docstring)."""
        with self._lock:
            return self._epoch

    def invalidate(self) -> None:
        """Advance the epoch without evicting anything: whatever the
        cached values are computed from was just replaced, so a value
        still being computed from the old state must not be published."""
        with self._lock:
            self._epoch += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def keys(self) -> Iterator[Hashable]:
        """Keys from least- to most-recently used (a snapshot)."""
        with self._lock:
            return iter(list(self._data))

    def get(self, key: Hashable, default: object | None = None) -> object | None:
        """Recorded lookup: refreshes recency and counts hit or miss."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._hits += 1
                return self._data[key]
            self._misses += 1
            return default

    def peek(self, key: Hashable, default: object | None = None) -> object | None:
        """Unrecorded lookup: no recency refresh, no counter change."""
        with self._lock:
            return self._data.get(key, default)

    def put(
        self, key: Hashable, value: object, *, epoch: int | None = None
    ) -> None:
        """Insert or refresh ``key``, evicting the oldest entry if full.

        With ``epoch`` (read before the value was computed) the value is
        dropped instead when an invalidation has happened since.
        """
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                return
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self._max_size:
                self._data.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop all entries; counters are preserved (lifetime statistics)."""
        with self._lock:
            self._data.clear()

    def evict_where(self, predicate) -> int:
        """Drop every entry whose key satisfies ``predicate``; return count.

        The targeted-invalidation primitive of the live-update path: a
        delta evicts only the entries whose neighbourhood it touched,
        leaving the rest of the cache warm.  Evicted entries count into
        the eviction counter (they are evictions, just not capacity
        ones).  The predicate runs under the cache lock and must not
        touch the cache reentrantly.  Advances the epoch even when
        nothing matched: a value still being computed has no entry yet.
        """
        with self._lock:
            self._epoch += 1
            doomed = [key for key in self._data if predicate(key)]
            for key in doomed:
                del self._data[key]
            self._evictions += len(doomed)
            return len(doomed)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                max_size=self._max_size,
            )

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"LRUCache(size={stats.size}/{stats.max_size}, "
            f"hits={stats.hits}, misses={stats.misses}, evictions={stats.evictions})"
        )
