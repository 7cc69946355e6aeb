"""Multi-worker shard router: one service facade over N shard workers.

:class:`ShardRouter` serves the same ``expand_query`` / ``batch_expand`` /
``stats`` API as :class:`~repro.service.server.ExpansionService`, but over
a :class:`~repro.service.artifacts.ShardedSnapshot`:

* **Linking** happens once at the router (shared vocabulary, its own LRU),
  because the owning shard of a query is only known after linking.
* **Expansion** is fanned out to the shard *owning* the linked seed set
  (the shard of the smallest seed id — deterministic, so a seed set always
  lands on the same worker and its expansion cache).  Workers are full
  :class:`ExpansionService` instances: per-shard LRU caches, in-flight
  dedup, and the amortised ``expand_batch`` pre-fill all apply per shard.
  Cycle mining runs on the snapshot's frozen
  :class:`~repro.wiki.compact.CompactGraphView` (built from the
  :class:`PartitionedGraphView`, whose per-node halo answers are exact),
  so the mined cycles are identical to the monolithic graph's while the
  neighbourhood/subgraph work stays on CSR arrays.  Snapshots built with
  ``--prefill`` warm each worker's expansion cache at construction.
* **Ranking** is a scatter-gather over every shard's index segment with a
  global statistics exchange (each segment reports local collection counts
  per query leaf, the router sums them into the global background model,
  each segment scores its own documents under it) followed by a
  score-preserving k-way merge.  Scores and top-k order are bit-identical
  to a single engine over the whole collection.  The summed counts are
  functions of the index segments alone, which no delta or compaction
  touches, so the router keeps them (:meth:`ShardRouter.background_exchange`)
  and only *probes* the segments for leaves it has not seen: a query whose
  leaves are all known ranks in one fan-out round instead of two.

Thread pool: shard fan-out (batch expansion pre-fill, both ranking phases)
runs on one pool sized to the shard count.

The asyncio front end (:mod:`repro.service.async_router` /
:mod:`repro.service.http`) serves the same results over HTTP by driving
the building blocks exposed here (``link_text`` / ``owner_shard`` /
``build_query`` / ``global_background``) through per-shard adapters.
See ``docs/architecture.md`` for the layer map and
``docs/shard_protocol.md`` for the five shard calls as a wire protocol.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.core.expansion import Expander, ExpansionResult, NeighborhoodCycleExpander
from repro.errors import ServiceError
from repro.linking.linker import LinkResult
from repro.obs import trace as tracing
from repro.obs.serving import ServingMetrics
from repro.retrieval.engine import (
    SearchResult,
    background_from_counts,
    collect_leaves,
    merge_ranked_lists,
)
from repro.retrieval.qlang import CombineNode, QueryNode, TermNode, build_phrase_query
from repro.service.artifacts import ShardedSnapshot
from repro.service.cache import CacheStats, LRUCache
from repro.service.server import ExpansionService, ServiceResponse, ServiceStats

__all__ = ["ShardRouter", "RouterStats"]

# Bound on the router's ``leaf -> global collection count`` cache.  It
# must be bounded because keyword-fallback term leaves come from user
# text; 65,536 leaves is far above any expansion vocabulary served here.
_COLLECTION_STATS_ENTRIES = 65_536


@dataclass(frozen=True, slots=True)
class RouterStats:
    """Point-in-time counters of the router and each shard worker.

    ``requests_total`` counts every request *offered* to the router
    (single queries and each member of a batch), incremented before any
    work happens, so it is monotonic even across failures; ``queries``
    counts requests served to completion and ``errors`` those that
    raised.  ``requests_total == queries + errors + in-flight`` at any
    instant.  ``/stats`` and ``/healthz`` report these directly instead
    of making callers sum per-shard numbers.

    ``uptime_s`` is seconds since the router was constructed;
    ``per_shard_inflight`` gauges the expansions currently executing on
    each worker (0 for an idle or never-hit shard — zero-lookup-safe,
    like ``per_shard_hit_rates``).

    The resilience counters (``retries_total``, ``hedges_total``,
    ``hedge_wins_total``, ``worker_restarts``) stay 0 for the in-process
    deployment; :meth:`AsyncShardRouter.stats` fills them in when the
    shard adapters are socket-backed and a supervisor is attached.
    """

    shards: int
    requests_total: int
    queries: int
    batches: int
    unlinked_queries: int
    errors: int
    uptime_s: float
    link_cache: CacheStats
    shard_stats: tuple[ServiceStats, ...]
    retries_total: int = 0
    hedges_total: int = 0
    hedge_wins_total: int = 0
    worker_restarts: int = 0
    # Live-update state: the serving snapshot generation, the sequence
    # number of the last applied delta (0 = pristine), and how many
    # cache entries delta application has evicted so far.
    generation: int = 1
    delta_seq: int = 0
    delta_invalidations: int = 0

    @property
    def expansion_cache(self) -> CacheStats:
        """All shard expansion caches summed into one aggregate view."""
        return CacheStats.aggregate(
            [stats.expansion_cache for stats in self.shard_stats]
        )

    @property
    def per_shard_hit_rates(self) -> tuple[float, ...]:
        """Expansion-cache hit rate of each shard worker, in shard order.

        A shard that never saw a lookup reports 0.0 (not a division
        error) — common right after cold start or behind a skewed
        routing distribution.
        """
        return tuple(
            stats.expansion_cache.hit_rate for stats in self.shard_stats
        )

    @property
    def per_shard_inflight(self) -> tuple[int, ...]:
        """Expansions currently inside each shard worker, in shard order."""
        return tuple(stats.inflight for stats in self.shard_stats)

    def as_dict(self) -> dict:
        return {
            "shards": self.shards,
            "requests_total": self.requests_total,
            "errors": self.errors,
            "queries": self.queries,
            "batches": self.batches,
            "unlinked_queries": self.unlinked_queries,
            "uptime_s": round(self.uptime_s, 3),
            "retries_total": self.retries_total,
            "hedges_total": self.hedges_total,
            "hedge_wins_total": self.hedge_wins_total,
            "worker_restarts": self.worker_restarts,
            "generation": self.generation,
            "delta_seq": self.delta_seq,
            "delta_invalidations": self.delta_invalidations,
            "link_cache": self.link_cache.as_dict(),
            "expansion_cache": self.expansion_cache.as_dict(),
            "per_shard_hit_rates": [
                round(rate, 4) for rate in self.per_shard_hit_rates
            ],
            "per_shard_inflight": list(self.per_shard_inflight),
            "per_shard": [stats.as_dict() for stats in self.shard_stats],
        }


class ShardRouter:
    """Shard-transparent serving over a :class:`ShardedSnapshot`.

    Parameters
    ----------
    snapshot:
        The sharded snapshot to serve (or a snapshot directory path, v1
        single-shard directories included).
    expander:
        Expansion strategy shared by all workers; defaults to the
        paper-tuned :class:`NeighborhoodCycleExpander` (stateless, so one
        instance is safe to share).
    link_cache_size / expansion_cache_size:
        Router link-LRU bound and per-worker expansion-LRU bound.
    """

    def __init__(
        self,
        snapshot: ShardedSnapshot,
        expander: Expander | None = None,
        *,
        link_cache_size: int = 4096,
        expansion_cache_size: int = 1024,
    ) -> None:
        # Serve from the compact read path: CSR adjacency for expansion,
        # interned CSR postings for ranking.  frozen() is a no-op for
        # snapshots loaded from the version-3 format.
        from repro.service.shard_worker import make_shard_worker

        snapshot = snapshot.frozen()
        self.snapshot = snapshot
        self._view = snapshot.view()
        self.doc_names = dict(snapshot.doc_names)
        self._linker = snapshot.make_linker(self._view)
        shared_expander = expander or NeighborhoodCycleExpander()
        # Worker construction (cache sizing, warm-cache prefill) is
        # shared with the out-of-process worker entry point
        # (`repro shard-worker`) so both deployments serve from
        # identically configured shards.
        self._workers = [
            make_shard_worker(
                snapshot,
                shard_id,
                linker=self._linker,
                expander=shared_expander,
                expansion_cache_size=expansion_cache_size,
            )
            for shard_id in range(snapshot.num_shards)
        ]
        self._tokenizer = self._workers[0].engine.tokenizer
        self._link_cache = LRUCache(link_cache_size)
        # leaf -> collection count summed over every segment.  Valid for
        # as long as the engines are: deltas and compaction only replace
        # graph artefacts (see swap_snapshot).
        self._collection_stats = LRUCache(_COLLECTION_STATS_ENTRIES)
        self._pool = ThreadPoolExecutor(
            max_workers=len(self._workers), thread_name_prefix="shard-router"
        )
        self._lock = threading.Lock()
        self._requests = 0
        self._queries = 0
        self._batches = 0
        self._unlinked = 0
        self._errors = 0
        self._started = time.monotonic()
        self._delta_seq = 0
        self._delta_invalidations = 0
        # Process-wide aggregates folded from per-request traces; the
        # async front end shares this instance and /metrics renders it.
        self.metrics = ServingMetrics()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls, snapshot: ShardedSnapshot | str | Path,
        expander: Expander | None = None, **kwargs,
    ) -> "ShardRouter":
        """Cold-start a router from a (sharded or v1) snapshot directory."""
        if not isinstance(snapshot, ShardedSnapshot):
            snapshot = ShardedSnapshot.load(snapshot)
        return cls(snapshot, expander, **kwargs)

    # ------------------------------------------------------------------
    # Serving (ExpansionService-compatible surface)
    # ------------------------------------------------------------------

    @property
    def graph(self):
        """The exact logical graph (a :class:`PartitionedGraphView`)."""
        return self._view

    @property
    def num_shards(self) -> int:
        return len(self._workers)

    @property
    def workers(self) -> tuple[ExpansionService, ...]:
        return tuple(self._workers)

    def normalize(self, text: str) -> str:
        """Canonical form of a query: the tokenised text re-joined."""
        return " ".join(self._tokenizer.tokenize_phrase(text))

    def owner_shard(self, seeds: frozenset[int]) -> int:
        """Shard whose worker owns this seed set's expansion.

        The shard of the smallest seed id: deterministic, so repeats of a
        query always hit the same worker's expansion cache.  Empty seed
        sets (keyword fallback) go to shard 0; they never mine cycles.
        """
        if not seeds:
            return 0
        return self._view.owner_shard(min(seeds))

    def expand_query(self, text: str, top_k: int = 10) -> ServiceResponse:
        """Answer one query: link at the router, expand on the owning
        shard, rank across all segments."""
        started = time.perf_counter()
        self._account(requests=1)
        trace = tracing.current_trace() or tracing.Trace()
        error = False
        try:
            with tracing.start_trace(trace):
                normalized = self.normalize(text)
                with tracing.span("link") as span:
                    link, link_cached = self._link(normalized)
                    span["cached"] = link_cached
                worker = self._workers[self.owner_shard(link.article_ids)]
                expansion, expansion_cached = worker.expand_seeds(link.article_ids)
                results = self._rank(normalized, expansion, top_k)
        except Exception:
            error = True
            self._account(errors=1)
            raise
        finally:
            self.metrics.observe_request(
                "expand_query",
                trace,
                time.perf_counter() - started,
                error=error,
            )
        self._account(queries=1, unlinked=0 if link.article_ids else 1)
        return ServiceResponse(
            query=text,
            normalized_query=normalized,
            link=link,
            expansion=expansion,
            results=results,
            link_cached=link_cached,
            expansion_cached=expansion_cached,
            latency_ms=(time.perf_counter() - started) * 1000.0,
            trace=trace,
        )

    def batch_expand(self, texts: list[str], top_k: int = 10) -> list[ServiceResponse]:
        """Answer a batch, fanning expansion work out across shards.

        Raw duplicates are answered once.  Distinct seed sets are grouped
        by owning shard and pre-filled in parallel — each shard pays its
        amortised edge scan once, concurrently with the other shards.
        """
        if not texts:
            return []
        batch_started = time.perf_counter()
        self._account(requests=len(texts))
        trace = tracing.current_trace() or tracing.Trace()
        trace.annotate(batch=len(texts))
        error = False
        try:
            with tracing.start_trace(trace):
                norm_by_text = {
                    text: self.normalize(text) for text in dict.fromkeys(texts)
                }
                normalized = [norm_by_text[text] for text in texts]
                unique_norms = list(dict.fromkeys(normalized))

                with tracing.span("link", queries=len(unique_norms)):
                    links: dict[str, tuple[LinkResult, bool]] = {
                        norm: self._link(norm) for norm in unique_norms
                    }

                by_shard: dict[int, set[frozenset[int]]] = {}
                for norm in unique_norms:
                    seeds = links[norm][0].article_ids
                    by_shard.setdefault(self.owner_shard(seeds), set()).add(seeds)
                prefills = list(self._pool.map(
                    tracing.carry_context(
                        lambda item: self._workers[item[0]].prefill_expansions(item[1])
                    ),
                    by_shard.items(),
                ))
                computed_here: set[frozenset[int]] = \
                    set().union(*prefills) if prefills else set()

                by_norm: dict[str, ServiceResponse] = {}
                for text, norm in zip(texts, normalized):
                    if norm in by_norm:
                        continue
                    started = time.perf_counter()
                    link, link_cached = links[norm]
                    worker = self._workers[self.owner_shard(link.article_ids)]
                    expansion, expansion_cached = worker.expand_seeds(
                        link.article_ids
                    )
                    # The batch itself paid for pre-filled expansions: report cold.
                    if link.article_ids in computed_here:
                        expansion_cached = False
                    results = self._rank(norm, expansion, top_k)
                    by_norm[norm] = ServiceResponse(
                        query=text,
                        normalized_query=norm,
                        link=link,
                        expansion=expansion,
                        results=results,
                        link_cached=link_cached,
                        expansion_cached=expansion_cached,
                        latency_ms=(time.perf_counter() - started) * 1000.0,
                    )
        except Exception:
            error = True
            self._account(errors=len(texts))
            raise
        finally:
            self.metrics.observe_request(
                "batch_expand",
                trace,
                time.perf_counter() - batch_started,
                error=error,
            )
        self._account(
            batches=1,
            queries=len(normalized),
            unlinked=sum(
                1 for norm in normalized if not by_norm[norm].link.article_ids
            ),
        )
        return [by_norm[norm] for norm in normalized]

    def stats(self) -> RouterStats:
        with self._lock:
            return RouterStats(
                shards=self.num_shards,
                requests_total=self._requests,
                queries=self._queries,
                batches=self._batches,
                unlinked_queries=self._unlinked,
                errors=self._errors,
                uptime_s=time.monotonic() - self._started,
                link_cache=self._link_cache.stats,
                shard_stats=tuple(worker.stats() for worker in self._workers),
                generation=self.generation,
                delta_seq=self._delta_seq,
                delta_invalidations=self._delta_invalidations,
            )

    def clear_caches(self) -> None:
        """Drop the router's caches and every worker's caches."""
        self._link_cache.clear()
        self._collection_stats.clear()
        for worker in self._workers:
            worker.clear_caches()

    # ------------------------------------------------------------------
    # Live updates (driven by repro.updates.UpdateCoordinator)
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The serving snapshot generation (advanced by compaction)."""
        return self.snapshot.generation

    @property
    def linker(self):
        return self._linker

    def apply_overlay(
        self, router_view, worker_graph, *, linker=None, delta_seq: int = 0
    ) -> None:
        """Publish new effective graph views after an applied delta batch.

        ``router_view`` replaces the router's logical view (linking,
        ``build_query`` titles, owner routing); ``worker_graph`` is
        pushed into every in-process worker's expansion path.  Both are
        reference swaps — requests in flight finish on the view they
        started with, and what they compute from it is not cached (the
        link cache's invalidation epoch moves on, as the workers' do in
        ``set_graph``).  The caller evicts invalidated cache entries
        separately (:meth:`evict_expansions` / :meth:`evict_links`).
        """
        self._view = router_view
        if linker is not None:
            self._linker = linker
            self._link_cache.invalidate()
        for worker in self._workers:
            worker.set_graph(worker_graph, linker=linker)
        if delta_seq:
            with self._lock:
                self._delta_seq = max(self._delta_seq, delta_seq)

    def swap_snapshot(self, snapshot: ShardedSnapshot) -> None:
        """Hot-swap to a compacted generation of the same logical data.

        Compaction only folds *graph* deltas in — index segments and
        document names are unchanged by construction — so the swap
        replaces the graph artefacts (snapshot, view, linker, worker
        graphs) and deliberately keeps engines and caches: the overlay
        the workers were serving is bit-identical to the new base, so
        every cached expansion stays valid across the swap, and the
        collection-statistics cache stays valid because the engines do
        (a swap that ever replaced them would have to clear it).
        """
        snapshot = snapshot.frozen()
        if snapshot.num_shards != self.num_shards:
            raise ServiceError(
                f"cannot hot-swap to a {snapshot.num_shards}-shard snapshot: "
                f"this router serves {self.num_shards} shard(s)"
            )
        self.snapshot = snapshot
        self._view = snapshot.view()
        self._linker = snapshot.make_linker(self._view)
        for worker in self._workers:
            worker.set_graph(snapshot.compact_graph, linker=self._linker)
        with self._lock:
            self._delta_seq = 0

    def evict_expansions(self, predicate) -> int:
        """Evict matching expansion entries from every worker; returns
        the total count (also folded into the stats counter)."""
        evicted = sum(
            worker.evict_expansions(predicate) for worker in self._workers
        )
        with self._lock:
            self._delta_invalidations += evicted
        return evicted

    def evict_links(self) -> int:
        """Drop all cached link results, router and workers (title
        surface changed); returns the total count."""
        evicted = self._link_cache.evict_where(lambda _key: True)
        for worker in self._workers:
            evicted += worker.evict_links()
        with self._lock:
            self._delta_invalidations += evicted
        return evicted

    def close(self) -> None:
        """Shut the fan-out pool down (the router stops serving)."""
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Building blocks (shared with the asyncio front end)
    # ------------------------------------------------------------------

    def link_text(self, normalized: str) -> tuple[LinkResult, bool]:
        """Entity-link one normalised query through the router link cache."""
        return self._link(normalized)

    def build_query(
        self, normalized: str, expansion: ExpansionResult
    ) -> QueryNode | None:
        """The query AST one expanded query ranks under (None = no terms).

        Expanded queries rank the seed titles plus the expansion titles
        as exact phrases; unlinked queries fall back to the raw keyword
        bag.  Shared by the blocking and the asyncio ranking paths so
        both score the exact same AST.
        """
        if expansion.seed_articles:
            phrases = expansion.all_titles(self._view)
            return build_phrase_query(phrases, self._tokenizer)
        terms = normalized.split()
        if not terms:
            return None
        return CombineNode(tuple(TermNode(term) for term in terms))

    def global_background(self, root: QueryNode, per_segment_counts) -> dict:
        """Global background model from every segment's local counts.

        ``per_segment_counts`` holds one ``leaf -> count`` mapping per
        shard (phase 1 of the scatter-gather); the sums plus the global
        token total reproduce the monolithic collection statistics
        exactly, which is what keeps sharded scores bit-identical.
        """
        totals = {leaf: 0 for leaf in collect_leaves(root)}
        for counts in per_segment_counts:
            for leaf, count in counts.items():
                totals[leaf] += count
        return background_from_counts(totals, self._total_tokens())

    def background_exchange(self, root: QueryNode):
        """The statistics exchange of one rank, as a two-step generator.

        The blocking and the asyncio rank paths differ only in how they
        reach the shards, so the exchange itself lives here and the
        caller does the fan-out in between::

            exchange = router.background_exchange(root)
            probe = next(exchange)        # None: every leaf is known
            background = exchange.send(per_shard_counts_of(probe))

        ``probe`` is a ``#combine`` of exactly the leaves whose global
        count is not cached; the caller sends back one
        ``leaf_collection_counts(probe)`` mapping per shard (anything
        when ``probe`` is None).  Counts are per leaf and independent of
        the rest of the tree, so probing a sub-query yields the same
        numbers as the full exchange — which is simply the case where
        every leaf is missing.  The returned background is keyed in
        ``collect_leaves(root)`` order and equals
        :meth:`global_background` over the full exchange.

        Cached counts are captured in the same pass that finds the
        missing leaves and never re-read, so an LRU eviction between
        probe and use cannot lose a leaf.  Records the ``merge`` span of
        the background phase (``cached``: no probe was needed).
        """
        stats = self._collection_stats
        totals = {leaf: stats.get(leaf) for leaf in collect_leaves(root)}
        missing = [leaf for leaf, count in totals.items() if count is None]
        per_segment_counts = yield (
            CombineNode(tuple(missing)) if missing else None
        )
        with tracing.span(
            "merge", phase="background", cached=not missing,
            probed=len(missing),
        ):
            for leaf in missing:
                count = sum(counts[leaf] for counts in per_segment_counts)
                stats.put(leaf, count)
                totals[leaf] = count
            background = background_from_counts(totals, self._total_tokens())
        yield background

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _account(
        self, *, requests: int = 0, queries: int = 0, batches: int = 0,
        unlinked: int = 0, errors: int = 0,
    ) -> None:
        """Bump serving counters under the lock (async front end included)."""
        with self._lock:
            self._requests += requests
            self._queries += queries
            self._batches += batches
            self._unlinked += unlinked
            self._errors += errors

    def _total_tokens(self) -> int:
        return sum(worker.engine.index.total_tokens for worker in self._workers)

    def _link(self, normalized: str) -> tuple[LinkResult, bool]:
        cached = self._link_cache.get(normalized)
        if cached is not None:
            return cached, True
        epoch = self._link_cache.epoch  # before the linker read
        result = self._linker.link(normalized)
        self._link_cache.put(normalized, result, epoch=epoch)
        return result, False

    def _rank(
        self, normalized: str, expansion: ExpansionResult, top_k: int
    ) -> tuple[SearchResult, ...]:
        root = self.build_query(normalized, expansion)
        if root is None:
            return ()
        return tuple(self._scatter_search(root, top_k))

    def _scatter_search(self, root: QueryNode, top_k: int) -> list[SearchResult]:
        """Distributed ranking with exact global statistics: probe the
        segments for the leaves whose counts are not cached, then score.

        Each fan-out call records a shard-labelled ``rank`` span
        (``phase`` distinguishes the counts and score phases); the two
        reduce steps record ``merge`` spans.  Trace context is carried
        onto the pool threads explicitly.
        """

        def _counts(item):
            shard_id, engine = item
            with tracing.span("rank", shard=shard_id, phase="counts"):
                return engine.leaf_collection_counts(probe)

        def _score(item):
            shard_id, engine = item
            with tracing.span("rank", shard=shard_id, phase="score"):
                return engine.search_with_background(root, background, top_k)

        engines = [worker.engine for worker in self._workers]
        # Phase 1: local collection counts of the leaves the router has
        # no global count for yet, in parallel; usually there are none.
        exchange = self.background_exchange(root)
        probe = next(exchange)
        per_segment = () if probe is None else list(self._pool.map(
            tracing.carry_context(_counts), enumerate(engines)
        ))
        background = exchange.send(per_segment)
        # Phase 2: every segment ranks its own documents under the shared
        # background; the merge preserves scores and global tie-breaks.
        ranked_lists = list(self._pool.map(
            tracing.carry_context(_score), enumerate(engines)
        ))
        with tracing.span("merge", phase="topk"):
            return merge_ranked_lists(ranked_lists, top_k)

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ShardRouter(shards={stats.shards}, queries={stats.queries}, "
            f"link_cache={self._link_cache!r})"
        )
