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
  :class:`~repro.wiki.compact.CompactGraphView` — the one graph the
  router links against too — so the mined cycles are the dict graph's
  while the neighbourhood/subgraph work stays on CSR arrays.  Snapshots
  built with ``--prefill`` warm each worker's expansion cache at
  construction.
* **Ranking** is a scatter-gather over every shard's index segment with a
  global statistics exchange (each segment reports local collection counts
  per query leaf, the router sums them into the global background model,
  each segment scores its own documents under it) followed by a
  score-preserving k-way merge.  Scores and top-k order are bit-identical
  to a single engine over the whole collection.  The summed counts are
  functions of the index segments alone, which no delta or compaction
  touches, so the router keeps them and only *probes* the segments for
  leaves it has not seen (:meth:`ShardRouter.rank_plan`): a query whose
  leaves are all known ranks in one fan-out round instead of two.

That pipeline is written once, as a **sans-IO plan**:
:meth:`ShardRouter.query_plan` is a generator that *yields* the shard
calls it needs, one fan-out per step, and is sent their results; it
records the router-side spans (``link``, ``merge``), observes the
request and assembles the responses, and never touches a worker.  Two
thin drivers execute it: :meth:`ShardRouter._run` on the in-process
workers (one call direct, a fan-out over a pool sized to the shard
count) and :class:`~repro.service.async_router.AsyncShardRouter` over
per-shard adapters with ``asyncio.gather`` — the same four
:class:`ExpansionService` calls either way (``docs/shard_protocol.md``;
``docs/architecture.md`` has the layer map).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from repro.core.expansion import Expander, ExpansionResult, NeighborhoodCycleExpander
from repro.errors import ServiceError
from repro.linking.linker import LinkResult
from repro.obs import trace as tracing
from repro.obs.serving import ServingMetrics
from repro.retrieval.engine import (
    background_from_counts,
    collect_leaves,
    merge_ranked_lists,
)
from repro.retrieval.qlang import CombineNode, QueryNode, TermNode, build_phrase_query
from repro.service.artifacts import ShardedSnapshot
from repro.service.cache import CacheStats, LRUCache
from repro.service.server import ExpansionService, ServiceResponse
from repro.service.wire import EXPANSION_ETAG_ENTRIES, SearchRequest
from repro.wiki.partition import shard_of_node

__all__ = ["ShardRouter"]

# Bound on the router's ``leaf -> global collection count`` cache.  It
# must be bounded because keyword-fallback term leaves come from user
# text; 65,536 leaves is far above any expansion vocabulary served here.
_COLLECTION_STATS_ENTRIES = 65_536


class ShardRouter:
    """Shard-transparent serving over a :class:`ShardedSnapshot`.

    Parameters
    ----------
    snapshot:
        The sharded snapshot to serve.
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
        # snapshots loaded from disk.
        from repro.service.shard_worker import make_shard_worker

        snapshot = snapshot.frozen()
        self.snapshot = snapshot
        self._view = snapshot.graph
        self.doc_names = dict(snapshot.doc_names)
        self._linker = snapshot.make_linker()
        shared_expander = expander or NeighborhoodCycleExpander()
        # Worker construction (cache sizing, warm-cache prefill) is
        # shared with the out-of-process worker entry point
        # (`repro shard-worker`) so both deployments serve from
        # identically configured shards.
        self._workers = [
            make_shard_worker(
                snapshot.shard(shard_id),
                expander=shared_expander,
                expansion_cache_size=expansion_cache_size,
            )
            for shard_id in range(snapshot.num_shards)
        ]
        self._tokenizer = self._workers[0].engine.tokenizer
        self._link_cache = LRUCache(link_cache_size)
        # leaf -> collection count summed over every segment, and the
        # token total beside it.  Valid for as long as the engines are:
        # deltas and compaction only replace graph artefacts (see
        # swap_snapshot).
        self._collection_stats = LRUCache(_COLLECTION_STATS_ENTRIES)
        # (seed set, top_k) -> the ``search_with_background`` step that
        # followed it last time, which AsyncShardRouter starts early; it
        # only pays while the adapters' etag memo holds the seed set too.
        self.rank_ahead = LRUCache(EXPANSION_ETAG_ENTRIES)
        self._total_tokens = sum(w.engine.index.total_tokens for w in self._workers)
        self._pool = ThreadPoolExecutor(
            max_workers=len(self._workers), thread_name_prefix="shard-router"
        )
        # Every count /stats, /healthz and /metrics report lives here,
        # folded per request; the async front end shares this instance.
        self.metrics = ServingMetrics()
        self.metrics.snapshot_generation.set(snapshot.generation)
        self.metrics.delta_seq.set(0)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls, snapshot: ShardedSnapshot | str | Path,
        expander: Expander | None = None, **kwargs,
    ) -> "ShardRouter":
        """Cold-start a router from a snapshot (or a snapshot directory)."""
        if not isinstance(snapshot, ShardedSnapshot):
            snapshot = ShardedSnapshot.load(snapshot)
        return cls(snapshot, expander, **kwargs)

    # ------------------------------------------------------------------
    # Serving (ExpansionService-compatible surface)
    # ------------------------------------------------------------------

    @property
    def graph(self):
        """The effective logical graph: the snapshot's, or the overlay
        view an applied delta batch published over it."""
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

        The placement hash of the smallest seed id: deterministic, so
        repeats of a query always hit the same worker's expansion cache
        (and ``with_prefill`` stored it there).  Empty seed sets (keyword
        fallback) go to shard 0; they never mine cycles.
        """
        if not seeds:
            return 0
        return shard_of_node(min(seeds), self.num_shards)

    def expand_query(self, text: str, top_k: int = 10) -> ServiceResponse:
        """Answer one query: link at the router, expand on the owning
        shard, rank across all segments."""
        with self.accounting(1) as served:
            served += self._run(self.query_plan("expand_query", [text], top_k))
        return served[0]

    def batch_expand(self, texts: list[str], top_k: int = 10) -> list[ServiceResponse]:
        """Answer a batch, fanning expansion work out across shards.

        Raw duplicates are answered once.  Distinct seed sets are grouped
        by owning shard and pre-filled in parallel — one ``expand_batch``
        pass per shard, concurrently with the other shards.
        """
        if not texts:
            return []
        with self.accounting(len(texts)) as served:
            served += self._run(self.query_plan("batch_expand", texts, top_k))
        return served

    def stats(self) -> dict:
        """Counters and state of the router and each shard, JSON-ready
        (``/stats``; ``docs/http_api.md`` names the family behind each
        count).  Counts are read from :attr:`metrics`, state from its
        holder: cache sizes, in-flight gauges, the generation.  The
        resilience counters read 0 here; :meth:`AsyncShardRouter.stats`
        fills them in."""
        metrics = self.metrics
        answers: list[dict[str, int]] = [{} for _ in self._workers]
        for (shard, result), count in metrics.shard_queries.samples().items():
            answers[int(shard)][result] = count
        caches, per_shard = [], []
        for worker, counts in zip(self._workers, answers):
            state = worker.stats()
            caches.append(replace(
                state.expansion_cache,
                hits=counts.get("hit", 0), misses=counts.get("miss", 0),
            ))
            per_shard.append({
                "queries": sum(counts.values()),
                "inflight_waits": state.inflight_waits,
                "inflight": state.inflight,
                "expansion_cache": caches[-1].as_dict(),
            })
        texts = metrics.queries.value
        failed, served = texts(outcome="failed"), texts(outcome="served")
        return {
            "shards": self.num_shards,
            # Offered is read last, so it never reads below served + failed.
            "requests_total": texts(outcome="offered"),
            "errors": failed,
            "queries": served,
            "batches": metrics.requests.value(path="batch_expand")
            - metrics.errors.value(path="batch_expand"),
            "unlinked_queries": texts(outcome="unlinked"),
            "uptime_s": round(metrics.uptime_s, 3),
            "retries_total": 0, "hedges_total": 0, "hedge_wins_total": 0,
            "worker_restarts": 0,
            "generation": self.generation,
            "delta_seq": metrics.delta_seq.value(),
            "delta_invalidations": sum(
                metrics.delta_invalidations.samples().values()
            ),
            "link_cache": self._link_cache.stats.as_dict(),
            "expansion_cache": CacheStats.aggregate(caches).as_dict(),
            "per_shard_hit_rates": [round(c.hit_rate, 4) for c in caches],
            "per_shard_inflight": [shard["inflight"] for shard in per_shard],
            "per_shard": per_shard,
        }

    def render_metrics(self) -> str:
        """``/metrics``: the registry, after setting the one gauge only
        the workers' state can: each shard's expansions in flight."""
        for shard_id, worker in enumerate(self._workers):
            self.metrics.shard_inflight.set(worker.stats().inflight, shard=shard_id)
        return self.metrics.render()

    def clear_caches(self) -> None:
        """Drop the router's caches and every worker's caches."""
        self._link_cache.clear()
        self._collection_stats.clear()
        self.rank_ahead.clear()
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

    def apply_overlay(self, view, *, linker=None, delta_seq: int = 0) -> None:
        """Publish the effective graph view after an applied delta batch.

        ``view`` replaces the router's logical view (linking,
        ``build_query`` titles) and is pushed into every in-process
        worker's expansion path; ``linker`` stays here.  All are
        reference swaps — requests in flight finish on the view they
        started with, and what they compute from it is not cached (the
        link cache's invalidation epoch moves on, as the workers' do in
        ``set_graph``).  The caller evicts invalidated cache entries
        separately (:meth:`evict_expansions` / :meth:`evict_links`).
        ``delta_seq``, the batch's last sequence number, is the new
        ``repro_delta_seq``.
        """
        self._view = view
        if linker is not None:
            self._linker = linker
            self._link_cache.invalidate()
        for worker in self._workers:
            worker.set_graph(view)
        if delta_seq:
            self.metrics.delta_seq.set(delta_seq)

    def swap_snapshot(self, snapshot: ShardedSnapshot) -> None:
        """Hot-swap to a compacted generation of the same logical data.

        Compaction only folds *graph* deltas in — index segments and
        document names are unchanged by construction — so the swap
        replaces the graph artefacts (snapshot, graph, linker)
        and deliberately keeps engines and caches: the overlay
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
        self._view = snapshot.graph
        self._linker = snapshot.make_linker()
        for worker in self._workers:
            worker.set_graph(snapshot.graph)
        self.metrics.snapshot_generation.set(snapshot.generation)
        self.metrics.delta_seq.set(0)

    def evict_expansions(self, predicate) -> int:
        """Evict matching expansion entries from every in-process
        worker; returns the total count."""
        return sum(
            worker.evict_expansions(predicate) for worker in self._workers
        )

    def evict_links(self) -> int:
        """Drop all cached link results (title surface changed);
        returns the count."""
        return self._link_cache.evict_where(lambda _key: True)

    def close(self) -> None:
        """Shut the fan-out pool down (the router stops serving)."""
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # The query plan (sans-IO; executed by _run and by AsyncShardRouter)
    # ------------------------------------------------------------------

    def query_plan(self, path: str, texts: list[str], top_k: int):
        """One request — a query, or a batch — as a sans-IO generator.

        Yields steps ``(call, [(shard, argument), ...])``: each item is
        one of the four shard calls on that shard's worker (``shard`` is
        None for the router's own ``link_text``), each step is one
        fan-out, and the driver sends back the results in item order —
        or throws the failure in, so the request is observed as an error.
        Returns one :class:`ServiceResponse` per input text; texts that
        normalise identically share one.  The steps, over the distinct
        normalised texts:

        1. ``link_text`` each at the router (the ``link`` span);
        2. ``prefill_expansions`` once per owner shard with its distinct
           seed sets — ``batch_expand`` only; what this step computed is
           reported as not cached, because the batch paid for it;
        3. ``expand_seeds`` on the shard owning each seed set;
        4. the steps of :meth:`rank_plan` for what there is to rank.

        The request runs in the ambient trace (or a new one) and is
        observed once, as ``path``; batch members carry no trace.
        """
        started = time.perf_counter()
        batch = path == "batch_expand"
        trace = tracing.current_trace() or tracing.Trace()
        error = False
        try:
            with tracing.start_trace(trace):
                if batch:
                    trace.annotate(batch=len(texts))
                normalized = {
                    text: self.normalize(text) for text in dict.fromkeys(texts)
                }
                queries: dict[str, str] = {}  # distinct query -> its first text
                for text, query in normalized.items():
                    queries.setdefault(query, text)

                with tracing.span("link") as span:
                    links = yield "link_text", [(None, query) for query in queries]
                    if batch:
                        span["queries"] = len(queries)
                    else:
                        span["cached"] = links[0][1]
                seed_sets = [link.article_ids for link, _ in links]
                owners = [self.owner_shard(seeds) for seeds in seed_sets]
                computed_here: set[frozenset[int]] = set()
                if batch:
                    by_owner: dict[int, set[frozenset[int]]] = {}
                    for owner, seeds in zip(owners, seed_sets):
                        by_owner.setdefault(owner, set()).add(seeds)
                    computed_here.update(*(
                        yield "prefill_expansions", list(by_owner.items())
                    ))
                expansions = yield "expand_seeds", list(zip(owners, seed_sets))
                for owner, seeds, (_, cached) in zip(owners, seed_sets, expansions):
                    self.metrics.shard_queries.inc(
                        shard=owner,
                        result="hit" if cached else "miss" if seeds else "unlinked",
                    )
                roots = [
                    self.build_query(query, expansion)
                    for query, (expansion, _) in zip(queries, expansions)
                ]
                ranked = iter((yield from self.rank_plan(
                    [root for root in roots if root is not None], top_k
                )))
                results = [() if root is None else next(ranked) for root in roots]
        except Exception:
            error = True
            raise
        finally:
            self.metrics.observe_request(
                path, trace, time.perf_counter() - started, error=error
            )
        latency_ms = (time.perf_counter() - started) * 1000.0
        by_query = {
            query: ServiceResponse(
                query=queries[query],
                normalized_query=query,
                link=link,
                expansion=expansion,
                results=result,
                link_cached=link_cached,
                expansion_cached=(
                    expansion_cached and link.article_ids not in computed_here
                ),
                latency_ms=latency_ms,
                trace=None if batch else trace,
            )
            for query, (link, link_cached), (expansion, expansion_cached), result
            in zip(queries, links, expansions, results)
        }
        return [by_query[normalized[text]] for text in texts]

    def rank_plan(self, roots: list[QueryNode], top_k: int):
        """The rank steps: each root ranked over every segment under
        exact global statistics; returns one merged top-k per root.

        1. ``leaf_collection_counts`` on every shard for each root with
           leaves whose global count is not cached, carrying only those
           leaves (counts are per leaf, so a sub-query probes the same
           numbers as the full exchange) — usually none, and no step.
        2. The sums are cached and become the global background, keyed
           in ``collect_leaves(root)`` order and equal to
           :meth:`global_background` over the full exchange (the
           ``merge`` span of the background phase; ``cached``: no probe).
        3. ``search_with_background`` on every shard for each root, then
           the k-way merge that keeps scores and global tie-breaks (the
           ``merge`` span of the topk phase).

        Cached counts are captured in the same pass that finds the
        missing leaves and never re-read, so an LRU eviction between
        probe and use cannot lose a leaf.
        """
        shards = range(self.num_shards)
        stats = self._collection_stats
        totals = [
            {leaf: stats.get(leaf) for leaf in collect_leaves(root)}
            for root in roots
        ]
        missing = [
            [leaf for leaf, count in known.items() if count is None]
            for known in totals
        ]
        probes = [
            (shard, CombineNode(tuple(leaves)))
            for leaves in missing if leaves for shard in shards
        ]
        counts = iter((yield "leaf_collection_counts", probes) if probes else ())
        requests = []
        for root, known, leaves in zip(roots, totals, missing):
            per_segment = [next(counts) for _ in shards] if leaves else ()
            with tracing.span(
                "merge", phase="background", cached=not leaves,
                probed=len(leaves),
            ):
                for leaf in leaves:
                    known[leaf] = sum(segment[leaf] for segment in per_segment)
                    stats.put(leaf, known[leaf])
                background = background_from_counts(known, self._total_tokens)
            requests.append(SearchRequest(root, background, top_k))
        ranked_lists = iter((yield "search_with_background", [
            (shard, request) for request in requests for shard in shards
        ]) if requests else ())
        merged = []
        for _ in requests:
            per_segment = [next(ranked_lists) for _ in shards]
            with tracing.span("merge", phase="topk"):
                merged.append(tuple(merge_ranked_lists(per_segment, top_k)))
        return merged

    @contextmanager
    def accounting(self, requests: int):
        """Offered-load accounting around one request of ``requests``
        texts (the async front end included), into
        ``repro_queries_total``: offered before any work happens, then —
        the caller having put the responses into the yielded list —
        served (and unlinked), or failed if it raised."""
        queries = self.metrics.queries
        queries.inc(requests, outcome="offered")
        served: list[ServiceResponse] = []
        try:
            yield served
        except Exception:
            queries.inc(requests, outcome="failed")
            raise
        queries.inc(sum(1 for r in served if not r.linked), outcome="unlinked")
        queries.inc(len(served), outcome="served")

    # ------------------------------------------------------------------
    # Building blocks (the plan's, and the bench ladder's)
    # ------------------------------------------------------------------

    def link_text(self, normalized: str) -> tuple[LinkResult, bool]:
        """Entity-link one normalised query through the router link cache."""
        cached = self._link_cache.get(normalized)
        if cached is not None:
            return cached, True
        epoch = self._link_cache.epoch  # before the linker read
        result = self._linker.link(normalized)
        self._link_cache.put(normalized, result, epoch=epoch)
        return result, False

    def link_cached(self, normalized: str) -> tuple[LinkResult, bool] | None:
        """:meth:`link_text` when an uncounted peek finds the text cached,
        else None (an event loop's half of it; an eviction between the two
        looks costs the caller one link where it stands, counters exact)."""
        if self._link_cache.peek(normalized) is None:
            return None
        return self.link_text(normalized)

    def build_query(
        self, normalized: str, expansion: ExpansionResult
    ) -> QueryNode | None:
        """The query AST one expanded query ranks under (None = no terms).

        Expanded queries rank the seed titles plus the expansion titles
        as exact phrases; unlinked queries fall back to the raw keyword
        bag.
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
        shard (the full statistics exchange); the sums plus the global
        token total reproduce the monolithic collection statistics
        exactly, which is what keeps sharded scores bit-identical.
        """
        totals = {leaf: 0 for leaf in collect_leaves(root)}
        for counts in per_segment_counts:
            for leaf, count in counts.items():
                totals[leaf] += count
        return background_from_counts(totals, self._total_tokens)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _run(self, plan):
        """Execute a plan against the in-process workers, throwing a
        failed step into it so its open spans close."""
        resume, value = plan.send, None
        try:
            while True:
                call, items = resume(value)
                try:
                    resume, value = plan.send, self._execute(call, items)
                except BaseException as exc:  # the plan re-raises it
                    resume, value = plan.throw, exc
        except StopIteration as done:
            return done.value

    def _execute(self, call: str, items: list) -> list:
        """One step: a single call (and the router's own linking) runs
        here, a fan-out on the pool — trace context is carried onto its
        threads explicitly."""

        def one(item):
            shard, argument = item
            target = self if shard is None else self._workers[shard]
            return getattr(target, call)(argument)

        if len(items) == 1 or items[0][0] is None:
            return [one(item) for item in items]
        return list(self._pool.map(tracing.carry_context(one), items))

    def __repr__(self) -> str:
        return (
            f"ShardRouter(shards={self.num_shards}, "
            f"queries={self.metrics.queries.value(outcome='served')}, "
            f"link_cache={self._link_cache!r})"
        )
