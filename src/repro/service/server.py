"""The online expansion service.

:class:`ExpansionService` answers a single text query end-to-end — entity
linking, cycle-based expansion over the knowledge graph, and language-model
ranking of the expanded ``#combine`` query — without re-running the batch
pipeline.  It is the serving-layer counterpart of the offline harness: the
harness proves the method on a benchmark; the service applies the method to
ad-hoc traffic.

Two LRU layers absorb repeated work (see :mod:`repro.service.cache`):

* ``LinkResult`` by normalised query text — queries that differ only in
  case/punctuation share one linking pass;
* ``ExpansionResult`` by linked-entity frozenset — distinct phrasings that
  link to the same entities share one (expensive) cycle-mining pass.

Concurrency: the service is thread-safe.  An in-flight table deduplicates
identical expansions across threads — when two requests race on the same
entity set, one mines cycles and the other waits for the result instead of
mining twice.  :meth:`ExpansionService.batch_expand` additionally
deduplicates identical queries *within* a batch and mines its distinct
entity sets in one ``expand_batch`` pass.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.expansion import (
    Expander,
    ExpansionResult,
    NeighborhoodCycleExpander,
)
from repro.errors import ServiceError
from repro.linking.linker import EntityLinker, LinkResult
from repro.obs import trace as tracing
from repro.retrieval.compact import CompactIndex
from repro.retrieval.engine import SearchEngine, SearchResult
from repro.retrieval.qlang import CombineNode, QueryNode, TermNode
from repro.retrieval.scoring import DirichletSmoothing
from repro.service.artifacts import Snapshot
from repro.service.cache import CacheStats, LRUCache
from repro.service.wire import SearchRequest
from repro.wiki.compact import CompactGraphView

__all__ = ["ExpansionService", "ServiceResponse", "ServiceStats"]


@dataclass(frozen=True, slots=True)
class ServiceResponse:
    """Everything the service knows about one answered query.

    ``trace`` is the request-scoped :class:`repro.obs.trace.Trace` that
    recorded this query's per-stage spans (None for batch members,
    whose spans aggregate into one batch-level trace instead).
    Coalesced responses share the computing request's trace.
    """

    query: str
    normalized_query: str
    link: LinkResult
    expansion: ExpansionResult
    results: tuple[SearchResult, ...]
    link_cached: bool
    expansion_cached: bool
    latency_ms: float
    trace: tracing.Trace | None = None

    def stage_totals_ms(self) -> dict[str, float]:
        """Busy milliseconds per pipeline stage ({} without a trace)."""
        return self.trace.stage_totals_ms() if self.trace is not None else {}

    @property
    def linked(self) -> bool:
        """Whether any entity was linked (False => keyword fallback ranking)."""
        return bool(self.link.article_ids)

    def results_as_dicts(self, doc_names: dict[str, str] | None = None) -> list[dict]:
        """The ranked-result rows of the wire form (shared by
        ``/expand`` and ``/search`` so the two can never drift apart)."""
        names = doc_names or {}
        return [
            {
                "rank": result.rank,
                "doc_id": result.doc_id,
                "score": result.score,
                "name": names.get(result.doc_id, ""),
            }
            for result in self.results
        ]

    def as_dict(self, doc_names: dict[str, str] | None = None) -> dict:
        """The JSON wire form served by ``POST /expand``.

        Documented field by field in ``docs/http_api.md`` — change the
        two together.  Scores are emitted as plain floats: Python's JSON
        writer round-trips them exactly, so a client parsing the payload
        recovers bit-identical scores (the HTTP regime of the latency
        bench asserts this).
        """
        names = doc_names or {}
        return {
            "query": self.query,
            "normalized_query": self.normalized_query,
            "linked": self.linked,
            "link": {
                "article_ids": sorted(self.link.article_ids),
                "matches": [
                    {
                        "article_id": match.article_id,
                        "title_tokens": list(match.title_tokens),
                        "start": match.start,
                        "end": match.end,
                        "via_synonym": match.via_synonym,
                    }
                    for match in self.link.matches
                ],
            },
            "expansion": {
                "seed_articles": sorted(self.expansion.seed_articles),
                "article_ids": sorted(self.expansion.article_ids),
                "titles": list(self.expansion.titles),
                "num_features": self.expansion.num_features,
                "num_cycles": len(self.expansion.cycles),
            },
            "results": self.results_as_dicts(names),
            "link_cached": self.link_cached,
            "expansion_cached": self.expansion_cached,
            "latency_ms": round(self.latency_ms, 3),
            # Always present (stable schema); {} when no per-request
            # trace exists (batch members aggregate into a batch trace).
            "stages": self.stage_totals_ms(),
            **(
                {"trace_id": self.trace.trace_id}
                if self.trace is not None else {}
            ),
        }


@dataclass(frozen=True, slots=True)
class ServiceStats:
    """Point-in-time service counters.

    ``inflight`` is a gauge, not a counter: the number of expansions
    executing (or waited on) inside this service at snapshot time.  It
    is 0 on an idle service — zero-lookup-safe like the hit rates.
    """

    queries: int
    batches: int
    unlinked_queries: int
    inflight_waits: int
    link_cache: CacheStats
    expansion_cache: CacheStats
    inflight: int = 0

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "batches": self.batches,
            "unlinked_queries": self.unlinked_queries,
            "inflight_waits": self.inflight_waits,
            "inflight": self.inflight,
            "link_cache": self.link_cache.as_dict(),
            "expansion_cache": self.expansion_cache.as_dict(),
        }


class ExpansionService:
    """Thread-safe online query expansion over prebuilt artefacts.

    Parameters
    ----------
    graph / engine / linker:
        The knowledge graph, a ready search engine, and a ready entity
        linker — typically materialised from a :class:`Snapshot`.  A
        shard worker is given no linker: the router links.
    expander:
        Expansion strategy; defaults to the paper-tuned
        :class:`NeighborhoodCycleExpander`.
    doc_names:
        Optional ``doc_id -> display name`` map used by callers that render
        results (the CLI); the service holds it as given, uncopied.
    link_cache_size / expansion_cache_size:
        LRU bounds of the two cache layers.
    allow_empty_index:
        Permit an engine with no indexed documents.  Standalone services
        reject that (serving nothing is a misconfiguration), but a shard
        worker behind :class:`repro.service.router.ShardRouter` may own an
        empty index segment and still expand seed sets.
    shard_id:
        The shard this worker serves under a router, used only to label
        trace spans (``None`` for a standalone service).
    """

    def __init__(
        self,
        graph,
        engine: SearchEngine,
        linker: EntityLinker | None,
        expander: Expander | None = None,
        *,
        doc_names: dict[str, str] | None = None,
        link_cache_size: int = 4096,
        expansion_cache_size: int = 1024,
        allow_empty_index: bool = False,
        shard_id: int | None = None,
    ) -> None:
        if engine.num_documents == 0 and not allow_empty_index:
            raise ServiceError("cannot serve from an engine with no indexed documents")
        self._graph = graph
        self._engine = engine
        self._linker = linker
        self._expander = expander or NeighborhoodCycleExpander()
        self.doc_names = doc_names or {}
        self._link_cache = LRUCache(link_cache_size)
        self._expansion_cache = LRUCache(expansion_cache_size)
        self._lock = threading.Lock()
        self._inflight: dict[frozenset[int], threading.Event] = {}
        self._shard_id = shard_id
        self._queries = 0
        self._batches = 0
        self._unlinked = 0
        self._inflight_waits = 0
        self._active = 0  # expansions currently inside _expand_seeds

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        snapshot: Snapshot,
        expander: Expander | None = None,
        *,
        compact: bool = True,
        **kwargs,
    ) -> "ExpansionService":
        """A service over an in-memory snapshot.

        With ``compact`` (the default) the hot read path is frozen into
        the array-backed structures — :class:`CompactGraphView` for
        expansion, :class:`CompactIndex` for ranking — which answer
        bit-identically to the dict-backed originals but markedly
        faster.  ``compact=False`` keeps the dict path; the latency
        benchmark uses it to measure the speedup in one process.
        """
        if compact:
            graph = CompactGraphView.from_graph(snapshot.graph)
            engine = SearchEngine(
                smoothing=DirichletSmoothing(mu=snapshot.mu),
                index=CompactIndex.from_index(snapshot.index),
            )
        else:
            graph = snapshot.graph
            engine = snapshot.make_engine()
        return cls(
            graph,
            engine,
            snapshot.make_linker(),
            expander,
            doc_names=snapshot.doc_names,
            **kwargs,
        )

    @classmethod
    def from_benchmark(
        cls, benchmark, expander: Expander | None = None, **kwargs
    ) -> "ExpansionService":
        """Build a service directly from a benchmark (tests, ad-hoc use)."""
        return cls.from_snapshot(Snapshot.build(benchmark), expander, **kwargs)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    @property
    def graph(self):
        return self._graph

    @property
    def engine(self) -> SearchEngine:
        return self._engine

    @property
    def linker(self) -> EntityLinker | None:
        return self._linker

    def normalize(self, text: str) -> str:
        """Canonical form of a query: the tokenised text re-joined."""
        return " ".join(self._engine.tokenizer.tokenize_phrase(text))

    def expand_query(self, text: str, top_k: int = 10) -> ServiceResponse:
        """Answer one query: link, expand, rank.

        Always traced: a standalone service starts a request-scoped
        trace of its own; under a router the router's trace is already
        active and the spans recorded here land in it.
        """
        active = tracing.current_trace()
        if active is not None:
            return self._serve_one(text, top_k, active)
        with tracing.start_trace() as trace:
            return self._serve_one(text, top_k, trace)

    def _serve_one(
        self, text: str, top_k: int, trace: tracing.Trace
    ) -> ServiceResponse:
        started = time.perf_counter()
        normalized = self.normalize(text)
        with tracing.span("link", shard=self._shard_id) as span:
            link, link_cached = self._link(normalized)
            span["cached"] = link_cached
        expansion, expansion_cached = self._expand_seeds(link.article_ids)
        with tracing.span("rank", shard=self._shard_id):
            results = self._rank(normalized, expansion, top_k)
        with self._lock:
            self._queries += 1
            if not link.article_ids:
                self._unlinked += 1
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
        """Answer a batch of queries, sharing work across its members.

        Identical raw strings are deduplicated before any work happens (a
        batch of N copies of one query costs one tokenisation, one link and
        one expansion, not N cache probes racing the in-flight table), and
        identical queries after normalisation are answered once with the
        response object reused.  All uncached expansions of the batch run
        through one :meth:`NeighborhoodCycleExpander.expand_batch` call
        when the configured expander provides it.
        """
        if not texts:
            return []
        if tracing.current_trace() is None:
            # One trace aggregates the whole batch (members share the
            # amortised pre-fill, so per-member stage attribution would
            # be arbitrary); responses carry trace=None.
            with tracing.start_trace() as trace:
                trace.annotate(batch=len(texts))
                return self._serve_batch(texts, top_k)
        return self._serve_batch(texts, top_k)

    def _serve_batch(self, texts: list[str], top_k: int) -> list[ServiceResponse]:
        # Dedupe raw strings first: repeated identical queries are common
        # in real batches and should not even pay repeated normalisation.
        norm_by_text = {text: self.normalize(text) for text in dict.fromkeys(texts)}
        normalized = [norm_by_text[text] for text in texts]
        unique_norms = list(dict.fromkeys(normalized))

        with tracing.span("link", shard=self._shard_id, queries=len(unique_norms)):
            links: dict[str, tuple[LinkResult, bool]] = {
                norm: self._link(norm) for norm in unique_norms
            }

        # Pre-fill the expansion cache for all distinct, uncached, non-empty
        # entity sets in one amortised pass.
        computed_here = self.prefill_expansions(
            links[norm][0].article_ids for norm in unique_norms
        )

        by_norm: dict[str, ServiceResponse] = {}
        for text, norm in zip(texts, normalized):
            if norm not in by_norm:
                started = time.perf_counter()
                link, link_cached = links[norm]
                expansion, expansion_cached = self._expand_seeds(link.article_ids)
                # An expansion computed by this batch's pre-fill pass is not
                # "cached" from the caller's perspective: the batch paid for it.
                if link.article_ids in computed_here:
                    expansion_cached = False
                with tracing.span("rank", shard=self._shard_id):
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
        # Duplicates share a response object but still count as served
        # queries — throughput accounting should reflect offered load.
        with self._lock:
            self._batches += 1
            self._queries += len(normalized)
            self._unlinked += sum(
                1 for norm in normalized if not by_norm[norm].link.article_ids
            )
        return [by_norm[norm] for norm in normalized]

    def stats(self) -> ServiceStats:
        with self._lock:
            return ServiceStats(
                queries=self._queries,
                batches=self._batches,
                unlinked_queries=self._unlinked,
                inflight_waits=self._inflight_waits,
                link_cache=self._link_cache.stats,
                expansion_cache=self._expansion_cache.stats,
                inflight=self._active,
            )

    def clear_caches(self) -> None:
        """Drop cached links and expansions (counters are preserved)."""
        self._link_cache.clear()
        self._expansion_cache.clear()

    # ------------------------------------------------------------------
    # Live updates (driven by repro.updates — see docs/live_updates.md)
    # ------------------------------------------------------------------

    def set_graph(self, graph) -> None:
        """Swap the serving graph in place.

        The live-update path publishes a fresh
        :class:`~repro.updates.overlay.OverlayGraphView` here after each
        applied delta batch, and the compacted base graph after a hot
        swap.  Swapping is a reference assignment — requests already
        executing finish against the view they started with; the caller
        is responsible for evicting the cache entries the change
        invalidates (:meth:`evict_expansions`).  What those requests
        compute is returned to them but never cached: the swap advances
        the expansion cache's invalidation epoch (after the assignment,
        so a computation that read the old epoch may have read either
        view, and one that reads the new epoch reads the new view).
        """
        self._graph = graph
        self._expansion_cache.invalidate()

    def evict_expansions(self, predicate) -> int:
        """Targeted invalidation: drop expansion-cache entries whose
        seed-set key satisfies ``predicate``; returns the count."""
        return self._expansion_cache.evict_where(predicate)

    def warm_expansions(self, entries) -> int:
        """Seed the expansion cache with precomputed results.

        ``entries`` yields ``(seed_set, ExpansionResult)`` pairs — the
        shape :attr:`ShardedSnapshot.prefills` stores per shard.  Warming
        counts neither hits nor misses; the first real lookup of a warmed
        entry reports as a cache hit, so prefilled queries serve at
        cached-tier latency from the very first request.  Returns the
        number of entries installed.  The expansion cache must be sized
        to hold every entry (:class:`~repro.service.router.ShardRouter`
        and the CLI guarantee this) — a smaller bound would evict warmed
        entries before the first request ever reads them.
        """
        count = 0
        for seeds, result in entries:
            self._expansion_cache.put(frozenset(seeds), result)
            count += 1
        return count

    # ------------------------------------------------------------------
    # The shard protocol (docs/shard_protocol.md): the four calls a router
    # makes on a worker — direct, via an adapter or over the wire.
    # ------------------------------------------------------------------

    def expand_seeds(self, seeds: frozenset[int]) -> tuple[ExpansionResult, bool]:
        """Expansion for one entity set (cached, in-flight deduplicated).

        Returns ``(result, was_cached)``.  This is the unit of work a
        router fans out to the shard owning ``seeds``; the router's query
        plan counts the answer (``expand_query`` counts its own).
        """
        return self._expand_seeds(frozenset(seeds))

    def has_expansion(self, seeds: frozenset[int]) -> bool:
        """Whether :meth:`expand_seeds` would answer ``seeds`` from the
        cache — an unrecorded peek: no hit or miss counted, recency kept."""
        return not seeds or self._expansion_cache.peek(seeds) is not None

    def leaf_collection_counts(self, root: QueryNode) -> dict:
        """This segment's collection count of every leaf of ``root``
        (the probe phase of a distributed rank)."""
        with tracing.span("rank", shard=self._shard_id, phase="counts"):
            return self._engine.leaf_collection_counts(root)

    def search_with_background(self, request: SearchRequest) -> list[SearchResult]:
        """This segment's top-k under the global background model (the
        score phase of a distributed rank)."""
        with tracing.span("rank", shard=self._shard_id, phase="score"):
            return self._engine.search_with_background(
                request.root, request.background, request.top_k
            )

    def prefill_expansions(self, seed_sets) -> set[frozenset[int]]:
        """Amortised pre-fill of the expansion cache for a batch.

        Claims every distinct, uncached, non-empty entity set, computes
        them in one :meth:`NeighborhoodCycleExpander.expand_batch` pass
        (when the expander provides it) and publishes the results.
        Returns the seed sets computed by this call; sets already cached
        or being computed by another thread are left to
        :meth:`expand_seeds` to pick up.
        """
        batch_expand = getattr(self._expander, "expand_batch", None)
        computed_here: set[frozenset[int]] = set()
        if batch_expand is None:
            return computed_here
        pending = self._claim_pending({frozenset(seeds) for seeds in seed_sets})
        if pending:
            try:
                epoch = self._expansion_cache.epoch  # before the graph read
                with self._mine_span(sum(map(len, pending)), batch=len(pending)):
                    expansions = list(batch_expand(self._graph, pending))
                for seeds, result in zip(pending, expansions):
                    self._expansion_cache.put(seeds, result, epoch=epoch)
                    computed_here.add(seeds)
            finally:
                self._release_pending(pending)
        return computed_here

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _link(self, normalized: str) -> tuple[LinkResult, bool]:
        cached = self._link_cache.get(normalized)
        if cached is not None:
            return cached, True
        epoch = self._link_cache.epoch  # before the linker read
        result = self._linker.link(normalized)
        self._link_cache.put(normalized, result, epoch=epoch)
        return result, False

    def _expand_seeds(self, seeds: frozenset[int]) -> tuple[ExpansionResult, bool]:
        """Expansion for one entity set, deduplicating in-flight work.

        Records the ``expand`` span (cache tier in its ``cached`` label)
        and counts toward the ``inflight`` gauge while executing.
        """
        if not seeds:
            return ExpansionResult(
                seed_articles=frozenset(), article_ids=frozenset(), titles=()
            ), False
        with self._lock:
            self._active += 1
        try:
            with tracing.span("expand", shard=self._shard_id) as span:
                result, cached = self._expand_seeds_locked(seeds)
                span["cached"] = cached
                return result, cached
        finally:
            with self._lock:
                self._active -= 1

    def _expand_seeds_locked(
        self, seeds: frozenset[int]
    ) -> tuple[ExpansionResult, bool]:
        """The winner of the in-flight race computes and publishes to the
        cache; losers wait on its event and re-read.  If the winner
        fails — or a delta landed while it mined, so its result is
        returned but not published — its event is still set and a
        waiter takes over."""
        while True:
            cached = self._expansion_cache.get(seeds)
            if cached is not None:
                return cached, True
            with self._lock:
                again = self._expansion_cache.peek(seeds)
                if again is not None:
                    return again, True
                event = self._inflight.get(seeds)
                if event is None:
                    event = threading.Event()
                    self._inflight[seeds] = event
                    break
                self._inflight_waits += 1
            event.wait()
        try:
            epoch = self._expansion_cache.epoch  # before the graph read
            result = self._mine_seeds(seeds, epoch)
            self._expansion_cache.put(seeds, result, epoch=epoch)
            return result, False
        finally:
            with self._lock:
                self._inflight.pop(seeds, None)
            event.set()

    def _mine_span(self, anchors: int, reused: int = 0, **labels):
        """``cycle_mine``: ``reused`` of the ``anchors`` asked for came from
        the cache (``engine`` is None for duck-typed expanders)."""
        return tracing.span(
            "cycle_mine", shard=self._shard_id, anchors=anchors, reused=reused,
            engine=getattr(self._expander, "engine", None), **labels,
        )

    def _mine_seeds(self, seeds: frozenset[int], epoch: int) -> ExpansionResult:
        """A seed-set miss, composed from its anchors' own cache entries
        (``frozenset({a})``, where a one-entity query lives anyway): the
        missing ones are mined in one joint call, split and published, the
        rest refreshed.  ``seeds`` are mined jointly when that is not
        exact, or an invalidation landed since ``epoch`` and the entries
        may be newer than the graph view read here."""
        graph, expander, cache = self._graph, self._expander, self._expansion_cache
        exact_ball = getattr(expander, "exact_ball", None)
        ball = exact_ball(graph, seeds) if exact_ball and len(seeds) > 1 else None
        parts = {a: cache.peek(frozenset((a,))) for a in seeds} if ball else {}
        if not parts or cache.epoch != epoch:
            with self._mine_span(len(seeds)):
                return expander.expand(graph, seeds)
        missing = frozenset(a for a in seeds if parts[a] is None)
        if missing:
            with self._mine_span(len(seeds), len(seeds) - len(missing)):
                mined = (
                    expander.mine(graph, seeds, ball) if missing == seeds
                    else expander.expand(graph, missing)
                )
            parts.update((a, expander.split(graph, mined, a)) for a in missing)
        for a, part in parts.items():  # unrecorded: publish or refresh
            cache.put(frozenset((a,)), part, epoch=epoch)
        return mined if missing == seeds else expander.compose(graph, parts.values())

    def _claim_pending(self, seed_sets: set[frozenset[int]]) -> list[frozenset[int]]:
        """Mark uncached entity sets as in-flight for a batch pre-fill."""
        claimed: list[frozenset[int]] = []
        with self._lock:
            for seeds in sorted(seed_sets, key=sorted):
                if not seeds or self._expansion_cache.peek(seeds) is not None:
                    continue
                if seeds in self._inflight:
                    continue  # another thread is on it; _expand_seeds will wait
                self._inflight[seeds] = threading.Event()
                claimed.append(seeds)
        return claimed

    def _release_pending(self, claimed: list[frozenset[int]]) -> None:
        with self._lock:
            events = [self._inflight.pop(seeds, None) for seeds in claimed]
        for event in events:
            if event is not None:
                event.set()

    def _rank(
        self, normalized: str, expansion: ExpansionResult, top_k: int
    ) -> tuple[SearchResult, ...]:
        if expansion.seed_articles:
            phrases = expansion.all_titles(self._graph)
            return tuple(self._engine.search_phrases(phrases, top_k=top_k))
        # Keyword fallback: no entity linked, rank the bag of words.
        terms = normalized.split()
        if not terms:
            return ()
        query = CombineNode(tuple(TermNode(term) for term in terms))
        return tuple(self._engine.search(query, top_k=top_k))

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ExpansionService(queries={stats.queries}, "
            f"link_cache={self._link_cache!r}, expansion_cache={self._expansion_cache!r})"
        )
