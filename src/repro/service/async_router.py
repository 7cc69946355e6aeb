"""Asyncio serving over the shard router.

:class:`AsyncShardRouter` is the non-blocking counterpart of
:class:`~repro.service.router.ShardRouter`: the same link → expand → rank
pipeline, but every shard call runs through an *executor-backed shard
adapter* and the per-shard fan-out is an ``asyncio.gather`` instead of a
blocking ``pool.map``.  While one request's cycle mining sits on a shard
thread, the event loop keeps accepting and dispatching other requests —
this is the front end the HTTP layer (:mod:`repro.service.http`) serves
from.

Results are bit-identical (doc ids AND scores) to the synchronous
router: both paths build the same query AST
(:meth:`ShardRouter.build_query`), run the same statistics exchange
(:meth:`ShardRouter.background_exchange`) and merge with the same
score-preserving k-way merge; the latency bench asserts the equality
over HTTP on every run.

Two dedup layers stack:

* **Async request coalescing** (this module) — concurrent
  ``expand_query`` calls for the same ``(normalized query, top_k)``
  share one in-flight computation *before* any thread is occupied;
  awaiters get the same response (re-labelled with their own raw query
  text).
* **In-flight expansion dedup** (:class:`ExpansionService`) — distinct
  queries racing on the same *entity set* still collapse to one cycle
  mining pass inside the owning shard worker.

:class:`ExecutorShardAdapter` exposes exactly the five shard-protocol
calls (``link_text``, ``expand_seeds``, ``prefill_expansions``,
``leaf_collection_counts``, ``search_with_background``) as awaitables
over an in-process worker.  ``docs/shard_protocol.md`` specifies the
same five calls as a versioned JSON wire protocol — swapping this
adapter for one that speaks that protocol to a remote process is the
multi-process-shards roadmap item.

Loop affinity: one ``AsyncShardRouter`` belongs to one event loop
(coalescing state is mutated loop-side without locks); the executor
threads only ever run the shard calls.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from repro.core.expansion import ExpansionResult
from repro.linking.linker import LinkResult
from repro.obs import trace as tracing
from repro.retrieval.engine import SearchResult, merge_ranked_lists
from repro.service.router import ShardRouter
from repro.service.server import ServiceResponse
from repro.service.wire import (
    SHARD_PROTOCOL_VERSION,  # re-export
    SearchRequest,
)

__all__ = [
    "AsyncShardRouter",
    "ExecutorShardAdapter",
    "SHARD_PROTOCOL_VERSION",
    "SHARD_ADAPTER_ENV",
]

# Setting this to "socket" makes every AsyncShardRouter construct its
# shard adapters over supervised out-of-process workers instead of the
# in-process executor — the switch the CI socket-adapter leg flips to
# re-run the whole service suite against the wire protocol.
SHARD_ADAPTER_ENV = "REPRO_SHARD_ADAPTER"

# Snapshot directories exported for env-driven socket mode, keyed by
# snapshot identity (a strong reference keeps id() stable).  Routers
# over the same snapshot share one on-disk copy per process.
_SNAPSHOT_EXPORTS: dict[int, tuple[object, tempfile.TemporaryDirectory]] = {}


def _export_snapshot_dir(snapshot) -> str:
    entry = _SNAPSHOT_EXPORTS.get(id(snapshot))
    if entry is not None and entry[0] is snapshot:
        return entry[1].name
    tmp = tempfile.TemporaryDirectory(prefix="repro-snapshot-")
    snapshot.save(tmp.name)
    _SNAPSHOT_EXPORTS[id(snapshot)] = (snapshot, tmp)
    return tmp.name


class ExecutorShardAdapter:
    """The five shard-protocol calls as awaitables over one worker.

    This is the seam where a shard stops being an object and becomes an
    address: the async router only ever talks to adapters, and an
    adapter that serialises these five calls over a socket (per
    ``docs/shard_protocol.md``) turns the in-process worker into a
    remote process without touching the router.
    """

    def __init__(
        self, worker, executor: ThreadPoolExecutor, shard_id: int | None = None
    ) -> None:
        self._worker = worker
        self._executor = executor
        self._shard_id = shard_id

    async def _call(self, fn, *args):
        # Executor threads run callables with an empty context; carry the
        # caller's context across so spans recorded on the shard thread
        # (expand, cycle_mine, rank) land in the active request's trace.
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, tracing.carry_context(fn), *args
        )

    async def link_text(self, normalized: str) -> tuple[LinkResult, bool]:
        worker = self._worker

        def run(normalized):
            # link_text itself records no span (unlike expand/rank), so
            # the adapter does — keeping per-shard stage seconds
            # complete across all five protocol calls.
            with tracing.span("link", shard=self._shard_id) as span:
                link, cached = worker.link_text(normalized)
                span["cached"] = cached
            return link, cached

        return await self._call(run, normalized)

    async def expand_seeds(
        self, seeds: frozenset[int]
    ) -> tuple[ExpansionResult, bool]:
        return await self._call(self._worker.expand_seeds, seeds)

    async def prefill_expansions(self, seed_sets) -> set[frozenset[int]]:
        return await self._call(self._worker.prefill_expansions, seed_sets)

    async def leaf_collection_counts(self, root) -> dict:
        engine = self._worker.engine

        def run(root):
            with tracing.span("rank", shard=self._shard_id, phase="counts"):
                return engine.leaf_collection_counts(root)

        return await self._call(run, root)

    async def search_with_background(
        self, request: SearchRequest
    ) -> list[SearchResult]:
        engine = self._worker.engine

        def run(request):
            with tracing.span("rank", shard=self._shard_id, phase="score"):
                return engine.search_with_background(
                    request.root, request.background, request.top_k
                )

        return await self._call(run, request)


class AsyncShardRouter:
    """Non-blocking facade over a :class:`ShardRouter`.

    Wraps an existing router (caches, workers and counters are shared
    with the synchronous surface — a query served here hits the same
    per-shard expansion caches and shows up in the same
    :class:`~repro.service.router.RouterStats`).
    """

    def __init__(
        self,
        router: ShardRouter,
        *,
        executor: ThreadPoolExecutor | None = None,
        adapters=None,
        supervisor=None,
        policy=None,
    ) -> None:
        self._router = router
        self._own_executor = executor is None
        self._executor = executor or ThreadPoolExecutor(
            max_workers=max(2, router.num_shards),
            thread_name_prefix="async-shard",
        )
        self._supervisor = supervisor
        self._own_supervisor = False
        if (
            adapters is None
            and supervisor is None
            and os.environ.get(SHARD_ADAPTER_ENV, "").strip().lower() == "socket"
        ):
            self._supervisor = self._spawn_supervisor()
            self._own_supervisor = True
        if adapters is None and self._supervisor is not None:
            adapters = self._socket_adapters(self._supervisor, policy)
        self._adapters = list(adapters) if adapters is not None else [
            ExecutorShardAdapter(worker, self._executor, shard_id)
            for shard_id, worker in enumerate(router.workers)
        ]
        # Coalescing table: (normalized, top_k) -> in-flight task.  Only
        # touched from the owning event loop, so no lock is needed.
        self._inflight: dict[tuple[str, int], asyncio.Future] = {}
        self._coalesced = 0

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def num_shards(self) -> int:
        return self._router.num_shards

    @property
    def doc_names(self) -> dict[str, str]:
        return self._router.doc_names

    @property
    def coalesced_requests(self) -> int:
        """Requests answered by piggybacking on an identical in-flight one."""
        return self._coalesced

    @property
    def metrics(self):
        """The wrapped router's :class:`~repro.obs.serving.ServingMetrics`
        (one registry per serving stack, sync and async paths included)."""
        return self._router.metrics

    @property
    def supervisor(self):
        """The worker supervisor when shards run out of process, else None."""
        return self._supervisor

    @property
    def adapters(self) -> tuple:
        return tuple(self._adapters)

    def stats(self):
        """Router counters plus what only the adapters can count: the
        resilience counters, and — with shards out of process, where the
        router's in-process workers sit idle — the expansion-cache
        outcomes each adapter saw in its ``cached`` flags."""
        stats = self._router.stats()
        stats = replace(stats, shard_stats=tuple(
            replace(shard, expansion_cache=replace(
                shard.expansion_cache,
                hits=shard.expansion_cache.hits
                + getattr(adapter, "expansion_hits", 0),
                misses=shard.expansion_cache.misses
                + getattr(adapter, "expansion_misses", 0),
            ))
            for shard, adapter in zip(stats.shard_stats, self._adapters)
        ))
        retries = sum(getattr(a, "retries_total", 0) for a in self._adapters)
        hedges = sum(getattr(a, "hedges_total", 0) for a in self._adapters)
        wins = sum(getattr(a, "hedge_wins_total", 0) for a in self._adapters)
        restarts = (
            self._supervisor.restarts_total
            if self._supervisor is not None else 0
        )
        if retries or hedges or wins or restarts:
            stats = replace(
                stats,
                retries_total=retries,
                hedges_total=hedges,
                hedge_wins_total=wins,
                worker_restarts=restarts,
            )
        return stats

    async def expand_query(self, text: str, top_k: int = 10) -> ServiceResponse:
        """Answer one query; identical concurrent queries share one pass."""
        self._router._account(requests=1)
        try:
            normalized = self._router.normalize(text)
            key = (normalized, top_k)
            future = self._inflight.get(key)
            if future is None:
                future = asyncio.ensure_future(self._compute(normalized, top_k))
                self._inflight[key] = future
                future.add_done_callback(lambda _: self._inflight.pop(key, None))
            else:
                self._coalesced += 1
            # shield: one awaiter being cancelled must not kill the
            # computation the other coalesced awaiters are waiting on.
            response = await asyncio.shield(future)
        except Exception:
            self._router._account(errors=1)
            raise
        self._router._account(
            queries=1, unlinked=0 if response.linked else 1
        )
        if response.query != text:
            response = replace(response, query=text)
        return response

    async def batch_expand(
        self, texts: list[str], top_k: int = 10
    ) -> list[ServiceResponse]:
        """Answer a batch: per-shard pre-fill and per-query ranking both
        fan out with ``asyncio.gather``; semantics (dedup, the
        computed-by-this-batch ⇒ not-cached rule, offered-load
        accounting) match :meth:`ShardRouter.batch_expand`."""
        if not texts:
            return []
        router = self._router
        batch_started = time.perf_counter()
        router._account(requests=len(texts))
        # Batch-level trace: covers linking and the shard pre-fill; the
        # per-query passes trace (and are observed) individually through
        # _compute, so member responses drop the batch trace.
        trace = tracing.Trace()
        trace.annotate(batch=len(texts))
        error = False
        try:
            with tracing.start_trace(trace):
                norm_by_text = {
                    text: router.normalize(text) for text in dict.fromkeys(texts)
                }
                normalized = [norm_by_text[text] for text in texts]
                unique_norms = list(dict.fromkeys(normalized))
                first_text = {}
                for text in texts:
                    first_text.setdefault(norm_by_text[text], text)

                loop = asyncio.get_running_loop()
                # Link the distinct queries concurrently (the router link
                # cache is lock-guarded, so parallel passes are safe).
                with tracing.span("link", queries=len(unique_norms)):
                    link_results = await asyncio.gather(*(
                        loop.run_in_executor(
                            self._executor, router.link_text, norm
                        )
                        for norm in unique_norms
                    ))
                links: dict[str, tuple[LinkResult, bool]] = dict(
                    zip(unique_norms, link_results)
                )

                by_shard: dict[int, set[frozenset[int]]] = {}
                for norm in unique_norms:
                    seeds = links[norm][0].article_ids
                    by_shard.setdefault(
                        router.owner_shard(seeds), set()
                    ).add(seeds)
                prefills = await asyncio.gather(*(
                    self._adapters[shard_id].prefill_expansions(seed_sets)
                    for shard_id, seed_sets in by_shard.items()
                ))
                computed_here: set[frozenset[int]] = \
                    set().union(*prefills) if prefills else set()

                responses = await asyncio.gather(*(
                    self._compute(norm, top_k) for norm in unique_norms
                ))
                by_norm: dict[str, ServiceResponse] = {}
                for norm, response in zip(unique_norms, responses):
                    link, link_cached = links[norm]
                    expansion_cached = response.expansion_cached
                    # The batch itself paid for pre-filled expansions — and
                    # for the link pass — so report those as cold, exactly
                    # like the synchronous batch path does.
                    if link.article_ids in computed_here:
                        expansion_cached = False
                    by_norm[norm] = replace(
                        response,
                        query=first_text[norm],
                        link_cached=link_cached,
                        expansion_cached=expansion_cached,
                        trace=None,
                    )
        except Exception:
            error = True
            router._account(errors=len(texts))
            raise
        finally:
            router.metrics.observe_request(
                "batch_expand",
                trace,
                time.perf_counter() - batch_started,
                error=error,
            )
        router._account(
            batches=1,
            queries=len(normalized),
            unlinked=sum(
                1 for norm in normalized if not by_norm[norm].link.article_ids
            ),
        )
        return [by_norm[norm] for norm in normalized]

    def close(self) -> None:
        """Shut the adapter executor down (the wrapped router survives).

        In socket mode this also closes pooled worker connections and,
        when this router spawned its own supervisor (env-driven mode),
        stops the worker processes.
        """
        for adapter in self._adapters:
            closer = getattr(adapter, "close", None)
            if closer is not None:
                closer()
        if self._own_supervisor and self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None
        if self._own_executor:
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Socket-mode construction
    # ------------------------------------------------------------------

    def _spawn_supervisor(self):
        """Start supervised workers for env-driven socket mode.

        The router's snapshot is exported to a per-process temporary
        directory (shared across routers over the same snapshot object)
        and one worker process is spawned per shard.
        """
        from repro.service.supervisor import ShardSupervisor

        supervisor = ShardSupervisor(
            _export_snapshot_dir(self._router.snapshot),
            self._router.num_shards,
            metrics=self._router.metrics,
        )
        supervisor.start()
        return supervisor

    def _socket_adapters(self, supervisor, policy):
        """One socket adapter per shard, endpoint-resolved per attempt.

        Each adapter keeps the router-local worker engine as its rank
        fallback: with a shard's worker down, queries owned by healthy
        shards still rank over all segments bit-identically.
        """
        from repro.service.socket_adapter import SocketShardAdapter

        return [
            SocketShardAdapter(
                (lambda sid=shard_id: supervisor.endpoint(sid)),
                shard_id,
                policy=policy,
                fallback_engine=self._router.workers[shard_id].engine,
            )
            for shard_id in range(self._router.num_shards)
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    async def _compute(self, normalized: str, top_k: int) -> ServiceResponse:
        """One full pass: link → owner-shard expand → scatter-gather rank.

        ``query`` is set to the normalised text; awaiters re-label the
        response with their own raw text.  Counters are bumped by the
        awaiters (one per coalesced request), not here.
        """
        started = time.perf_counter()
        router = self._router
        # One trace per computation (coalesced awaiters share it), folded
        # into the shared registry once, here — awaiters never re-count.
        trace = tracing.Trace()
        error = False
        try:
            with tracing.start_trace(trace):
                with tracing.span("link") as span:
                    link, link_cached = await asyncio.get_running_loop(
                    ).run_in_executor(
                        self._executor, router.link_text, normalized
                    )
                    span["cached"] = link_cached
                owner = router.owner_shard(link.article_ids)
                expansion, expansion_cached = await self._adapters[
                    owner
                ].expand_seeds(link.article_ids)
                results = await self._rank(normalized, expansion, top_k)
        except Exception:
            error = True
            raise
        finally:
            router.metrics.observe_request(
                "expand_query",
                trace,
                time.perf_counter() - started,
                error=error,
            )
        return ServiceResponse(
            query=normalized,
            normalized_query=normalized,
            link=link,
            expansion=expansion,
            results=results,
            link_cached=link_cached,
            expansion_cached=expansion_cached,
            latency_ms=(time.perf_counter() - started) * 1000.0,
            trace=trace,
        )

    async def _rank(
        self, normalized: str, expansion: ExpansionResult, top_k: int
    ) -> tuple[SearchResult, ...]:
        root = self._router.build_query(normalized, expansion)
        if root is None:
            return ()
        return tuple(await self._scatter_search(root, top_k))

    async def _scatter_search(self, root, top_k: int) -> list[SearchResult]:
        """:meth:`ShardRouter._scatter_search` with ``asyncio.gather``
        fan-out over the adapters: the same exchange, the same merge."""
        exchange = self._router.background_exchange(root)
        probe = next(exchange)
        per_segment = () if probe is None else await asyncio.gather(*(
            adapter.leaf_collection_counts(probe) for adapter in self._adapters
        ))
        request = SearchRequest(root, exchange.send(per_segment), top_k)
        ranked_lists = await asyncio.gather(*(
            adapter.search_with_background(request)
            for adapter in self._adapters
        ))
        with tracing.span("merge", phase="topk"):
            return merge_ranked_lists(list(ranked_lists), top_k)

    def __repr__(self) -> str:
        return (
            f"AsyncShardRouter(shards={self.num_shards}, "
            f"coalesced={self._coalesced})"
        )
