"""The traced run: a layer ladder over the repo's module names.

The same queries go through every rung of the serving stack back to
back — the bare kernel, ``ExpansionService``, ``ShardRouter``,
``AsyncShardRouter``, the HTTP front end, and the router over socket
workers — so machine drift cancels, and a rung's ``added_ms`` is what it
costs over the rung below on the same queries.  There is one cold pass
on fresh stacks, then :data:`CACHED_PASSES` cached passes; the collector
is off inside a pass and runs between passes.  Every rung's
``(doc_id, score)`` list must equal the ``service.server`` rung's.

Beside the ladder this module times the layers no rung isolates
(artefact build/save/load, freezing, the wire codec, delta apply and
overlay reads).  All of it happens in the benchmark process, around
calls into public functions; the spans land in ``bench/out/trace.jsonl``.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import statistics
import threading
import time
from pathlib import Path

from repro.core import NeighborhoodCycleExpander
from repro.retrieval.compact import CompactIndex
from repro.retrieval.engine import SearchEngine
from repro.retrieval.scoring import DirichletSmoothing
from repro.service import (
    AsyncShardRouter,
    ExpansionService,
    HttpFrontEnd,
    ShardedSnapshot,
    ShardRouter,
    ShardSupervisor,
    Snapshot,
    wire,
)
from repro.updates import UpdateCoordinator
from repro.wiki.compact import CompactGraphView

from bench import stats
from bench.client import send
from bench.corpus import NUM_SHARDS, Corpus
from bench.spans import SpanRecorder
from bench.server import attributed_ms
from bench.streams import TOP_K, Plan, expand_request

__all__ = ["CACHED_PASSES", "LadderError", "run_ladder"]

CACHED_PASSES = 3
# Delta batches timed one by one (each against re-warmed caches), and
# the overlay size reads are then measured through: about what a 10 s
# read_write_mix window applies.
_TIMED_APPLIES = 5
_OVERLAY_BATCHES = 40
_REWARM_HEADS = 20
_CODEC_ROUNDS = 200
_SPAN_BATCH = 1000
_SPAN_BATCHES = 21


class LadderError(RuntimeError):
    """A rung answered differently from the ``service.server`` rung."""


def _timed(recorder: SpanRecorder, name: str, request: str, fn, *args):
    """Call ``fn(*args)`` inside a span; returns (result, seconds)."""
    start = time.perf_counter()
    with recorder.span(name, request=request):
        result = fn(*args)
    return result, time.perf_counter() - start


def _answer(results) -> list[tuple[str, float]]:
    return [(r.doc_id, r.score) for r in results]


def _dir_mb(directory: Path) -> float:
    return sum(
        p.stat().st_size for p in directory.rglob("*") if p.is_file()
    ) / (1024.0 * 1024.0)


class _Kernel:
    """The bare pipeline, no caches: link -> expand -> rank."""

    def __init__(self, snapshot: Snapshot, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.graph, self.graph_freeze_s = _timed(
            recorder, "wiki.freeze", "build", CompactGraphView.from_graph,
            snapshot.graph,
        )
        index, self.index_freeze_s = _timed(
            recorder, "retrieval.freeze", "build", CompactIndex.from_index,
            snapshot.index,
        )
        self.engine = SearchEngine(
            smoothing=DirichletSmoothing(mu=snapshot.mu), index=index
        )
        self.linker = snapshot.make_linker()
        self.expander = NeighborhoodCycleExpander()
        self.link_ms: list[float] = []
        self.expand_ms: list[float] = []
        self.first_rank_ms: list[float] = []
        self.warm_rank_ms: list[float] = []
        self.entities: list[int] = []
        self.cycles: list[int] = []
        self.features: list[int] = []
        self.phrases: list[int] = []
        self.expansions: dict[str, object] = {}

    def cold(self, query: str):
        recorder = self.recorder
        with recorder.span("kernel", request=query) as parent:
            start = time.perf_counter()
            with recorder.span("linking.link", request=query, parent=parent):
                normalized = " ".join(self.engine.tokenizer.tokenize_phrase(query))
                link = self.linker.link(normalized)
            linked = time.perf_counter()
            with recorder.span("core.expand", request=query, parent=parent):
                expansion = self.expander.expand(self.graph, link.article_ids)
            expanded = time.perf_counter()
            with recorder.span("retrieval.rank", request=query, parent=parent):
                phrases = expansion.all_titles(self.graph)
                results = self.engine.search_phrases(phrases, top_k=TOP_K)
            ranked = time.perf_counter()
        self.link_ms.append((linked - start) * 1000.0)
        self.expand_ms.append((expanded - linked) * 1000.0)
        self.first_rank_ms.append((ranked - expanded) * 1000.0)
        self.entities.append(len(link.article_ids))
        self.cycles.append(len(expansion.cycles))
        self.features.append(expansion.num_features)
        self.phrases.append(len(phrases))
        self.expansions[query] = expansion
        return results

    def cached(self, query: str):
        """What a request still computes when both caches hit: the rank."""
        expansion = self.expansions[query]
        with self.recorder.span("kernel", request=query) as parent:
            start = time.perf_counter()
            with self.recorder.span("retrieval.rank", request=query, parent=parent):
                phrases = expansion.all_titles(self.graph)
                results = self.engine.search_phrases(phrases, top_k=TOP_K)
            self.warm_rank_ms.append((time.perf_counter() - start) * 1000.0)
        return results


class _HttpRung:
    """``HttpFrontEnd`` on a loop thread, one keep-alive connection."""

    def __init__(self, router: ShardRouter) -> None:
        self._async_router = AsyncShardRouter(router)
        self._front = HttpFrontEnd(self._async_router)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="bench-ladder-http",
            daemon=True,  # a failed start must not keep the process alive
        )
        self._thread.start()
        server = asyncio.run_coroutine_threadsafe(
            self._front.start("127.0.0.1", 0), self._loop
        ).result(timeout=60)
        port = server.sockets[0].getsockname()[1]
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def expand(self, query: str) -> dict:
        sample = send(self._conn, expand_request("ladder", 0, query))
        if sample.status != 200:
            raise LadderError(f"service.http answered {sample.status}")
        return json.loads(sample.body)

    def close(self) -> None:
        self._conn.close()
        asyncio.run_coroutine_threadsafe(
            self._front.stop(), self._loop
        ).result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=60)
        self._loop.close()
        self._async_router.close()


def run_ladder(
    corpus: Corpus, write_plan: Plan, *, queries: int, work_dir: Path,
    recorder: SpanRecorder,
) -> dict[str, float]:
    """Run the ladder over the ``queries`` most popular heads — the ones
    the hot workloads send most; ``write_plan`` supplies the delta
    batches.  Returns every ladder-sourced per-layer metric by name."""
    heads = list(corpus.heads[:queries])
    metrics: dict[str, float] = {}

    # -- artefacts ---------------------------------------------------------
    snapshot, metrics["service.artifacts.build_s"] = _timed(
        recorder, "service.artifacts.build", "build", Snapshot.build,
        corpus.benchmark,
    )
    sharded, metrics["wiki.partition_s"] = _timed(
        recorder, "wiki.partition", "build",
        ShardedSnapshot.from_snapshot, snapshot, NUM_SHARDS,
    )
    snapshot_dir = work_dir / "ladder-snapshot"
    _, metrics["service.artifacts.save_s"] = _timed(
        recorder, "service.artifacts.save", "build", sharded.save, snapshot_dir
    )
    metrics["service.artifacts.disk_mb"] = _dir_mb(snapshot_dir)
    loaded, metrics["service.artifacts.load_s"] = _timed(
        recorder, "service.artifacts.load", "build",
        ShardedSnapshot.load, snapshot_dir,
    )

    # -- fresh stacks --------------------------------------------------------
    kernel = _Kernel(snapshot, recorder)
    metrics["wiki.freeze_s"] = kernel.graph_freeze_s
    metrics["retrieval.freeze_s"] = kernel.index_freeze_s
    server = ExpansionService.from_snapshot(snapshot)
    router = ShardRouter(sharded)
    async_router = AsyncShardRouter(router)
    async_loop = asyncio.new_event_loop()
    http_rung = _HttpRung(router)
    supervisor = ShardSupervisor(str(snapshot_dir), NUM_SHARDS)
    socket_base = socket_router = socket_loop = None
    try:
        supervisor.start(timeout_s=120.0)
        socket_base = ShardRouter(loaded)
        socket_router = AsyncShardRouter(socket_base, supervisor=supervisor)
        socket_loop = asyncio.new_event_loop()

        def through(call):
            """A rung that returns a ServiceResponse: its answer, and its
            own latency minus what it attributes to stages."""
            def rung(query):
                response = call(query)
                return _answer(response.results), \
                    response.latency_ms - attributed_ms(response.stage_totals_ms())
            return rung

        def via_http(query):
            start = time.perf_counter()
            payload = http_rung.expand(query)
            wall_ms = (time.perf_counter() - start) * 1000.0
            return [(r["doc_id"], r["score"]) for r in payload["results"]], \
                wall_ms - attributed_ms(payload["stages"])

        rungs = (
            ("service.server",
             through(lambda q: server.expand_query(q, top_k=TOP_K))),
            ("service.router",
             through(lambda q: router.expand_query(q, top_k=TOP_K))),
            ("service.async_router",
             through(lambda q: async_loop.run_until_complete(
                 async_router.expand_query(q, top_k=TOP_K)))),
            ("service.http", via_http),
            ("service.socket_adapter",
             through(lambda q: socket_loop.run_until_complete(
                 socket_router.expand_query(q, top_k=TOP_K)))),
        )
        wall: dict[tuple[str, bool], list[float]] = {}
        unattributed: dict[str, list[float]] = {}

        def one_pass(cold: bool) -> None:
            for query in heads:
                start = time.perf_counter()  # the kernel records its own spans
                results = kernel.cold(query) if cold else kernel.cached(query)
                wall.setdefault(("kernel", cold), []).append(
                    (time.perf_counter() - start) * 1000.0
                )
                reference = None
                for name, rung in rungs:
                    (answer, unattributed_ms), took = _timed(
                        recorder, name, query, rung, query
                    )
                    wall.setdefault((name, cold), []).append(took * 1000.0)
                    if not cold:
                        unattributed.setdefault(name, []).append(unattributed_ms)
                    if reference is None:
                        reference = answer  # service.server comes first
                        if _answer(results) != reference:
                            raise LadderError(f"kernel differs on {query!r}")
                    elif answer != reference:
                        raise LadderError(f"{name} differs on {query!r}")

        for pass_index in range(1 + CACHED_PASSES):
            gc.collect()
            gc.disable()
            try:
                one_pass(cold=pass_index == 0)
            finally:
                gc.enable()

        metrics.update(_wire_metrics(router, kernel, heads[0]))
        if supervisor.restarts_total:
            raise LadderError(
                f"{supervisor.restarts_total} shard worker restart(s) "
                "during the ladder"
            )
    finally:
        http_rung.close()
        async_router.close()
        async_loop.close()
        if socket_router is not None:
            socket_router.close()
        if socket_loop is not None:
            socket_loop.close()
        supervisor.stop()
        if socket_base is not None:
            socket_base.close()
        router.close()

    metrics.update(_update_metrics(write_plan, sharded, heads, recorder))

    # -- the ladder's numbers -------------------------------------------------
    def p50(name: str, cold: bool) -> float:
        return stats.median(wall[(name, cold)])

    metrics["linking.link_ms"] = stats.median(kernel.link_ms)
    metrics["linking.entities_per_query"] = statistics.fmean(kernel.entities)
    metrics["core.expand_ms"] = stats.median(kernel.expand_ms)
    metrics["core.cycles_per_query"] = statistics.fmean(kernel.cycles)
    metrics["core.expansion_size"] = statistics.fmean(kernel.features)
    metrics["retrieval.rank_ms"] = stats.median(kernel.warm_rank_ms)
    metrics["retrieval.rank_first_touch_ms"] = stats.median(kernel.first_rank_ms)
    metrics["retrieval.phrases_per_query"] = statistics.fmean(kernel.phrases)
    metrics["kernel.cold_ms"] = p50("kernel", True)
    metrics["kernel.cached_ms"] = p50("kernel", False)
    # (rung, the rung it is compared with).  The socket rung replaces the
    # executor adapters under the async router, so it is compared with
    # that rung, not with service.http.
    for name, below in (
        ("service.server", "kernel"),
        ("service.router", "service.server"),
        ("service.async_router", "service.router"),
        ("service.http", "service.async_router"),
        ("service.socket_adapter", "service.async_router"),
    ):
        metrics[f"{name}.cached_ms"] = p50(name, False)
        metrics[f"{name}.added_ms"] = p50(name, False) - p50(below, False)
        metrics[f"{name}.unattributed_ms"] = stats.median(unattributed[name])
    # async_router and http share service.router's caches, so only the
    # rungs that own their caches have a cold pass worth reporting.
    for name in ("service.server", "service.router", "service.socket_adapter"):
        metrics[f"{name}.cold_ms"] = p50(name, True)
    metrics["trace.ladder_queries"] = float(len(heads))
    # One span is recorded per request, so the share of a request's time
    # that tracing costs is one span's cost over the cheapest traced
    # request there is: a cached one through the http rung.
    metrics["trace.overhead_share"] = \
        _span_cost_ms() / metrics["service.http.cached_ms"]
    return metrics


def _span_cost_ms() -> float:
    """What recording one span costs over not recording it (median of
    batches; far below anything a paired request timing could resolve)."""
    def batch(enabled: bool) -> float:
        tracer = SpanRecorder(enabled=enabled)
        start = time.perf_counter()
        for _ in range(_SPAN_BATCH):
            with tracer.span("probe", request="probe"):
                pass
        return (time.perf_counter() - start) * 1000.0 / _SPAN_BATCH

    return stats.median(
        batch(True) - batch(False) for _ in range(_SPAN_BATCHES)
    )


def _wire_metrics(router: ShardRouter, kernel: _Kernel, query: str) -> dict:
    """Codec cost and frame sizes of one real two-phase rank exchange."""
    normalized = router.normalize(query)
    expansion = kernel.expansions[query]
    root = router.build_query(normalized, expansion)
    engines = [worker.engine for worker in router.workers]
    background = router.global_background(
        root, [engine.leaf_collection_counts(root) for engine in engines]
    )
    results = engines[0].search_with_background(root, background, TOP_K)

    def request_frame() -> bytes:
        return wire.encode_frame({
            "call": "search_with_background",
            "protocol": wire.SHARD_PROTOCOL_VERSION,
            "root": wire.encode_query(root),
            "background": wire.encode_background(background),
            "top_k": TOP_K,
        })

    def response_frame() -> bytes:
        return wire.encode_frame({"results": wire.encode_results(results)})

    def query_round_trip() -> None:
        frame = wire.encode_frame({"root": wire.encode_query(root)})
        wire.decode_query(json.loads(frame[4:])["root"])

    def results_round_trip() -> None:
        wire.decode_results(json.loads(response_frame()[4:])["results"])

    def p50_us(fn) -> float:
        took = []
        for _ in range(_CODEC_ROUNDS):
            start = time.perf_counter()
            fn()
            took.append((time.perf_counter() - start) * 1e6)
        return stats.median(took)

    return {
        "service.wire.query_codec_us": p50_us(query_round_trip),
        "service.wire.results_codec_us": p50_us(results_round_trip),
        "service.wire.search_request_bytes": float(len(request_frame())),
        "service.wire.search_response_bytes": float(len(response_frame())),
    }


def _update_metrics(
    write_plan: Plan, sharded: ShardedSnapshot, heads: list[str],
    recorder: SpanRecorder,
) -> dict:
    """Delta apply cost, what one batch evicts, and reads through the
    overlay against reads without one (interleaved, cold)."""
    batches = [w.body["deltas"] for w in write_plan.writes[:_OVERLAY_BATCHES]]
    warm = heads[:_REWARM_HEADS]
    plain = ShardRouter(sharded)
    overlaid = ShardRouter(sharded)
    try:
        coordinator = UpdateCoordinator(overlaid)
        apply_ms: list[float] = []
        evicted: list[int] = []
        for index, batch in enumerate(batches):
            if index < _TIMED_APPLIES:
                for query in warm:
                    overlaid.expand_query(query, top_k=TOP_K)
                summary, took = _timed(
                    recorder, "updates.apply", f"batch-{index}",
                    lambda b=batch: coordinator.apply(b, generation=1),
                )
                apply_ms.append(took * 1000.0)
                evicted.append(summary["invalidated"]["expansion"])
            else:
                coordinator.apply(batch, generation=1)
        # Both sides answer every head once, so that neither pays for
        # lazily built graph and index structures in the timed pass; the
        # caches are then emptied and the timed pass is cold again.
        for router in (plain, overlaid):
            for query in heads:
                router.expand_query(query, TOP_K)
            router.clear_caches()
        sides = (
            ("service.router", plain, []),
            ("updates.overlay_read", overlaid, []),
        )
        for index, query in enumerate(heads):
            # Whoever goes second finds the shared index warm for this
            # query's terms, so the two take turns going first.
            for name, router, took_s in sides[::-1] if index % 2 else sides:
                _, took = _timed(recorder, name, query,
                                 router.expand_query, query, TOP_K)
                took_s.append(took)
        plain_s, overlaid_s = sides[0][2], sides[1][2]
    finally:
        plain.close()
        overlaid.close()
    return {
        "updates.apply_ms": stats.median(apply_ms),
        "updates.evicted_per_batch": statistics.fmean(evicted),
        "updates.overlay_read_ratio":
            stats.median(overlaid_s) / stats.median(plain_s),
    }
