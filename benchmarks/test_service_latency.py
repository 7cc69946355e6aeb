"""Latency microbenchmark of the online expansion service.

Measures per-query latency (p50/p99) and throughput of the service over
the standard 50-topic benchmark, in several regimes:

* **cold / cached** — the dict-backed (``compact=False``) service, fresh
  and then warm: the historical baseline every PR compares against;
* **compact cold / compact cached** — the same traffic through the
  frozen array-backed read path (:class:`CompactIndex` +
  :class:`CompactGraphView`), which production serving uses by default.
  Cold queries of the two paths are *interleaved* in one process so
  machine drift cancels out of the speedup ratio, and every compact
  response is asserted bit-identical (doc ids AND scores, expansion
  sets AND cycles) to the dict response before any timing counts;
* **batched cold** — a fresh compact service answering everything
  through ``batch_expand``, which amortises neighbourhood work;
* **sharded cold / sharded cached** — the same traffic through a
  4-shard :class:`ShardRouter` (one shared graph + compact index
  segments with scatter-gather ranking), results asserted identical to
  the single-shard path;
* **prefilled** — a cold-started 4-shard router over a snapshot built
  with warm-cache prefill: the very first hit of every benchmark topic
  must come from the expansion cache (asserted) and land at
  cached-tier latency;
* **http cold / http cached** — the same traffic as real HTTP requests
  (``POST /expand`` with JSON bodies over a loopback socket) against
  the asyncio front end (:class:`HttpFrontEnd` over
  :class:`AsyncShardRouter` over a 4-shard router).  Every HTTP
  response is asserted bit-identical — doc ids AND scores after the
  JSON round trip — to the in-process reference before its timing
  counts, so the wire protocol provably adds latency only, never
  drift;
* **socket workers cold / cached** — the same traffic with every shard
  served by a supervised *worker process* over the shard wire protocol
  (:class:`ShardSupervisor` + :class:`SocketShardAdapter`,
  ``docs/shard_protocol.md``).  Every response is again asserted
  bit-identical to the in-process reference before its timing counts —
  the acceptance bar for out-of-process sharding;
* **delta overlay** — the live-update read path
  (``docs/live_updates.md``): a router whose coordinator published an
  overlay that no query's neighbourhood touches must answer cold
  queries within 10% of a plain router measured interleaved in the
  same process (the disjoint-overlay fast path), a delta far from
  every cached seed set must evict nothing
  (``unrelated_hit_preserved == 1.0``), and a delta next to a cached
  seed must evict that entry and only be counted once.

Results are emitted as sections of ``BENCH_service.json`` through the
shared ``emit_bench`` fixture (``benchmarks/conftest.py``): into the
tracked file at the repo root under ``REPRO_BENCH_WRITE=1``, so the
performance trajectory is tracked across PRs, and into a scratch copy
otherwise, so a plain test run leaves the tree clean.  Each regime additionally
reports ``stage_p50_ms`` — the median per-stage busy time (link /
expand / cycle_mine / rank / merge) from the request traces the
serving stack now records on every query — so a latency regression in
the trend can be attributed to a stage without rerunning anything.
The suite asserts the two reasons this layer exists: cached p50
strictly below cold p50, and (on full runs) the compact read path at
least 1.5x faster cold than the dict path measured in the same
process.

Smoke mode: set ``REPRO_BENCH_SMOKE=1`` (CI does) to run a truncated
query set with one warm round — fast enough for every push, while still
exercising the full measurement path and validating the emitted JSON
schema (including the ``compact_speedup`` key) against rot.
"""

import asyncio
import http.client
import json
import os
import statistics
import tempfile
import threading
import time

import pytest

from repro.service import (
    AsyncShardRouter,
    ExpansionService,
    HttpFrontEnd,
    ShardRouter,
    ShardSupervisor,
    ShardedSnapshot,
    Snapshot,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
CACHED_ROUNDS = 1 if SMOKE else 3
SMOKE_QUERIES = 6
SHARD_COUNT = 4
COMPACT_SPEEDUP_FLOOR = 1.5


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def _summarize(latencies_ms: list[float], total_seconds: float) -> dict:
    return {
        "queries": len(latencies_ms),
        "p50_ms": round(statistics.median(latencies_ms), 3),
        "p99_ms": round(_percentile(latencies_ms, 0.99), 3),
        "mean_ms": round(statistics.fmean(latencies_ms), 3),
        "throughput_qps": round(len(latencies_ms) / total_seconds, 1),
    }


def _stage_p50(stage_maps: list[dict]) -> dict:
    """Median busy-ms per pipeline stage over a regime's responses.

    Each element is one response's ``stage_totals_ms()`` (or the wire
    ``stages`` object for HTTP regimes); a stage absent from a response
    simply contributes no sample — cached traffic has no ``cycle_mine``.
    """
    by_stage: dict[str, list[float]] = {}
    for stages in stage_maps:
        for stage, ms in stages.items():
            by_stage.setdefault(stage, []).append(ms)
    return {
        stage: round(statistics.median(values), 3)
        for stage, values in sorted(by_stage.items())
    }


def _assert_same_answer(mine, reference, query: str) -> None:
    assert mine.link.article_ids == reference.link.article_ids, query
    assert mine.expansion.article_ids == reference.expansion.article_ids, query
    assert [(r.doc_id, r.score) for r in mine.results] == \
           [(r.doc_id, r.score) for r in reference.results], query


@pytest.fixture(scope="module")
def service_snapshot(bench_benchmark) -> Snapshot:
    return Snapshot.build(bench_benchmark)


@pytest.fixture(scope="module")
def queries(bench_benchmark) -> list[str]:
    all_queries = [topic.keywords for topic in bench_benchmark.topics]
    return all_queries[:SMOKE_QUERIES] if SMOKE else all_queries


@pytest.fixture(scope="module")
def measurements(service_snapshot, queries) -> dict:
    dict_service = ExpansionService.from_snapshot(service_snapshot, compact=False)
    compact_service = ExpansionService.from_snapshot(service_snapshot)

    # Cold: dict and compact interleaved per query, same process, so the
    # speedup ratio is insensitive to load drift.  The compact answer
    # must be bit-identical (ids, scores, expansion, cycles) before its
    # timing counts.
    cold_responses = []
    cold: list[float] = []
    compact_cold: list[float] = []
    cold_stages: list[dict] = []
    compact_cold_stages: list[dict] = []
    for query in queries:
        reference = dict_service.expand_query(query)
        mine = compact_service.expand_query(query)
        _assert_same_answer(mine, reference, query)
        assert mine.expansion.cycles == reference.expansion.cycles, query
        cold_responses.append(reference)
        cold.append(reference.latency_ms)
        compact_cold.append(mine.latency_ms)
        cold_stages.append(reference.stage_totals_ms())
        compact_cold_stages.append(mine.stage_totals_ms())
    cold_seconds = sum(cold) / 1000.0
    compact_cold_seconds = sum(compact_cold) / 1000.0

    cached: list[float] = []
    compact_cached: list[float] = []
    cached_stages: list[dict] = []
    compact_cached_stages: list[dict] = []
    for _ in range(CACHED_ROUNDS):
        for query in queries:
            response = dict_service.expand_query(query)
            assert response.expansion_cached, query
            cached.append(response.latency_ms)
            cached_stages.append(response.stage_totals_ms())
            response = compact_service.expand_query(query)
            assert response.expansion_cached, query
            compact_cached.append(response.latency_ms)
            compact_cached_stages.append(response.stage_totals_ms())
    cached_seconds = sum(cached) / 1000.0
    compact_cached_seconds = sum(compact_cached) / 1000.0

    batch_service = ExpansionService.from_snapshot(service_snapshot)
    batch_started = time.perf_counter()
    batch = batch_service.batch_expand(queries)
    batch_seconds = time.perf_counter() - batch_started
    assert len(batch) == len(queries)

    # Sharded serving: same traffic through the 4-shard router (compact
    # segments behind the scenes).  Results must be identical to the
    # single-shard path before any of its timings count.
    router = ShardRouter(ShardedSnapshot.from_snapshot(service_snapshot, SHARD_COUNT))
    sharded_cold: list[float] = []
    sharded_cold_stages: list[dict] = []
    sharded_cold_started = time.perf_counter()
    for query, reference in zip(queries, cold_responses):
        response = router.expand_query(query)
        _assert_same_answer(response, reference, query)
        sharded_cold.append(response.latency_ms)
        sharded_cold_stages.append(response.stage_totals_ms())
    sharded_cold_seconds = time.perf_counter() - sharded_cold_started

    sharded_cached: list[float] = []
    sharded_cached_stages: list[dict] = []
    sharded_cached_started = time.perf_counter()
    for _ in range(CACHED_ROUNDS):
        for query in queries:
            response = router.expand_query(query)
            assert response.expansion_cached, query
            sharded_cached.append(response.latency_ms)
            sharded_cached_stages.append(response.stage_totals_ms())
    sharded_cached_seconds = time.perf_counter() - sharded_cached_started

    # Warm-cache prefill: a router cold-started from a prefilled
    # snapshot must answer every benchmark topic from the expansion
    # cache on the FIRST hit, with the exact same results.
    prefilled_snapshot = ShardedSnapshot.from_snapshot(
        service_snapshot, SHARD_COUNT
    ).with_prefill(queries)
    assert prefilled_snapshot.num_prefilled > 0
    prefilled_router = ShardRouter(prefilled_snapshot)
    prefilled: list[float] = []
    prefilled_stages: list[dict] = []
    prefilled_started = time.perf_counter()
    for query, reference in zip(queries, cold_responses):
        response = prefilled_router.expand_query(query)
        assert response.expansion_cached, f"prefill missed first hit: {query}"
        _assert_same_answer(response, reference, query)
        prefilled.append(response.latency_ms)
        prefilled_stages.append(response.stage_totals_ms())
    prefilled_seconds = time.perf_counter() - prefilled_started

    # HTTP serving: the asyncio front end answering the same traffic as
    # real wire requests.  Responses are asserted bit-identical to the
    # in-process reference (doc ids AND scores survive the JSON round
    # trip — Python's JSON float writer round-trips exactly).
    http_router = ShardRouter(
        ShardedSnapshot.from_snapshot(service_snapshot, SHARD_COUNT)
    )
    front = HttpFrontEnd(AsyncShardRouter(http_router))
    loop = asyncio.new_event_loop()
    loop_thread = threading.Thread(target=loop.run_forever, daemon=True)
    loop_thread.start()
    server = asyncio.run_coroutine_threadsafe(
        front.start("127.0.0.1", 0), loop
    ).result(timeout=60)
    port = server.sockets[0].getsockname()[1]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def http_expand(query: str) -> tuple[dict, float]:
        body = json.dumps({"query": query}).encode("utf-8")
        started = time.perf_counter()
        conn.request("POST", "/expand", body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        assert response.status == 200, payload
        return payload, elapsed_ms

    http_cold: list[float] = []
    http_cold_stages: list[dict] = []
    http_cold_started = time.perf_counter()
    for query, reference in zip(queries, cold_responses):
        payload, elapsed_ms = http_expand(query)
        assert [(r["doc_id"], r["score"]) for r in payload["results"]] == \
               [(r.doc_id, r.score) for r in reference.results], query
        assert payload["expansion"]["article_ids"] == \
            sorted(reference.expansion.article_ids), query
        http_cold.append(elapsed_ms)
        http_cold_stages.append(payload["stages"])
    http_cold_seconds = time.perf_counter() - http_cold_started

    http_cached: list[float] = []
    http_cached_stages: list[dict] = []
    http_cached_started = time.perf_counter()
    for _ in range(CACHED_ROUNDS):
        for query in queries:
            payload, elapsed_ms = http_expand(query)
            assert payload["expansion_cached"], query
            http_cached.append(elapsed_ms)
            http_cached_stages.append(payload["stages"])
    http_cached_seconds = time.perf_counter() - http_cached_started

    conn.close()
    asyncio.run_coroutine_threadsafe(front.stop(), loop).result(timeout=60)
    loop.call_soon_threadsafe(loop.stop)
    loop_thread.join(timeout=60)
    front.service.close()
    http_router.close()

    # Out-of-process serving: one supervised worker process per shard
    # behind SocketShardAdapter.  Same traffic, and every response must
    # be bit-identical to the in-process reference before it counts.
    socket_sharded = ShardedSnapshot.from_snapshot(service_snapshot, SHARD_COUNT)
    socket_dir = tempfile.TemporaryDirectory(prefix="repro-bench-snapshot-")
    socket_sharded.save(socket_dir.name)
    supervisor = ShardSupervisor(socket_dir.name, SHARD_COUNT)
    supervisor.start(timeout_s=300.0)
    socket_router = AsyncShardRouter(ShardRouter(socket_sharded),
                                     supervisor=supervisor)

    async def socket_traffic():
        cold_l, cold_s = [], []
        cold_started = time.perf_counter()
        for query, reference in zip(queries, cold_responses):
            response = await socket_router.expand_query(query)
            _assert_same_answer(response, reference, query)
            cold_l.append(response.latency_ms)
            cold_s.append(response.stage_totals_ms())
        cold_secs = time.perf_counter() - cold_started
        cached_l, cached_s = [], []
        cached_started = time.perf_counter()
        for _ in range(CACHED_ROUNDS):
            for query in queries:
                response = await socket_router.expand_query(query)
                assert response.expansion_cached, query
                cached_l.append(response.latency_ms)
                cached_s.append(response.stage_totals_ms())
        cached_secs = time.perf_counter() - cached_started
        return cold_l, cold_s, cold_secs, cached_l, cached_s, cached_secs

    (socket_cold, socket_cold_stages, socket_cold_seconds,
     socket_cached, socket_cached_stages, socket_cached_seconds) = \
        asyncio.run(socket_traffic())
    socket_restarts = supervisor.restarts_total
    socket_router.close()
    supervisor.stop()
    socket_dir.cleanup()

    # Live-update overlay: a router serving THROUGH an overlay that no
    # query touches, interleaved with a plain router in the same
    # process.  The overlay must ride the disjoint fast path (delegate
    # to the compact kernels), so its cold overhead is bounded; then a
    # far delta must evict nothing and a near delta exactly its
    # neighbourhood.
    from repro.updates import UpdateCoordinator

    island = 9_500_000
    plain_router = ShardRouter(ShardedSnapshot.from_snapshot(service_snapshot, 1))
    overlay_router = ShardRouter(ShardedSnapshot.from_snapshot(service_snapshot, 1))
    coordinator = UpdateCoordinator(overlay_router)
    coordinator.apply([
        {"op": "add_article", "seq": 1, "node_id": island,
         "title": "Bench Overlay Island"},
    ])
    assert coordinator.describe()["touched_nodes"] == 1

    overlay_cold: list[float] = []
    overlay_plain_cold: list[float] = []
    overlay_cold_stages: list[dict] = []
    for query, reference in zip(queries, cold_responses):
        ref = plain_router.expand_query(query)
        mine = overlay_router.expand_query(query)
        _assert_same_answer(ref, reference, query)
        _assert_same_answer(mine, reference, query)
        overlay_plain_cold.append(ref.latency_ms)
        overlay_cold.append(mine.latency_ms)
        overlay_cold_stages.append(mine.stage_totals_ms())
    overlay_cold_seconds = sum(overlay_cold) / 1000.0

    # Far delta: a second island wired only to the first — its delta
    # ball misses every cached seed set, so every topic stays warm.
    far_summary = coordinator.apply([
        {"op": "add_article", "seq": 2, "node_id": island + 1,
         "title": "Bench Overlay Island Twin"},
        {"op": "add_edge", "seq": 3, "source": island, "target": island + 1,
         "kind": "link"},
    ])
    preserved = sum(
        1 for query in queries
        if overlay_router.expand_query(query).expansion_cached
    )
    unrelated_hit_preserved = preserved / len(queries)

    # Near delta: wire the island into the first linked topic's seed —
    # exactly that neighbourhood must be evicted and recomputed.
    target_query = next(
        query for query in queries
        if overlay_router.expand_query(query).linked
    )
    target_seed = sorted(
        overlay_router.expand_query(target_query).link.article_ids
    )[0]
    near_summary = coordinator.apply([
        {"op": "add_edge", "seq": 4, "source": island, "target": target_seed,
         "kind": "link"},
    ])
    near_evicts_target = \
        not overlay_router.expand_query(target_query).expansion_cached
    plain_router.close()
    overlay_router.close()

    stats = dict_service.stats()
    return {
        "smoke": SMOKE,
        "cold": {
            **_summarize(cold, cold_seconds),
            "stage_p50_ms": _stage_p50(cold_stages),
        },
        "cached": {
            **_summarize(cached, cached_seconds),
            "stage_p50_ms": _stage_p50(cached_stages),
        },
        "compact_cold": {
            **_summarize(compact_cold, compact_cold_seconds),
            "stage_p50_ms": _stage_p50(compact_cold_stages),
        },
        "compact_cached": {
            **_summarize(compact_cached, compact_cached_seconds),
            "stage_p50_ms": _stage_p50(compact_cached_stages),
        },
        "compact_speedup": {
            "cold_p50_ratio": round(
                statistics.median(cold) / statistics.median(compact_cold), 2
            ),
            "cold_mean_ratio": round(
                statistics.fmean(cold) / statistics.fmean(compact_cold), 2
            ),
        },
        "batched_cold": {
            "queries": len(queries),
            "total_seconds": round(batch_seconds, 3),
            "throughput_qps": round(len(queries) / batch_seconds, 1),
        },
        "sharded_cold": {
            "shards": SHARD_COUNT,
            **_summarize(sharded_cold, sharded_cold_seconds),
            "stage_p50_ms": _stage_p50(sharded_cold_stages),
        },
        "sharded_cached": {
            "shards": SHARD_COUNT,
            **_summarize(sharded_cached, sharded_cached_seconds),
            "stage_p50_ms": _stage_p50(sharded_cached_stages),
        },
        "prefilled": {
            "shards": SHARD_COUNT,
            "entries": prefilled_snapshot.num_prefilled,
            "first_hit_cached": True,  # asserted per query above
            **_summarize(prefilled, prefilled_seconds),
            "stage_p50_ms": _stage_p50(prefilled_stages),
        },
        "http_cold": {
            "shards": SHARD_COUNT,
            "identical_to_in_process": True,  # asserted per query above
            **_summarize(http_cold, http_cold_seconds),
            "stage_p50_ms": _stage_p50(http_cold_stages),
        },
        "http_cached": {
            "shards": SHARD_COUNT,
            **_summarize(http_cached, http_cached_seconds),
            "stage_p50_ms": _stage_p50(http_cached_stages),
        },
        "socket_workers_cold": {
            "shards": SHARD_COUNT,
            "workers": SHARD_COUNT,
            "identical_to_in_process": True,  # asserted per query above
            "worker_restarts": socket_restarts,
            **_summarize(socket_cold, socket_cold_seconds),
            "stage_p50_ms": _stage_p50(socket_cold_stages),
        },
        "socket_workers_cached": {
            "shards": SHARD_COUNT,
            "workers": SHARD_COUNT,
            **_summarize(socket_cached, socket_cached_seconds),
            "stage_p50_ms": _stage_p50(socket_cached_stages),
        },
        "delta_overlay": {
            "shards": 1,
            "empty_overlay_cold": {
                **_summarize(overlay_cold, overlay_cold_seconds),
                "stage_p50_ms": _stage_p50(overlay_cold_stages),
            },
            "plain_cold_p50_ms": round(
                statistics.median(overlay_plain_cold), 3
            ),
            "empty_overlay_overhead_ratio": round(
                statistics.median(overlay_cold)
                / statistics.median(overlay_plain_cold), 3
            ),
            "unrelated_hit_preserved": unrelated_hit_preserved,
            "far_delta_invalidated": far_summary["invalidated"],
            "near_delta_invalidated": near_summary["invalidated"],
            "near_delta_evicts_target": near_evicts_target,
        },
        "cache_hit_rate": {
            "link": round(stats.link_cache.hit_rate, 4),
            "expansion": round(stats.expansion_cache.hit_rate, 4),
        },
    }


def test_cached_p50_strictly_below_cold(measurements):
    """The cache layer must make the hot path measurably faster."""
    assert measurements["cached"]["p50_ms"] < measurements["cold"]["p50_ms"]


def test_cached_throughput_exceeds_cold(measurements):
    assert measurements["cached"]["throughput_qps"] > \
        measurements["cold"]["throughput_qps"]


def test_cache_hit_rate_reflects_warm_traffic(measurements):
    # 1 cold + CACHED_ROUNDS warm passes => hit rate = rounds / (rounds + 1).
    expected = CACHED_ROUNDS / (CACHED_ROUNDS + 1)
    assert measurements["cache_hit_rate"]["expansion"] == pytest.approx(
        expected, abs=0.01
    )


def test_batched_cold_not_slower_than_sequential_cold(measurements):
    """Amortised batching must not regress below one-by-one serving."""
    assert measurements["batched_cold"]["throughput_qps"] >= \
        0.8 * measurements["cold"]["throughput_qps"]


def test_sharded_cached_p50_strictly_below_sharded_cold(measurements):
    """The cache layers must keep paying off behind the router too."""
    assert measurements["sharded_cached"]["p50_ms"] < \
        measurements["sharded_cold"]["p50_ms"]


def test_compact_cold_is_at_least_1_5x_faster(measurements):
    """The frozen read path must beat the dict path by >= 1.5x cold.

    Measured in one process over interleaved queries, so the ratio —
    unlike raw latencies — is robust to machine speed.  Smoke runs keep
    the key in the schema but skip the floor: six queries are too few
    for a stable median on a loaded CI box.
    """
    ratio = measurements["compact_speedup"]["cold_p50_ratio"]
    assert ratio > 0
    if measurements["smoke"]:
        pytest.skip(f"smoke run (ratio {ratio}); the floor is asserted on full runs")
    assert ratio >= COMPACT_SPEEDUP_FLOOR, measurements["compact_speedup"]


def test_http_responses_bit_identical_to_in_process_router(measurements):
    """POST /expand must serve the exact in-process answer over the wire.

    Doc ids and scores are asserted equal per query while measuring
    (after a full JSON round trip); this test pins the flag in the
    emitted schema so the assertion cannot silently disappear.
    """
    assert measurements["http_cold"]["identical_to_in_process"] is True
    assert measurements["http_cold"]["queries"] == measurements["cold"]["queries"]


def test_socket_workers_bit_identical_to_in_process(measurements):
    """Worker processes must serve the exact in-process answer.

    Doc ids AND scores are asserted equal per query while measuring;
    this pins the flag in the emitted schema, plus the expectation that
    unfaulted workers never restart during a bench run.
    """
    assert measurements["socket_workers_cold"]["identical_to_in_process"] is True
    assert measurements["socket_workers_cold"]["queries"] == \
        measurements["cold"]["queries"]
    assert measurements["socket_workers_cold"]["worker_restarts"] == 0


def test_socket_workers_cached_p50_strictly_below_cold(measurements):
    """Remote workers keep their own expansion caches: a warm hit over
    the wire protocol must still beat cold cycle mining."""
    assert measurements["socket_workers_cached"]["p50_ms"] < \
        measurements["socket_workers_cold"]["p50_ms"]


def test_http_cached_p50_strictly_below_http_cold(measurements):
    """Caches keep paying off behind the network front end: a cached hit
    plus wire overhead must still beat cold cycle mining."""
    assert measurements["http_cached"]["p50_ms"] < \
        measurements["http_cold"]["p50_ms"]


def test_prefilled_router_serves_first_hits_at_cached_tier(measurements):
    """A prefilled snapshot's topics never pay the cold path at all.

    ``first_hit_cached`` is asserted per query while measuring; here the
    latency must sit far below cold — prefilled first hits only pay
    ranking, like any cache hit.
    """
    assert measurements["prefilled"]["first_hit_cached"]
    assert measurements["prefilled"]["entries"] > 0
    assert measurements["prefilled"]["p50_ms"] < measurements["cold"]["p50_ms"]


def test_empty_overlay_overhead_within_ten_percent(measurements):
    """A published-but-irrelevant overlay must ride the fast path.

    Cold p50 through a router carrying an overlay no query touches,
    against a plain router interleaved in the same process — the ratio
    is machine-robust the same way ``compact_speedup`` is.  Smoke runs
    keep the key in the schema but skip the ceiling.
    """
    ratio = measurements["delta_overlay"]["empty_overlay_overhead_ratio"]
    assert ratio > 0
    if measurements["smoke"]:
        pytest.skip(f"smoke run (ratio {ratio}); the ceiling is asserted on full runs")
    assert ratio <= 1.10, measurements["delta_overlay"]


def test_unrelated_topics_keep_cache_hits_across_deltas(measurements):
    """Targeted invalidation: a delta whose ball misses every cached
    seed set must preserve every hit, and a delta next to a cached
    seed must evict that entry."""
    overlay = measurements["delta_overlay"]
    assert overlay["unrelated_hit_preserved"] == 1.0
    assert overlay["far_delta_invalidated"]["expansion"] == 0
    assert overlay["near_delta_invalidated"]["expansion"] >= 1
    assert overlay["near_delta_evicts_target"] is True


def test_emit_bench_json(measurements, emit_bench):
    """Persist the numbers so the perf trajectory is tracked across PRs.

    Smoke runs still write and re-validate the JSON (that is the point:
    the schema cannot silently rot), just with fewer samples.  Sections
    owned by other bench modules (``cycle_kernel_speedup``,
    ``loadgen_slo``) are carried over by ``emit_bench``.
    """
    written = emit_bench(measurements)
    assert written["cold"]["queries"] == written["cached"]["queries"] // CACHED_ROUNDS
    assert written["sharded_cold"]["shards"] == SHARD_COUNT
    for regime in ("cold", "cached", "compact_cold", "compact_cached",
                   "sharded_cold", "sharded_cached", "prefilled",
                   "http_cold", "http_cached",
                   "socket_workers_cold", "socket_workers_cached"):
        assert written[regime]["p50_ms"] > 0
        assert written[regime]["p99_ms"] >= written[regime]["p50_ms"]
        assert written[regime]["throughput_qps"] > 0
        stage_p50 = written[regime]["stage_p50_ms"]
        assert stage_p50, regime  # every regime traces at least one stage
        assert all(ms >= 0 for ms in stage_p50.values()), regime
    # Cold regimes mine cycles; cached regimes never do but still rank.
    assert "cycle_mine" in written["sharded_cold"]["stage_p50_ms"]
    assert "cycle_mine" not in written["sharded_cached"]["stage_p50_ms"]
    assert "rank" in written["sharded_cached"]["stage_p50_ms"]
    assert "rank" in written["http_cached"]["stage_p50_ms"]
    assert written["compact_speedup"]["cold_p50_ratio"] > 0
    assert written["compact_speedup"]["cold_mean_ratio"] > 0
    assert written["prefilled"]["first_hit_cached"] is True
    assert written["http_cold"]["identical_to_in_process"] is True
    assert written["socket_workers_cold"]["identical_to_in_process"] is True
    assert written["socket_workers_cold"]["worker_restarts"] == 0
    assert "rank" in written["socket_workers_cached"]["stage_p50_ms"]
    overlay = written["delta_overlay"]
    assert overlay["empty_overlay_cold"]["p50_ms"] > 0
    assert overlay["plain_cold_p50_ms"] > 0
    assert overlay["empty_overlay_overhead_ratio"] > 0
    assert overlay["unrelated_hit_preserved"] == 1.0
    assert overlay["far_delta_invalidated"]["expansion"] == 0
    assert overlay["near_delta_invalidated"]["expansion"] >= 1
    assert overlay["near_delta_evicts_target"] is True
