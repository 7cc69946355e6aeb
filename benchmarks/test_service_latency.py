"""Interleaved same-process ratios of the online expansion service.

Absolute service latency is measured by ``python3 -m bench``: repeated
runs of four workloads, plus a layer ladder that pushes the same queries
through every rung of the stack and fails when any rung's answer differs
from the rung below (``bench/README.md``).  This module keeps the two
measurements only a same-process ratio can make, each over the standard
50-topic benchmark with both sides *interleaved* per query, so machine
drift cancels out of the ratio:

* **compact speedup** — the dict-backed (``compact=False``) service
  against the frozen array-backed read path (:class:`CompactIndex` +
  :class:`CompactGraphView`) that production serving uses, cold.  Every
  compact response is asserted bit-identical (doc ids AND scores,
  expansion sets AND cycles) to the dict response before its timing
  counts; the compact path must be at least 1.5x faster at the p50;
* **delta overlay** — the live-update read path
  (``docs/live_updates.md``): a router whose coordinator published an
  overlay that no query's neighbourhood touches must answer cold
  queries within 10% of a plain router (the disjoint-overlay fast
  path).  Then a delta far from every cached seed set must evict
  nothing, and a delta next to a cached seed must evict that entry —
  the locality of Berkholz, Keppeler & Schweikardt (PAPERS.md).

Both are emitted as sections of ``BENCH_service.json`` through the
shared ``emit_bench`` fixture (``benchmarks/conftest.py``): into the
tracked file at the repo root under ``REPRO_BENCH_WRITE=1``, and into a
scratch copy otherwise, so a plain test run leaves the tree clean.
"""

import statistics

import pytest

from repro.service import ExpansionService, ShardRouter, ShardedSnapshot, Snapshot
from repro.updates import UpdateCoordinator

COMPACT_SPEEDUP_FLOOR = 1.5
OVERLAY_OVERHEAD_CEILING = 1.10


def _assert_same_answer(mine, reference, query: str) -> None:
    assert mine.link.article_ids == reference.link.article_ids, query
    assert mine.expansion.article_ids == reference.expansion.article_ids, query
    assert [(r.doc_id, r.score) for r in mine.results] == \
           [(r.doc_id, r.score) for r in reference.results], query


def _p50(latencies_ms: list[float]) -> float:
    return round(statistics.median(latencies_ms), 3)


@pytest.fixture(scope="module")
def service_snapshot(bench_benchmark) -> Snapshot:
    return Snapshot.build(bench_benchmark)


@pytest.fixture(scope="module")
def queries(bench_benchmark) -> list[str]:
    return [topic.keywords for topic in bench_benchmark.topics]


@pytest.fixture(scope="module")
def measurements(service_snapshot, queries) -> dict:
    dict_service = ExpansionService.from_snapshot(service_snapshot, compact=False)
    compact_service = ExpansionService.from_snapshot(service_snapshot)

    # Dict and compact interleaved per query, same process, so the
    # speedup ratio is insensitive to load drift.  The compact answer
    # must be bit-identical (ids, scores, expansion, cycles) before its
    # timing counts.
    references = []
    dict_cold: list[float] = []
    compact_cold: list[float] = []
    for query in queries:
        reference = dict_service.expand_query(query)
        mine = compact_service.expand_query(query)
        _assert_same_answer(mine, reference, query)
        assert mine.expansion.cycles == reference.expansion.cycles, query
        references.append(reference)
        dict_cold.append(reference.latency_ms)
        compact_cold.append(mine.latency_ms)

    # A router serving THROUGH an overlay that no query touches,
    # interleaved with a plain router in the same process.  The overlay
    # must ride the disjoint fast path (delegate to the compact
    # kernels), so its cold overhead is bounded; then a far delta must
    # evict nothing and a near delta exactly its neighbourhood.
    island = 9_500_000
    plain_router = ShardRouter(ShardedSnapshot.from_snapshot(service_snapshot, 1))
    overlay_router = ShardRouter(ShardedSnapshot.from_snapshot(service_snapshot, 1))
    coordinator = UpdateCoordinator(overlay_router)
    coordinator.apply([
        {"op": "add_article", "seq": 1, "node_id": island,
         "title": "Bench Overlay Island"},
    ])
    assert coordinator.describe()["touched_nodes"] == 1

    plain_cold: list[float] = []
    overlay_cold: list[float] = []
    for query, reference in zip(queries, references):
        plain = plain_router.expand_query(query)
        mine = overlay_router.expand_query(query)
        _assert_same_answer(plain, reference, query)
        _assert_same_answer(mine, reference, query)
        plain_cold.append(plain.latency_ms)
        overlay_cold.append(mine.latency_ms)

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

    return {
        "compact_speedup": {
            "queries": len(queries),
            "dict_cold_p50_ms": _p50(dict_cold),
            "compact_cold_p50_ms": _p50(compact_cold),
            "cold_p50_ratio": round(
                statistics.median(dict_cold) / statistics.median(compact_cold), 2
            ),
            "cold_mean_ratio": round(
                statistics.fmean(dict_cold) / statistics.fmean(compact_cold), 2
            ),
            "identical_answers": True,  # asserted per query above
        },
        "delta_overlay": {
            "queries": len(queries),
            "shards": 1,
            "plain_cold_p50_ms": _p50(plain_cold),
            "empty_overlay_cold_p50_ms": _p50(overlay_cold),
            "empty_overlay_overhead_ratio": round(
                statistics.median(overlay_cold)
                / statistics.median(plain_cold), 3
            ),
            "unrelated_hit_preserved": preserved / len(queries),
            "far_delta_invalidated": far_summary["invalidated"],
            "near_delta_invalidated": near_summary["invalidated"],
            "near_delta_evicts_target": near_evicts_target,
        },
    }


def test_compact_cold_is_at_least_1_5x_faster(measurements):
    """The frozen read path must beat the dict path by >= 1.5x cold.

    Measured in one process over interleaved queries, so the ratio —
    unlike raw latencies — is robust to machine speed.
    """
    speedup = measurements["compact_speedup"]
    assert speedup["cold_p50_ratio"] >= COMPACT_SPEEDUP_FLOOR, speedup


def test_empty_overlay_overhead_within_ten_percent(measurements):
    """A published-but-irrelevant overlay must ride the fast path.

    Cold p50 through a router carrying an overlay no query touches,
    against a plain router interleaved in the same process — the ratio
    is machine-robust the same way ``compact_speedup`` is.
    """
    overlay = measurements["delta_overlay"]
    assert 0 < overlay["empty_overlay_overhead_ratio"] <= \
        OVERLAY_OVERHEAD_CEILING, overlay


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
    """Persist both sections and check them on the file as read back.

    Sections owned by other bench modules (``cycle_kernel_speedup``,
    ``loadgen_slo``) are carried over by ``emit_bench``.
    """
    written = emit_bench(measurements)
    for section in ("compact_speedup", "delta_overlay"):
        assert written[section] == measurements[section], section
    speedup = written["compact_speedup"]
    assert speedup["dict_cold_p50_ms"] > 0 and speedup["compact_cold_p50_ms"] > 0
    assert speedup["cold_mean_ratio"] > 0
    assert speedup["identical_answers"] is True
    overlay = written["delta_overlay"]
    assert overlay["plain_cold_p50_ms"] > 0
    assert overlay["empty_overlay_cold_p50_ms"] > 0
