"""Section 4 challenge — cycle mining cost grows steeply with max length.

The paper reports ~6 minutes per query graph (avg 208 nodes) for cycles
up to length 5 on a high-performance graph database, and names the
exponential growth in the maximum length as the open challenge.  This
bench measures our miner across the sweep max_length = 2..5 over all
query graphs — for both engines, so the growth curve of the general DFS
and the bitset kernels (:mod:`repro.core.cycle_kernels`) stay visible
side by side.

``test_cycle_kernel_speedup_interleaved`` is the acceptance measurement
for the kernel engine: the deployed cold path (compact graph view,
:class:`NeighborhoodCycleExpander`) timed under both engines strictly
interleaved per query in one process — machine drift cancels out of the
ratio — with every kernel expansion asserted bit-identical to its DFS
twin before any timing counts.  The ratio is emitted as the
``cycle_kernel_speedup`` section of ``BENCH_service.json`` through the
shared ``emit_bench`` fixture (the tracked file only under
``REPRO_BENCH_WRITE=1``) and checked on the file as read back.
"""

import statistics
import time

import pytest

from repro.core import CycleFinder, NeighborhoodCycleExpander
from repro.wiki.compact import CompactGraphView

KERNEL_SPEEDUP_FLOOR = 3.0


def _mine_all(pipeline_result, max_length: int, engine: str) -> int:
    total = 0
    for outcome in pipeline_result.outcomes:
        finder = CycleFinder(
            outcome.query_graph.graph,
            min_length=2,
            max_length=max_length,
            engine=engine,
        )
        total += len(finder.find(anchors=outcome.query_graph.seed_articles))
    return total


@pytest.mark.parametrize("engine", ["dfs", "kernels"])
@pytest.mark.parametrize("max_length", [2, 3, 4, 5])
def test_timing_cycle_mining(benchmark, pipeline_result, max_length, engine):
    total = benchmark(_mine_all, pipeline_result, max_length, engine)
    # Longer bounds can only find more cycles.
    assert total >= 0
    if max_length == 5:
        assert total > 0


def test_timing_full_graph_neighborhood(benchmark, bench_benchmark):
    """Mining around a seed in the *full* graph (the deployed path)."""
    from repro.linking import EntityLinker

    graph = bench_benchmark.graph
    linker = EntityLinker(graph)
    topic = bench_benchmark.topics[0]
    seeds = linker.link_keywords(topic.keywords)
    expander = NeighborhoodCycleExpander()

    result = benchmark(expander.expand, graph, seeds)
    assert result.num_features >= 0


def test_cycle_kernel_speedup_interleaved(
    bench_benchmark, pipeline_result, emit_bench
):
    """DFS vs kernels on the deployed cold path, interleaved, one process.

    Emits the ``cycle_kernel_speedup`` key into ``BENCH_service.json``
    and asserts the ROADMAP acceptance floor of >= 3x on the interleaved
    p50 ratio.
    """
    graph = CompactGraphView.from_graph(bench_benchmark.graph)
    seed_sets = [
        frozenset(outcome.seed_articles)
        for outcome in pipeline_result.outcomes
        if outcome.seed_articles
    ]
    assert seed_sets, "benchmark produced no linked seed sets"

    dfs = NeighborhoodCycleExpander(engine="dfs")
    kernels = NeighborhoodCycleExpander(engine="kernels")

    # Untimed warm-up pass so neither engine pays first-touch costs
    # (lazy imports, allocator growth) inside the timed loop.
    for seeds in seed_sets:
        dfs.expand(graph, seeds)
        kernels.expand(graph, seeds)

    dfs_ms: list[float] = []
    kernel_ms: list[float] = []
    for seeds in seed_sets:
        started = time.perf_counter()
        reference = dfs.expand(graph, seeds)
        dfs_ms.append((time.perf_counter() - started) * 1000.0)

        started = time.perf_counter()
        mine = kernels.expand(graph, seeds)
        kernel_ms.append((time.perf_counter() - started) * 1000.0)

        # Bit-identical before the timing counts: same articles, titles
        # AND the same qualifying cycles with the same features.
        assert mine == reference, sorted(seeds)

    ratio_p50 = statistics.median(dfs_ms) / statistics.median(kernel_ms)
    ratio_mean = statistics.fmean(dfs_ms) / statistics.fmean(kernel_ms)
    payload = {
        "queries": len(seed_sets),
        "dfs_p50_ms": round(statistics.median(dfs_ms), 3),
        "kernels_p50_ms": round(statistics.median(kernel_ms), 3),
        "cold_p50_ratio": round(ratio_p50, 2),
        "cold_mean_ratio": round(ratio_mean, 2),
        "identical_expansions": True,  # asserted per query above
    }

    written = emit_bench({"cycle_kernel_speedup": payload})
    assert written["cycle_kernel_speedup"] == payload

    assert payload["dfs_p50_ms"] > 0 and payload["kernels_p50_ms"] > 0
    assert ratio_p50 > 0 and ratio_mean > 0
    assert ratio_p50 >= KERNEL_SPEEDUP_FLOOR, payload
