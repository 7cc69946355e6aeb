"""CompactGraphView keeps nothing per node it is asked about.

The CSR rows are the view's only adjacency: mining every article of the
default synthetic graph may allocate while a mine runs, but once the
mines are done and collected, the memory allocated in
``repro/wiki/compact.py`` and still alive must be back to (almost) what
it was before — on a view frozen in memory and on one mapped from disk.
"""

import gc
import tracemalloc

import pytest

from repro.core.expansion import NeighborhoodCycleExpander
from repro.wiki import CompactGraphView, SyntheticWikiConfig, generate_wiki
from repro.wiki import compact as compact_module

# A few subgraph caches may be alive in free lists or between frames;
# a per-node cache would hold ~2 kB for each of the ~2,500 nodes.
RETAINED_BOUND_BYTES = 64 * 1024


@pytest.fixture(scope="module")
def graph():
    return generate_wiki(SyntheticWikiConfig()).graph


def _retained_by_view(view) -> int:
    """Bytes allocated in compact.py that survive mining every article."""
    only_compact = [tracemalloc.Filter(True, compact_module.__file__)]
    # Radius 1 still reads every node's row (each article as a seed, its
    # neighbours in the ball) but keeps the mines cheap under tracing.
    expander = NeighborhoodCycleExpander(radius=1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_compact)
        for article in view.main_articles():
            expander.expand(view, {article.node_id})
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only_compact)
    finally:
        tracemalloc.stop()
    return sum(stat.size_diff for stat in after.compare_to(before, "filename"))


def test_mining_every_article_retains_nothing_per_node(graph):
    view = CompactGraphView.from_graph(graph)
    assert _retained_by_view(view) < RETAINED_BOUND_BYTES


def test_mapped_view_retains_nothing_per_node(graph, tmp_path):
    path = CompactGraphView.from_graph(graph).save(tmp_path / "graph.bin")
    view = CompactGraphView.load(path)
    assert _retained_by_view(view) < RETAINED_BOUND_BYTES
