"""A write costs its delta, not the graph — as counts, not timings.

Applying one ``add_article`` + ``add_edge`` batch used to tokenise every
title of the graph (linker rebuild) and to ask the base for the
neighbours of every ball node, twice (view-walking delta ball).  Both
are linear in the corpus, so doubling the corpus doubled them.  The
guard applies the same batch to the synthetic corpus at 1x and at 2x
scale and counts the calls that must not scale: the batch tokenises the
one title it adds, and the base is never asked for an untouched node's
neighbours (its CSR row is read instead; touched nodes go through the
overlay's typed slots).  The spans of the same apply carry the labels
that say so.
"""

from repro.collection import Benchmark, SyntheticCollectionConfig
from repro.obs.trace import start_trace
from repro.retrieval.tokenizer import Tokenizer
from repro.service import ShardRouter, ShardedSnapshot, Snapshot
from repro.updates import UpdateCoordinator
from repro.wiki import SyntheticWikiConfig
from repro.wiki.compact import CompactGraphView
from repro.wiki.graph import WikiGraph

_NEW = 9_600_000


def _counted(monkeypatch, cls, name, counts):
    real = getattr(cls, name)

    def counting(self, *args, **kwargs):
        counts[name] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)


def _apply_counts(scale: int, monkeypatch) -> dict:
    benchmark = Benchmark.synthetic(
        SyntheticWikiConfig(
            seed=61, num_domains=5 * scale, background_articles=80 * scale,
            background_categories=10 * scale,
        ),
        SyntheticCollectionConfig(seed=62, background_docs=40 * scale),
    )
    sharded = ShardedSnapshot.from_snapshot(
        Snapshot.build(benchmark), num_shards=2
    )
    graph = benchmark.graph
    anchor = next(
        a.node_id for a in graph.main_articles() if graph.links_from(a.node_id)
    )
    router = ShardRouter(sharded)
    counts = {"tokenize_phrase": 0, "undirected_neighbors": 0}
    try:
        coordinator = UpdateCoordinator(router)
        with monkeypatch.context() as patch, start_trace() as trace:
            _counted(patch, Tokenizer, "tokenize_phrase", counts)
            for base in (CompactGraphView, WikiGraph):
                _counted(patch, base, "undirected_neighbors", counts)
            summary = coordinator.apply([
                {"op": "add_article", "seq": 1, "node_id": _NEW,
                 "title": "Write Cost Newcomer"},
                {"op": "add_edge", "seq": 2, "source": _NEW, "target": anchor,
                 "kind": "link"},
            ])
    finally:
        router.close()
    spans = {entry.stage: entry.labels for entry in trace.spans}
    assert spans["linker"] == {"patched": True}
    assert spans["ball"] == {
        "size": summary["ball_size"],
        "touched": coordinator.describe()["touched_nodes"],
    }
    return {
        **counts,
        "nodes": graph.num_nodes,
        "ball": summary["ball_size"],
        "touched": spans["ball"]["touched"],
    }


def test_one_write_costs_the_same_calls_at_twice_the_corpus(monkeypatch):
    small = _apply_counts(1, monkeypatch)
    large = _apply_counts(2, monkeypatch)
    # The corpus really doubled, and the ball with it: a linear walk
    # through the views would show up below.
    assert large["nodes"] > 1.8 * small["nodes"]
    assert large["ball"] > small["ball"] > 10 * small["touched"]
    for counts in (small, large):
        assert counts["tokenize_phrase"] == 1  # the added title, nothing else
        assert counts["undirected_neighbors"] <= counts["touched"] == 2
    assert small["tokenize_phrase"] == large["tokenize_phrase"]
    assert small["undirected_neighbors"] == large["undirected_neighbors"]


def test_owner_removal_is_the_one_write_that_rescans(sharded2):
    """``remove_article`` of the article that owns its vocabulary key
    cannot be patched (a shadowed twin may have to take the key over):
    the span says ``patched=False`` and the linker still equals a
    rebuild (``tests/updates/test_fold_batch.py`` checks equality)."""
    router = ShardRouter(sharded2)
    try:
        coordinator = UpdateCoordinator(router)
        coordinator.apply([{"op": "add_article", "seq": 1, "node_id": _NEW,
                            "title": "Write Cost Owner"}])
        with start_trace() as trace:
            coordinator.apply([{"op": "remove_article", "seq": 2,
                                "node_id": _NEW}])
    finally:
        router.close()
    labels = {entry.stage: entry.labels for entry in trace.spans}
    assert labels["linker"] == {"patched": False}
    assert ("write", "cost", "owner") not in router.linker.vocabulary()
