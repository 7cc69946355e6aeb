"""Shard placement is a contract, not an accident.

A shard is an index segment and an expansion cache; the graph is one
blob every process maps.  What is left of "partitioning" is two hashes —
and they are load-bearing: the router and every worker process must
agree on ``shard_of_node`` to keep an expansion on one cache, and index
segments written by older builds are found again only if
``shard_of_document`` never drifts.  So the hashes are
pinned on literal values, the router is held to them at 1, 2 and 4
shards (for every linkable title, for overlay-added articles and for
seeds a delta turned into redirects), and the graph a directory of any
shard count stores is shown to be the whole graph, node by node.
"""

import json

import pytest

from repro.collection import Benchmark, SyntheticCollectionConfig
from repro.errors import SnapshotError, UnknownNodeError
from repro.service import MANIFEST_NAME, ShardRouter, ShardedSnapshot, Snapshot
from repro.updates import UpdateCoordinator, materialize_graph
from repro.wiki import SyntheticWikiConfig, shard_of_document, shard_of_node

SHARD_COUNTS = (1, 2, 3, 4, 8)
# id -> its shard at each of SHARD_COUNTS.  Literal on purpose: a change
# to either hash moves every cache entry and orphans every index segment.
NODE_PLACEMENT = (
    (0, [0, 1, 1, 3, 7]),
    (1, [0, 1, 2, 1, 1]),
    (2, [0, 0, 1, 2, 6]),
    (7, [0, 1, 0, 3, 7]),
    (100, [0, 0, 2, 0, 4]),
    (101, [0, 1, 0, 3, 7]),
    (4096, [0, 1, 1, 3, 7]),
    (65537, [0, 1, 0, 3, 7]),
    (9_100_000, [0, 0, 2, 2, 6]),
    (9_700_000, [0, 0, 2, 0, 4]),
    (2**31 - 1, [0, 1, 1, 3, 7]),
    (2**40 + 3, [0, 1, 2, 3, 3]),
)
DOCUMENT_PLACEMENT = (
    ("", [0, 0, 0, 0, 4]),
    ("doc-1", [0, 1, 1, 1, 1]),
    ("doc-2", [0, 0, 2, 2, 2]),
    ("img/302887", [0, 0, 1, 0, 0]),
    ("d0", [0, 1, 0, 1, 1]),
    ("d99", [0, 0, 1, 0, 0]),
    ("wiki é", [0, 0, 2, 0, 4]),
    ("trec-0001", [0, 1, 0, 1, 1]),
)
_NEW = 9_800_000


@pytest.fixture(scope="module")
def small_benchmark() -> Benchmark:
    return Benchmark.synthetic(
        SyntheticWikiConfig(seed=61, num_domains=5, background_articles=80,
                            background_categories=10),
        SyntheticCollectionConfig(seed=62, background_docs=40),
    )


@pytest.fixture(scope="module")
def graph(small_benchmark):
    return small_benchmark.graph


@pytest.fixture(scope="module")
def snapshot(small_benchmark) -> Snapshot:
    return Snapshot.build(small_benchmark)


@pytest.fixture(scope="module", params=[1, 2, 4])
def partitioned(request, graph, snapshot, tmp_path_factory):
    """``(graph, directory, loaded)``: a snapshot of ``request.param``
    shards, through the disk."""
    directory = tmp_path_factory.mktemp(f"placed{request.param}")
    ShardedSnapshot.from_snapshot(snapshot, request.param).save(directory)
    return graph, directory, ShardedSnapshot.load(directory)


def _cached_keys(worker) -> set:
    seen = set()
    worker.evict_expansions(lambda key: seen.add(key) or False)
    return seen


class TestHashing:
    def test_node_hash_is_deterministic_and_in_range(self):
        for node_id in range(200):
            shard = shard_of_node(node_id, 4)
            assert 0 <= shard < 4
            assert shard == shard_of_node(node_id, 4)

    def test_document_hash_is_deterministic_and_in_range(self):
        for doc_id in ("doc-1", "doc-2", "img/302887", ""):
            shard = shard_of_document(doc_id, 3)
            assert 0 <= shard < 3
            assert shard == shard_of_document(doc_id, 3)

    def test_hashes_spread_across_shards(self):
        node_shards = {shard_of_node(n, 4) for n in range(100)}
        doc_shards = {shard_of_document(f"d{n}", 4) for n in range(100)}
        assert node_shards == {0, 1, 2, 3}
        assert doc_shards == {0, 1, 2, 3}

    def test_placement_never_drifts(self):
        for node_id, expected in NODE_PLACEMENT:
            assert [shard_of_node(node_id, n) for n in SHARD_COUNTS] == \
                expected, node_id
        for doc_id, expected in DOCUMENT_PLACEMENT:
            assert [shard_of_document(doc_id, n) for n in SHARD_COUNTS] == \
                expected, doc_id


class TestPartitioning:
    """What placement still decides, at each shard count."""

    def test_core_sets_partition_the_nodes(self, partitioned):
        """The hash puts every node on exactly one shard, none out of
        range and no shard idle."""
        graph, _, loaded = partitioned
        placed: dict[int, set[int]] = {}
        for node_id in graph.node_ids():
            placed.setdefault(
                shard_of_node(node_id, loaded.num_shards), set()
            ).add(node_id)
        assert sorted(placed) == list(range(loaded.num_shards))
        assert sum(map(len, placed.values())) == graph.num_nodes

    def test_owned_edges_cover_every_edge_once(self, partitioned):
        """Edges are stored and counted once per snapshot, not once per
        shard that touches them: the manifest's global counts are the
        graph's whatever the shard count."""
        graph, directory, loaded = partitioned
        counts = json.loads((directory / MANIFEST_NAME).read_text())["counts"]
        assert counts["edges"] == loaded.graph.num_edges == graph.num_edges
        assert counts["articles"] == graph.num_articles
        assert counts["categories"] == graph.num_categories
        assert len(list(directory.rglob("graph.bin"))) == 1

    def test_core_adjacency_is_exact(self, partitioned):
        """Every shard's worker holds the one graph — the same object, not
        a cut of it — so the worker a node is placed on answers that
        node's adjacency like the full graph."""
        graph, _, loaded = partitioned
        router = ShardRouter(loaded)
        try:
            assert all(w.graph is router.graph for w in router.workers)
            for node_id in graph.node_ids():
                home = router.workers[
                    shard_of_node(node_id, loaded.num_shards)
                ].graph
                assert home.undirected_neighbors(node_id) == \
                    graph.undirected_neighbors(node_id)
                if graph.is_article(node_id):
                    assert home.links_from(node_id) == graph.links_from(node_id)
                    assert home.categories_of(node_id) == \
                        graph.categories_of(node_id)
                    assert home.redirects_of(node_id) == \
                        graph.redirects_of(node_id)
        finally:
            router.close()

    def test_redirects_colocated_with_target(self, graph, snapshot):
        """A redirect's title routes where its target's does: the linker
        resolves it, so no redirect id is ever hashed for routing."""
        router = ShardRouter(ShardedSnapshot.from_snapshot(snapshot, 4))
        try:
            redirects = [a for a in graph.articles() if a.is_redirect]
            assert redirects, "fixture graph should contain redirects"
            for article in redirects:
                target = graph.resolve(article.node_id)
                seeds, _ = router.link_text(router.normalize(article.title))
                assert seeds.article_ids == frozenset({target})
                assert router.owner_shard(seeds.article_ids) == \
                    shard_of_node(target, 4)
        finally:
            router.close()

    def test_invalid_shard_count(self, small_benchmark):
        for count in (0, -1):
            with pytest.raises(SnapshotError):
                ShardedSnapshot.build(small_benchmark, num_shards=count)


class TestViewEquivalence:
    """The graph a directory of N shards stores is the whole graph."""

    def test_counts_match(self, partitioned):
        graph, _, loaded = partitioned
        view = loaded.graph
        assert view.num_articles == graph.num_articles
        assert view.num_main_articles == graph.num_main_articles
        assert view.num_categories == graph.num_categories
        assert view.num_nodes == graph.num_nodes
        assert view.num_edges == graph.num_edges
        assert len(view) == len(graph)

    def test_adjacency_matches_everywhere(self, partitioned):
        graph, _, loaded = partitioned
        view = loaded.graph
        for node_id in graph.node_ids():
            assert view.undirected_neighbors(node_id) == \
                graph.undirected_neighbors(node_id)
            assert view.degree(node_id) == graph.degree(node_id)
            assert view.title(node_id) == graph.title(node_id)
            assert view.node(node_id).kind == graph.kind(node_id)
        for article in graph.articles():
            node_id = article.node_id
            assert view.links_from(node_id) == graph.links_from(node_id)
            assert view.links_to(node_id) == graph.links_to(node_id)
            assert view.categories_of(node_id) == graph.categories_of(node_id)
            assert view.resolve(node_id) == graph.resolve(node_id)
            assert view.redirect_target(node_id) == graph.redirect_target(node_id)
        for category in graph.categories():
            node_id = category.node_id
            assert view.members_of(node_id) == graph.members_of(node_id)
            assert view.parents_of(node_id) == graph.parents_of(node_id)
            assert view.children_of(node_id) == graph.children_of(node_id)

    def test_node_iteration_and_title_lookup(self, partitioned):
        graph, _, loaded = partitioned
        view = loaded.graph
        assert list(view.articles()) == \
            sorted(graph.articles(), key=lambda a: a.node_id)
        assert list(view.categories()) == \
            sorted(graph.categories(), key=lambda c: c.node_id)
        assert set(view.node_ids()) == set(graph.node_ids())
        some = next(iter(graph.main_articles()))
        assert view.article_by_title(some.title) == some

    def test_edges_iterate_once_each(self, partitioned):
        """Materialised the way compaction does it, the stored graph
        yields every edge of the original exactly once."""
        graph, _, loaded = partitioned
        mine = sorted(
            (e.kind.value, e.source, e.target)
            for e in materialize_graph(loaded.graph).edges()
        )
        reference = sorted(
            (e.kind.value, e.source, e.target) for e in graph.edges()
        )
        assert mine == reference

    def test_induced_subgraph_matches_monolithic(self, partitioned):
        graph, _, loaded = partitioned
        view = loaded.graph
        # A ball around an article plus an arbitrary slice of node ids.
        seed = next(iter(graph.main_articles())).node_id
        ball = {seed} | graph.undirected_neighbors(seed)
        for keep in (ball, set(list(graph.node_ids())[::3])):
            mine = view.induced_subgraph(keep)
            reference = graph.induced_subgraph(keep)
            assert mine.num_nodes == reference.num_nodes
            for node_id in keep:
                assert mine.undirected_neighbors(node_id) == \
                    reference.undirected_neighbors(node_id)

    def test_unknown_nodes(self, partitioned):
        graph, _, loaded = partitioned
        view = loaded.graph
        missing = max(graph.node_ids()) + 1000
        assert missing not in view
        assert view.undirected_neighbors(missing) == set()
        with pytest.raises(UnknownNodeError):
            view.node(missing)
        with pytest.raises(UnknownNodeError):
            view.induced_subgraph({missing})


class TestOwnerRouting:
    def test_titles_route_to_the_shard_of_their_prefill(
        self, partitioned
    ):
        """A batch of every title caches each seed set it expands on
        ``router.owner_shard(link(title))`` and on no other shard, so the
        title's next request is a cache hit there."""
        graph, _, loaded = partitioned
        router = ShardRouter(loaded)
        try:
            router.batch_expand([a.title for a in graph.articles()], top_k=1)
            stored = [_cached_keys(worker) for worker in router.workers]
            linked = 0
            for article in graph.articles():
                link, _ = router.link_text(router.normalize(article.title))
                seeds = link.article_ids
                if not seeds:
                    continue
                linked += 1
                owner = router.owner_shard(seeds)
                assert owner == shard_of_node(min(seeds), loaded.num_shards)
                assert [seeds in shard for shard in stored] == \
                    [shard == owner for shard in range(loaded.num_shards)]
                hits = router.workers[owner].stats().expansion_cache.hits
                response = router.expand_query(article.title, top_k=3)
                assert response.expansion_cached is True, article.title
                assert router.workers[owner].stats().expansion_cache.hits == \
                    hits + 1
            assert linked == graph.num_articles
        finally:
            router.close()

    def test_overlay_added_article_routes_by_its_own_hash(self, snapshot):
        router = ShardRouter(ShardedSnapshot.from_snapshot(snapshot, 2))
        try:
            for shard in (0, 1):  # one newcomer per shard
                newcomer = next(
                    _NEW + offset for offset in range(64)
                    if shard_of_node(_NEW + offset, 2) == shard
                )
                UpdateCoordinator(router).apply([{
                    "op": "add_article", "seq": shard + 1, "node_id": newcomer,
                    "title": f"Placement Newcomer {shard}",
                }])
                seeds = frozenset({newcomer})
                response = router.expand_query(f"placement newcomer {shard}")
                assert response.link.article_ids == seeds
                assert router.owner_shard(seeds) == shard
                assert [seeds in _cached_keys(w) for w in router.workers] == \
                    [other == shard for other in (0, 1)]
        finally:
            router.close()

    def test_seed_turned_redirect_is_never_routed_on(
        self, graph, snapshot
    ):
        mains = [a for a in graph.main_articles()
                 if not graph.redirects_of(a.node_id)]
        demoted, target = next(
            (a, b) for a in mains for b in mains
            if shard_of_node(a.node_id, 2) != shard_of_node(b.node_id, 2)
        )
        router = ShardRouter(ShardedSnapshot.from_snapshot(snapshot, 2))
        try:
            before = router.expand_query(demoted.title)
            assert before.link.article_ids == frozenset({demoted.node_id})
            UpdateCoordinator(router).apply([{
                "op": "set_redirect", "seq": 1, "node_id": demoted.node_id,
                "target": target.node_id,
            }])
            after = router.expand_query(demoted.title)
            assert after.link.article_ids == frozenset({target.node_id})
            assert router.owner_shard(after.link.article_ids) == \
                shard_of_node(target.node_id, 2) != \
                shard_of_node(demoted.node_id, 2)
            for worker in router.workers:
                assert frozenset({demoted.node_id}) not in _cached_keys(worker)
        finally:
            router.close()
