"""CompactGraphView: exact adjacency/subgraph equivalence + blob failures."""

import pytest

from repro.core.cycles import CycleFinder
from repro.core.features import compute_features, count_edges
from repro.errors import AnalysisError, UnknownNodeError
from repro.wiki import (
    CompactGraphView,
    SyntheticWikiConfig,
    generate_wiki,
)


@pytest.fixture(scope="module")
def graph():
    return generate_wiki(SyntheticWikiConfig(
        seed=17, num_domains=4, background_articles=60, background_categories=12,
    )).graph


@pytest.fixture(scope="module")
def compact(graph) -> CompactGraphView:
    return CompactGraphView.from_graph(graph)


class TestAdjacencyEquivalence:
    def test_counts_match(self, graph, compact):
        assert compact.num_articles == graph.num_articles
        assert compact.num_main_articles == graph.num_main_articles
        assert compact.num_categories == graph.num_categories
        assert compact.num_nodes == graph.num_nodes
        assert compact.num_edges == graph.num_edges

    _ACCESSORS = (
        "undirected_neighbors", "degree", "links_from", "links_to",
        "categories_of", "members_of", "parents_of", "children_of",
        "redirect_target", "redirects_of", "resolve",
    )

    def test_every_node_answers_identically(self, graph, compact, tmp_path):
        # Adjacency is decoded per call, so no answer may depend on what
        # was asked before: every accessor is asked twice, the nodes are
        # walked forwards and backwards, on the built and a mapped view.
        mapped = CompactGraphView.load(compact.save(tmp_path / "graph.bin"))
        nodes = sorted(graph.node_ids())
        for view in (compact, mapped):
            for order in (nodes, nodes[::-1]):
                for node_id in order:
                    assert node_id in view
                    assert view.title(node_id) == graph.title(node_id)
                    assert view.is_article(node_id) == graph.is_article(node_id)
                    for name in self._ACCESSORS:
                        expected = getattr(graph, name)(node_id)
                        for _ in range(2):
                            assert getattr(view, name)(node_id) == expected, \
                                (name, node_id)

    def test_unknown_node_answers_like_absent(self, compact):
        assert 10**9 not in compact
        assert compact.undirected_neighbors(10**9) == frozenset()
        assert compact.links_from(10**9) == frozenset()
        with pytest.raises(UnknownNodeError):
            compact.title(10**9)

    def test_freezing_a_compact_view_is_identity(self, compact):
        assert CompactGraphView.from_graph(compact) is compact


class TestInducedSubgraph:
    def _some_ball(self, graph, size=60):
        # A deterministic connected-ish chunk: BFS from the lowest id.
        start = min(graph.node_ids())
        seen = [start]
        members = {start}
        for node in seen:
            if len(members) >= size:
                break
            for neighbor in sorted(graph.undirected_neighbors(node)):
                if neighbor not in members:
                    members.add(neighbor)
                    seen.append(neighbor)
                    if len(members) >= size:
                        break
        return members

    def test_subgraph_adjacency_matches_materialised(self, graph, compact):
        keep = self._some_ball(graph)
        reference = graph.induced_subgraph(keep)
        mine = compact.induced_subgraph(keep)
        for node_id in keep:
            assert mine.undirected_neighbors(node_id) == \
                reference.undirected_neighbors(node_id)
            assert mine.is_article(node_id) == reference.is_article(node_id)
            if reference.is_article(node_id):
                assert mine.links_from(node_id) == reference.links_from(node_id)
                assert mine.categories_of(node_id) == \
                    reference.categories_of(node_id)
            else:
                assert mine.parents_of(node_id) == reference.parents_of(node_id)
                assert mine.children_of(node_id) == reference.children_of(node_id)

    def test_cycles_and_features_match_materialised(self, graph, compact):
        keep = self._some_ball(graph)
        reference = graph.induced_subgraph(keep)
        mine = compact.induced_subgraph(keep)
        ref_cycles = CycleFinder(reference).find()
        my_cycles = CycleFinder(mine).find()
        assert my_cycles == ref_cycles
        for cycle in ref_cycles:
            assert compute_features(mine, cycle) == \
                compute_features(reference, cycle)

    def test_fused_edge_count_equals_generic(self, graph, compact):
        keep = self._some_ball(graph)
        reference = graph.induced_subgraph(keep)
        mine = compact.induced_subgraph(keep)
        for cycle in CycleFinder(reference).find():
            assert mine.count_edges_among(cycle.nodes) == \
                count_edges(reference, cycle.nodes)

    def test_nested_subgraph_restricts_further(self, graph, compact):
        keep = self._some_ball(graph)
        inner_keep = set(sorted(keep)[: len(keep) // 2])
        mine = compact.induced_subgraph(keep).induced_subgraph(inner_keep)
        reference = graph.induced_subgraph(keep).induced_subgraph(inner_keep)
        for node_id in inner_keep:
            assert mine.undirected_neighbors(node_id) == \
                reference.undirected_neighbors(node_id)

    def test_unknown_node_rejected(self, compact):
        with pytest.raises(UnknownNodeError):
            compact.induced_subgraph({10**9})


class TestBlob:
    def test_round_trip_in_memory(self, graph, compact):
        again = CompactGraphView.from_blob(compact.to_blob())
        assert again.num_edges == graph.num_edges
        for node_id in graph.node_ids():
            assert again.undirected_neighbors(node_id) == \
                graph.undirected_neighbors(node_id)
            assert again.title(node_id) == graph.title(node_id)

    def test_mmap_round_trip_survives_reopen(self, graph, compact, tmp_path):
        path = tmp_path / "graph.bin"
        compact.save(path)
        reloaded = CompactGraphView.load(path)
        sample = sorted(graph.node_ids())[:25]
        for node_id in sample:
            assert reloaded.undirected_neighbors(node_id) == \
                graph.undirected_neighbors(node_id)
        again = CompactGraphView.load(path)
        assert again.num_nodes == reloaded.num_nodes

    def test_truncated_blob_rejected(self, compact):
        blob = compact.to_blob()
        for cut in (4, 16, len(blob) // 2, len(blob) - 2):
            with pytest.raises(AnalysisError):
                CompactGraphView.from_blob(blob[:cut])

    def test_foreign_magic_rejected(self, compact):
        blob = bytearray(compact.to_blob())
        blob[:8] = b"NOTMAGIC"
        with pytest.raises(AnalysisError, match="magic"):
            CompactGraphView.from_blob(bytes(blob))
