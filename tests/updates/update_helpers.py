"""Assertion helpers shared by the live-update tests.

The bit-identity tests all reduce to the same comparison: a stack that
applied deltas *live* (overlay, compaction, worker fan-out) against a
stack rebuilt *from scratch* over the oracle graph produced by
``apply_deltas_to_graph``.  The helpers here build that reference stack
and perform the deep comparisons.
"""

from repro.linking.linker import EntityLinker
from repro.service import ShardRouter, ShardedSnapshot


def assert_graph_equal(left, right) -> None:
    """Two graphs agree node-for-node and edge-for-edge."""
    left_articles = {a.node_id: a for a in left.articles()}
    right_articles = {a.node_id: a for a in right.articles()}
    assert set(left_articles) == set(right_articles)
    for node_id, article in left_articles.items():
        other = right_articles[node_id]
        assert article.title == other.title, node_id
        assert article.is_redirect == other.is_redirect, node_id
    assert {c.node_id: c.name for c in left.categories()} == \
           {c.node_id: c.name for c in right.categories()}
    for node_id in left_articles:
        assert left.links_from(node_id) == right.links_from(node_id), node_id
        assert left.links_to(node_id) == right.links_to(node_id), node_id
        assert left.categories_of(node_id) == right.categories_of(node_id), node_id
        assert left.redirect_target(node_id) == right.redirect_target(node_id)
        assert left.redirects_of(node_id) == right.redirects_of(node_id), node_id
    for category in left.categories():
        node_id = category.node_id
        assert left.members_of(node_id) == right.members_of(node_id), node_id
        assert left.parents_of(node_id) == right.parents_of(node_id), node_id
        assert left.children_of(node_id) == right.children_of(node_id), node_id
    assert left.num_edges == right.num_edges
    for node_id in left_articles:
        assert frozenset(left.undirected_neighbors(node_id)) == \
               frozenset(right.undirected_neighbors(node_id)), node_id


def rebuild_snapshot(old: ShardedSnapshot, graph, generation: int = 1):
    """A from-scratch ShardedSnapshot over ``graph``: the oracle.

    Index segments, doc names and mu carry over untouched — deltas only
    ever change the graph — while the linker vocabulary is rebuilt
    exactly the way ``Snapshot.build`` would have built it for ``graph``.
    """
    linker = EntityLinker(graph)
    return ShardedSnapshot(
        graph=graph,
        segments=old.segments,
        title_index=linker.vocabulary(),
        doc_names=dict(old.doc_names),
        mu=old.mu,
        generation=generation,
    ).frozen()


def cached_expansion_keys(worker) -> set:
    """The seed sets (and anchors) in one worker's expansion cache."""
    seen = set()
    worker.evict_expansions(lambda key: seen.add(key) or False)
    return seen


def assert_same_answers(mine, reference, label="") -> None:
    """Doc ids AND scores bit-identical, plus the expansion surface."""
    assert mine.link.article_ids == reference.link.article_ids, label
    assert mine.expansion.article_ids == reference.expansion.article_ids, label
    assert [(r.doc_id, r.score) for r in mine.results] == \
           [(r.doc_id, r.score) for r in reference.results], label


def assert_router_matches_oracle(router, oracle_graph, queries) -> None:
    """``router``'s live answers equal a from-scratch rebuild's."""
    reference = ShardRouter(rebuild_snapshot(router.snapshot, oracle_graph))
    try:
        for query in queries:
            assert_same_answers(
                router.expand_query(query, top_k=10),
                reference.expand_query(query, top_k=10),
                label=query,
            )
    finally:
        reference.close()
