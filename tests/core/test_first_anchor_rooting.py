"""First-anchor rooting and the tabulated filters, against the DFS oracle.

The kernel engine roots its one enumeration at the anchors and reads the
expander's filters from a table; the fixed-seed sweep of
``test_cycle_kernels.py`` only ever draws article anchors inside the
graph.  Here ``hypothesis`` draws random small typed graphs (articles,
categories, BELONGS / INSIDE / one-way and mutual links, redirects and
links *to* redirects) x anchor sets of every kind (categories, ids
outside the graph, every node, several anchors on one cycle, none) x
every length window x random expander thresholds, and requires ``find``,
``count_by_length`` and ``find_with_features(anchors, accept=...)`` to
agree with the DFS engine *together*, node for node, on the dict graph
and on its CSR twin.

The same generator drives the decomposition the serving path relies on:
with ``lengths <= 2·radius + 1`` and an uncapped ball, an expansion is
the ``compose`` of each anchor's own, whichever supersets those were
``split`` from.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collection import Benchmark, SyntheticCollectionConfig
from repro.core import CycleExpander, CycleFinder, NeighborhoodCycleExpander
from repro.core.cycle_kernels import KERNEL_MAX_LENGTH, AcceptTable
from repro.errors import AnalysisError
from repro.linking import EntityLinker
from repro.wiki import SyntheticWikiConfig, WikiGraphBuilder
from repro.wiki.compact import CompactGraphView

OUTSIDE_IDS = (10**6, 10**6 + 1)  # never a node of a generated graph


@st.composite
def typed_graphs(draw):
    """``(graph, node_ids)``: a small graph using every edge kind."""
    rng = random.Random(draw(st.integers(0, 2**20)))
    link_prob = draw(st.sampled_from([0.15, 0.3, 0.6]))
    builder = WikiGraphBuilder(strict=False)
    articles = [
        builder.add_article(f"a{i}") for i in range(draw(st.integers(2, 8)))
    ]
    categories = [
        builder.add_category(f"c{i}") for i in range(draw(st.integers(1, 4)))
    ]
    redirects = [
        builder.add_article(f"r{i}", is_redirect=True)
        for i in range(draw(st.integers(0, 2)))
    ]
    for redirect in redirects:
        builder.add_redirect(redirect, rng.choice(articles))
    for article in articles:
        for category in categories:
            if rng.random() < 0.35:
                builder.add_belongs(article, category)
        for target in articles + redirects:
            if target != article and rng.random() < link_prob:
                builder.add_link(article, target)
                if target in articles and rng.random() < 0.4:
                    builder.add_link(target, article)  # a 2-cycle
    for child in categories:
        for parent in categories:
            if child != parent and rng.random() < 0.3:
                builder.add_inside(child, parent)  # both directions happen
    graph = builder.build()
    return graph, sorted(graph.node_ids())


@st.composite
def anchor_sets(draw, node_ids):
    kind = draw(st.sampled_from(["none", "every", "subset", "outside"]))
    if kind == "none":
        return None
    if kind == "every":
        return frozenset(node_ids)
    chosen = draw(st.sets(st.sampled_from(node_ids), max_size=len(node_ids)))
    if kind == "outside":
        chosen = chosen | set(OUTSIDE_IDS)
    return frozenset(chosen)


@st.composite
def expanders(draw, hi, engine=None):
    """A ``CycleExpander`` with random thresholds for lengths up to ``hi``
    (engine-free unless asked: only its filters are used)."""
    low, high = sorted(draw(st.tuples(
        st.sampled_from([0.0, 0.2, 0.25, 0.34, 0.5]),
        st.sampled_from([0.25, 0.4, 0.5, 0.75, 1.0]),
    )))
    return CycleExpander(
        lengths=draw(st.sets(
            st.integers(2, hi), min_size=1
        )),
        min_category_ratio=low,
        max_category_ratio=high,
        min_extra_edge_density=draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0])),
        exclude_category_free=draw(st.booleans()),
        engine=engine,
    )


@st.composite
def cases(draw):
    graph, node_ids = draw(typed_graphs())
    lo = draw(st.integers(2, KERNEL_MAX_LENGTH))
    hi = draw(st.integers(lo, KERNEL_MAX_LENGTH))
    return graph, draw(anchor_sets(node_ids)), lo, hi, draw(expanders(hi))


def _finders(graph, lo, hi, **kwargs):
    return (
        CycleFinder(graph, min_length=lo, max_length=hi, engine="dfs", **kwargs),
        CycleFinder(graph, min_length=lo, max_length=hi, engine="kernels", **kwargs),
        CycleFinder(
            CompactGraphView.from_graph(graph),
            min_length=lo, max_length=hi, engine="kernels", **kwargs,
        ),
    )


@settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_three_entry_points_match_the_dfs_oracle(case):
    graph, anchors, lo, hi, expander = case
    dfs, *kernel_finders = _finders(graph, lo, hi)
    expected = dfs.find(anchors)
    census = dfs.count_by_length(anchors)
    table = expander._accept
    expected_features = dfs.find_with_features(anchors, accept=table.accept)

    # The oracle itself: every cycle holds an anchor and appears once,
    # however many anchors it holds.
    if anchors is not None:
        assert all(anchors & set(cycle.nodes) for cycle in expected)
        everything = dfs.find()
        assert expected == [c for c in everything if anchors & set(c.nodes)]
    assert len({cycle.nodes for cycle in expected}) == len(expected)

    for ker in kernel_finders:
        assert ker.find(anchors) == expected
        assert ker.count_by_length(anchors) == census
        # A raw predicate (tabulated per call) and the expander's table
        # built ahead are the same filter.
        assert ker.find_with_features(anchors, accept=table.accept) == \
            expected_features
        assert ker.find_with_features(anchors, accept=table) == \
            expected_features
        assert [f.cycle for f in ker.find_with_features(anchors)] == expected

    # accepts() on materialised features is the same rule again.
    assert expected_features == [
        f for f in dfs.find_with_features(anchors) if expander.accepts(f)
    ]


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_max_cycles_fires_at_the_same_total_on_both_engines(case):
    graph, anchors, lo, hi, expander = case
    total = len(CycleFinder(
        graph, min_length=lo, max_length=hi, engine="dfs"
    ).find(anchors))
    reject_all = AcceptTable(lambda length, num_articles, num_edges: False)
    for finder in _finders(graph, lo, hi, max_cycles=total):
        assert len(finder.find(anchors)) == total
        assert sum(finder.count_by_length(anchors).values()) == total
        # The tripwire counts anchored cycles, not accepted ones.
        assert finder.find_with_features(anchors, accept=reject_all) == []
    if total == 0:
        return
    for finder in _finders(graph, lo, hi, max_cycles=total - 1):
        for mine in (
            finder.find,
            finder.count_by_length,
            lambda a, finder=finder: finder.find_with_features(
                a, accept=reject_all
            ),
        ):
            with pytest.raises(AnalysisError, match=str(total - 1)):
                mine(anchors)


@settings(max_examples=60, deadline=None)
@given(expanders(KERNEL_MAX_LENGTH))
def test_table_equals_the_predicate_on_its_whole_domain(expander):
    table = expander._accept
    predicate = expander._prefilter()
    assert set(table.cells) == set(range(2, KERNEL_MAX_LENGTH + 1))
    for length, by_articles in table.cells.items():
        assert len(by_articles) == length + 1
        for num_articles, accepted in enumerate(by_articles):
            for num_edges in range(length, length * (length - 1) + 1):
                verdict = predicate(length, num_articles, num_edges)
                assert (num_edges in accepted) == verdict
                assert table(length, num_articles, num_edges) == verdict
            assert all(
                length <= e <= length * (length - 1) for e in accepted
            )


def test_overridden_accepts_still_filters_materialised_features(venice_world):
    """A subclass that overrides accepts() gets no table: the kernel
    keeps everything and accepts() decides, exactly as on DFS."""
    graph, ids = venice_world

    class TrianglesOnly(CycleExpander):
        def accepts(self, features):
            return features.length == 3

    seeds = frozenset([ids["venice"]])
    results = [
        TrianglesOnly(engine=engine).expand(graph, seeds)
        for engine in ("kernels", "dfs")
    ]
    assert results[0] == results[1]
    assert results[0].cycles
    assert {f.length for f in results[0].cycles} == {3}


def test_cold_tail_shaped_seed_sets_expand_identically_on_both_engines():
    """The benchmark's ``cold_tail`` request: the entities of a head topic
    plus one tail article that no topic shares — several anchors in one
    ball, the shape the serving path mines on every cache miss."""
    benchmark = Benchmark.synthetic(
        SyntheticWikiConfig(seed=7, num_domains=12, background_articles=200,
                            background_categories=15),
        SyntheticCollectionConfig(seed=13, background_docs=20),
    )
    graph = benchmark.graph
    view = CompactGraphView.from_graph(graph)
    linker = EntityLinker(graph)
    tails = [
        article.node_id for article in graph.articles()
        if not article.is_redirect
    ]
    rng = random.Random(301)
    kernels = NeighborhoodCycleExpander(engine="kernels")
    dfs = NeighborhoodCycleExpander(engine="dfs")
    mined = 0
    for topic in benchmark.topics:
        heads = linker.link(topic.keywords).article_ids
        assert heads, topic.keywords
        seeds = frozenset(heads) | {rng.choice(tails)}
        expected = dfs.expand(graph, seeds)
        assert kernels.expand(graph, seeds) == expected
        assert kernels.expand(view, seeds) == expected
        mined += len(expected.cycles)
    assert mined > 0


@st.composite
def anchored_cases(draw):
    """``(graph, radius, inner, [(anchor, superset), ...])``: 1-4 seed
    articles, each with a superset of articles to be split out of."""
    graph, node_ids = draw(typed_graphs())
    articles = [n for n in node_ids if graph.is_article(n)]
    radius = draw(st.sampled_from([1, 2, 2]))
    inner = draw(expanders(2 * radius + 1, engine="kernels"))
    seeds = draw(st.sets(st.sampled_from(articles), min_size=1, max_size=4))
    return graph, radius, inner, [
        (anchor, frozenset(
            draw(st.sets(st.sampled_from(articles), max_size=3)) | {anchor}
        ))
        for anchor in sorted(seeds)
    ]


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(anchored_cases())
def test_an_expansion_is_the_compose_of_its_anchors_own(case):
    graph, radius, inner, anchored = case
    seeds = frozenset(anchor for anchor, _ in anchored)
    expander = NeighborhoodCycleExpander(inner, radius=radius, max_nodes=10**4)
    for form in (graph, CompactGraphView.from_graph(graph)):
        ball = expander.neighborhood(form, seeds)
        assert expander.exact_ball(form, seeds) == ball
        joint = expander.expand(form, seeds)
        assert expander.mine(form, seeds, ball) == joint
        parts = []
        for anchor, superset in anchored:
            assert expander.exact_ball(form, superset) is not None
            part = expander.split(form, expander.expand(form, superset), anchor)
            assert part == expander.expand(form, [anchor]), (anchor, superset)
            parts.append(part)
        composed = expander.compose(form, parts)
        assert composed == joint  # seeds, ids, titles, every CycleFeatures
        # Shared, not copied: every cycle object comes from a part.
        owned = {id(f) for part in parts for f in part.cycles}
        assert all(id(f) in owned for f in composed.cycles)

        # The cap: a ball that reached max_nodes may have been cut.
        if len(ball) >= 2:
            capped = NeighborhoodCycleExpander(
                inner, radius=radius, max_nodes=len(ball)
            )
            assert capped.exact_ball(form, seeds) is None
        roomy = NeighborhoodCycleExpander(
            inner, radius=radius, max_nodes=len(ball) + 1
        )
        assert roomy.exact_ball(form, seeds) == ball


def test_who_never_composes(venice_world):
    graph, ids = venice_world
    seeds = frozenset([ids["venice"]])

    def exact(*args, **kwargs):
        return NeighborhoodCycleExpander(*args, **kwargs).exact_ball(graph, seeds)

    assert exact(engine="kernels") is not None
    assert exact(engine="dfs") is None  # the oracle always mines jointly
    for longest in (6, 7, 8):  # a cycle that long can leave a radius-2 ball
        assert exact(CycleExpander(lengths=(2, longest))) is None
    for radius, longest in ((1, 3), (2, 5)):
        inner = CycleExpander(lengths=(2, longest), engine="kernels")
        assert exact(inner, radius=radius) is not None
    assert exact(
        CycleExpander(lengths=(2, 4), engine="kernels"), radius=1
    ) is None

    class Redefined(NeighborhoodCycleExpander):
        def expand(self, graph, seed_articles):
            return super().expand(graph, seed_articles)

    assert Redefined(engine="kernels").exact_ball(graph, seeds) is None
    with pytest.raises(AnalysisError, match="not in graph"):  # as expand()
        NeighborhoodCycleExpander(engine="kernels").exact_ball(graph, OUTSIDE_IDS)
