"""Kernel-vs-DFS equivalence: the bitset engine must be bit-identical.

The kernels in :mod:`repro.core.cycle_kernels` are the default engine
behind :class:`CycleFinder`; the DFS stays as the oracle.  These tests
sweep seeded synthetic worlds (sparse, dense, star, clique — all with
redirect satellites), every (min_length, max_length) window in 2..5 and
several anchor sets, and require the two engines to agree *node for
node, in order* — not just as sets — on both the dict-backed
:class:`WikiGraph` and the CSR-backed compact views.  The ``max_cycles``
tripwire, the ``count_by_length`` census and the feature rows must match
too.
"""

import os
import random

import pytest

from repro.core import CycleFinder, KernelBall, find_cycles, resolve_engine
from repro.core.cycle_kernels import KERNEL_MAX_LENGTH
from repro.core.cycles import ENGINE_ENV_VAR
from repro.core.features import compute_features
from repro.errors import AnalysisError
from repro.wiki import WikiGraphBuilder
from repro.wiki.compact import CompactGraphView

LENGTH_WINDOWS = [
    (lo, hi) for lo in range(2, 6) for hi in range(2, 6) if lo <= hi
]


def build_world(kind: str, seed: int):
    """One seeded synthetic world; returns (graph, articles, categories).

    Redirect articles carry only their REDIRECT edge — the builder
    forbids link/belongs edges on them — so every world also checks that
    both engines ignore redirects identically.
    """
    rng = random.Random(seed)
    builder = WikiGraphBuilder()
    num_articles = {"sparse": 14, "dense": 10, "star": 12, "clique": 7}[kind]
    articles = [builder.add_article(f"a{i}") for i in range(num_articles)]
    categories = [builder.add_category(f"c{i}") for i in range(4)]

    for article in articles:
        chosen = [c for c in categories if rng.random() < 0.25]
        for category in chosen or [rng.choice(categories)]:
            builder.add_belongs(article, category)

    if kind == "star":
        hub, leaves = articles[0], articles[1:]
        for leaf in leaves:
            builder.add_link(hub, leaf)
            if rng.random() < 0.5:
                builder.add_link(leaf, hub)
        for _ in range(6):  # a few leaf-to-leaf chords
            u, v = rng.sample(leaves, 2)
            builder.add_link(u, v)
    else:
        link_prob = {"sparse": 0.10, "dense": 0.35, "clique": 1.0}[kind]
        for u in articles:
            for v in articles:
                if u != v and rng.random() < link_prob:
                    builder.add_link(u, v)

    for i, child in enumerate(categories):
        for parent in categories[i + 1:]:
            if rng.random() < 0.4:
                builder.add_inside(child, parent)

    for i in range(2):
        redirect = builder.add_article(f"r{i}", is_redirect=True)
        builder.add_redirect(redirect, rng.choice(articles))

    return builder.build(), articles, categories


def anchor_options(rng: random.Random, articles):
    return [
        None,
        frozenset(),
        frozenset([rng.choice(articles)]),
        frozenset(rng.sample(articles, 3)),
    ]


@pytest.mark.parametrize("kind", ["sparse", "dense", "star", "clique"])
def test_kernels_match_dfs_node_for_node(kind):
    """Every window x anchor set: identical lists on the dict graph."""
    for seed in (3, 11):
        graph, articles, _ = build_world(kind, seed)
        rng = random.Random(seed * 101)
        for lo, hi in LENGTH_WINDOWS:
            for anchors in anchor_options(rng, articles):
                dfs = CycleFinder(
                    graph, min_length=lo, max_length=hi, engine="dfs"
                ).find(anchors)
                ker = CycleFinder(
                    graph, min_length=lo, max_length=hi, engine="kernels"
                ).find(anchors)
                assert [c.nodes for c in ker] == [c.nodes for c in dfs], (
                    kind, seed, lo, hi, anchors,
                )
                if anchors == frozenset():
                    assert ker == []


@pytest.mark.parametrize("kind", ["dense", "star"])
def test_kernels_match_dfs_on_compact_views(kind):
    """The CSR fast path (full view and keep-set subgraph) agrees too."""
    graph, articles, _ = build_world(kind, 5)
    view = CompactGraphView.from_graph(graph)
    keep = set(articles[: len(articles) // 2 + 2])
    sub = view.induced_subgraph(keep)
    rng = random.Random(55)
    for compact in (view, sub):
        pool = sorted(keep) if compact is sub else articles
        for lo, hi in [(2, 2), (2, 4), (3, 5), (2, 5)]:
            for anchors in (None, frozenset(rng.sample(pool, 2))):
                dfs = CycleFinder(
                    compact, min_length=lo, max_length=hi, engine="dfs"
                ).find(anchors)
                ker = CycleFinder(
                    compact, min_length=lo, max_length=hi, engine="kernels"
                ).find(anchors)
                assert [c.nodes for c in ker] == [c.nodes for c in dfs]


def test_compact_view_matches_dict_graph():
    """Same graph, CSR rows vs adjacency dicts: identical kernel output."""
    graph, _, _ = build_world("dense", 9)
    view = CompactGraphView.from_graph(graph)
    for lo, hi in [(2, 5), (3, 4)]:
        from_dict = CycleFinder(
            graph, min_length=lo, max_length=hi, engine="kernels"
        ).find()
        from_csr = CycleFinder(
            view, min_length=lo, max_length=hi, engine="kernels"
        ).find()
        assert [c.nodes for c in from_csr] == [c.nodes for c in from_dict]


def test_venice_world_equivalence(venice_world):
    graph, ids = venice_world
    for anchors in (None, [ids["venice"]], [ids["sheep"]]):
        dfs = CycleFinder(graph, max_length=5, engine="dfs").find(anchors)
        ker = CycleFinder(graph, max_length=5, engine="kernels").find(anchors)
        assert ker == dfs


def test_count_by_length_matches_find():
    graph, articles, _ = build_world("dense", 21)
    rng = random.Random(21)
    for lo, hi in LENGTH_WINDOWS:
        for anchors in anchor_options(rng, articles):
            dfs_finder = CycleFinder(
                graph, min_length=lo, max_length=hi, engine="dfs"
            )
            ker_finder = CycleFinder(
                graph, min_length=lo, max_length=hi, engine="kernels"
            )
            census = ker_finder.count_by_length(anchors)
            assert census == dfs_finder.count_by_length(anchors)
            assert set(census) == set(range(lo, hi + 1))
            by_length = {length: 0 for length in range(lo, hi + 1)}
            for cycle in dfs_finder.find(anchors):
                by_length[cycle.length] += 1
            assert census == by_length


def test_find_features_matches_compute_features():
    graph, articles, _ = build_world("dense", 33)
    anchors = frozenset(articles[:3])
    for engine in ("dfs", "kernels"):
        finder = CycleFinder(graph, max_length=5, engine=engine)
        rows = finder.find_with_features(anchors)
        assert [f.cycle for f in rows] == finder.find(anchors)
        for features in rows:
            assert features == compute_features(graph, features.cycle)


def test_find_features_accept_prefilter_is_engine_identical():
    graph, _, _ = build_world("dense", 41)

    def accept(length, num_articles, num_edges):
        return length > 2 and num_articles < length and num_edges > length

    dfs = CycleFinder(graph, max_length=5, engine="dfs")
    ker = CycleFinder(graph, max_length=5, engine="kernels")
    assert ker.find_with_features(accept=accept) == \
        dfs.find_with_features(accept=accept)
    # The prefilter only drops rows; it must be a pure subset.
    kept = {f.cycle.nodes for f in ker.find_with_features(accept=accept)}
    everything = {f.cycle.nodes for f in ker.find_with_features()}
    assert kept < everything


class TestMaxCyclesTripwire:
    def _world(self):
        graph, articles, _ = build_world("clique", 13)
        return graph, articles

    def test_both_engines_raise_identically(self):
        graph, _ = self._world()
        total = len(CycleFinder(graph, max_length=5).find())
        assert total > 10
        messages = set()
        for engine in ("dfs", "kernels"):
            finder = CycleFinder(
                graph, max_length=5, max_cycles=total - 1, engine=engine
            )
            with pytest.raises(AnalysisError) as excinfo:
                finder.find()
            messages.add(str(excinfo.value))
        assert len(messages) == 1  # same message, same threshold
        assert str(total - 1) in messages.pop()

    def test_limit_at_total_is_fine_in_both(self):
        graph, _ = self._world()
        total = len(CycleFinder(graph, max_length=5).find())
        for engine in ("dfs", "kernels"):
            found = CycleFinder(
                graph, max_length=5, max_cycles=total, engine=engine
            ).find()
            assert len(found) == total

    def test_two_cycles_count_toward_the_limit(self):
        builder = WikiGraphBuilder(strict=False)
        a = builder.add_article("a")
        b = builder.add_article("b")
        builder.add_link(a, b)
        builder.add_link(b, a)
        graph = builder.build()
        for engine in ("dfs", "kernels"):
            with pytest.raises(AnalysisError):
                CycleFinder(
                    graph, max_length=2, max_cycles=0, engine=engine
                ).find()

    def test_count_by_length_fires_the_same_tripwire(self):
        graph, _ = self._world()
        total = len(CycleFinder(graph, max_length=5).find())
        for engine in ("dfs", "kernels"):
            finder = CycleFinder(
                graph, max_length=5, max_cycles=total - 1, engine=engine
            )
            with pytest.raises(AnalysisError):
                finder.count_by_length()


class TestEngineResolution:
    def test_default_is_kernels(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert resolve_engine(None, 5) == "kernels"
        graph, _, _ = build_world("sparse", 1)
        assert CycleFinder(graph).engine == "kernels"

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "kernels")
        assert resolve_engine("dfs", 5) == "dfs"

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "dfs")
        assert resolve_engine(None, 5) == "dfs"
        graph, _, _ = build_world("sparse", 1)
        assert CycleFinder(graph).engine == "dfs"
        monkeypatch.setenv(ENGINE_ENV_VAR, "")
        assert resolve_engine(None, 5) == "kernels"

    def test_unknown_engine_rejected(self):
        with pytest.raises(AnalysisError, match="unknown cycle engine"):
            resolve_engine("networkx", 5)

    def test_long_windows_fall_back_to_dfs(self):
        assert resolve_engine("kernels", KERNEL_MAX_LENGTH + 1) == "dfs"
        assert resolve_engine(None, KERNEL_MAX_LENGTH + 1) == "dfs"
        graph, _, _ = build_world("sparse", 2)
        finder = CycleFinder(graph, max_length=6)
        assert finder.engine == "dfs"
        assert finder.find() == CycleFinder(
            graph, max_length=6, engine="dfs"
        ).find()

    def test_find_cycles_forwards_engine(self, venice_world):
        graph, ids = venice_world
        assert find_cycles(graph, anchors=[ids["venice"]], engine="dfs") == \
            find_cycles(graph, anchors=[ids["venice"]], engine="kernels")


def test_kernel_ball_builds_from_both_protocols():
    """CSR-backed and API-backed balls describe the same bitset rows."""
    graph, _, _ = build_world("dense", 17)
    view = CompactGraphView.from_graph(graph)
    from_api = KernelBall.build(graph)
    from_csr = KernelBall.build(view)
    assert from_api.ids == from_csr.ids
    assert from_api.adj == from_csr.adj
    assert from_api.mutual == from_csr.mutual
    assert from_api.articles == from_csr.articles


def test_kind_constants_stay_in_sync_with_compact():
    """cycle_kernels mirrors compact.py's CSR bits instead of importing
    them (core must not depend on wiki at module import time); this test
    is the tripwire that keeps the two definitions identical."""
    from repro.core import cycle_kernels
    from repro.wiki import compact

    assert cycle_kernels._LINK_OUT == compact.LINK_OUT
    assert cycle_kernels._LINK_IN == compact.LINK_IN
    assert cycle_kernels._FLAG_ARTICLE == compact._FLAG_ARTICLE


def test_engine_env_var_matches_ci_matrix_leg():
    """CI's dfs matrix leg exports this exact variable name."""
    assert ENGINE_ENV_VAR == "REPRO_CYCLE_ENGINE"
    assert os.environ.get(ENGINE_ENV_VAR, "") in ("", "dfs", "kernels")
