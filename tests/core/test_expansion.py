"""Unit tests for the expanders."""

import pytest

from repro.core import (
    CycleExpander,
    DirectLinkExpander,
    NeighborhoodCycleExpander,
    NullExpander,
    RedirectExpander,
)
from repro.errors import AnalysisError


class TestNullExpander:
    def test_returns_nothing(self, venice_world):
        graph, ids = venice_world
        result = NullExpander().expand(graph, [ids["venice"]])
        assert result.article_ids == frozenset()
        assert result.titles == ()
        assert result.num_features == 0

    def test_all_titles_includes_seeds(self, venice_world):
        graph, ids = venice_world
        result = NullExpander().expand(graph, [ids["venice"]])
        assert result.all_titles(graph) == ["venice"]


class TestDirectLinkExpander:
    def test_links_from_seed(self, venice_world):
        graph, ids = venice_world
        result = DirectLinkExpander().expand(graph, [ids["venice"]])
        assert ids["cannaregio"] in result.article_ids
        assert ids["canal"] in result.article_ids
        assert ids["sheep"] in result.article_ids  # links are undiscriminating
        assert ids["palazzo"] not in result.article_ids  # two hops away

    def test_max_features_cap(self, venice_world):
        graph, ids = venice_world
        result = DirectLinkExpander(max_features=1).expand(graph, [ids["venice"]])
        assert result.num_features == 1

    def test_bad_cap(self):
        with pytest.raises(AnalysisError):
            DirectLinkExpander(max_features=0)

    def test_seeds_excluded(self, venice_world):
        graph, ids = venice_world
        result = DirectLinkExpander().expand(
            graph, [ids["venice"], ids["cannaregio"]]
        )
        assert ids["venice"] not in result.article_ids
        assert ids["cannaregio"] not in result.article_ids


class TestCycleExpander:
    def test_default_takes_all_cycle_articles(self, venice_world):
        graph, ids = venice_world
        result = CycleExpander().expand(graph, [ids["venice"]])
        assert ids["cannaregio"] in result.article_ids
        assert ids["canal"] in result.article_ids
        assert ids["sheep"] in result.article_ids  # no filters yet

    def test_length_filter(self, venice_world):
        graph, ids = venice_world
        result = CycleExpander(lengths=(2,)).expand(graph, [ids["venice"]])
        assert result.article_ids == frozenset({ids["cannaregio"]})

    def test_category_ratio_filter_drops_distractors(self, venice_world):
        graph, ids = venice_world
        # At 0.3 the category-free distractor triangle fails, and so does
        # the venice-sheep-farming-anthrax 4-cycle (ratio 0.25).
        result = CycleExpander(min_category_ratio=0.3).expand(graph, [ids["venice"]])
        assert ids["sheep"] not in result.article_ids
        assert ids["anthrax"] not in result.article_ids
        assert ids["canal"] in result.article_ids  # triangle with category

    def test_distractors_survive_via_categorised_long_cycle(self, venice_world):
        """A lenient ratio bound readmits the distractors through the
        4-cycle they close with their shared background category."""
        graph, ids = venice_world
        result = CycleExpander(min_category_ratio=0.25).expand(graph, [ids["venice"]])
        assert ids["sheep"] in result.article_ids

    def test_two_cycles_exempt_from_min_ratio(self, venice_world):
        graph, ids = venice_world
        result = CycleExpander(min_category_ratio=0.3).expand(graph, [ids["venice"]])
        assert ids["cannaregio"] in result.article_ids

    def test_exclude_category_free_switch(self, venice_world):
        graph, ids = venice_world
        result = CycleExpander(lengths=(2, 3), exclude_category_free=True).expand(
            graph, [ids["venice"]]
        )
        assert ids["sheep"] not in result.article_ids
        assert ids["cannaregio"] in result.article_ids  # length 2 exempt

    def test_density_filter(self, venice_world):
        graph, ids = venice_world
        # Only the chorded triangle (density 1.0) survives a high threshold.
        result = CycleExpander(min_extra_edge_density=0.9).expand(
            graph, [ids["venice"]]
        )
        articles = result.article_ids
        assert ids["cannaregio"] in articles
        assert ids["palazzo"] not in articles

    def test_cycles_provenance_recorded(self, venice_world):
        graph, ids = venice_world
        result = CycleExpander(lengths=(2, 3)).expand(graph, [ids["venice"]])
        assert result.cycles
        assert all(f.length in (2, 3) for f in result.cycles)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            CycleExpander(lengths=())
        with pytest.raises(AnalysisError):
            CycleExpander(lengths=(1,))
        with pytest.raises(AnalysisError):
            CycleExpander(min_category_ratio=0.8, max_category_ratio=0.2)
        with pytest.raises(AnalysisError):
            CycleExpander(min_extra_edge_density=1.5)

    def test_titles_match_ids(self, venice_world):
        graph, ids = venice_world
        result = CycleExpander(lengths=(2,)).expand(graph, [ids["venice"]])
        assert result.titles == ("cannaregio",)


class TestNeighborhoodCycleExpander:
    def test_same_result_as_direct_on_small_world(self, venice_world):
        graph, ids = venice_world
        direct = CycleExpander(lengths=(2, 3)).expand(graph, [ids["venice"]])
        hood = NeighborhoodCycleExpander(
            CycleExpander(lengths=(2, 3)), radius=2, max_nodes=100
        ).expand(graph, [ids["venice"]])
        assert hood.article_ids == direct.article_ids

    def test_max_nodes_caps_ball(self, venice_world):
        graph, ids = venice_world
        expander = NeighborhoodCycleExpander(radius=3, max_nodes=3)
        ball = expander.neighborhood(graph, frozenset({ids["venice"]}))
        assert len(ball) == 3

    def test_unknown_seed(self, venice_world):
        graph, _ = venice_world
        with pytest.raises(AnalysisError):
            NeighborhoodCycleExpander().expand(graph, [404_404])

    def test_validation(self):
        with pytest.raises(AnalysisError):
            NeighborhoodCycleExpander(radius=0)
        with pytest.raises(AnalysisError):
            NeighborhoodCycleExpander(max_nodes=1)


class TestRedirectExpander:
    def test_adds_redirect_titles(self, venice_world):
        graph, ids = venice_world
        inner = CycleExpander(lengths=(2,))
        result = RedirectExpander(inner).expand(graph, [ids["venice"]])
        # cannaregio is selected by the inner expander; its redirect
        # 'gondole' joins the feature set.
        assert ids["cannaregio"] in result.article_ids
        assert ids["gondole"] in result.article_ids

    def test_seed_redirects_optional(self, venice_world):
        graph, ids = venice_world
        inner = NullExpander()
        with_seed = RedirectExpander(inner, include_seed_redirects=True).expand(
            graph, [ids["cannaregio"]]
        )
        assert ids["gondole"] in with_seed.article_ids
        without = RedirectExpander(inner, include_seed_redirects=False).expand(
            graph, [ids["cannaregio"]]
        )
        assert ids["gondole"] not in without.article_ids

    def test_provenance_preserved(self, venice_world):
        graph, ids = venice_world
        inner = CycleExpander(lengths=(2,))
        result = RedirectExpander(inner).expand(graph, [ids["venice"]])
        assert result.cycles  # inherited from the inner expander
