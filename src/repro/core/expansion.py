"""Query expanders: turning graph structure into expansion features.

The paper's finding is that *cycles* through the query articles — dense
ones, with roughly 30 % categories — identify the best expansion features.
:class:`CycleExpander` implements that selection rule over a query graph;
:class:`NeighborhoodCycleExpander` lifts it to the full Wikipedia graph
(the "real query expansion system" the paper leaves as future work) by
mining cycles in a bounded neighbourhood of the query articles.

Baselines for the benchmarks:

* :class:`NullExpander` — no expansion (the raw keywords);
* :class:`DirectLinkExpander` — titles of articles directly linked from
  the query articles, the strategy of the prior work the paper contrasts
  with ([1, 2, 3]: "individual links of each article, without going deeper
  into further relationships").

Extension (Section 4 future work): :class:`RedirectExpander` decorates any
expander with the redirect titles of its selected articles — redirects can
never close a cycle, so the cycle analysis alone never surfaces them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field

from repro.errors import AnalysisError
from repro.core.cycle_kernels import AcceptTable
from repro.core.cycles import Cycle, CycleFinder, resolve_engine
from repro.core.features import CycleFeatures
from repro.wiki.graph import WikiGraph

__all__ = [
    "ExpansionResult",
    "Expander",
    "NullExpander",
    "DirectLinkExpander",
    "CycleExpander",
    "NeighborhoodCycleExpander",
    "RedirectExpander",
]


@dataclass(frozen=True, slots=True)
class ExpansionResult:
    """Expansion features selected for one query.

    ``article_ids`` excludes the seed articles; ``titles`` are the strings
    to append to the query.  ``cycles`` records provenance when the
    expander is cycle-based (empty otherwise).
    """

    seed_articles: frozenset[int]
    article_ids: frozenset[int]
    titles: tuple[str, ...]
    cycles: tuple[CycleFeatures, ...] = field(default=())

    @property
    def num_features(self) -> int:
        return len(self.article_ids)

    def all_titles(self, graph: WikiGraph) -> list[str]:
        """Seed titles followed by expansion titles (the full query)."""
        seed_titles = [graph.title(a) for a in sorted(self.seed_articles)]
        return seed_titles + list(self.titles)


class Expander(ABC):
    """Interface: select expansion features around seed articles."""

    @abstractmethod
    def expand(self, graph: WikiGraph, seed_articles: Iterable[int]) -> ExpansionResult:
        """Return expansion features for ``seed_articles`` within ``graph``."""

    @staticmethod
    def _result(
        graph: WikiGraph,
        seeds: frozenset[int],
        selected: set[int],
        cycles: tuple[CycleFeatures, ...] = (),
    ) -> ExpansionResult:
        selected -= seeds
        ordered = sorted(selected)
        return ExpansionResult(
            seed_articles=seeds,
            article_ids=frozenset(ordered),
            titles=tuple(graph.title(a) for a in ordered),
            cycles=cycles,
        )


class NullExpander(Expander):
    """No expansion: the baseline of using only the original keywords."""

    def expand(self, graph: WikiGraph, seed_articles: Iterable[int]) -> ExpansionResult:
        seeds = frozenset(seed_articles)
        return self._result(graph, seeds, set())


class DirectLinkExpander(Expander):
    """Expansion features = articles directly linked from the seeds.

    ``max_features`` caps the output (highest in-link overlap first would
    require global stats; we keep the deterministic id order instead,
    which matches how link-based prior work enumerates anchors).
    """

    def __init__(self, max_features: int | None = None) -> None:
        if max_features is not None and max_features < 1:
            raise AnalysisError("max_features must be >= 1 or None")
        self._max_features = max_features

    def expand(self, graph: WikiGraph, seed_articles: Iterable[int]) -> ExpansionResult:
        seeds = frozenset(seed_articles)
        selected: set[int] = set()
        for seed in sorted(seeds):
            for target in graph.links_from(seed):
                if not graph.article(target).is_redirect:
                    selected.add(target)
        selected -= seeds
        if self._max_features is not None:
            selected = set(sorted(selected)[: self._max_features])
        return self._result(graph, seeds, selected)


class CycleExpander(Expander):
    """The paper's rule: expansion features from qualifying cycles.

    Parameters
    ----------
    lengths:
        Cycle lengths to use (Table 4 evaluates {2}, {3}, ..., {2,3,4,5}).
    min_category_ratio / max_category_ratio:
        Bounds on the per-cycle category ratio.  The paper's conclusion
        singles out "dense cycles, in which the ratio of categories stands
        around the 30 %"; ``min_category_ratio=0.2, max_category_ratio=0.5``
        approximates that band.  Length-2 cycles cannot contain categories
        and are exempt from the *minimum* bound (the paper keeps using
        them — they are its best contributors).
    min_extra_edge_density:
        Minimum chord density; cycles whose density is undefined (no chord
        possible) pass the filter.
    exclude_category_free:
        Drop article-only cycles of length >= 3 (the Figure 8 hazard).
        Subsumed by ``min_category_ratio`` > 0; kept as an explicit switch
        for the ablation.
    engine:
        Cycle-mining engine handed to :class:`CycleFinder` (``"kernels"``
        default / ``"dfs"`` oracle).  Engines are bit-identical.
    """

    def __init__(
        self,
        lengths: Iterable[int] = (2, 3, 4, 5),
        *,
        min_category_ratio: float = 0.0,
        max_category_ratio: float = 1.0,
        min_extra_edge_density: float = 0.0,
        exclude_category_free: bool = False,
        max_cycles: int = 1_000_000,
        engine: str | None = None,
    ) -> None:
        self._lengths = frozenset(lengths)
        if not self._lengths:
            raise AnalysisError("lengths must be non-empty")
        if min(self._lengths) < 2 or max(self._lengths) > 8:
            raise AnalysisError("cycle lengths must lie in 2..8")
        if not 0.0 <= min_category_ratio <= max_category_ratio <= 1.0:
            raise AnalysisError("category ratio bounds must satisfy 0 <= min <= max <= 1")
        if not 0.0 <= min_extra_edge_density <= 1.0:
            raise AnalysisError("min_extra_edge_density must be in [0, 1]")
        self._min_category_ratio = min_category_ratio
        self._max_category_ratio = max_category_ratio
        self._min_density = min_extra_edge_density
        self._exclude_category_free = exclude_category_free
        self._max_cycles = max_cycles
        # Validate eagerly (and pin the DFS fallback for lengths > 5).
        self._engine = resolve_engine(engine, max(self._lengths))
        # accepts() tabulated once for the kernels' inner loop; subclasses
        # that override accepts() filter materialised features instead.
        self._accept = (
            AcceptTable(self._prefilter())
            if type(self).accepts is CycleExpander.accepts
            else None
        )

    @property
    def engine(self) -> str:
        """The resolved cycle-mining engine (for trace-span labelling)."""
        return self._engine

    def accepts(self, features: CycleFeatures) -> bool:
        """Whether one cycle passes every configured filter."""
        if features.length not in self._lengths:
            return False
        ratio = features.category_ratio
        if features.length > 2 and ratio < self._min_category_ratio:
            return False
        if ratio > self._max_category_ratio:
            return False
        if self._exclude_category_free and features.length > 2 and features.is_category_free:
            return False
        density = features.extra_edge_density
        if density is not None and density < self._min_density:
            return False
        return True

    def _prefilter(self):
        """:meth:`accepts` as a raw ``(length, A(C), E(C))`` predicate.

        A function of the constructor arguments alone, so it is
        tabulated once per expander (``self._accept``) and handed to
        :meth:`CycleFinder.find_with_features`: the kernel engine reads
        the table, the DFS engine calls the predicate, and both drop
        rejected cycles before canonicalisation or any object build.
        Only valid when :meth:`accepts` is not overridden.
        """
        lengths = self._lengths
        min_ratio = self._min_category_ratio
        max_ratio = self._max_category_ratio
        min_density = self._min_density
        exclude_free = self._exclude_category_free

        def accept(length: int, num_articles: int, num_edges: int) -> bool:
            if length not in lengths:
                return False
            num_categories = length - num_articles
            ratio = num_categories / length
            if length > 2 and ratio < min_ratio:
                return False
            if ratio > max_ratio:
                return False
            if exclude_free and length > 2 and num_categories == 0:
                return False
            max_possible = (
                num_articles * (num_articles - 1)
                + num_articles * num_categories
                + num_categories * (num_categories - 1) // 2
            )
            slack = max_possible - length
            if slack > 0 and (num_edges - length) / slack < min_density:
                return False
            return True

        return accept

    def qualifying_cycles(
        self, graph: WikiGraph, seeds: frozenset[int]
    ) -> list[CycleFeatures]:
        """All anchored cycles passing the filters, with their features.

        Goes through :meth:`CycleFinder.find_with_features` so the kernel
        engine computes ``A(C)``/``E(C)`` from its bitset rows instead of
        re-scanning each cycle's adjacency (the second-hottest loop of a
        cold expansion, after enumeration itself).
        """
        finder = CycleFinder(
            graph,
            min_length=min(self._lengths),
            max_length=max(self._lengths),
            max_cycles=self._max_cycles,
            engine=self._engine,
        )
        features = finder.find_with_features(anchors=seeds, accept=self._accept)
        if self._accept is None:
            features = [f for f in features if self.accepts(f)]
        return features

    def expand(self, graph: WikiGraph, seed_articles: Iterable[int]) -> ExpansionResult:
        seeds = frozenset(seed_articles)
        qualifying = self.qualifying_cycles(graph, seeds)
        is_article = graph.is_article
        selected = {n for f in qualifying for n in f.cycle.nodes if is_article(n)}
        return self._result(graph, seeds, selected, cycles=tuple(qualifying))


class NeighborhoodCycleExpander(Expander):
    """Cycle expansion over the full graph, bounded by a neighbourhood.

    Extracts the ``radius``-hop undirected neighbourhood of the seeds
    (capped at ``max_nodes`` by BFS order), then runs a
    :class:`CycleExpander` inside it.  This is the shape a deployed system
    would use — it needs no ground truth, only the knowledge graph.
    """

    def __init__(
        self,
        cycle_expander: CycleExpander | None = None,
        *,
        radius: int = 2,
        max_nodes: int = 400,
        engine: str | None = None,
    ) -> None:
        if radius < 1:
            raise AnalysisError("radius must be >= 1")
        if max_nodes < 2:
            raise AnalysisError("max_nodes must be >= 2")
        if cycle_expander is not None and engine is not None:
            raise AnalysisError(
                "pass engine on the inner CycleExpander, not both"
            )
        # Default filters = the paper's conclusion: *dense* cycles whose
        # category ratio stands around 30 %.  On the benchmark, dropping
        # the density bound admits distractor cycles and collapses top-1
        # precision (see benchmarks/test_ablation_expander_filters.py).
        self._expander = cycle_expander or CycleExpander(
            min_category_ratio=0.25,
            max_category_ratio=0.5,
            min_extra_edge_density=0.3,
            engine=engine,
        )
        self._radius = radius
        self._max_nodes = max_nodes

    @property
    def engine(self) -> str:
        """The inner expander's resolved cycle-mining engine."""
        return self._expander.engine

    def neighborhood(self, graph: WikiGraph, seeds: frozenset[int]) -> set[int]:
        """BFS ball around the seeds, deterministic, size-capped."""
        frontier = sorted(seeds)
        nodes: set[int] = set(frontier)
        for _ in range(self._radius):
            next_frontier: list[int] = []
            for node in frontier:
                for neighbor in sorted(graph.undirected_neighbors(node)):
                    if neighbor not in nodes:
                        nodes.add(neighbor)
                        next_frontier.append(neighbor)
                        if len(nodes) >= self._max_nodes:
                            return nodes
            frontier = next_frontier
        return nodes

    def _seeds(self, graph: WikiGraph, seed_articles: Iterable[int]) -> frozenset[int]:
        seeds = frozenset(seed_articles)
        missing = [s for s in seeds if s not in graph]
        if missing:
            raise AnalysisError(f"seed articles not in graph: {missing[:3]}")
        return seeds

    def expand(self, graph: WikiGraph, seed_articles: Iterable[int]) -> ExpansionResult:
        seeds = self._seeds(graph, seed_articles)
        return self.mine(graph, seeds, self.neighborhood(graph, seeds))

    def mine(self, graph: WikiGraph, seeds: frozenset[int], ball) -> ExpansionResult:
        """:meth:`expand` inside the seeds' ball, already walked."""
        return self._expander.expand(graph.induced_subgraph(ball), seeds)

    def exact_ball(self, graph: WikiGraph, seed_articles: Iterable[int]) -> set[int] | None:
        """The seeds' ball when their expansion is exactly the
        :meth:`compose` of each seed's own: a cycle of length <= 2·radius
        + 1 through a seed stays within ``radius`` hops of it, so in an
        uncut ball it is the same cycle whatever was mined beside it.
        ``None`` otherwise, for the DFS oracle engine and for subclasses
        with an ``expand`` of their own."""
        inner = self._expander
        exact = inner.engine != "dfs" and max(inner._lengths) <= 2 * self._radius + 1
        if not exact or type(self).expand is not NeighborhoodCycleExpander.expand:
            return None
        ball = self.neighborhood(graph, self._seeds(graph, seed_articles))
        return ball if len(ball) < self._max_nodes else None

    def split(self, graph: WikiGraph, mined: ExpansionResult, anchor: int) -> ExpansionResult:
        """``expand(graph, {anchor})``, cut from a result whose seeds hold
        ``anchor`` and had an :meth:`exact_ball`."""
        cycles = tuple(f for f in mined.cycles if anchor in f.cycle.nodes)
        nodes = set().union(*(f.cycle.nodes for f in cycles))
        selected = nodes & (mined.article_ids | mined.seed_articles)
        return self._result(graph, frozenset((anchor,)), selected, cycles)

    def compose(self, graph: WikiGraph, parts: Collection[ExpansionResult]) -> ExpansionResult:
        """The parts' seeds expanded together: their cycles united by
        node tuple (objects shared), in ``find_with_features`` order."""
        merged = {f.cycle.nodes: f for part in parts for f in part.cycles}
        return self._result(
            graph,
            frozenset().union(*(part.seed_articles for part in parts)),
            set().union(*(part.article_ids for part in parts)),
            tuple(merged[n] for n in sorted(merged, key=lambda n: (len(n), n))),
        )


class RedirectExpander(Expander):
    """Decorator: add redirect titles of the inner expander's features.

    Implements the paper's future-work idea that redirect titles — "less
    common ways to refer a concept" — may be good expansion features even
    though they can never close a cycle themselves.
    """

    def __init__(self, inner: Expander, *, include_seed_redirects: bool = True) -> None:
        self._inner = inner
        self._include_seed_redirects = include_seed_redirects

    def expand(self, graph: WikiGraph, seed_articles: Iterable[int]) -> ExpansionResult:
        base = self._inner.expand(graph, seed_articles)
        selected = set(base.article_ids)
        sources = set(base.article_ids)
        if self._include_seed_redirects:
            sources |= base.seed_articles
        for article_id in sorted(sources):
            selected.update(graph.redirects_of(article_id))
        return self._result(graph, base.seed_articles, selected, cycles=base.cycles)
