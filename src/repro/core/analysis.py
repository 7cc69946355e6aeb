"""Aggregate analysis across queries: the series behind every figure.

Each query contributes :class:`CycleRecord` objects (one per anchored
cycle, with features and measured contribution).  The functions here fold
records from all queries into exactly the statistics the paper plots:

* Figure 5 — average contribution vs cycle length;
* Figure 6 — average number of cycles per query vs length;
* Figure 7a — average category ratio vs length;
* Figure 7b — average density of extra edges vs length;
* Figure 9 — density of extra edges vs average contribution (trend);
* the unexplored correlation of Section 4 (article cycle frequency vs
  expansion quality) as :func:`article_cycle_frequency`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.core.features import CycleFeatures

__all__ = [
    "FivePointSummary",
    "five_point_summary",
    "CycleRecord",
    "expansion_distance_histogram",
    "average_contribution_by_length",
    "average_count_by_length",
    "average_category_ratio_by_length",
    "average_density_by_length",
    "density_contribution_points",
    "binned_density_trend",
    "linear_trend",
    "article_cycle_frequency",
    "frequency_contribution_correlation",
]


@dataclass(frozen=True, slots=True)
class FivePointSummary:
    """min / 25 % / 50 % / 75 % / max, the shape of the paper's tables."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.minimum, self.q1, self.median, self.q3, self.maximum)

    def __str__(self) -> str:
        return (
            f"min={self.minimum:.3f} q1={self.q1:.3f} med={self.median:.3f} "
            f"q3={self.q3:.3f} max={self.maximum:.3f}"
        )


def five_point_summary(values: Iterable[float]) -> FivePointSummary:
    """Five-point summary of ``values`` (linear interpolation quartiles)."""
    import numpy as np

    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise AnalysisError("cannot summarise an empty sequence")
    q1, median, q3 = np.percentile(data, [25, 50, 75])
    return FivePointSummary(
        minimum=float(data.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(data.max()),
    )


@dataclass(frozen=True, slots=True)
class CycleRecord:
    """One anchored cycle of one query, with its measured contribution."""

    query_id: int
    features: CycleFeatures
    contribution: float  # percent, paper Section 3

    @property
    def length(self) -> int:
        return self.features.length


# ----------------------------------------------------------------------
# Figures 5–7: per-length averages
# ----------------------------------------------------------------------


def _group_by_length(records: Iterable[CycleRecord]) -> dict[int, list[CycleRecord]]:
    groups: dict[int, list[CycleRecord]] = defaultdict(list)
    for record in records:
        groups[record.length].append(record)
    return dict(groups)


def average_contribution_by_length(records: Iterable[CycleRecord]) -> dict[int, float]:
    """Figure 5: mean contribution (%) per cycle length."""
    import numpy as np

    return {
        length: float(np.mean([r.contribution for r in group]))
        for length, group in sorted(_group_by_length(records).items())
    }


def average_count_by_length(
    records: Iterable[CycleRecord], num_queries: int
) -> dict[int, float]:
    """Figure 6: mean number of cycles per query, per length."""
    if num_queries < 1:
        raise AnalysisError("num_queries must be >= 1")
    counts: dict[int, int] = defaultdict(int)
    for record in records:
        counts[record.length] += 1
    return {length: counts[length] / num_queries for length in sorted(counts)}


def average_category_ratio_by_length(
    records: Iterable[CycleRecord], *, min_length: int = 3
) -> dict[int, float]:
    """Figure 7a: mean category ratio per length (lengths < 3 cannot
    contain categories and are excluded, as in the paper)."""
    import numpy as np

    grouped = _group_by_length(r for r in records if r.length >= min_length)
    return {
        length: float(np.mean([r.features.category_ratio for r in group]))
        for length, group in sorted(grouped.items())
    }


def average_density_by_length(
    records: Iterable[CycleRecord], *, min_length: int = 3
) -> dict[int, float]:
    """Figure 7b: mean density of extra edges per length (defined-density
    cycles only)."""
    import numpy as np

    grouped = _group_by_length(r for r in records if r.length >= min_length)
    out: dict[int, float] = {}
    for length, group in sorted(grouped.items()):
        densities = [
            r.features.extra_edge_density
            for r in group
            if r.features.extra_edge_density is not None
        ]
        if densities:
            out[length] = float(np.mean(densities))
    return out


# ----------------------------------------------------------------------
# Figure 9: density vs contribution
# ----------------------------------------------------------------------


def density_contribution_points(
    records: Iterable[CycleRecord],
) -> list[tuple[float, float]]:
    """(density, contribution) pairs for cycles with defined density."""
    return [
        (record.features.extra_edge_density, record.contribution)
        for record in records
        if record.features.extra_edge_density is not None
    ]


def binned_density_trend(
    points: Sequence[tuple[float, float]], num_bins: int = 5
) -> list[tuple[float, float]]:
    """Mean contribution per density bin: ``[(bin centre, mean), ...]``.

    Empty bins are omitted.  This is the readable form of Figure 9's
    scatter-plus-trend.
    """
    import numpy as np

    if num_bins < 1:
        raise AnalysisError("num_bins must be >= 1")
    if not points:
        return []
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    out = []
    densities = np.array([p[0] for p in points])
    contributions = np.array([p[1] for p in points])
    for low, high in zip(edges[:-1], edges[1:]):
        mask = (densities >= low) & (densities < high if high < 1.0 else densities <= high)
        if mask.any():
            out.append((float((low + high) / 2), float(contributions[mask].mean())))
    return out


def linear_trend(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope and intercept of y on x.

    The paper's Figure 9 claim is a positive slope ("the denser the cycle,
    the better its contribution"); this provides the number to assert.
    """
    import numpy as np

    if len(points) < 2:
        raise AnalysisError("need at least two points for a trend line")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if np.allclose(xs, xs[0]):
        raise AnalysisError("trend line undefined: all x values are equal")
    slope, intercept = np.polyfit(xs, ys, deg=1)
    return float(slope), float(intercept)


# ----------------------------------------------------------------------
# Section 3 aside: distance of expansion features from the query articles
# ----------------------------------------------------------------------


def expansion_distance_histogram(query_graph) -> dict[int, int]:
    """Hop distance from ``L(q.k)`` to each expansion article of ``G(q)``.

    The paper notes (query #90) "expansion features being up to distance
    three from query articles".  Unreachable features count under -1.
    Returns an empty dict when the query graph has no seeds or no
    expansion articles.
    """
    from repro.wiki.paths import distance_histogram  # local import: avoid cycle

    if not query_graph.seed_articles or not query_graph.expansion_articles:
        return {}
    return distance_histogram(
        query_graph.graph,
        query_graph.seed_articles,
        query_graph.expansion_articles,
    )


# ----------------------------------------------------------------------
# Section 4 extension: article frequency across cycles
# ----------------------------------------------------------------------


def article_cycle_frequency(
    records: Iterable[CycleRecord], graph
) -> dict[int, int]:
    """How many recorded cycles each *article* appears in.

    Articles only: the prospective expansion features are article titles.
    """
    frequency: dict[int, int] = defaultdict(int)
    for record in records:
        for node in record.features.cycle.nodes:
            if graph.is_article(node):
                frequency[node] += 1
    return dict(frequency)


def frequency_contribution_correlation(
    records: Sequence[CycleRecord], graph
) -> float:
    """Pearson correlation between an article's cycle frequency and the
    mean contribution of the cycles containing it.

    This quantifies the correlation the paper explicitly leaves
    unexplored ("We have not analysed how the frequency of a given article
    in the cycles and the goodness of its title ... are correlated").
    Raises :class:`AnalysisError` when fewer than two articles appear or
    variance vanishes.
    """
    import numpy as np

    per_article: dict[int, list[float]] = defaultdict(list)
    for record in records:
        for node in record.features.cycle.nodes:
            if graph.is_article(node):
                per_article[node].append(record.contribution)
    if len(per_article) < 2:
        raise AnalysisError("need at least two distinct articles")
    frequencies = np.array([len(v) for v in per_article.values()], dtype=float)
    mean_contributions = np.array([np.mean(v) for v in per_article.values()])
    if np.allclose(frequencies, frequencies[0]) or np.allclose(
        mean_contributions, mean_contributions[0]
    ):
        raise AnalysisError("correlation undefined: zero variance")
    return float(np.corrcoef(frequencies, mean_contributions)[0, 1])
