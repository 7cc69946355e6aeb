"""The paper's contribution: ground-truth construction, query graphs,
cycle enumeration and features, cycle-based expansion, and the aggregate
analysis behind every table and figure."""

from repro.core.analysis import (
    CycleRecord,
    FivePointSummary,
    article_cycle_frequency,
    average_category_ratio_by_length,
    average_contribution_by_length,
    average_count_by_length,
    average_density_by_length,
    binned_density_trend,
    density_contribution_points,
    expansion_distance_histogram,
    five_point_summary,
    frequency_contribution_correlation,
    linear_trend,
)
from repro.core.cycle_kernels import KernelBall
from repro.core.cycles import Cycle, CycleFinder, find_cycles, resolve_engine
from repro.core.expansion import (
    CycleExpander,
    DirectLinkExpander,
    Expander,
    ExpansionResult,
    NeighborhoodCycleExpander,
    NullExpander,
    RedirectExpander,
)
from repro.core.features import CycleFeatures, compute_features, count_edges, max_edges
from repro.core.ground_truth import (
    GroundTruthResult,
    GroundTruthSearch,
    Operation,
    SearchStep,
)
from repro.core.metrics import (
    DEFAULT_RANKS,
    Evaluator,
    QualityScore,
    contribution_percent,
    mean_precision,
    top_r_precision,
)
from repro.core.query_graph import QueryGraph, QueryGraphStats, build_query_graph
from repro.core.viz import cycle_to_dot, describe_query_graph, query_graph_to_dot

__all__ = [
    "DEFAULT_RANKS",
    "top_r_precision",
    "mean_precision",
    "contribution_percent",
    "QualityScore",
    "Evaluator",
    "Operation",
    "SearchStep",
    "GroundTruthResult",
    "GroundTruthSearch",
    "QueryGraph",
    "QueryGraphStats",
    "build_query_graph",
    "Cycle",
    "CycleFinder",
    "KernelBall",
    "find_cycles",
    "resolve_engine",
    "CycleFeatures",
    "compute_features",
    "count_edges",
    "max_edges",
    "Expander",
    "ExpansionResult",
    "NullExpander",
    "DirectLinkExpander",
    "CycleExpander",
    "NeighborhoodCycleExpander",
    "RedirectExpander",
    "FivePointSummary",
    "five_point_summary",
    "CycleRecord",
    "average_contribution_by_length",
    "average_count_by_length",
    "average_category_ratio_by_length",
    "average_density_by_length",
    "density_contribution_points",
    "binned_density_trend",
    "linear_trend",
    "article_cycle_frequency",
    "expansion_distance_histogram",
    "query_graph_to_dot",
    "cycle_to_dot",
    "describe_query_graph",
    "frequency_contribution_correlation",
]
