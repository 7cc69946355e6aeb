"""Wikipedia graph substrate: schema, storage, dumps, synthesis, statistics.

This package plays the role of the Wikipedia dump in the paper.  The graph
model follows Figure 1 exactly: articles with titles, categories with names,
``link`` / ``belongs`` / ``inside`` / ``redirects_to`` relations.
"""

from repro.wiki.builder import WikiGraphBuilder
from repro.wiki.compact import CompactGraphView
from repro.wiki.dump import dumps_graph, loads_graph, read_graph, write_graph
from repro.wiki.graph import WikiGraph
from repro.wiki.partition import shard_of_document, shard_of_node
from repro.wiki.paths import bfs_distances, distance_histogram, eccentricity
from repro.wiki.schema import Article, Category, Edge, EdgeKind, NodeKind, normalize_title
from repro.wiki.stats import (
    GraphComposition,
    category_tree_violations,
    composition,
    connected_components,
    largest_connected_component,
    reciprocal_link_ratio,
    triangle_participation_ratio,
)

__all__ = [
    "Article",
    "Category",
    "Edge",
    "EdgeKind",
    "NodeKind",
    "normalize_title",
    "WikiGraph",
    "WikiGraphBuilder",
    "CompactGraphView",
    "shard_of_node",
    "shard_of_document",
    "write_graph",
    "read_graph",
    "dumps_graph",
    "loads_graph",
    "bfs_distances",
    "distance_histogram",
    "eccentricity",
    "GraphComposition",
    "composition",
    "connected_components",
    "largest_connected_component",
    "reciprocal_link_ratio",
    "triangle_participation_ratio",
    "category_tree_violations",
    "SyntheticWikiConfig",
    "SyntheticWiki",
    "DomainSpec",
    "generate_wiki",
]

_SYNTHETIC = {"SyntheticWikiConfig", "SyntheticWiki", "DomainSpec", "generate_wiki"}


def __getattr__(name: str):
    # The generator's names resolve on first use: every serving process
    # imports this package for the graph and never generates one.
    if name in _SYNTHETIC:
        from repro.wiki import synthetic

        return getattr(synthetic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
