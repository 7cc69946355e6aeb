"""Structural statistics of Wikipedia graphs used throughout Section 3.

The paper reports three kinds of structural numbers:

* **triangle participation ratio (TPR)** — fraction of nodes of a graph that
  belong to at least one triangle (borrowed from community detection, [7]);
* the fraction of *linked article pairs* that are reciprocal, i.e. form a
  **cycle of length 2** (the paper measures 11.47 % on Wikipedia);
* degree / composition statistics of query graphs (Table 3 relies on the
  component-level helpers here).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.wiki.graph import WikiGraph

__all__ = [
    "triangle_participation_ratio",
    "reciprocal_link_ratio",
    "largest_connected_component",
    "connected_components",
    "GraphComposition",
    "composition",
    "category_tree_violations",
]


def triangle_participation_ratio(graph: nx.Graph) -> float:
    """Fraction of nodes that are part of at least one triangle.

    Accepts an *undirected* networkx graph (use
    :meth:`WikiGraph.to_networkx`).  Returns 0.0 for the empty graph.
    """
    import networkx as nx

    if graph.number_of_nodes() == 0:
        return 0.0
    triangle_counts = nx.triangles(graph)
    in_triangle = sum(1 for count in triangle_counts.values() if count > 0)
    return in_triangle / graph.number_of_nodes()


def reciprocal_link_ratio(graph: WikiGraph) -> float:
    """Fraction of connected (unordered) article pairs that link both ways.

    This is the paper's "among all pairs of articles that are connected,
    11.47 % form a cycle of length 2".  Only LINK edges are considered;
    returns 0.0 when no article pair is linked.
    """
    linked_pairs = 0
    reciprocal_pairs = 0
    for article in graph.articles():
        u = article.node_id
        for v in graph.links_from(u):
            if u < v:  # count each unordered pair once, from its lower id
                linked_pairs += 1
                if u in graph.links_from(v):
                    reciprocal_pairs += 1
            elif u > v and u not in graph.links_from(v):
                # pair (v, u) exists only through this direction; count it
                # from here since the u < v pass over v never sees it
                linked_pairs += 1
    if linked_pairs == 0:
        return 0.0
    return reciprocal_pairs / linked_pairs


def connected_components(graph: WikiGraph) -> list[set[int]]:
    """Connected components of the undirected (redirect-free) view,
    largest first; ties broken by smallest member id for determinism."""
    import networkx as nx

    components = [set(c) for c in nx.connected_components(graph.to_networkx())]
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def largest_connected_component(graph: WikiGraph) -> set[int]:
    """Node ids of the largest connected component (empty set if no nodes)."""
    components = connected_components(graph)
    return components[0] if components else set()


@dataclass(frozen=True, slots=True)
class GraphComposition:
    """Node-type composition of a node set within a graph."""

    num_nodes: int
    num_articles: int
    num_categories: int

    @property
    def article_ratio(self) -> float:
        """Fraction of nodes that are articles (0.0 on the empty set)."""
        return self.num_articles / self.num_nodes if self.num_nodes else 0.0

    @property
    def category_ratio(self) -> float:
        """Fraction of nodes that are categories (0.0 on the empty set)."""
        return self.num_categories / self.num_nodes if self.num_nodes else 0.0


def composition(graph: WikiGraph, node_ids: Iterable[int]) -> GraphComposition:
    """Count articles vs categories among ``node_ids``."""
    num_articles = 0
    num_categories = 0
    for node_id in node_ids:
        if graph.is_article(node_id):
            num_articles += 1
        else:
            graph.category(node_id)  # raises UnknownNodeError when absent
            num_categories += 1
    return GraphComposition(
        num_nodes=num_articles + num_categories,
        num_articles=num_articles,
        num_categories=num_categories,
    )


def category_tree_violations(graph: WikiGraph) -> int:
    """Number of categories with more than one parent.

    The paper notes the category graph is *tree-like*; this measures how far
    a given graph deviates (0 means a strict forest).
    """
    return sum(1 for c in graph.categories() if len(graph.parents_of(c.node_id)) > 1)
