"""In-memory storage of the Wikipedia article/category graph.

:class:`WikiGraph` is an immutable-after-build container with typed
adjacency.  It is deliberately not a thin wrapper over :mod:`networkx`: the
paper's pipeline needs typed edges (link / belongs / inside / redirect),
title lookup for entity linking, and redirect resolution — all hot paths.
Conversion *to* networkx is provided for the analysis code that wants
generic graph algorithms (connected components, triangles).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import UnknownNodeError
from repro.wiki.schema import Article, Category, Edge, EdgeKind, NodeKind, normalize_title

__all__ = ["WikiGraph"]


class WikiGraph:
    """A typed Wikipedia graph of articles and categories.

    Instances are created through :class:`repro.wiki.builder.WikiGraphBuilder`
    (or the convenience loaders in :mod:`repro.wiki.dump`); the constructor
    documented here takes already-validated components and is considered a
    low-level entry point.

    The graph distinguishes four edge kinds (see
    :class:`repro.wiki.schema.EdgeKind`).  All adjacency queries are O(degree).
    """

    def __init__(
        self,
        articles: dict[int, Article],
        categories: dict[int, Category],
        edges: Iterable[Edge],
    ) -> None:
        self._articles = dict(articles)
        self._categories = dict(categories)

        # Typed adjacency, forward and reverse.
        self._links_out: dict[int, set[int]] = {}
        self._links_in: dict[int, set[int]] = {}
        self._belongs: dict[int, set[int]] = {}  # article -> categories
        self._members: dict[int, set[int]] = {}  # category -> articles
        self._inside: dict[int, set[int]] = {}  # category -> parent categories
        self._children: dict[int, set[int]] = {}  # category -> child categories
        self._redirect_to: dict[int, int] = {}  # redirect article -> main
        self._redirects_of: dict[int, set[int]] = {}  # main -> redirect articles

        self._n_edges = 0
        for edge in edges:
            self._add_edge(edge)

        # Title lookup maps normalised titles to node ids.  Titles are unique
        # per namespace (article vs category), mirroring real Wikipedia.
        self._article_by_title: dict[str, int] = {
            a.norm_title: nid for nid, a in self._articles.items()
        }
        self._category_by_name: dict[str, int] = {
            c.norm_title: nid for nid, c in self._categories.items()
        }

    # ------------------------------------------------------------------
    # Construction internals
    # ------------------------------------------------------------------

    def _add_edge(self, edge: Edge) -> None:
        src, dst, kind = edge.source, edge.target, edge.kind
        if kind is EdgeKind.LINK:
            self._links_out.setdefault(src, set()).add(dst)
            self._links_in.setdefault(dst, set()).add(src)
        elif kind is EdgeKind.BELONGS:
            self._belongs.setdefault(src, set()).add(dst)
            self._members.setdefault(dst, set()).add(src)
        elif kind is EdgeKind.INSIDE:
            self._inside.setdefault(src, set()).add(dst)
            self._children.setdefault(dst, set()).add(src)
        elif kind is EdgeKind.REDIRECT:
            self._redirect_to[src] = dst
            self._redirects_of.setdefault(dst, set()).add(src)
        self._n_edges += 1

    # ------------------------------------------------------------------
    # Sizes and membership
    # ------------------------------------------------------------------

    @property
    def num_articles(self) -> int:
        """Number of articles, including redirect articles."""
        return len(self._articles)

    @property
    def num_main_articles(self) -> int:
        """Number of non-redirect articles."""
        return sum(1 for a in self._articles.values() if not a.is_redirect)

    @property
    def num_categories(self) -> int:
        return len(self._categories)

    @property
    def num_nodes(self) -> int:
        return len(self._articles) + len(self._categories)

    @property
    def num_edges(self) -> int:
        """Total directed edges of every kind, including redirects."""
        return self._n_edges

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._articles or node_id in self._categories

    def __len__(self) -> int:
        return self.num_nodes

    # ------------------------------------------------------------------
    # Node accessors
    # ------------------------------------------------------------------

    def node(self, node_id: int) -> Article | Category:
        """Return the :class:`Article` or :class:`Category` for ``node_id``."""
        found = self._articles.get(node_id)
        if found is None:
            found = self._categories.get(node_id)
        if found is None:
            raise UnknownNodeError(node_id)
        return found

    def article(self, node_id: int) -> Article:
        """Return the article with id ``node_id`` (raises if not an article)."""
        try:
            return self._articles[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def category(self, node_id: int) -> Category:
        """Return the category with id ``node_id`` (raises if not a category)."""
        try:
            return self._categories[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def kind(self, node_id: int) -> NodeKind:
        """Return whether ``node_id`` is an article or a category."""
        if node_id in self._articles:
            return NodeKind.ARTICLE
        if node_id in self._categories:
            return NodeKind.CATEGORY
        raise UnknownNodeError(node_id)

    def is_article(self, node_id: int) -> bool:
        return node_id in self._articles

    def is_category(self, node_id: int) -> bool:
        return node_id in self._categories

    def title(self, node_id: int) -> str:
        """Title of an article or name of a category."""
        return self.node(node_id).title

    def articles(self) -> Iterator[Article]:
        """Iterate over all articles (redirects included)."""
        return iter(self._articles.values())

    def main_articles(self) -> Iterator[Article]:
        """Iterate over non-redirect articles only."""
        return (a for a in self._articles.values() if not a.is_redirect)

    def categories(self) -> Iterator[Category]:
        return iter(self._categories.values())

    def node_ids(self) -> Iterator[int]:
        yield from self._articles
        yield from self._categories

    # ------------------------------------------------------------------
    # Title lookup (entity linking support)
    # ------------------------------------------------------------------

    def article_by_title(self, title: str) -> Article | None:
        """Look an article up by (normalised) title; ``None`` if absent."""
        node_id = self._article_by_title.get(normalize_title(title))
        return None if node_id is None else self._articles[node_id]

    def category_by_name(self, name: str) -> Category | None:
        """Look a category up by (normalised) name; ``None`` if absent."""
        node_id = self._category_by_name.get(normalize_title(name))
        return None if node_id is None else self._categories[node_id]

    def titles(self) -> Iterator[str]:
        """All normalised article titles (redirects included)."""
        return iter(self._article_by_title)

    # ------------------------------------------------------------------
    # Typed adjacency
    # ------------------------------------------------------------------

    def links_from(self, article_id: int) -> frozenset[int]:
        """Articles hyperlinked from ``article_id``."""
        return frozenset(self._links_out.get(article_id, ()))

    def links_to(self, article_id: int) -> frozenset[int]:
        """Articles hyperlinking to ``article_id``."""
        return frozenset(self._links_in.get(article_id, ()))

    def categories_of(self, article_id: int) -> frozenset[int]:
        """Categories the article belongs to (>= 1 for main articles)."""
        return frozenset(self._belongs.get(article_id, ()))

    def members_of(self, category_id: int) -> frozenset[int]:
        """Articles that belong to the category."""
        return frozenset(self._members.get(category_id, ()))

    def parents_of(self, category_id: int) -> frozenset[int]:
        """More general categories the category is inside of."""
        return frozenset(self._inside.get(category_id, ()))

    def children_of(self, category_id: int) -> frozenset[int]:
        """Sub-categories contained in the category."""
        return frozenset(self._children.get(category_id, ()))

    def redirect_target(self, article_id: int) -> int | None:
        """Main article a redirect points to, or ``None`` if not a redirect."""
        return self._redirect_to.get(article_id)

    def redirects_of(self, article_id: int) -> frozenset[int]:
        """Redirect articles pointing at this main article."""
        return frozenset(self._redirects_of.get(article_id, ()))

    def resolve(self, article_id: int) -> int:
        """Follow redirect chains until a main article is reached.

        Chains are rare and short in practice; a visited set guards against
        accidental redirect loops in hand-built graphs.
        """
        seen = {article_id}
        current = article_id
        while (target := self._redirect_to.get(current)) is not None:
            if target in seen:  # defensive: malformed loop
                return current
            seen.add(target)
            current = target
        return current

    def undirected_neighbors(self, node_id: int) -> set[int]:
        """Neighbours of ``node_id`` ignoring edge direction.

        Includes LINK, BELONGS and INSIDE edges.  REDIRECT edges are
        excluded on purpose: the paper's cycle analysis observes that
        redirects can never close a cycle (Figure 1), so the structural
        analysis works on the redirect-free graph.
        """
        out: set[int] = set()
        out.update(self._links_out.get(node_id, ()))
        out.update(self._links_in.get(node_id, ()))
        out.update(self._belongs.get(node_id, ()))
        out.update(self._members.get(node_id, ()))
        out.update(self._inside.get(node_id, ()))
        out.update(self._children.get(node_id, ()))
        return out

    def degree(self, node_id: int) -> int:
        """Undirected degree (distinct neighbours, redirects excluded)."""
        return len(self.undirected_neighbors(node_id))

    def has_edge(self, u: int, v: int) -> bool:
        """True when any non-redirect edge connects ``u`` and ``v`` (any direction)."""
        return v in self.undirected_neighbors(u)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all stored directed edges (redirects included)."""
        for src, targets in self._links_out.items():
            for dst in targets:
                yield Edge(src, dst, EdgeKind.LINK)
        for src, targets in self._belongs.items():
            for dst in targets:
                yield Edge(src, dst, EdgeKind.BELONGS)
        for src, targets in self._inside.items():
            for dst in targets:
                yield Edge(src, dst, EdgeKind.INSIDE)
        for src, dst in self._redirect_to.items():
            yield Edge(src, dst, EdgeKind.REDIRECT)

    # ------------------------------------------------------------------
    # Subgraphs and conversion
    # ------------------------------------------------------------------

    def induced_subgraph(self, node_ids: Iterable[int]) -> "WikiGraph":
        """Return the subgraph induced by ``node_ids`` (redirect edges kept
        only when both endpoints are retained)."""
        keep = set(node_ids)
        unknown = [n for n in keep if n not in self]
        if unknown:
            raise UnknownNodeError(unknown[0])
        articles = {n: self._articles[n] for n in keep if n in self._articles}
        categories = {n: self._categories[n] for n in keep if n in self._categories}
        edges = [e for e in self.edges() if e.source in keep and e.target in keep]
        return WikiGraph(articles, categories, edges)

    def to_networkx(self, include_redirects: bool = False) -> nx.Graph:
        """Undirected networkx view for generic graph algorithms.

        Node attributes: ``kind`` ("article"/"category"), ``title``.
        Parallel typed edges collapse into one undirected edge.
        """
        import networkx as nx  # analysis only: serving never loads it

        graph = nx.Graph()
        for node_id in self.node_ids():
            node = self.node(node_id)
            graph.add_node(node_id, kind=str(node.kind), title=node.title)
        for edge in self.edges():
            if edge.kind is EdgeKind.REDIRECT and not include_redirects:
                continue
            graph.add_edge(edge.source, edge.target)
        return graph

    def __repr__(self) -> str:
        return (
            f"WikiGraph(articles={self.num_articles}, "
            f"categories={self.num_categories}, edges={self.num_edges})"
        )
