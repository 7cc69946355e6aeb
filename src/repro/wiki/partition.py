"""Graph partitioning: one logical WikiGraph as N physical shards.

The serving stack assumes bounded-neighbourhood queries: cycle mining for a
query only ever touches the edges reachable from its linked seeds (a
semijoin-style locality argument — see Leinders et al. on semijoin
queries).  That makes the graph partitionable: each shard holds the nodes
hashed to it (*core* nodes) plus a *halo* of boundary node records, and —
crucially — **every edge incident to a core node**.  Adjacency queries for
a core node answered by its shard are therefore exactly the answers the
monolithic graph would give; a :class:`PartitionedGraphView` dispatches
each lookup to the owning shard and is observationally equivalent to the
original :class:`~repro.wiki.graph.WikiGraph`.

Placement rules:

* articles and categories are assigned by a deterministic integer hash of
  their node id (``hash()`` is salted per process and never used);
* redirect articles are co-located with the shard of their resolved main
  article, so redirect chains and an article's ``redirects_of`` set are
  always shard-local;
* ``belongs`` and ``redirect`` edges ride with their source article (every
  edge incident to a core node is stored, so an article's category
  memberships never require a remote lookup).

Each directed edge is *owned* by the shard of its source node (boundary
edges are additionally mirrored into the other endpoint's shard so both
sides see exact adjacency); ownership makes global edge counts and
iteration well-defined without double counting.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.errors import AnalysisError, UnknownNodeError
from repro.wiki.graph import WikiGraph
from repro.wiki.schema import Article, Category, Edge, EdgeKind

__all__ = [
    "GraphPartition",
    "PartitionedGraphView",
    "partition_graph",
    "shard_of_node",
    "shard_of_document",
]

_MASK64 = (1 << 64) - 1

_EDGE_KINDS = {kind.value: kind for kind in EdgeKind}


def shard_of_node(node_id: int, num_shards: int) -> int:
    """Deterministic shard assignment of a node id (splitmix64 finaliser)."""
    x = (node_id + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x % num_shards


def shard_of_document(doc_id: str, num_shards: int) -> int:
    """Deterministic shard assignment of a document id."""
    digest = hashlib.blake2b(doc_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


@dataclass(frozen=True, slots=True)
class GraphPartition:
    """One shard of a partitioned WikiGraph.

    ``graph`` contains this shard's core nodes, the halo node records its
    boundary edges reference, and every edge incident to a core node.  It
    is *not* schema-valid on its own (halo articles carry no ``belongs``
    edges here), which is why partitions serialise through their own
    payload format instead of the validating dump loader.
    """

    shard_id: int
    num_shards: int
    graph: WikiGraph
    core_articles: frozenset[int]
    core_categories: frozenset[int]
    # Lazily-cached owned-edge count: counting scans the shard's whole
    # edge list, and manifests/views ask for it repeatedly.
    _owned_edge_count: int | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def core_ids(self) -> frozenset[int]:
        return self.core_articles | self.core_categories

    @property
    def num_core_nodes(self) -> int:
        return len(self.core_articles) + len(self.core_categories)

    def owns(self, node_id: int) -> bool:
        return node_id in self.core_articles or node_id in self.core_categories

    def owned_edges(self) -> Iterator[Edge]:
        """Edges whose source node is core here (each global edge once)."""
        core = self.core_ids
        for edge in self.graph.edges():
            if edge.source in core:
                yield edge

    @property
    def num_owned_edges(self) -> int:
        if self._owned_edge_count is None:
            object.__setattr__(
                self, "_owned_edge_count", sum(1 for _ in self.owned_edges())
            )
        return self._owned_edge_count

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready dump of this shard (nodes, edges, core membership)."""
        articles = sorted(self.graph.articles(), key=lambda a: a.node_id)
        categories = sorted(self.graph.categories(), key=lambda c: c.node_id)
        edges = sorted(
            self.graph.edges(), key=lambda e: (e.kind.value, e.source, e.target)
        )
        return {
            "shard": self.shard_id,
            "num_shards": self.num_shards,
            "articles": [[a.node_id, a.title, a.is_redirect] for a in articles],
            "categories": [[c.node_id, c.name] for c in categories],
            "edges": [[e.kind.value, e.source, e.target] for e in edges],
            "core_articles": sorted(self.core_articles),
            "core_categories": sorted(self.core_categories),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "GraphPartition":
        """Rebuild a partition from :meth:`to_payload` output.

        Raises :class:`AnalysisError` on structurally malformed payloads;
        schema validation is deliberately skipped (partitions are views).
        """
        try:
            articles = {
                int(node_id): Article(int(node_id), str(title), bool(redirect))
                for node_id, title, redirect in payload["articles"]
            }
            categories = {
                int(node_id): Category(int(node_id), str(name))
                for node_id, name in payload["categories"]
            }
            edges = []
            for kind_value, src, dst in payload["edges"]:
                kind = _EDGE_KINDS.get(kind_value)
                if kind is None:
                    raise AnalysisError(f"unknown edge kind {kind_value!r}")
                edges.append(Edge(int(src), int(dst), kind))
            return cls(
                shard_id=int(payload["shard"]),
                num_shards=int(payload["num_shards"]),
                graph=WikiGraph(articles, categories, edges),
                core_articles=frozenset(int(n) for n in payload["core_articles"]),
                core_categories=frozenset(int(n) for n in payload["core_categories"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AnalysisError(f"malformed partition payload: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"GraphPartition(shard={self.shard_id}/{self.num_shards}, "
            f"core={self.num_core_nodes}, graph={self.graph!r})"
        )


def assign_shards(graph: WikiGraph, num_shards: int) -> dict[int, int]:
    """Owner shard of every node; redirects follow their resolved target."""
    if num_shards < 1:
        raise AnalysisError("num_shards must be >= 1")
    owner: dict[int, int] = {}
    for article in graph.articles():
        if article.is_redirect:
            owner[article.node_id] = shard_of_node(
                graph.resolve(article.node_id), num_shards
            )
        else:
            owner[article.node_id] = shard_of_node(article.node_id, num_shards)
    for category in graph.categories():
        owner[category.node_id] = shard_of_node(category.node_id, num_shards)
    return owner


def partition_graph(graph: WikiGraph, num_shards: int) -> list[GraphPartition]:
    """Split ``graph`` into ``num_shards`` partitions with exact halos.

    Every edge is placed into the shard(s) of both endpoints; node records
    referenced by a shard's edges are copied in as halo entries.  With
    ``num_shards=1`` the single partition is ``graph`` itself, not a
    copy, and the halo is empty.
    """
    if num_shards == 1:
        return [GraphPartition(
            shard_id=0, num_shards=1, graph=graph,
            core_articles=frozenset(a.node_id for a in graph.articles()),
            core_categories=frozenset(c.node_id for c in graph.categories()),
        )]
    owner = assign_shards(graph, num_shards)
    shard_articles: list[dict[int, Article]] = [{} for _ in range(num_shards)]
    shard_categories: list[dict[int, Category]] = [{} for _ in range(num_shards)]
    shard_edges: list[list[Edge]] = [[] for _ in range(num_shards)]
    core_articles: list[set[int]] = [set() for _ in range(num_shards)]
    core_categories: list[set[int]] = [set() for _ in range(num_shards)]

    def place_node(shard: int, node_id: int) -> None:
        if graph.is_article(node_id):
            shard_articles[shard].setdefault(node_id, graph.article(node_id))
        else:
            shard_categories[shard].setdefault(node_id, graph.category(node_id))

    for article in graph.articles():
        shard = owner[article.node_id]
        shard_articles[shard][article.node_id] = article
        core_articles[shard].add(article.node_id)
    for category in graph.categories():
        shard = owner[category.node_id]
        shard_categories[shard][category.node_id] = category
        core_categories[shard].add(category.node_id)

    for edge in graph.edges():
        src_shard = owner[edge.source]
        dst_shard = owner[edge.target]
        shard_edges[src_shard].append(edge)
        place_node(src_shard, edge.target)
        if dst_shard != src_shard:
            shard_edges[dst_shard].append(edge)
            place_node(dst_shard, edge.source)

    return [
        GraphPartition(
            shard_id=shard,
            num_shards=num_shards,
            graph=WikiGraph(shard_articles[shard], shard_categories[shard],
                            shard_edges[shard]),
            core_articles=frozenset(core_articles[shard]),
            core_categories=frozenset(core_categories[shard]),
        )
        for shard in range(num_shards)
    ]


class PartitionedGraphView:
    """Read-only WikiGraph facade over a set of :class:`GraphPartition`.

    Dispatches every node-centric query to the owning shard, whose stored
    halo guarantees the answer equals the monolithic graph's.  The view is
    immutable and thread-safe (all underlying structures are read-only
    after construction), so one instance is shared by all shard workers.
    """

    def __init__(self, partitions: Iterable[GraphPartition]) -> None:
        self._partitions = sorted(partitions, key=lambda p: p.shard_id)
        if not self._partitions:
            raise AnalysisError("a PartitionedGraphView needs >= 1 partition")
        declared = self._partitions[0].num_shards
        if [p.shard_id for p in self._partitions] != list(range(declared)):
            raise AnalysisError(
                f"partitions do not form a complete set of {declared} shards"
            )
        self._owner: dict[int, int] = {}
        for partition in self._partitions:
            for node_id in partition.core_ids:
                if node_id in self._owner:
                    raise AnalysisError(
                        f"node {node_id} is core in shards "
                        f"{self._owner[node_id]} and {partition.shard_id}"
                    )
                self._owner[node_id] = partition.shard_id
        self._num_articles = sum(len(p.core_articles) for p in self._partitions)
        self._num_categories = sum(len(p.core_categories) for p in self._partitions)
        self._num_edges = sum(p.num_owned_edges for p in self._partitions)

    # ------------------------------------------------------------------
    # Shard topology
    # ------------------------------------------------------------------

    @property
    def partitions(self) -> tuple[GraphPartition, ...]:
        return tuple(self._partitions)

    @property
    def num_shards(self) -> int:
        return len(self._partitions)

    def owner_shard(self, node_id: int) -> int:
        """Shard id owning ``node_id`` (raises on unknown nodes)."""
        try:
            return self._owner[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def _home(self, node_id: int) -> WikiGraph | None:
        shard = self._owner.get(node_id)
        return None if shard is None else self._partitions[shard].graph

    # ------------------------------------------------------------------
    # Sizes and membership (WikiGraph API)
    # ------------------------------------------------------------------

    @property
    def num_articles(self) -> int:
        return self._num_articles

    @property
    def num_main_articles(self) -> int:
        return sum(
            1 for p in self._partitions for a in p.core_articles
            if not p.graph.article(a).is_redirect
        )

    @property
    def num_categories(self) -> int:
        return self._num_categories

    @property
    def num_nodes(self) -> int:
        return self._num_articles + self._num_categories

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._owner

    def __len__(self) -> int:
        return self.num_nodes

    # ------------------------------------------------------------------
    # Node accessors
    # ------------------------------------------------------------------

    def node(self, node_id: int) -> Article | Category:
        home = self._home(node_id)
        if home is None:
            raise UnknownNodeError(node_id)
        return home.node(node_id)

    def article(self, node_id: int) -> Article:
        home = self._home(node_id)
        if home is None:
            raise UnknownNodeError(node_id)
        return home.article(node_id)

    def category(self, node_id: int) -> Category:
        home = self._home(node_id)
        if home is None:
            raise UnknownNodeError(node_id)
        return home.category(node_id)

    def kind(self, node_id: int):
        return self.node(node_id).kind

    def is_article(self, node_id: int) -> bool:
        home = self._home(node_id)
        return home is not None and home.is_article(node_id)

    def is_category(self, node_id: int) -> bool:
        home = self._home(node_id)
        return home is not None and home.is_category(node_id)

    def title(self, node_id: int) -> str:
        return self.node(node_id).title

    def articles(self) -> Iterator[Article]:
        for partition in self._partitions:
            for node_id in sorted(partition.core_articles):
                yield partition.graph.article(node_id)

    def main_articles(self) -> Iterator[Article]:
        return (a for a in self.articles() if not a.is_redirect)

    def categories(self) -> Iterator[Category]:
        for partition in self._partitions:
            for node_id in sorted(partition.core_categories):
                yield partition.graph.category(node_id)

    def node_ids(self) -> Iterator[int]:
        for partition in self._partitions:
            yield from sorted(partition.core_articles)
        for partition in self._partitions:
            yield from sorted(partition.core_categories)

    # ------------------------------------------------------------------
    # Title lookup
    # ------------------------------------------------------------------

    def article_by_title(self, title: str) -> Article | None:
        for partition in self._partitions:
            found = partition.graph.article_by_title(title)
            if found is not None:
                return found
        return None

    def category_by_name(self, name: str) -> Category | None:
        for partition in self._partitions:
            found = partition.graph.category_by_name(name)
            if found is not None:
                return found
        return None

    def titles(self) -> Iterator[str]:
        return (article.norm_title for article in self.articles())

    # ------------------------------------------------------------------
    # Typed adjacency — exact, answered by the owning shard
    # ------------------------------------------------------------------

    def links_from(self, article_id: int) -> frozenset[int]:
        home = self._home(article_id)
        return frozenset() if home is None else home.links_from(article_id)

    def links_to(self, article_id: int) -> frozenset[int]:
        home = self._home(article_id)
        return frozenset() if home is None else home.links_to(article_id)

    def categories_of(self, article_id: int) -> frozenset[int]:
        home = self._home(article_id)
        return frozenset() if home is None else home.categories_of(article_id)

    def members_of(self, category_id: int) -> frozenset[int]:
        home = self._home(category_id)
        return frozenset() if home is None else home.members_of(category_id)

    def parents_of(self, category_id: int) -> frozenset[int]:
        home = self._home(category_id)
        return frozenset() if home is None else home.parents_of(category_id)

    def children_of(self, category_id: int) -> frozenset[int]:
        home = self._home(category_id)
        return frozenset() if home is None else home.children_of(category_id)

    def redirect_target(self, article_id: int) -> int | None:
        home = self._home(article_id)
        return None if home is None else home.redirect_target(article_id)

    def redirects_of(self, article_id: int) -> frozenset[int]:
        home = self._home(article_id)
        return frozenset() if home is None else home.redirects_of(article_id)

    def resolve(self, article_id: int) -> int:
        # Redirect chains are co-located with their resolved target, so the
        # owning shard can follow the whole chain locally.
        home = self._home(article_id)
        return article_id if home is None else home.resolve(article_id)

    def undirected_neighbors(self, node_id: int) -> set[int]:
        home = self._home(node_id)
        return set() if home is None else home.undirected_neighbors(node_id)

    def degree(self, node_id: int) -> int:
        return len(self.undirected_neighbors(node_id))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.undirected_neighbors(u)

    def edges(self) -> Iterator[Edge]:
        for partition in self._partitions:
            yield from partition.owned_edges()

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------

    def induced_subgraph(self, node_ids: Iterable[int]) -> WikiGraph:
        """Induced subgraph assembled from the owning shards only.

        Unlike :meth:`WikiGraph.induced_subgraph` this never scans the
        global edge list — it gathers the kept nodes' incident edges from
        their shards (the semijoin locality the partitioning exists for)
        and filters them to the kept set.
        """
        keep = set(node_ids)
        articles: dict[int, Article] = {}
        categories: dict[int, Category] = {}
        edges: set[Edge] = set()
        for node_id in keep:
            shard = self._owner.get(node_id)
            if shard is None:
                raise UnknownNodeError(node_id)
            home = self._partitions[shard].graph
            if home.is_article(node_id):
                articles[node_id] = home.article(node_id)
            else:
                categories[node_id] = home.category(node_id)
            for target in home.links_from(node_id):
                if target in keep:
                    edges.add(Edge(node_id, target, EdgeKind.LINK))
            for source in home.links_to(node_id):
                if source in keep:
                    edges.add(Edge(source, node_id, EdgeKind.LINK))
            for category in home.categories_of(node_id):
                if category in keep:
                    edges.add(Edge(node_id, category, EdgeKind.BELONGS))
            for member in home.members_of(node_id):
                if member in keep:
                    edges.add(Edge(member, node_id, EdgeKind.BELONGS))
            for parent in home.parents_of(node_id):
                if parent in keep:
                    edges.add(Edge(node_id, parent, EdgeKind.INSIDE))
            for child in home.children_of(node_id):
                if child in keep:
                    edges.add(Edge(child, node_id, EdgeKind.INSIDE))
            target = home.redirect_target(node_id)
            if target is not None and target in keep:
                edges.add(Edge(node_id, target, EdgeKind.REDIRECT))
            for redirect in home.redirects_of(node_id):
                if redirect in keep:
                    edges.add(Edge(redirect, node_id, EdgeKind.REDIRECT))
        return WikiGraph(articles, categories, sorted(
            edges, key=lambda e: (e.kind.value, e.source, e.target)
        ))

    def __repr__(self) -> str:
        return (
            f"PartitionedGraphView(shards={self.num_shards}, "
            f"articles={self.num_articles}, categories={self.num_categories}, "
            f"edges={self.num_edges})"
        )
