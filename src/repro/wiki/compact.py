"""Frozen CSR adjacency for the serving-side graph read path.

:class:`CompactGraphView` freezes the redirect-free undirected adjacency
of a :class:`~repro.wiki.graph.WikiGraph` into flat integer arrays:
node ids are interned into dense indices, each node's neighbours occupy
one CSR slice, and a parallel byte array carries a *typed edge-kind
mask* per (node, neighbour) pair — which directed relations (link
out/in, belongs, member, inside parent/child) connect them.  The
typed sets the expansion pipeline asks for (``links_from``,
``categories_of``, ...) are therefore mask filters over one contiguous
slice instead of six dict probes.

The expensive per-query operations become cheap:

* ``undirected_neighbors`` — one CSR slice (the BFS ball construction
  of :class:`~repro.core.expansion.NeighborhoodCycleExpander`);
* ``induced_subgraph`` — returns a :class:`_CompactSubgraph`, a
  keep-set *view* over the CSR arrays that satisfies the graph API the
  cycle machinery traverses.  Nothing is copied and, critically, the
  global edge list is never scanned — the dict-backed
  :meth:`WikiGraph.induced_subgraph` pays one pass over *every* edge of
  the graph per query, which dominates cold expansion latency.

Redirect edges are excluded from the CSR (the paper's cycle analysis
works on the redirect-free view) but kept in two small side maps so
redirect resolution and :class:`~repro.core.expansion.RedirectExpander`
still work.

Like the compact index, the view serialises to one binary blob that
``load`` maps with ``mmap`` (see :mod:`repro.blobio`); adjacency arrays
are zero-copy views into the mapping.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from itertools import compress
from pathlib import Path

from repro.blobio import map_blob, pack_blob, unpack_blob
from repro.errors import AnalysisError, UnknownNodeError
from repro.wiki.schema import Article, Category, normalize_title

__all__ = ["CompactGraphView"]

_MAGIC = b"RPCGRF1\n"

# Edge-kind bits of one (node, neighbour) pair, from the node's side.
LINK_OUT = 1        # node --link--> neighbour (articles)
LINK_IN = 2         # neighbour --link--> node (articles)
BELONGS = 4         # node belongs to neighbour (article -> category)
MEMBER = 8          # neighbour belongs to node (category side)
INSIDE_PARENT = 16  # node is inside neighbour (category -> parent)
INSIDE_CHILD = 32   # neighbour is inside node (category -> child)
ANY_KIND = 63       # any of the six: the undirected neighbourhood

# Edge kind of each slot a subgraph restricts, in _CompactSubgraph order.
_SLOT_KINDS = (
    LINK_OUT, LINK_IN, BELONGS, MEMBER, INSIDE_PARENT, INSIDE_CHILD, ANY_KIND,
)
# bytes.translate table per kind: a mask byte maps to its bits of that
# kind, so compress() keeps a row's matching slots without a Python loop.
_MASKS = {kind: bytes(b & kind for b in range(256)) for kind in _SLOT_KINDS[:6]}
_EMPTY: frozenset[int] = frozenset()

_FLAG_ARTICLE = 1
_FLAG_REDIRECT = 2


class CompactGraphView:
    """Immutable CSR view of the typed, redirect-free adjacency."""

    __slots__ = (
        "_node_ids", "_index_of", "_flags", "_titles",
        "_adj_offsets", "_adj_targets", "_adj_kinds",
        "_redirect_to", "_redirects_of", "_article_ids", "_by_title",
        "_num_articles", "_num_categories", "_num_edges", "_handle",
    )

    def __init__(
        self,
        node_ids: list[int],
        flags,
        titles: list[str],
        adj_offsets,
        adj_targets,
        adj_kinds,
        redirect_to: dict[int, int],
        num_edges: int | None = None,
        handle=None,
    ) -> None:
        self._node_ids = node_ids
        self._index_of = {node_id: idx for idx, node_id in enumerate(node_ids)}
        self._flags = flags
        self._titles = titles
        self._adj_offsets = adj_offsets
        self._adj_targets = adj_targets
        self._adj_kinds = adj_kinds
        self._redirect_to = redirect_to
        redirects_of: dict[int, list[int]] = {}
        for source, target in redirect_to.items():
            redirects_of.setdefault(target, []).append(source)
        self._redirects_of = {
            target: frozenset(sources) for target, sources in redirects_of.items()
        }
        self._article_ids = frozenset(
            node_id for node_id, flag in zip(node_ids, flags) if flag & _FLAG_ARTICLE
        )
        # The CSR rows are the only adjacency: every typed accessor
        # decodes its edge kind from the node's slice per call and keeps
        # nothing.  Mining reads the rows directly (the bitset kernels)
        # or through a subgraph that caches its restricted sets for one
        # mine, so no per-node state outlives a request.
        self._by_title: dict[str, int] | None = None  # see article_by_title
        self._num_articles = len(self._article_ids)
        self._num_categories = len(node_ids) - self._num_articles
        if num_edges is None:
            # Owned directed edges: out-side bits once each, plus
            # redirects — the same counting rule WikiGraph.num_edges
            # follows.  Blob loads pass the count from the header so an
            # mmap-backed view never scans the adjacency at startup.
            owned = 0
            for kind in adj_kinds:
                if kind & LINK_OUT:
                    owned += 1
                if kind & BELONGS:
                    owned += 1
                if kind & INSIDE_PARENT:
                    owned += 1
            num_edges = owned + len(redirect_to)
        self._num_edges = num_edges
        self._handle = handle

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph) -> "CompactGraphView":
        """Freeze a :class:`WikiGraph` (or anything answering its typed
        adjacency API exactly); the frozen view then answers every
        adjacency query with the same sets.
        """
        if isinstance(graph, cls):
            return graph
        node_ids = sorted(graph.node_ids())
        index_of = {node_id: idx for idx, node_id in enumerate(node_ids)}
        flags = bytearray(len(node_ids))
        titles: list[str] = []
        adj_offsets = array("i", [0])
        adj_targets = array("i")
        adj_kinds = bytearray()
        redirect_to: dict[int, int] = {}

        for node_id in node_ids:
            masks: dict[int, int] = {}
            if graph.is_article(node_id):
                article = graph.article(node_id)
                flags[index_of[node_id]] = _FLAG_ARTICLE | (
                    _FLAG_REDIRECT if article.is_redirect else 0
                )
                titles.append(article.title)
                for target in graph.links_from(node_id):
                    masks[target] = masks.get(target, 0) | LINK_OUT
                for source in graph.links_to(node_id):
                    masks[source] = masks.get(source, 0) | LINK_IN
                for category in graph.categories_of(node_id):
                    masks[category] = masks.get(category, 0) | BELONGS
                target = graph.redirect_target(node_id)
                if target is not None:
                    redirect_to[node_id] = target
            else:
                titles.append(graph.category(node_id).name)
                for member in graph.members_of(node_id):
                    masks[member] = masks.get(member, 0) | MEMBER
                for parent in graph.parents_of(node_id):
                    masks[parent] = masks.get(parent, 0) | INSIDE_PARENT
                for child in graph.children_of(node_id):
                    masks[child] = masks.get(child, 0) | INSIDE_CHILD
            for neighbor in sorted(masks):
                target_idx = index_of.get(neighbor)
                if target_idx is None:
                    raise AnalysisError(
                        f"graph adjacency references unknown node {neighbor}"
                    )
                adj_targets.append(target_idx)
                adj_kinds.append(masks[neighbor])
            adj_offsets.append(len(adj_targets))

        return cls(
            node_ids=node_ids,
            flags=bytes(flags),
            titles=titles,
            adj_offsets=adj_offsets,
            adj_targets=adj_targets,
            adj_kinds=bytes(adj_kinds),
            redirect_to=redirect_to,
        )

    # ------------------------------------------------------------------
    # Sizes and membership
    # ------------------------------------------------------------------

    @property
    def num_articles(self) -> int:
        return self._num_articles

    @property
    def num_main_articles(self) -> int:
        return sum(
            1 for f in self._flags
            if f & _FLAG_ARTICLE and not f & _FLAG_REDIRECT
        )

    @property
    def num_categories(self) -> int:
        return self._num_categories

    @property
    def num_nodes(self) -> int:
        return len(self._node_ids)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._index_of

    def __len__(self) -> int:
        return self.num_nodes

    # ------------------------------------------------------------------
    # Node accessors
    # ------------------------------------------------------------------

    def _index(self, node_id: int) -> int:
        idx = self._index_of.get(node_id)
        if idx is None:
            raise UnknownNodeError(node_id)
        return idx

    def node(self, node_id: int) -> Article | Category:
        idx = self._index(node_id)
        flag = self._flags[idx]
        if flag & _FLAG_ARTICLE:
            return Article(node_id, self._titles[idx], bool(flag & _FLAG_REDIRECT))
        return Category(node_id, self._titles[idx])

    def article(self, node_id: int) -> Article:
        found = self.node(node_id)
        if not isinstance(found, Article):
            raise UnknownNodeError(node_id)
        return found

    def category(self, node_id: int) -> Category:
        found = self.node(node_id)
        if not isinstance(found, Category):
            raise UnknownNodeError(node_id)
        return found

    def is_article(self, node_id: int) -> bool:
        return node_id in self._article_ids

    def is_category(self, node_id: int) -> bool:
        return node_id not in self._article_ids and node_id in self._index_of

    def title(self, node_id: int) -> str:
        return self._titles[self._index(node_id)]

    def article_by_title(self, title: str) -> Article | None:
        """Case-insensitive title lookup (the live-update path validates
        and links against it); the map is built on first use, once."""
        if self._by_title is None:
            self._by_title = {a.norm_title: a.node_id for a in self.articles()}
        node_id = self._by_title.get(normalize_title(title))
        return None if node_id is None else self.article(node_id)

    def node_ids(self) -> Iterator[int]:
        return iter(self._node_ids)

    def articles(self) -> Iterator[Article]:
        for idx, node_id in enumerate(self._node_ids):
            flag = self._flags[idx]
            if flag & _FLAG_ARTICLE:
                yield Article(node_id, self._titles[idx], bool(flag & _FLAG_REDIRECT))

    def main_articles(self) -> Iterator[Article]:
        return (a for a in self.articles() if not a.is_redirect)

    def categories(self) -> Iterator[Category]:
        for idx, node_id in enumerate(self._node_ids):
            if not self._flags[idx] & _FLAG_ARTICLE:
                yield Category(node_id, self._titles[idx])

    # ------------------------------------------------------------------
    # Typed adjacency
    # ------------------------------------------------------------------

    def _neighbors(self, node_id: int, kind: int) -> frozenset[int]:
        """Neighbours joined to ``node_id`` by an edge kind in ``kind``,
        decoded from the node's CSR slice per call; an unknown id has
        none."""
        idx = self._index_of.get(node_id)
        if idx is None:
            return _EMPTY
        lo, hi = self._adj_offsets[idx], self._adj_offsets[idx + 1]
        row = self._adj_targets[lo:hi]
        if kind != ANY_KIND:  # every stored pair carries at least one bit
            row = compress(row, bytes(self._adj_kinds[lo:hi]).translate(_MASKS[kind]))
        return frozenset(map(self._node_ids.__getitem__, row))

    def links_from(self, article_id: int) -> frozenset[int]:
        return self._neighbors(article_id, LINK_OUT)

    def links_to(self, article_id: int) -> frozenset[int]:
        return self._neighbors(article_id, LINK_IN)

    def categories_of(self, article_id: int) -> frozenset[int]:
        return self._neighbors(article_id, BELONGS)

    def members_of(self, category_id: int) -> frozenset[int]:
        return self._neighbors(category_id, MEMBER)

    def parents_of(self, category_id: int) -> frozenset[int]:
        return self._neighbors(category_id, INSIDE_PARENT)

    def children_of(self, category_id: int) -> frozenset[int]:
        return self._neighbors(category_id, INSIDE_CHILD)

    def redirect_target(self, article_id: int) -> int | None:
        return self._redirect_to.get(article_id)

    def redirects_of(self, article_id: int) -> frozenset[int]:
        return self._redirects_of.get(article_id, frozenset())

    def resolve(self, article_id: int) -> int:
        seen = {article_id}
        current = article_id
        while (target := self._redirect_to.get(current)) is not None:
            if target in seen:  # defensive: malformed loop
                return current
            seen.add(target)
            current = target
        return current

    def undirected_neighbors(self, node_id: int) -> frozenset[int]:
        """All neighbours of a node, redirect edges excluded: its whole
        CSR row as a fresh frozenset (one C-level map over the slice)."""
        return self._neighbors(node_id, ANY_KIND)

    def degree(self, node_id: int) -> int:
        idx = self._index_of.get(node_id)
        if idx is None:
            return 0
        return self._adj_offsets[idx + 1] - self._adj_offsets[idx]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.undirected_neighbors(u)

    def kernel_csr(self):
        """Raw CSR arrays for the bitset cycle kernels.

        Returns ``(node_ids, index_of, offsets, targets, kinds, flags,
        keep)`` — ``targets`` are base indices into ``node_ids`` and
        ``keep`` is ``None`` (the whole view).  The kernels
        (:mod:`repro.core.cycle_kernels`) build their bitset rows
        straight from these int32/byte arrays, skipping the frozenset
        decode path entirely.
        """
        return (
            self._node_ids,
            self._index_of,
            self._adj_offsets,
            self._adj_targets,
            self._adj_kinds,
            self._flags,
            None,
        )

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------

    def induced_subgraph(self, node_ids: Iterable[int]) -> "_CompactSubgraph":
        """A zero-copy keep-set view (no edge-list scan, no dict builds).

        The returned object answers the graph API the cycle machinery
        traverses (:class:`~repro.core.cycles.CycleFinder`,
        :func:`~repro.core.features.compute_features`) with exactly the
        sets a materialised :meth:`WikiGraph.induced_subgraph` would.
        """
        keep = frozenset(node_ids)
        for node_id in keep:
            if node_id not in self._index_of:
                raise UnknownNodeError(node_id)
        return _CompactSubgraph(self, keep)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_blob(self) -> bytes:
        header = {
            "node_ids": self._node_ids,
            "titles": self._titles,
            "redirects": sorted(self._redirect_to.items()),
            "num_edges": self._num_edges,
        }
        sections = {
            "flags": bytes(self._flags),
            "adj_offsets": self._adj_offsets if isinstance(self._adj_offsets, array)
            else array("i", self._adj_offsets),
            "adj_targets": self._adj_targets if isinstance(self._adj_targets, array)
            else array("i", self._adj_targets),
            "adj_kinds": bytes(self._adj_kinds),
        }
        return pack_blob(_MAGIC, header, sections)

    @classmethod
    def _from_parsed(cls, header: dict, sections: dict, handle) -> "CompactGraphView":
        try:
            node_ids = [int(node_id) for node_id in header["node_ids"]]
            titles = [str(title) for title in header["titles"]]
            redirect_to = {
                int(source): int(target) for source, target in header["redirects"]
            }
            num_edges = int(header["num_edges"])
            flags = sections["flags"]
            adj_offsets = sections["adj_offsets"]
            adj_targets = sections["adj_targets"]
            adj_kinds = sections["adj_kinds"]
        except (KeyError, TypeError, ValueError) as exc:
            raise AnalysisError(f"compact graph blob is malformed: {exc}") from exc
        if len(titles) != len(node_ids) or len(flags) != len(node_ids) \
                or len(adj_offsets) != len(node_ids) + 1 \
                or len(adj_kinds) != len(adj_targets):
            raise AnalysisError("compact graph blob sections disagree on counts")
        return cls(
            node_ids=node_ids,
            flags=flags,
            titles=titles,
            adj_offsets=adj_offsets,
            adj_targets=adj_targets,
            adj_kinds=adj_kinds,
            redirect_to=redirect_to,
            num_edges=num_edges,
            handle=handle,
        )

    @classmethod
    def from_blob(cls, data) -> "CompactGraphView":
        header, sections = unpack_blob(_MAGIC, data, AnalysisError)
        return cls._from_parsed(header, sections, handle=None)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_bytes(self.to_blob())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CompactGraphView":
        """Map ``path`` read-only; adjacency arrays stay in the mapping."""
        header, sections, handle = map_blob(path, _MAGIC, AnalysisError)
        return cls._from_parsed(header, sections, handle=handle)

    def __repr__(self) -> str:
        return (
            f"CompactGraphView(articles={self.num_articles}, "
            f"categories={self.num_categories}, edges={self.num_edges}, "
            f"mapped={self._handle is not None})"
        )


class _CompactSubgraph:
    """A keep-set restriction of a :class:`CompactGraphView`.

    Implements exactly the graph API the expansion pipeline calls on an
    induced subgraph — adjacency filtered to the kept nodes, plus node
    classification, titles and (restricted) redirect lookups.  Building
    one is O(|keep|) validation; every adjacency answer filters one CSR
    slice on demand instead of materialising a dict-backed graph.
    """

    __slots__ = ("_base", "_keep", "_cache", "_articles")

    def __init__(self, base: CompactGraphView, keep: frozenset[int]) -> None:
        self._base = base
        self._keep = keep
        self._articles = base._article_ids
        # node_id -> 7 lazily restricted sets (links_out, links_in,
        # belongs, member, inside_parent, inside_child, undirected).
        # Cycle feature extraction queries the same ball nodes once per
        # cycle they appear in, so each slot is intersected at most once
        # — and only the slots actually asked for (the cycle finder needs
        # just the undirected slot; feature counting two typed slots per
        # node kind).
        self._cache: dict[int, list[frozenset | None]] = {}

    # -- membership and node accessors ---------------------------------

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._keep

    def __len__(self) -> int:
        return len(self._keep)

    @property
    def num_nodes(self) -> int:
        return len(self._keep)

    def node_ids(self) -> Iterator[int]:
        return iter(sorted(self._keep))

    def _check(self, node_id: int) -> int:
        if node_id not in self._keep:
            raise UnknownNodeError(node_id)
        return node_id

    def node(self, node_id: int) -> Article | Category:
        return self._base.node(self._check(node_id))

    def article(self, node_id: int) -> Article:
        return self._base.article(self._check(node_id))

    def category(self, node_id: int) -> Category:
        return self._base.category(self._check(node_id))

    def is_article(self, node_id: int) -> bool:
        return node_id in self._keep and node_id in self._articles

    def is_category(self, node_id: int) -> bool:
        return node_id in self._keep and node_id not in self._articles

    def title(self, node_id: int) -> str:
        return self._base.title(self._check(node_id))

    def articles(self) -> Iterator[Article]:
        base = self._base
        for node_id in sorted(self._keep):
            if base.is_article(node_id):
                yield base.article(node_id)

    def categories(self) -> Iterator[Category]:
        base = self._base
        for node_id in sorted(self._keep):
            if base.is_category(node_id):
                yield base.category(node_id)

    # -- adjacency, filtered to the kept set ---------------------------

    def _restricted(self, node_id: int, slot: int) -> frozenset[int]:
        entry = self._cache.get(node_id)
        if entry is None:
            if node_id not in self._keep:
                return _EMPTY
            entry = [None] * 7
            self._cache[node_id] = entry
        value = entry[slot]
        if value is None:
            value = self._base._neighbors(node_id, _SLOT_KINDS[slot]) & self._keep
            entry[slot] = value
        return value

    def links_from(self, article_id: int) -> frozenset[int]:
        return self._restricted(article_id, 0)

    def links_to(self, article_id: int) -> frozenset[int]:
        return self._restricted(article_id, 1)

    def categories_of(self, article_id: int) -> frozenset[int]:
        return self._restricted(article_id, 2)

    def members_of(self, category_id: int) -> frozenset[int]:
        return self._restricted(category_id, 3)

    def parents_of(self, category_id: int) -> frozenset[int]:
        return self._restricted(category_id, 4)

    def children_of(self, category_id: int) -> frozenset[int]:
        return self._restricted(category_id, 5)

    def redirect_target(self, article_id: int) -> int | None:
        if article_id not in self._keep:
            return None
        target = self._base.redirect_target(article_id)
        return target if target is not None and target in self._keep else None

    def redirects_of(self, article_id: int) -> frozenset[int]:
        if article_id not in self._keep:
            return frozenset()
        return self._base.redirects_of(article_id) & self._keep

    def resolve(self, article_id: int) -> int:
        current = article_id
        seen = {current}
        while (target := self.redirect_target(current)) is not None:
            if target in seen:
                return current
            seen.add(target)
            current = target
        return current

    def undirected_neighbors(self, node_id: int) -> frozenset[int]:
        return self._restricted(node_id, 6)

    def degree(self, node_id: int) -> int:
        return len(self.undirected_neighbors(node_id))

    def count_articles_in(self, nodes: tuple[int, ...]) -> int:
        """``A(C)`` of a cycle's node tuple (nodes of a simple cycle are
        distinct, so one set intersection counts them)."""
        return len(self._articles.intersection(nodes))

    def count_edges_among(self, nodes: tuple[int, ...]) -> int:
        """``E(C)`` of a cycle's node tuple, fused over cached sets.

        Mirrors :func:`repro.core.features.count_edges` exactly: directed
        article links count individually, BELONGS once per pair, INSIDE
        once per unordered category pair.
        """
        node_set = frozenset(nodes)
        articles = self._articles
        restricted = self._restricted
        edges = 0
        for index, u in enumerate(nodes):
            if u in articles:
                edges += len(restricted(u, 0) & node_set)  # directed links
                edges += len(restricted(u, 2) & node_set)  # belongs pairs
            else:
                parents = restricted(u, 4)
                children = restricted(u, 5)
                for v in nodes[index + 1:]:
                    if v not in articles and (v in parents or v in children):
                        edges += 1
        return edges

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.undirected_neighbors(u)

    def kernel_csr(self):
        """Raw CSR arrays restricted to the keep set; see
        :meth:`CompactGraphView.kernel_csr`."""
        base = self._base
        return (
            base._node_ids,
            base._index_of,
            base._adj_offsets,
            base._adj_targets,
            base._adj_kinds,
            base._flags,
            self._keep,
        )

    def induced_subgraph(self, node_ids: Iterable[int]) -> "_CompactSubgraph":
        keep = frozenset(node_ids)
        for node_id in keep:
            if node_id not in self._keep:
                raise UnknownNodeError(node_id)
        return _CompactSubgraph(self._base, keep)

    def __repr__(self) -> str:
        return f"_CompactSubgraph(nodes={len(self._keep)}, base={self._base!r})"
