"""Overlay read path: a frozen base graph plus applied deltas.

The serving stack's graphs are immutable by design — dict-backed
:class:`~repro.wiki.graph.WikiGraph` at build time, the mmap-able CSR
:class:`~repro.wiki.compact.CompactGraphView` in workers.  Live updates
therefore never mutate a graph: applied deltas accumulate in an
:class:`OverlayState`, and an :class:`OverlayGraphView` answers the full
graph read API by merging the frozen base with that state at read time.

The merge rule per typed adjacency slot is ``(base - removed) | added``,
with the *explicit removal* convention: ``remove_article`` records the
removal of every incident edge individually (both directions), so the
passthrough adjacency of surviving neighbours is correct and a
remove-then-re-add naturally yields an edgeless article.  The ``removed``
set only governs node membership.

Read-path cost when the overlay is empty (or for nodes it never
touched): one set-membership test against ``touched`` and a passthrough
to the base — in particular :meth:`OverlayGraphView.induced_subgraph`
delegates to the base's zero-copy ``_CompactSubgraph`` whenever the
requested ball avoids touched nodes, so the cycle kernels keep their
CSR fast path.  Balls that do intersect the overlay are materialised as
ordinary dict-backed :class:`WikiGraph` subgraphs, which the cycle
machinery already answers bit-identically (the dict/compact equivalence
the benchmark asserts).

States are copy-on-write: :func:`apply_deltas` copies the state, applies
the batch, and returns the new state — published views never observe a
half-applied batch.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import DeltaError, UnknownNodeError
from repro.updates.deltas import Delta, validate_delta
from repro.wiki.graph import WikiGraph
from repro.wiki.schema import Article, Category, Edge, EdgeKind, normalize_title

__all__ = [
    "OverlayState",
    "OverlayGraphView",
    "apply_deltas",
    "apply_deltas_to_graph",
    "materialize_graph",
]

# Directed adjacency slots and their reverse twins.  Every edge write
# touches a (slot, reverse) pair so both endpoints answer consistently.
_SLOTS = ("links_out", "links_in", "belongs", "members", "parents", "children")
_REVERSE = {
    "links_out": "links_in",
    "links_in": "links_out",
    "belongs": "members",
    "members": "belongs",
    "parents": "children",
    "children": "parents",
}
_KIND_SLOT = {"link": "links_out", "belongs": "belongs", "inside": "parents"}


class OverlayState:
    """Accumulated effect of applied deltas over one base generation."""

    __slots__ = (
        "generation", "last_seq",
        "_add", "_rem", "articles_override", "removed",
        "redirect_add", "redirect_rem",
        "redirects_of_add", "redirects_of_rem",
        "touched", "removed_titles",
        "num_articles_delta", "num_main_delta", "num_edges_delta",
    )

    def __init__(self, generation: int = 1) -> None:
        self.generation = generation
        self.last_seq = 0
        self._add: dict[str, dict[int, set[int]]] = {s: {} for s in _SLOTS}
        self._rem: dict[str, dict[int, set[int]]] = {s: {} for s in _SLOTS}
        self.articles_override: dict[int, Article] = {}
        self.removed: set[int] = set()
        self.redirect_add: dict[int, int] = {}
        self.redirect_rem: set[int] = set()
        self.redirects_of_add: dict[int, set[int]] = {}
        self.redirects_of_rem: dict[int, set[int]] = {}
        self.touched: set[int] = set()
        self.removed_titles: set[str] = set()
        self.num_articles_delta = 0
        self.num_main_delta = 0
        self.num_edges_delta = 0

    @property
    def is_empty(self) -> bool:
        return self.last_seq == 0

    def copy(self) -> "OverlayState":
        clone = OverlayState(self.generation)
        clone.last_seq = self.last_seq
        clone._add = {s: {n: set(v) for n, v in m.items()}
                      for s, m in self._add.items()}
        clone._rem = {s: {n: set(v) for n, v in m.items()}
                      for s, m in self._rem.items()}
        clone.articles_override = dict(self.articles_override)
        clone.removed = set(self.removed)
        clone.redirect_add = dict(self.redirect_add)
        clone.redirect_rem = set(self.redirect_rem)
        clone.redirects_of_add = {n: set(v) for n, v in self.redirects_of_add.items()}
        clone.redirects_of_rem = {n: set(v) for n, v in self.redirects_of_rem.items()}
        clone.touched = set(self.touched)
        clone.removed_titles = set(self.removed_titles)
        clone.num_articles_delta = self.num_articles_delta
        clone.num_main_delta = self.num_main_delta
        clone.num_edges_delta = self.num_edges_delta
        return clone

    # ------------------------------------------------------------------
    # Edge-level bookkeeping
    # ------------------------------------------------------------------

    def _slot_add(self, slot: str, node: int, other: int) -> None:
        rem = self._rem[slot].get(node)
        if rem is not None and other in rem:
            rem.discard(other)
        else:
            self._add[slot].setdefault(node, set()).add(other)

    def _slot_rem(self, slot: str, node: int, other: int) -> None:
        add = self._add[slot].get(node)
        if add is not None and other in add:
            add.discard(other)
        else:
            self._rem[slot].setdefault(node, set()).add(other)

    def _edge_add(self, slot: str, source: int, target: int) -> None:
        self._slot_add(slot, source, target)
        self._slot_add(_REVERSE[slot], target, source)
        self.num_edges_delta += 1
        self.touched.update((source, target))

    def _edge_rem(self, slot: str, source: int, target: int) -> None:
        self._slot_rem(slot, source, target)
        self._slot_rem(_REVERSE[slot], target, source)
        self.num_edges_delta -= 1
        self.touched.update((source, target))

    def _redirect_set(self, source: int, target: int) -> None:
        self.redirect_add[source] = target
        self.redirect_rem.discard(source)
        removed = self.redirects_of_rem.get(target)
        if removed is not None and source in removed:
            removed.discard(source)
        else:
            self.redirects_of_add.setdefault(target, set()).add(source)
        self.num_edges_delta += 1

    def _redirect_clear(self, source: int, target: int) -> None:
        if source in self.redirect_add:
            del self.redirect_add[source]
        else:
            self.redirect_rem.add(source)
        added = self.redirects_of_add.get(target)
        if added is not None and source in added:
            added.discard(source)
        else:
            self.redirects_of_rem.setdefault(target, set()).add(source)
        self.num_edges_delta -= 1

    # ------------------------------------------------------------------
    # Delta application (``view`` is the effective view over *this* state)
    # ------------------------------------------------------------------

    def apply_delta(self, view: "OverlayGraphView", delta: Delta) -> None:
        """Fold one validated delta in; ``view`` must wrap this state."""
        if delta.op == "add_article":
            node = delta.node_id
            article = Article(node, str(delta.title), is_redirect=False)
            self.articles_override[node] = article
            self.removed.discard(node)
            self.removed_titles.discard(article.norm_title)
            self.touched.add(node)
            self.num_articles_delta += 1
            self.num_main_delta += 1
        elif delta.op == "remove_article":
            node = delta.node_id
            article = view.article(node)
            for target in view.links_from(node):
                self._edge_rem("links_out", node, target)
            for source in view.links_to(node):
                self._edge_rem("links_out", source, node)
            for category in view.categories_of(node):
                self._edge_rem("belongs", node, category)
            target = view.redirect_target(node)
            if target is not None:
                self._redirect_clear(node, target)
                self.touched.add(target)
            self.removed.add(node)
            self.articles_override.pop(node, None)
            self.removed_titles.add(article.norm_title)
            self.touched.add(node)
            self.num_articles_delta -= 1
            if not article.is_redirect:
                self.num_main_delta -= 1
        elif delta.op == "add_edge":
            self._edge_add(_KIND_SLOT[delta.kind], delta.source, delta.target)
        elif delta.op == "remove_edge":
            self._edge_rem(_KIND_SLOT[delta.kind], delta.source, delta.target)
        elif delta.op == "set_redirect":
            node, target = delta.node_id, delta.target
            article = view.article(node)
            for linked in view.links_from(node):
                self._edge_rem("links_out", node, linked)
            for category in view.categories_of(node):
                self._edge_rem("belongs", node, category)
            old = view.redirect_target(node)
            if old is not None:
                self._redirect_clear(node, old)
                self.touched.add(old)
            self._redirect_set(node, target)
            self.articles_override[node] = Article(
                node, article.title, is_redirect=True
            )
            self.touched.update((node, target))
            if not article.is_redirect:
                self.num_main_delta -= 1
        else:
            raise AssertionError(f"unreachable op {delta.op!r}")
        self.last_seq = max(self.last_seq, delta.seq)


class OverlayGraphView:
    """The WikiGraph read API over ``base`` merged with an overlay state.

    ``base`` is any frozen graph view (:class:`CompactGraphView` or a
    plain :class:`WikiGraph`); the surface is explicit — no
    ``__getattr__`` and deliberately no ``kernel_csr``, so the cycle
    kernels can never read stale CSR arrays through an overlay (they
    either get the base's subgraph view on the untouched fast path, or a
    materialised dict subgraph).
    """

    __slots__ = ("_base", "_state")

    def __init__(self, base, state: OverlayState) -> None:
        self._base = base
        self._state = state

    @property
    def base(self):
        return self._base

    @property
    def state(self) -> OverlayState:
        return self._state

    @property
    def generation(self) -> int:
        return self._state.generation

    # ------------------------------------------------------------------
    # Sizes and membership
    # ------------------------------------------------------------------

    @property
    def num_articles(self) -> int:
        return self._base.num_articles + self._state.num_articles_delta

    @property
    def num_main_articles(self) -> int:
        return self._base.num_main_articles + self._state.num_main_delta

    @property
    def num_categories(self) -> int:
        return self._base.num_categories

    @property
    def num_nodes(self) -> int:
        return self._base.num_nodes + self._state.num_articles_delta

    @property
    def num_edges(self) -> int:
        return self._base.num_edges + self._state.num_edges_delta

    def __contains__(self, node_id: int) -> bool:
        state = self._state
        if node_id in state.removed:
            return False
        return node_id in state.articles_override or node_id in self._base

    def __len__(self) -> int:
        return self.num_nodes

    # ------------------------------------------------------------------
    # Node accessors
    # ------------------------------------------------------------------

    def node(self, node_id: int) -> Article | Category:
        state = self._state
        if node_id in state.removed:
            raise UnknownNodeError(node_id)
        override = state.articles_override.get(node_id)
        if override is not None:
            return override
        return self._base.node(node_id)

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
        state = self._state
        if node_id in state.removed:
            return False
        if node_id in state.articles_override:
            return True
        return node_id in self._base and self._base.is_article(node_id)

    def is_category(self, node_id: int) -> bool:
        return node_id in self._base and self._base.is_category(node_id)

    def title(self, node_id: int) -> str:
        return self.node(node_id).title

    def node_ids(self) -> Iterator[int]:
        state = self._state
        base = self._base
        for node_id in base.node_ids():
            if node_id not in state.removed:
                yield node_id
        for node_id in sorted(state.articles_override):
            if node_id not in base:
                yield node_id

    def articles(self) -> Iterator[Article]:
        state = self._state
        base = self._base
        for article in base.articles():
            if article.node_id in state.removed:
                continue
            yield state.articles_override.get(article.node_id, article)
        for node_id in sorted(state.articles_override):
            if node_id not in base:
                yield state.articles_override[node_id]

    def main_articles(self) -> Iterator[Article]:
        return (a for a in self.articles() if not a.is_redirect)

    def categories(self) -> Iterator[Category]:
        return self._base.categories()

    # ------------------------------------------------------------------
    # Title lookup (entity linking / synonym support)
    # ------------------------------------------------------------------

    def article_by_title(self, title: str) -> Article | None:
        norm = normalize_title(title)
        state = self._state
        for article in state.articles_override.values():
            if article.norm_title == norm and article.node_id not in state.removed:
                return article
        found = self._base.article_by_title(norm)
        if found is None or found.node_id in state.removed:
            return None
        return state.articles_override.get(found.node_id, found)

    # ------------------------------------------------------------------
    # Typed adjacency
    # ------------------------------------------------------------------

    _EMPTY = frozenset()

    def _slot(self, slot: str, node_id: int, base_set) -> frozenset[int]:
        state = self._state
        return self._merged(
            node_id, base_set,
            state._add[slot].get(node_id), state._rem[slot].get(node_id),
        )

    def _merged(self, node_id: int, base_set, add, rem) -> frozenset[int]:
        """``(base_set - rem) | add``; empty for a removed node."""
        if node_id in self._state.removed:
            return self._EMPTY
        if not add and not rem:
            return base_set if isinstance(base_set, frozenset) \
                else frozenset(base_set)
        merged = set(base_set)
        if rem:
            merged -= rem
        if add:
            merged |= add
        return frozenset(merged)

    # Every base answers an id it does not hold with the empty set.

    def links_from(self, article_id: int) -> frozenset[int]:
        return self._slot("links_out", article_id, self._base.links_from(article_id))

    def links_to(self, article_id: int) -> frozenset[int]:
        return self._slot("links_in", article_id, self._base.links_to(article_id))

    def categories_of(self, article_id: int) -> frozenset[int]:
        return self._slot("belongs", article_id, self._base.categories_of(article_id))

    def members_of(self, category_id: int) -> frozenset[int]:
        return self._slot("members", category_id, self._base.members_of(category_id))

    def parents_of(self, category_id: int) -> frozenset[int]:
        return self._slot("parents", category_id, self._base.parents_of(category_id))

    def children_of(self, category_id: int) -> frozenset[int]:
        return self._slot("children", category_id, self._base.children_of(category_id))

    def redirect_target(self, article_id: int) -> int | None:
        state = self._state
        if article_id in state.removed:
            return None
        if article_id in state.redirect_add:
            return state.redirect_add[article_id]
        if article_id in state.redirect_rem:
            return None
        return self._base.redirect_target(article_id)

    def redirects_of(self, article_id: int) -> frozenset[int]:
        state = self._state
        return self._merged(
            article_id, self._base.redirects_of(article_id),
            state.redirects_of_add.get(article_id),
            state.redirects_of_rem.get(article_id),
        )

    def resolve(self, article_id: int) -> int:
        seen = {article_id}
        current = article_id
        while (target := self.redirect_target(current)) is not None:
            if target in seen:  # defensive: malformed loop
                return current
            seen.add(target)
            current = target
        return current

    def undirected_neighbors(self, node_id: int) -> frozenset[int]:
        state = self._state
        if node_id in state.removed:
            return self._EMPTY
        if node_id not in state.touched and node_id in self._base:
            neighbors = self._base.undirected_neighbors(node_id)
            return neighbors if isinstance(neighbors, frozenset) \
                else frozenset(neighbors)
        merged: set[int] = set()
        merged |= self.links_from(node_id)
        merged |= self.links_to(node_id)
        merged |= self.categories_of(node_id)
        merged |= self.members_of(node_id)
        merged |= self.parents_of(node_id)
        merged |= self.children_of(node_id)
        return frozenset(merged)

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------

    def induced_subgraph(self, node_ids: Iterable[int]):
        keep = frozenset(node_ids)
        state = self._state
        for node_id in keep:
            if node_id not in self:
                raise UnknownNodeError(node_id)
        if keep.isdisjoint(state.touched):
            # The ball never meets the overlay: the base's own subgraph
            # answers identically, and for a CSR base that keeps the
            # zero-copy kernel fast path.
            return self._base.induced_subgraph(keep)
        articles: dict[int, Article] = {}
        categories: dict[int, Category] = {}
        edges: list[Edge] = []
        for node_id in sorted(keep):
            # A node the overlay never touched reads its base row as is,
            # one typed decode per edge kind and no merge.
            graph = self if node_id in state.touched else self._base
            found = graph.node(node_id)
            if isinstance(found, Article):
                articles[node_id] = found
                for target in sorted(graph.links_from(node_id) & keep):
                    edges.append(Edge(node_id, target, EdgeKind.LINK))
                for category in sorted(graph.categories_of(node_id) & keep):
                    edges.append(Edge(node_id, category, EdgeKind.BELONGS))
                target = graph.redirect_target(node_id)
                if target is not None and target in keep:
                    edges.append(Edge(node_id, target, EdgeKind.REDIRECT))
            else:
                categories[node_id] = found
                for parent in sorted(graph.parents_of(node_id) & keep):
                    edges.append(Edge(node_id, parent, EdgeKind.INSIDE))
        return WikiGraph(articles, categories, edges)

    def __repr__(self) -> str:
        state = self._state
        return (
            f"OverlayGraphView(gen={state.generation}, last_seq={state.last_seq}, "
            f"touched={len(state.touched)}, base={self._base!r})"
        )


# ----------------------------------------------------------------------
# Batch application and materialisation
# ----------------------------------------------------------------------

def apply_deltas(
    base, state: OverlayState, deltas: Iterable[Delta]
) -> tuple[OverlayState, list[Delta]]:
    """Copy-on-write batch apply; returns ``(new_state, applied)``.

    Deltas at or below the state's ``last_seq`` are skipped (idempotent
    replay); the rest are validated in order against the evolving
    effective view and folded in.  On any :class:`DeltaError` the
    original state is untouched and nothing from the batch survives.
    """
    new_state = state.copy()
    view = OverlayGraphView(base, new_state)
    applied: list[Delta] = []
    for delta in deltas:
        if delta.seq <= new_state.last_seq:
            continue
        validate_delta(view, delta)
        new_state.apply_delta(view, delta)
        applied.append(delta)
    return new_state, applied


def materialize_graph(view) -> WikiGraph:
    """A from-scratch dict graph equal to the effective view.

    Used by compaction (fold the overlay into generation N+1) and by the
    oracle tests: ``materialize_graph(OverlayGraphView(base, state))``
    must equal ``apply_deltas_to_graph(original_graph, deltas)``.
    """
    articles = {a.node_id: a for a in view.articles()}
    categories = {c.node_id: c for c in view.categories()}
    edges: list[Edge] = []
    for node_id in sorted(articles):
        for target in sorted(view.links_from(node_id)):
            edges.append(Edge(node_id, target, EdgeKind.LINK))
        for category in sorted(view.categories_of(node_id)):
            edges.append(Edge(node_id, category, EdgeKind.BELONGS))
        target = view.redirect_target(node_id)
        if target is not None:
            edges.append(Edge(node_id, target, EdgeKind.REDIRECT))
    for node_id in sorted(categories):
        for parent in sorted(view.parents_of(node_id)):
            edges.append(Edge(node_id, parent, EdgeKind.INSIDE))
    return WikiGraph(articles, categories, edges)


def apply_deltas_to_graph(graph: WikiGraph, deltas: Iterable[Delta]) -> WikiGraph:
    """The dict-path oracle: rebuild ``graph`` with ``deltas`` applied.

    Deliberately does *not* go through the overlay machinery — it edits
    plain dict/set structures and constructs a fresh :class:`WikiGraph`,
    so the bit-identity tests compare the live overlay against a rebuild
    produced by an independent code path.
    """
    articles = {a.node_id: a for a in graph.articles()}
    categories = {c.node_id: c for c in graph.categories()}
    edge_set: set[Edge] = set(graph.edges())
    for delta in deltas:
        if delta.op == "add_article":
            articles[delta.node_id] = Article(
                delta.node_id, str(delta.title), is_redirect=False
            )
        elif delta.op == "remove_article":
            del articles[delta.node_id]
            edge_set = {
                e for e in edge_set
                if delta.node_id not in (e.source, e.target)
            }
        elif delta.op == "add_edge":
            edge_set.add(Edge(delta.source, delta.target, EdgeKind(delta.kind)))
        elif delta.op == "remove_edge":
            edge_set.discard(Edge(delta.source, delta.target, EdgeKind(delta.kind)))
        elif delta.op == "set_redirect":
            node = delta.node_id
            edge_set = {
                e for e in edge_set
                if not (e.source == node and e.kind in (
                    EdgeKind.LINK, EdgeKind.BELONGS, EdgeKind.REDIRECT,
                ))
            }
            edge_set.add(Edge(node, delta.target, EdgeKind.REDIRECT))
            articles[node] = Article(node, articles[node].title, is_redirect=True)
        else:
            raise DeltaError(f"oracle cannot apply op {delta.op!r}")
    ordered = sorted(edge_set, key=lambda e: (e.source, e.target, e.kind.value))
    return WikiGraph(articles, categories, ordered)
