"""Targeted cache invalidation for applied deltas.

The paper's cycle features are functions of a bounded neighbourhood
ball (radius-2 BFS ball, cycles up to length 5), so a graph delta can
only change the answer of queries whose seed set lies near the touched
nodes — exactly the locality argument of Berkholz et al. for answering
queries under updates (PAPERS.md).  Instead of dropping whole caches on
every update, we compute the *delta ball*: every node within
``INVALIDATION_RADIUS`` hops of a node the batch touched, measured over
the union of the pre- and post-apply adjacency (an added edge must
invalidate along the new path, a removed edge along the old one).

An expansion-cache entry is keyed by its frozenset of seed ids; it is
evicted iff its seeds intersect the delta ball
(:func:`expansion_eviction_predicate` with
:meth:`~repro.service.cache.LRUCache.evict_where`).  Everything else
stays warm — the ``delta_overlay`` bench regime asserts unrelated
topics keep their cache hits across an applied delta.

The link cache is keyed by normalised query *text*, which has no
locality in node-id space; it is dropped (and the linker patched) only
when a delta changes the title/redirect surface — ``add_article``,
``remove_article``, ``set_redirect`` — and left alone for pure edge
deltas (:func:`deltas_touch_titles`).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.updates.deltas import Delta

__all__ = [
    "INVALIDATION_RADIUS",
    "delta_ball",
    "changed_nodes",
    "deltas_touch_titles",
    "expansion_eviction_predicate",
]

# Max cycle length of the expansion analysis: a cached expansion whose
# seeds sit further than this from every touched node cannot have any
# touched node inside the subgraph its features were mined from.
INVALIDATION_RADIUS = 5

_TITLE_OPS = frozenset({"add_article", "remove_article", "set_redirect"})


def changed_nodes(deltas: Iterable[Delta]) -> frozenset[int]:
    """Nodes a batch names directly (BFS sources of the delta ball)."""
    return frozenset(
        node for delta in deltas
        for node in (delta.node_id, delta.source, delta.target)
        if node is not None
    )


def deltas_touch_titles(deltas: Iterable[Delta]) -> bool:
    """True when the batch changes the title/redirect surface linking
    depends on (so the linker must be patched and the link cache shed)."""
    return any(delta.op in _TITLE_OPS for delta in deltas)


def _neighbors(view, node_id: int) -> frozenset[int]:
    if node_id not in view:
        return frozenset()
    return view.undirected_neighbors(node_id)


def delta_ball(
    sources: Iterable[int],
    *,
    before,
    after,
    radius: int = INVALIDATION_RADIUS,
) -> frozenset[int]:
    """BFS ball around ``sources`` over the union adjacency of both views.

    ``before`` is the effective view the batch was applied against,
    ``after`` the view with the batch folded in; a node absent from one
    side contributes no neighbours there (removed and added nodes are
    handled uniformly).

    When ``after`` overlays a frozen CSR base (one with
    ``kernel_csr()``; ``before`` is an earlier overlay of the same base),
    a node neither overlay touched is read once, as a slice of its row
    in index space, and only touched nodes are asked of the views.  Rows
    are sliced, not read through ``base.undirected_neighbors``, so that
    no frozenset is built per visited node: the slices feed one set in
    index space, mapped back to ids once per level, and a ball can be
    the whole graph.
    """
    ball = set(sources)
    frontier = set(sources)
    csr = getattr(getattr(after, "base", None), "kernel_csr", None)
    node_ids, index_of, offsets, targets = (
        csr()[:4] if csr is not None else ((), {}, (), ())
    )
    # ``touched`` only grows, and holds every added or removed node.
    overlaid = after.state.touched if csr is not None else None
    for _ in range(radius):
        if not frontier:
            break
        next_frontier: set[int] = set()
        rows: set[int] = set()
        for node in frontier:
            if overlaid is None or node in overlaid:
                next_frontier |= _neighbors(before, node)
                next_frontier |= _neighbors(after, node)
            elif (idx := index_of.get(node)) is not None:
                rows.update(targets[offsets[idx]:offsets[idx + 1]])
        next_frontier.update(map(node_ids.__getitem__, rows))
        next_frontier -= ball
        ball |= next_frontier
        frontier = next_frontier
    return frozenset(ball)


def expansion_eviction_predicate(ball: frozenset[int]):
    """Predicate over expansion-cache keys (frozensets of seed ids)."""

    def doomed(key) -> bool:
        try:
            return not ball.isdisjoint(key)
        except TypeError:
            return True  # unknown key shape: evict conservatively
    return doomed
