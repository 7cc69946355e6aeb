"""Cycle-mining kernels over bitset adjacency, rooted at the anchors.

The general DFS of :mod:`repro.core.cycles` dominates cold serving
latency: profiling shows ~90 % of a cold ``cycle_mine`` span inside the
recursive path walk.  The input, however, is always a *query ball* — a
few hundred nodes — so each node's neighbour row fits in a handful of
machine words.  This module freezes the ball once per query into dense
bitset rows and replaces the DFS, for the paper's range L ∈ {2..5}, with
one rooted enumeration in which every DFS level is a bitwise AND between
precomputed rows — a semijoin-style reduction in the spirit of Leinders
& Van den Bussche's semijoin algebra, reduced by the most selective
relation first: the paper only wants cycles *through the query's
articles*, so the anchors are the outer loop, not the innermost filter.

**Relabeling.**  Ball nodes are interned to ``0..n-1`` ordered by
``(degree, node_id)`` ascending, the orientation trick of degeneracy-
ordered triangle counting: low-degree nodes are rooted and expanded
first, while the rows they are ANDed with are still cheap to strip.  Per
label the ball stores two Python-int bitsets — the undirected
redirect-free row ``adj`` and the antiparallel-link row ``mutual`` —
plus one ``articles`` mask for the whole ball.

**Kernels.**  One generator, :meth:`KernelBall._open_paths`, serves
``find``, ``count_by_length`` and ``find_features``.  Its *roots* are
the anchors' labels in ascending order — every label when there is no
anchor set.  ``alive`` starts as the whole ball and loses each root's
bit for good when that root's turn begins.  For root ``r``:

* L=2 — every bit of ``mutual[r] & alive`` closes the pair ``(r, v)``;
* ``a`` runs over ``adj[r] & alive`` ascending, and ``closers`` is what
  is left of that row above ``a``: the neighbours of ``r`` through which
  a cycle leaving by ``a`` may come back (the orientation rule below).
  No closers, no cycle — the loop over ``a`` ends;
* L=3 — every bit of ``adj[a] & closers`` closes ``(r, a, b)``;
* L=4 — for ``b ∈ adj[a] & alive``, every bit of
  ``adj[b] & closers`` closes ``(r, a, b, c)``;
* L=5 — for ``c ∈ adj[b] & alive`` minus ``{a}``, every bit of
  ``adj[c] & closers`` minus ``{b}`` closes ``(r, a, b, c, d)``.

Each level yields its open path with the whole *closing row* at once,
never bit by bit, so the three entry points differ only in what they do
with a row: count it, expand it, or gate it through the filter table.

**Canonical-order proof sketch.**  *Once per root:* for a fixed root the
loops produce exactly the label sequences ``(r, p1, .., pk)`` that are
pairwise distinct (each level draws from ``alive``, which excludes
``r``, and strips the path's own bits that adjacency does not already
exclude), adjacent consecutively and around the closing pair, and
oriented ``p1 < pk`` (``closers`` lies above ``a``) — one of the two
traversals of every simple cycle through ``r`` inside ``alive``.
*Once overall:* let ``r`` be the first root, in label order, on a cycle
``C`` that holds an anchor.  Earlier roots are not on ``C``, and at
``r``'s turn every other node of ``C`` is still alive, so ``C`` is
produced there; from then on ``r`` is dead, so no later root on ``C``
can produce it again.  A cycle holding ``k`` anchors is therefore
emitted once, at its first anchor, and a cycle holding none is never
walked.  *All roots:* without an anchor set every label is a root and
``alive`` at root ``r`` is exactly ``above(r) = -1 << (r + 1)`` — the
"every other label exceeds the root" rule of the DFS, transported into
label space; the census of a whole graph is the same loop with ``n``
roots, not a second algorithm.  Because the degree order permutes
labels away from id order, each emitted label sequence is mapped back
to node ids and re-rooted at the minimum *id* in the direction with the
smaller second id (:func:`_canonical_nodes`) — precisely the DFS
representative — and the caller sorts by ``(length, nodes)`` exactly as
:meth:`CycleFinder.find` does, so the final list is bit-identical.

**Filters.**  The expander's ``accept(length, A, E)`` predicate has a
finite domain, so it is evaluated over it once (:class:`AcceptTable`)
and the feature kernel only looks cells up: a closing row is first cut
to the labels whose article count can be accepted at all, and ``E(C)``
— adjacent pairs plus antiparallel pairs, which is the paper's edge
convention because every node pair carries one relation — is counted
for the survivors alone.  The ``max_cycles`` tripwire counts whole
closing rows before any gating, so it fires at the same total as the
DFS.

The ball builds from any WikiGraph-shaped object; graphs exposing
``kernel_csr()`` (the compact CSR read path —
:class:`repro.wiki.compact.CompactGraphView` and its keep-set
subgraphs) are ingested straight from their int32 target/kind arrays
without decoding frozensets.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import AnalysisError

__all__ = ["ACCEPT_ALL", "AcceptTable", "KernelBall", "KERNEL_MAX_LENGTH"]

# Kernels are specialised for the paper's lengths; beyond 5 the general
# DFS takes over (see repro.core.cycles.resolve_engine).
KERNEL_MAX_LENGTH = 5

# Edge-kind bits of the compact CSR (mirrors repro.wiki.compact, which
# core must not import at module level; a unit test asserts the sync).
_LINK_OUT = 1
_LINK_IN = 2
_FLAG_ARTICLE = 1


def _iter_bits(bits: int) -> Iterator[int]:
    """Yield set-bit positions of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _canonical_nodes(nodes: tuple[int, ...]) -> tuple[int, ...]:
    """Re-root a cyclic node sequence at its minimum id, oriented so the
    second node is smaller than the last — the DFS representative."""
    length = len(nodes)
    pivot = nodes.index(min(nodes))
    twice = nodes + nodes
    if nodes[(pivot + 1) % length] < nodes[pivot - 1]:
        return twice[pivot:pivot + length]
    return twice[pivot + length:pivot:-1]


class AcceptTable:
    """A ``(length, num_articles, num_edges) -> bool`` predicate tabulated
    over the kernels' finite domain, so the hot loop never calls Python
    per cycle: ``cells[length][num_articles]`` is the frozenset of
    accepted edge counts (a cycle of length L has L..L(L-1) edges).

    Still callable — it *is* the predicate it was built from, which is
    what the DFS oracle evaluates."""

    __slots__ = ("accept", "cells")

    def __init__(self, accept) -> None:
        self.accept = accept
        self.cells = {
            length: tuple(
                frozenset(
                    edges
                    for edges in range(length, length * (length - 1) + 1)
                    if accept(length, num_articles, edges)
                )
                for num_articles in range(length + 1)
            )
            for length in range(2, KERNEL_MAX_LENGTH + 1)
        }

    def __call__(self, length: int, num_articles: int, num_edges: int) -> bool:
        return self.accept(length, num_articles, num_edges)


ACCEPT_ALL = AcceptTable(lambda length, num_articles, num_edges: True)


class KernelBall:
    """One query ball frozen into degree-ordered bitset rows."""

    __slots__ = ("n", "ids", "_label_of", "adj", "mutual", "articles")

    def __init__(
        self, ids: list[int], adj: list[int], mutual: list[int], articles: int
    ) -> None:
        self.n = len(ids)
        self.ids = ids  # ids[label] -> original node id
        self._label_of = {node_id: label for label, node_id in enumerate(ids)}
        self.adj = adj
        self.mutual = mutual
        self.articles = articles

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, graph) -> "KernelBall":
        """Freeze ``graph`` (any WikiGraph-shaped object) into a ball.

        Graphs exposing ``kernel_csr()`` feed their int32 CSR rows in
        directly; everything else goes through the typed adjacency API.
        """
        raw = getattr(graph, "kernel_csr", None)
        if raw is not None:
            return cls._from_csr(*raw())
        return cls._from_api(graph)

    @classmethod
    def _from_csr(
        cls, node_ids, index_of, offsets, targets, kinds, flags, keep
    ) -> "KernelBall":
        """Build from raw compact-CSR arrays, no frozenset decode.

        ``keep`` restricts to a ball (``None`` = the whole view);
        ``targets`` holds *base indices* into ``node_ids``.
        """
        ball_ids = sorted(node_ids if keep is None else keep)
        base_rows = [index_of[node_id] for node_id in ball_ids]
        position_of = {base: p for p, base in enumerate(base_rows)}

        # Pass 1: each node's in-ball slots; their count is the
        # ball-restricted degree the label order sorts by (the sort is
        # stable over ascending ids, which breaks the ties).
        slots = []
        for base in base_rows:
            low, high = offsets[base], offsets[base + 1]
            slots.append([
                (position_of[target], kind)
                for target, kind in zip(targets[low:high], kinds[low:high])
                if target in position_of and target != base
            ])
        n = len(ball_ids)
        order = sorted(range(n), key=[len(row) for row in slots].__getitem__)
        ids = [ball_ids[p] for p in order]
        label_at = [0] * n
        for label, p in enumerate(order):
            label_at[p] = label

        # Pass 2: bitset rows in final label order.
        adj = [0] * n
        mutual = [0] * n
        articles = 0
        both_links = _LINK_OUT | _LINK_IN
        for label, p in enumerate(order):
            if flags[base_rows[p]] & _FLAG_ARTICLE:
                articles |= 1 << label
            adj_bits = mutual_bits = 0
            for q, kind in slots[p]:
                bit = 1 << label_at[q]
                adj_bits |= bit
                if kind & both_links == both_links:
                    mutual_bits |= bit
            adj[label] = adj_bits
            mutual[label] = mutual_bits
        return cls(ids, adj, mutual, articles)

    @classmethod
    def _from_api(cls, graph) -> "KernelBall":
        """Build through the typed adjacency API (dict-backed graphs)."""
        sorted_ids = sorted(graph.node_ids())
        neighbor_sets = [
            graph.undirected_neighbors(node_id) for node_id in sorted_ids
        ]
        order = sorted(
            range(len(sorted_ids)),
            key=lambda p: (len(neighbor_sets[p]), sorted_ids[p]),
        )
        ids = [sorted_ids[p] for p in order]
        label_of = {node_id: label for label, node_id in enumerate(ids)}

        n = len(ids)
        adj = [0] * n
        link_out = [0] * n
        link_in = [0] * n
        articles = 0
        for label, p in enumerate(order):
            node_id = ids[label]
            bits = 0
            for neighbor_id in neighbor_sets[p]:
                neighbor = label_of.get(neighbor_id)
                if neighbor is not None and neighbor != label:
                    bits |= 1 << neighbor
            adj[label] = bits
            if graph.is_article(node_id):
                articles |= 1 << label
                for target_id in graph.links_from(node_id):
                    target = label_of.get(target_id)
                    if target is not None and target != label:
                        link_out[label] |= 1 << target
                        link_in[target] |= 1 << label
        mutual = [out & back for out, back in zip(link_out, link_in)]
        return cls(ids, adj, mutual, articles)

    # ------------------------------------------------------------------
    # The one enumeration
    # ------------------------------------------------------------------

    def _open_paths(
        self, min_length: int, max_length: int, anchors: Iterable[int] | None
    ) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """Yield ``(path, path_bits, closing)``: a label path leaving a
        root, the same labels as a bitset, and the non-empty row of
        labels ``x`` that each close it into the cycle ``path + (x,)``.
        Every cycle of the window holding an anchor (every cycle when
        ``anchors`` is ``None``) comes out exactly once — module
        docstring, "Kernels" and "Canonical-order proof sketch"."""
        adj = self.adj
        mutual = self.mutual
        if anchors is None:
            roots = range(self.n)
        else:  # ids outside the ball drop out
            label_of = self._label_of
            roots = sorted({label_of[a] for a in anchors if a in label_of})
        want = [
            min_length <= length <= max_length
            for length in range(KERNEL_MAX_LENGTH + 1)
        ]
        alive = (1 << self.n) - 1
        for r in roots:
            bit_r = 1 << r
            alive ^= bit_r  # dead for good: later roots never revisit r
            if want[2]:
                closing = mutual[r] & alive
                if closing:
                    yield (r,), bit_r, closing
            if max_length < 3:
                continue
            closers = adj[r] & alive
            while closers:
                low_a = closers & -closers
                a = low_a.bit_length() - 1
                # Orientation: a cycle leaving through ``a`` comes back
                # through a neighbour of the root above ``a``.
                closers ^= low_a
                if not closers:
                    break
                row_a = adj[a] & alive
                if want[3]:
                    closing = row_a & closers
                    if closing:
                        yield (r, a), bit_r | low_a, closing
                if max_length < 4:
                    continue
                alive_a = alive ^ low_a
                m_b = row_a
                while m_b:
                    low_b = m_b & -m_b
                    b = low_b.bit_length() - 1
                    m_b ^= low_b
                    row_b = adj[b] & alive_a
                    if want[4]:
                        closing = row_b & closers
                        if closing:
                            yield (r, a, b), bit_r | low_a | low_b, closing
                    if max_length < 5:
                        continue
                    closers_b = closers & ~low_b
                    m_c = row_b
                    while m_c:
                        low_c = m_c & -m_c
                        m_c ^= low_c
                        c = low_c.bit_length() - 1
                        closing = adj[c] & closers_b
                        if closing:
                            yield (
                                (r, a, b, c),
                                bit_r | low_a | low_b | low_c,
                                closing,
                            )

    # ------------------------------------------------------------------
    # Mining entry points
    # ------------------------------------------------------------------

    @staticmethod
    def _overflow(max_cycles: int) -> AnalysisError:
        return AnalysisError(
            f"more than {max_cycles} cycles; "
            "pass a smaller graph or raise max_cycles"
        )

    def find(
        self,
        min_length: int,
        max_length: int,
        anchors: Iterable[int] | None,
        max_cycles: int,
    ) -> list[tuple[int, ...]]:
        """Canonical node-id tuples of every (anchored) cycle, unsorted."""
        ids = self.ids
        out: list[tuple[int, ...]] = []
        emitted = 0
        for path, _, closing in self._open_paths(
            min_length, max_length, anchors
        ):
            emitted += closing.bit_count()
            if emitted > max_cycles:
                raise self._overflow(max_cycles)
            head = tuple(map(ids.__getitem__, path))
            for x in _iter_bits(closing):
                out.append(_canonical_nodes(head + (ids[x],)))
        return out

    def count_by_length(
        self,
        min_length: int,
        max_length: int,
        anchors: Iterable[int] | None,
        max_cycles: int,
    ) -> dict[int, int]:
        """The cycle census without materialising a single tuple: each
        open path contributes the popcount of its closing row."""
        census = {
            length: 0 for length in range(min_length, max_length + 1)
        }
        emitted = 0
        for path, _, closing in self._open_paths(
            min_length, max_length, anchors
        ):
            count = closing.bit_count()
            census[len(path) + 1] += count
            emitted += count
            if emitted > max_cycles:
                raise self._overflow(max_cycles)
        return census

    def find_features(
        self,
        min_length: int,
        max_length: int,
        anchors: Iterable[int] | None,
        max_cycles: int,
        table: AcceptTable,
    ) -> tuple[list[tuple[tuple[int, ...], int, int]], int]:
        """``(canonical_nodes, num_articles, num_edges)`` of every cycle
        ``table`` accepts, plus the number of cycles enumerated.

        This is the hottest loop of a cold expansion, and the filters
        typically reject most of what the anchors emit, so rejection is
        wholesale: a closing row is first cut to the labels whose article
        count has any accepted edge count at all (one AND), and only the
        survivors have their edges counted and looked up.  ``E(C)`` is
        the number of adjacent pairs plus the number of antiparallel
        pairs among the cycle's nodes — the paper's ``M``-conventions of
        :func:`repro.core.features.count_edges`, since a node pair
        carries one relation and only links come in both directions —
        split into the path's own pairs (once per path) and the closing
        node's pairs with the path (two popcounts per cycle).

        The second value is the ``max_cycles`` tripwire's count: every
        anchored cycle, accepted or not, so both engines fire it at the
        identical total.
        """
        ids = self.ids
        adj = self.adj
        mutual = self.mutual
        articles = self.articles
        cells = table.cells
        # gate[L][p]: the closing labels still acceptable on a path of a
        # length-L cycle that already holds p articles — the articles if
        # (L, p + 1) accepts any edge count, the categories if (L, p) does.
        gate = {
            length: [
                (articles if cells[length][p + 1] else 0)
                | (~articles if cells[length][p] else 0)
                for p in range(length)
            ]
            for length in range(min_length, max_length + 1)
        }
        out: list[tuple[tuple[int, ...], int, int]] = []
        emitted = 0
        for path, path_bits, closing in self._open_paths(
            min_length, max_length, anchors
        ):
            emitted += closing.bit_count()
            if emitted > max_cycles:
                raise self._overflow(max_cycles)
            length = len(path) + 1
            path_articles = (path_bits & articles).bit_count()
            closing &= gate[length][path_articles]
            if not closing:
                continue
            twice = 0  # every pair inside the path is seen from both ends
            for u in path:
                twice += (adj[u] & path_bits).bit_count() + (
                    mutual[u] & path_bits
                ).bit_count()
            path_edges = twice >> 1
            accepted = cells[length]
            while closing:
                low = closing & -closing
                x = low.bit_length() - 1
                closing ^= low
                num_articles = path_articles + ((articles >> x) & 1)
                num_edges = (
                    path_edges
                    + (adj[x] & path_bits).bit_count()
                    + (mutual[x] & path_bits).bit_count()
                )
                if num_edges in accepted[num_articles]:
                    nodes = (*map(ids.__getitem__, path), ids[x])
                    out.append(
                        (_canonical_nodes(nodes), num_articles, num_edges)
                    )
        return out, emitted
