"""Undirected cycle enumeration (Section 3).

The paper's cycle definition:

    "We define a cycle C as a sequence of |C| nodes (either articles or
    categories) starting and ending at the same node, with at least one
    edge among each pair of consecutive nodes. [...] we do not consider
    the direction of the edges, and we limit the length of the cycles to 5
    [...]  Finally, we are interested in those cycles containing at least
    one article of L(q.k)."

Consequences implemented here:

* Cycles of length **2** are pairs of articles linked in *both* directions
  (two antiparallel LINK edges; a single undirected edge is not a cycle).
  Only article pairs can form them — the schema has at most one edge
  between an article and a category.
* Cycles of length **3..5** are simple cycles in the undirected,
  redirect-free view of the graph.  Chords are allowed (cycles are not
  required to be chordless); chords are *measured* by the density feature,
  not used to split the cycle.
* Each cycle is reported once, in canonical order: lowest node id first,
  then the direction whose second node has the smaller id.

Enumeration is exponential in the maximum length, as the paper points out;
the intended input is a per-query graph (hundreds of nodes), not all of
Wikipedia.  A ``max_cycles`` guard protects against degenerate inputs.

Two engines implement the same contract:

* ``"kernels"`` (default) — the bitset hot path of
  :mod:`repro.core.cycle_kernels`: the ball is frozen into degree-ordered
  bitset rows and the lengths 2..5 are mined by one enumeration rooted
  at the anchors, every level a bitwise AND.  Used whenever
  ``max_length <= 5`` (the paper's range).
* ``"dfs"`` — the general recursive enumerator below, kept as the
  equivalence oracle and for ``max_length > 5``.

Both return the same canonical node tuples in the same sort order —
bit-identical lists — and both fire the ``max_cycles`` tripwire at the
same total count of emitted (anchor-filtered) cycles, 2-cycles included.
Select with the ``engine`` argument or the ``REPRO_CYCLE_ENGINE``
environment variable.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.core.cycle_kernels import (
    ACCEPT_ALL,
    KERNEL_MAX_LENGTH,
    AcceptTable,
    KernelBall,
)
from repro.errors import AnalysisError
from repro.obs import trace as tracing
from repro.wiki.graph import WikiGraph

__all__ = ["Cycle", "CycleFinder", "find_cycles", "resolve_engine"]

MAX_SUPPORTED_LENGTH = 8  # enumeration is exponential; hard stop well past 5

ENGINE_ENV_VAR = "REPRO_CYCLE_ENGINE"
_ENGINES = ("kernels", "dfs")


def resolve_engine(engine: str | None, max_length: int) -> str:
    """Resolve the cycle-mining engine for a finder.

    Explicit argument wins, then the ``REPRO_CYCLE_ENGINE`` environment
    variable, then the default ``"kernels"``.  The kernels are
    specialised for the paper's lengths, so any ``max_length`` beyond
    :data:`~repro.core.cycle_kernels.KERNEL_MAX_LENGTH` falls back to
    the general DFS regardless of the requested engine.
    """
    if engine is None:
        engine = os.environ.get(ENGINE_ENV_VAR) or "kernels"
    if engine not in _ENGINES:
        raise AnalysisError(
            f"unknown cycle engine {engine!r}; expected one of {_ENGINES}"
        )
    if engine == "kernels" and max_length > KERNEL_MAX_LENGTH:
        return "dfs"
    return engine


@dataclass(frozen=True, slots=True)
class Cycle:
    """One cycle, as its canonical node sequence."""

    nodes: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def __iter__(self):
        return iter(self.nodes)

    def __str__(self) -> str:
        return "(" + " - ".join(str(n) for n in self.nodes) + ")"


class CycleFinder:
    """Enumerates cycles of a WikiGraph through anchor articles.

    Parameters
    ----------
    graph:
        Typically a query graph ``G(q)``; any WikiGraph works.
    max_length / min_length:
        Bounds on cycle length, inclusive (paper: 2..5).
    max_cycles:
        Enumeration aborts with :class:`AnalysisError` beyond this many
        cycles — a tripwire for accidentally passing a huge dense graph.
    engine:
        ``"kernels"`` (bitset hot path, the default) or ``"dfs"`` (the
        oracle); see :func:`resolve_engine`.  Both produce bit-identical
        results, so the choice never affects output, only speed.
    """

    def __init__(
        self,
        graph: WikiGraph,
        *,
        min_length: int = 2,
        max_length: int = 5,
        max_cycles: int = 1_000_000,
        engine: str | None = None,
    ) -> None:
        if min_length < 2:
            raise AnalysisError("min_length must be >= 2 (a cycle needs two nodes)")
        if max_length < min_length:
            raise AnalysisError("max_length must be >= min_length")
        if max_length > MAX_SUPPORTED_LENGTH:
            raise AnalysisError(
                f"max_length {max_length} exceeds the supported bound "
                f"{MAX_SUPPORTED_LENGTH}; enumeration cost grows exponentially"
            )
        self._graph = graph
        self._min_length = min_length
        self._max_length = max_length
        self._max_cycles = max_cycles
        self._engine = resolve_engine(engine, max_length)
        # Both views of the graph are built lazily, on first use by their
        # engine: the DFS adjacency snapshot costs a full sorted decode of
        # every neighbour set, the kernel ball a bitset freeze.
        self._adjacency_cache: dict[int, tuple[int, ...]] | None = None
        self._ball_cache: KernelBall | None = None

    @property
    def engine(self) -> str:
        """The resolved engine actually used by this finder."""
        return self._engine

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def find(self, anchors: Iterable[int] | None = None) -> list[Cycle]:
        """All cycles within the length bounds containing >= 1 anchor.

        ``anchors`` defaults to *no filtering* (every cycle is returned).
        The result is sorted by (length, nodes) so downstream analysis is
        deterministic.
        """
        anchor_set = None if anchors is None else frozenset(anchors)
        if self._engine == "kernels":
            cycles = [
                Cycle(nodes)
                for nodes in self._ball().find(
                    self._min_length, self._max_length, anchor_set, self._max_cycles
                )
            ]
        else:
            cycles = [Cycle(nodes) for nodes in self._dfs_tuples(anchor_set)]
        cycles.sort(key=lambda c: (c.length, c.nodes))
        return cycles

    def count_by_length(self, anchors: Iterable[int] | None = None) -> dict[int, int]:
        """Cycle census: ``{length: count}`` with zeros for empty lengths.

        Never materialises :class:`Cycle` objects; the kernel engine
        reduces the innermost level of its enumeration to a popcount.
        """
        anchor_set = None if anchors is None else frozenset(anchors)
        if self._engine == "kernels":
            return self._ball().count_by_length(
                self._min_length, self._max_length, anchor_set, self._max_cycles
            )
        census = {length: 0 for length in range(self._min_length, self._max_length + 1)}
        for nodes in self._dfs_tuples(anchor_set):
            census[len(nodes)] += 1
        return census

    def find_with_features(
        self, anchors: Iterable[int] | None = None, *, accept=None
    ):
        """Like :meth:`find`, but paired with each cycle's structural
        features — ``list[CycleFeatures]`` in the same (length, nodes)
        order.

        On the kernel engine the features fall out of the bitset rows
        (popcounts of the typed rows masked by the cycle), skipping the
        per-cycle edge scan of :func:`repro.core.features.count_edges`;
        on DFS this is exactly ``compute_features`` over :meth:`find`.

        ``accept`` is an optional ``(length, num_articles, num_edges) ->
        bool`` prefilter; cycles it rejects are dropped before any
        object is built.  The DFS engine calls it per cycle; the kernel
        engine reads it as an :class:`~repro.core.cycle_kernels.AcceptTable`
        (pass one built ahead to skip the tabulation, as
        :class:`~repro.core.expansion.CycleExpander` does) and never
        calls Python per cycle.  It sees identical values on both
        engines and never affects the ``max_cycles`` tripwire.

        Reports ``roots`` (anchors inside the graph; every node without
        an anchor set), ``emitted`` (the tripwire's count: anchored
        cycles enumerated) and ``kept`` onto the open trace span, if any.
        """
        # Deferred: features imports Cycle from this module.
        from repro.core.features import CycleFeatures, compute_features, max_edges

        anchor_set = None if anchors is None else frozenset(anchors)
        if self._engine != "kernels":
            cycles = self.find(anchor_set)
            emitted = len(cycles)
            out = []
            for cycle in cycles:
                features = compute_features(self._graph, cycle)
                if accept is None or accept(
                    features.length, features.num_articles, features.num_edges
                ):
                    out.append(features)
        else:
            if accept is None:
                accept = ACCEPT_ALL
            elif not isinstance(accept, AcceptTable):
                accept = AcceptTable(accept)
            rows, emitted = self._ball().find_features(
                self._min_length,
                self._max_length,
                anchor_set,
                self._max_cycles,
                accept,
            )
            rows.sort(key=lambda row: (len(row[0]), row[0]))
            out = []
            for nodes, num_articles, num_edges in rows:
                num_categories = len(nodes) - num_articles
                out.append(
                    CycleFeatures(
                        cycle=Cycle(nodes),
                        num_articles=num_articles,
                        num_categories=num_categories,
                        num_edges=num_edges,
                        max_possible_edges=max_edges(
                            num_articles, num_categories
                        ),
                    )
                )
        graph = self._graph
        tracing.add_counts(
            roots=len(graph)
            if anchor_set is None
            else sum(1 for node_id in anchor_set if node_id in graph),
            emitted=emitted,
            kept=len(out),
        )
        return out

    # ------------------------------------------------------------------
    # Engine internals
    # ------------------------------------------------------------------

    def _ball(self) -> KernelBall:
        if self._ball_cache is None:
            self._ball_cache = KernelBall.build(self._graph)
        return self._ball_cache

    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        """Undirected adjacency snapshot, sorted for determinism."""
        if self._adjacency_cache is None:
            graph = self._graph
            self._adjacency_cache = {
                node_id: tuple(sorted(graph.undirected_neighbors(node_id)))
                for node_id in graph.node_ids()
            }
        return self._adjacency_cache

    def _dfs_tuples(
        self, anchors: frozenset[int] | None
    ) -> Iterator[tuple[int, ...]]:
        """Canonical node tuples from the DFS engine, unsorted, with the
        shared ``max_cycles`` tripwire across all lengths."""
        emitted = 0
        if self._min_length <= 2:
            for nodes in self._two_cycles(anchors):
                emitted += 1
                if emitted > self._max_cycles:
                    raise self._overflow()
                yield nodes
        if self._max_length >= 3:
            for nodes in self._simple_cycles(anchors):
                emitted += 1
                if emitted > self._max_cycles:
                    raise self._overflow()
                yield nodes

    def _overflow(self) -> AnalysisError:
        return AnalysisError(
            f"more than {self._max_cycles} cycles; "
            "pass a smaller graph or raise max_cycles"
        )

    # ------------------------------------------------------------------
    # Length-2: antiparallel article links
    # ------------------------------------------------------------------

    def _two_cycles(
        self, anchors: frozenset[int] | None
    ) -> Iterator[tuple[int, ...]]:
        graph = self._graph
        for article in graph.articles():
            u = article.node_id
            for v in graph.links_from(u):
                if v <= u or v not in graph:
                    continue
                if anchors is not None and u not in anchors and v not in anchors:
                    continue
                if u in graph.links_from(v):
                    yield (u, v)

    # ------------------------------------------------------------------
    # Length >= 3: DFS over the undirected view
    # ------------------------------------------------------------------

    def _simple_cycles(
        self, anchors: frozenset[int] | None
    ) -> Iterator[tuple[int, ...]]:
        """Canonical enumeration: root is the smallest node id of the cycle,
        neighbours on the path must exceed the root, and the orientation
        with ``path[1] < path[-1]`` is kept (dedups the mirror image)."""
        adjacency = self._adjacency()
        max_length = self._max_length
        min_length = max(3, self._min_length)
        on_path: set[int] = set()

        for root in sorted(adjacency):
            root_neighbors = adjacency[root]
            path = [root]
            on_path = {root}

            def dfs() -> Iterator[tuple[int, ...]]:
                current = path[-1]
                for neighbor in adjacency[current]:
                    if neighbor <= root:
                        continue
                    if neighbor in on_path:
                        continue
                    path.append(neighbor)
                    on_path.add(neighbor)
                    length = len(path)
                    if (
                        length >= min_length
                        and path[1] < path[-1]
                        and root in adjacency[neighbor]
                    ):
                        nodes = tuple(path)
                        if anchors is None or not anchors.isdisjoint(nodes):
                            yield nodes
                    if length < max_length:
                        yield from dfs()
                    path.pop()
                    on_path.discard(neighbor)

            # A neighbour check avoids DFS on isolated/leaf roots.
            if len(root_neighbors) >= 2:
                yield from dfs()


def find_cycles(
    graph: WikiGraph,
    anchors: Iterable[int] | None = None,
    *,
    min_length: int = 2,
    max_length: int = 5,
    max_cycles: int = 1_000_000,
    engine: str | None = None,
) -> list[Cycle]:
    """Convenience wrapper over :class:`CycleFinder` for one-off calls."""
    finder = CycleFinder(
        graph,
        min_length=min_length,
        max_length=max_length,
        max_cycles=max_cycles,
        engine=engine,
    )
    return finder.find(anchors)
