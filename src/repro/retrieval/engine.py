"""Search engine facade: index + query language + language-model ranking.

:class:`SearchEngine` is the INDRI stand-in used by the ground-truth
pipeline.  Ranking follows INDRI's evaluation of structured queries:

* a ``TermNode``/``PhraseNode`` scores ``log p(node | D)`` under the
  configured smoothing (phrases are smoothed with their own collection
  frequency);
* ``#combine`` averages the log beliefs of its children;
* ``#band`` restricts the candidate set to documents matching every child
  and then scores like ``#combine``.

Candidate documents are those containing at least one query term (for
``#band``: all terms); documents with no overlap cannot outrank them and
are omitted, which mirrors how IR engines actually return results.

Sharded retrieval: when documents are split across several index segments
the language model's background statistics must stay *global* for scores
to be preserved.  The module supports the classic two-phase protocol:
each segment reports its local collection counts per query leaf
(:meth:`SearchEngine.leaf_collection_counts`), the router sums them into
global background probabilities (:func:`background_from_counts`), each
segment then scores its own documents under that shared background
(:meth:`SearchEngine.search_with_background`), and the per-segment ranked
lists are combined score-preservingly by :func:`merge_ranked_lists`.
A single-segment engine run through this protocol produces bit-identical
scores to a plain :meth:`SearchEngine.search`.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.errors import EmptyIndexError, QueryLanguageError
from repro.retrieval.index import PositionalIndex
from repro.retrieval.phrase import collect_phrase_stats
from repro.retrieval.qlang import (
    BandNode,
    CombineNode,
    PhraseNode,
    QueryNode,
    TermNode,
    build_phrase_query,
    parse_query,
)
from repro.retrieval.scoring import DirichletSmoothing, Smoothing
from repro.retrieval.tokenizer import Tokenizer

__all__ = [
    "SearchEngine",
    "SearchResult",
    "collect_leaves",
    "background_from_counts",
    "merge_ranked_lists",
]


@dataclass(frozen=True, slots=True)
class SearchResult:
    """One ranked document."""

    doc_id: str
    score: float
    rank: int


def collect_leaves(root: QueryNode) -> tuple[QueryNode, ...]:
    """Distinct scoring leaves (terms/phrases) of a query AST, in order."""
    leaves: dict[QueryNode, None] = {}

    def visit(node: QueryNode) -> None:
        if isinstance(node, (TermNode, PhraseNode)):
            leaves.setdefault(node)
        elif isinstance(node, (CombineNode, BandNode)):
            for child in node.children:
                visit(child)
        else:
            raise QueryLanguageError(f"unknown query node type: {type(node).__name__}")

    visit(root)
    return tuple(leaves)


def background_from_counts(
    counts: Mapping[QueryNode, int], total_tokens: int
) -> dict[QueryNode, float]:
    """Background probabilities from summed collection counts.

    Mirrors :meth:`PositionalIndex.collection_probability` (half-count
    floor for unseen leaves), so probabilities derived from per-segment
    counts summed across shards equal the monolithic index's.
    """
    if total_tokens <= 0:
        return {leaf: 0.0 for leaf in counts}
    return {
        leaf: (count / total_tokens if count > 0 else 0.5 / total_tokens)
        for leaf, count in counts.items()
    }


def merge_ranked_lists(
    ranked_lists: Iterable[list[SearchResult]], top_k: int
) -> list[SearchResult]:
    """Score-preserving k-way merge of per-segment ranked lists.

    Each input must already be sorted by ``(-score, doc_id)`` (the order
    :meth:`SearchEngine.search` emits); scores carry over unchanged and
    only ranks are re-assigned.  Ties across segments break by doc id,
    exactly as a single engine over the union of documents would.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    merged = heapq.merge(
        *ranked_lists, key=lambda result: (-result.score, result.doc_id)
    )
    out: list[SearchResult] = []
    for result in merged:
        out.append(SearchResult(doc_id=result.doc_id, score=result.score,
                                rank=len(out) + 1))
        if len(out) == top_k:
            break
    return out


class SearchEngine:
    """Language-model retrieval over a positional index.

    Parameters
    ----------
    tokenizer:
        Shared tokenizer (defaults to the standard one).
    smoothing:
        Scoring model; defaults to Dirichlet with INDRI's usual ``mu``.
        Small collections (hundreds of short documents) may prefer a lower
        ``mu``; the benchmark harness uses ``mu=300``.
    index:
        An already-built :class:`PositionalIndex` to serve from (e.g. one
        loaded from a service snapshot).  When given, the engine adopts the
        index's tokenizer unless ``tokenizer`` is also passed explicitly.
    """

    def __init__(
        self,
        tokenizer: Tokenizer | None = None,
        smoothing: Smoothing | None = None,
        *,
        index: PositionalIndex | None = None,
    ) -> None:
        if index is not None:
            self._tokenizer = tokenizer or index.tokenizer
            self._index = index
        else:
            self._tokenizer = tokenizer or Tokenizer()
            self._index = PositionalIndex(self._tokenizer)
        self._smoothing = smoothing or DirichletSmoothing()

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    @property
    def index(self) -> PositionalIndex:
        return self._index

    @property
    def tokenizer(self) -> Tokenizer:
        return self._tokenizer

    @property
    def num_documents(self) -> int:
        return self._index.num_documents

    def add_document(self, doc_id: str, text: str) -> None:
        """Index one document."""
        self._index.add_document(doc_id, text)

    def add_documents(self, items) -> int:
        """Index many ``(doc_id, text)`` pairs; returns the count added."""
        return self._index.add_documents(items)

    # ------------------------------------------------------------------
    # Searching
    # ------------------------------------------------------------------

    def search(self, query: str | QueryNode, top_k: int = 15) -> list[SearchResult]:
        """Rank documents for ``query`` and return the top ``top_k``.

        ``query`` may be a query string in the mini INDRI language or an
        already-built AST node.  Ties break by doc id so results are
        deterministic.  Raises :class:`EmptyIndexError` when nothing has
        been indexed and :class:`QueryLanguageError` on unparsable queries.
        """
        if self._index.num_documents == 0:
            raise EmptyIndexError("cannot search an empty index")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        root = parse_query(query, self._tokenizer) if isinstance(query, str) else query

        candidates = self._candidates(root)
        scored = [(self._score(root, doc_id), doc_id) for doc_id in candidates]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return [
            SearchResult(doc_id=doc_id, score=score, rank=rank)
            for rank, (score, doc_id) in enumerate(scored[:top_k], start=1)
        ]

    def search_phrases(self, phrases: list[str], top_k: int = 15) -> list[SearchResult]:
        """Search with the paper's expansion-query shape.

        ``phrases`` holds the query keywords plus the expansion feature
        titles; each becomes an exact ``#1`` phrase under one ``#combine``.
        """
        return self.search(build_phrase_query(phrases, self._tokenizer), top_k=top_k)

    # ------------------------------------------------------------------
    # Sharded retrieval (two-phase statistics exchange)
    # ------------------------------------------------------------------

    def leaf_collection_counts(self, root: QueryNode) -> dict[QueryNode, int]:
        """Phase 1: this segment's collection count per scoring leaf.

        Terms report their collection frequency; phrases report their
        exact-occurrence count over this segment's documents.  A router
        sums these across segments to build the global background model.
        """
        counts: dict[QueryNode, int] = {}
        for leaf in collect_leaves(root):
            if isinstance(leaf, TermNode):
                counts[leaf] = self._index.collection_frequency(leaf.term)
            else:
                stats = collect_phrase_stats(self._index, leaf.tokens)
                counts[leaf] = stats.collection_frequency
        return counts

    def search_with_background(
        self,
        root: QueryNode,
        background: Mapping[QueryNode, float],
        top_k: int = 15,
    ) -> list[SearchResult]:
        """Phase 2: rank this segment's documents under a given background.

        ``background`` maps every scoring leaf of ``root`` to its global
        ``p(leaf | C)``; term/phrase frequencies and document lengths stay
        local.  Returns at most ``top_k`` results sorted by
        ``(-score, doc_id)`` — the global top-k is always contained in the
        union of per-segment top-k lists.  An empty segment returns [].
        """
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self._index.num_documents == 0:
            return []
        candidates = list(self._candidates(root))
        if not candidates:
            return []
        lengths = [self._index.document_length(doc_id) for doc_id in candidates]
        log_prob = self._smoothing.log_prob

        def column(node: QueryNode) -> list[float]:
            # One score per candidate.  Operators add child rows with the
            # builtin ``sum`` in ``_score``'s order; ``+=``/``fsum`` round apart.
            if isinstance(node, (CombineNode, BandNode)):
                width = len(node.children)
                return [sum(row) / width for row in zip(*map(column, node.children))]
            if isinstance(node, TermNode):
                frequency = self._index.term_frequency
                counts = [frequency(node.term, doc_id) for doc_id in candidates]
            elif isinstance(node, PhraseNode):
                counted = collect_phrase_stats(self._index, node.tokens).per_document
                counts = [counted.get(doc_id, 0) for doc_id in candidates]
            else:
                raise QueryLanguageError(
                    f"unknown query node type: {type(node).__name__}"
                )
            prob = background[node]
            return [log_prob(tf, length, prob) for tf, length in zip(counts, lengths)]

        best = heapq.nsmallest(
            top_k, zip(column(root), candidates), key=lambda pair: (-pair[0], pair[1])
        )
        return [
            SearchResult(doc_id=doc_id, score=score, rank=rank)
            for rank, (score, doc_id) in enumerate(best, start=1)
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _candidates(self, node: QueryNode) -> set[str]:
        if isinstance(node, TermNode):
            return self._index.documents_containing(node.term)
        if isinstance(node, PhraseNode):
            stats = collect_phrase_stats(self._index, node.tokens)
            return set(stats.per_document)
        if isinstance(node, BandNode):
            result: set[str] | None = None
            for child in node.children:
                docs = self._candidates(child)
                result = docs if result is None else result & docs
                if not result:
                    return set()
            return result or set()
        if isinstance(node, CombineNode):
            result: set[str] = set()
            for child in node.children:
                result |= self._candidates(child)
            return result
        raise QueryLanguageError(f"unknown query node type: {type(node).__name__}")

    def _score(self, node: QueryNode, doc_id: str) -> float:
        if isinstance(node, TermNode):
            return self._smoothing.log_prob(
                self._index.term_frequency(node.term, doc_id),
                self._index.document_length(doc_id),
                self._index.collection_probability(node.term),
            )
        if isinstance(node, PhraseNode):
            stats = collect_phrase_stats(self._index, node.tokens)
            return self._smoothing.log_prob(
                stats.occurrences_in(doc_id),
                self._index.document_length(doc_id),
                stats.collection_probability(self._index),
            )
        if isinstance(node, (CombineNode, BandNode)):
            children = node.children
            return sum(self._score(child, doc_id) for child in children) / len(children)
        raise QueryLanguageError(f"unknown query node type: {type(node).__name__}")

    def __repr__(self) -> str:
        return f"SearchEngine(index={self._index!r}, smoothing={self._smoothing!r})"
