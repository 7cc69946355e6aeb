"""Exact phrase matching over the positional index.

Implements the ``#1(...)`` semantics of the INDRI query language: the
phrase's tokens must occur contiguously and in order.  The paper writes its
expansion queries "based on exact phrase matching" of article titles, so
this operator carries most of the retrieval workload.
"""

from __future__ import annotations

from functools import lru_cache

from repro.retrieval.index import PositionalIndex

__all__ = ["phrase_occurrences", "phrase_documents", "PhraseStats", "collect_phrase_stats"]


def phrase_occurrences(index: PositionalIndex, phrase: tuple[str, ...], doc_id: str) -> int:
    """Number of exact occurrences of ``phrase`` in ``doc_id``.

    The empty phrase occurs zero times by definition.  Single-token phrases
    reduce to term frequency.
    """
    if not phrase:
        return 0
    if len(phrase) == 1:
        return index.term_frequency(phrase[0], doc_id)
    position_lists = [index.positions(term, doc_id) for term in phrase]
    if any(not positions for positions in position_lists):
        return 0
    first = position_lists[0]
    later = [set(positions) for positions in position_lists[1:]]
    count = 0
    for start in first:
        if all(start + offset + 1 in positions for offset, positions in enumerate(later)):
            count += 1
    return count


def phrase_documents(index: PositionalIndex, phrase: tuple[str, ...]) -> set[str]:
    """Ids of documents containing at least one exact occurrence."""
    if not phrase:
        return set()
    candidates = index.documents_containing_all(phrase)
    if len(phrase) == 1:
        return candidates
    return {
        doc_id for doc_id in candidates if phrase_occurrences(index, phrase, doc_id) > 0
    }


class PhraseStats:
    """Collection-level statistics of a phrase, for smoothing.

    INDRI smooths a phrase like a term, using the phrase's own collection
    frequency.  Computing it requires scanning candidate documents once; the
    result is cached per (index, phrase) by :func:`collect_phrase_stats`.
    """

    __slots__ = ("phrase", "collection_frequency", "document_frequency", "per_document")

    def __init__(
        self,
        phrase: tuple[str, ...],
        collection_frequency: int,
        document_frequency: int,
        per_document: dict[str, int],
    ) -> None:
        self.phrase = phrase
        self.collection_frequency = collection_frequency
        self.document_frequency = document_frequency
        self.per_document = per_document

    def occurrences_in(self, doc_id: str) -> int:
        return self.per_document.get(doc_id, 0)

    def collection_probability(self, index: PositionalIndex) -> float:
        """Background probability of the phrase, half-count floored."""
        total = index.total_tokens
        if total == 0:
            return 0.0
        if self.collection_frequency == 0:
            return 0.5 / total
        return self.collection_frequency / total


def collect_phrase_stats(index: PositionalIndex, phrase: tuple[str, ...]) -> PhraseStats:
    """Scan the collection once and return cached phrase statistics.

    The cache key includes the index's document count, so statistics
    computed before more documents were added are never served stale.
    """
    return _cached_stats(index, index.num_documents, phrase)


@lru_cache(maxsize=4096)
def _cached_stats(
    index: PositionalIndex, num_documents: int, phrase: tuple[str, ...]
) -> PhraseStats:
    # The index hashes by object identity (it defines no __eq__/__hash__),
    # which is correct here: indexes are append-only and long-lived, and
    # ``num_documents`` invalidates entries when documents are added.
    counts = getattr(index, "phrase_counts", None)
    if counts is not None:  # frozen index: the operator runs on ordinals
        per_document = counts(phrase)
    else:
        per_document = {}
        for doc_id in index.documents_containing_all(phrase):
            count = phrase_occurrences(index, phrase, doc_id)
            if count:
                per_document[doc_id] = count
    return PhraseStats(
        phrase=phrase,
        collection_frequency=sum(per_document.values()),
        document_frequency=len(per_document),
        per_document=per_document,
    )
