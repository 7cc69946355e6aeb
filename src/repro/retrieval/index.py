"""Positional inverted index.

Stores, per term, the postings ``doc_id -> sorted positions``; per document
its length; and collection-wide term counts.  This is the substrate both the
bag-of-words scorers and the exact-phrase operator run on.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from itertools import islice

from repro.errors import IndexError_
from repro.retrieval.tokenizer import Tokenizer

__all__ = ["PositionalIndex", "Posting"]


class Posting:
    """Occurrences of one term in one document."""

    __slots__ = ("doc_id", "positions")

    def __init__(self, doc_id: str, positions: list[int]) -> None:
        self.doc_id = doc_id
        self.positions = positions

    @property
    def term_frequency(self) -> int:
        return len(self.positions)

    def __repr__(self) -> str:
        return f"Posting({self.doc_id!r}, tf={self.term_frequency})"


class PositionalIndex:
    """An append-only positional inverted index.

    Documents are identified by opaque string ids (the benchmark uses the
    ImageCLEF image ids).  Adding the same id twice is an error — the paper's
    collection is static, so silent replacement would only hide bugs.
    """

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self._tokenizer = tokenizer or Tokenizer()
        self._postings: dict[str, dict[str, list[int]]] = {}
        self._doc_lengths: dict[str, int] = {}
        self._collection_frequency: dict[str, int] = {}
        self._total_tokens = 0

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    @property
    def tokenizer(self) -> Tokenizer:
        return self._tokenizer

    def add_document(self, doc_id: str, text: str) -> int:
        """Index ``text`` under ``doc_id``; returns the token count.

        Raises :class:`IndexError_` when the id was already indexed.
        """
        return self._add_tokens(doc_id, self._tokenizer.tokenize(text))

    def _add_tokens(self, doc_id: str, tokens: list[str]) -> int:
        if doc_id in self._doc_lengths:
            raise IndexError_(f"document {doc_id!r} already indexed")
        # Group positions per term locally first: one postings/frequency
        # update per distinct term instead of one per token.  Insertion
        # order of new terms (first occurrence) is preserved, so the
        # resulting index contents are byte-for-byte what the per-token
        # loop produced.
        per_term: defaultdict[str, list[int]] = defaultdict(list)
        for position, token in enumerate(tokens):
            per_term[token].append(position)
        postings = self._postings
        frequency = self._collection_frequency
        for token, positions in per_term.items():
            postings.setdefault(token, {})[doc_id] = positions
            frequency[token] = frequency.get(token, 0) + len(positions)
        self._doc_lengths[doc_id] = len(tokens)
        self._total_tokens += len(tokens)
        return len(tokens)

    def add_documents(self, items: Iterable[tuple[str, str]]) -> int:
        """Index many ``(doc_id, text)`` pairs; returns documents added.

        Tokenises in bounded chunks through
        :meth:`Tokenizer.tokenize_many`, so a generator over a large
        dump is never materialised wholesale.
        """
        count = 0
        iterator = iter(items)
        while chunk := list(islice(iterator, 512)):
            token_lists = self._tokenizer.tokenize_many(text for _, text in chunk)
            for (doc_id, _), tokens in zip(chunk, token_lists):
                self._add_tokens(doc_id, tokens)
            count += len(chunk)
        return count

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def num_documents(self) -> int:
        return len(self._doc_lengths)

    @property
    def total_tokens(self) -> int:
        """Collection length in tokens (denominator of background model)."""
        return self._total_tokens

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_lengths

    def doc_ids(self) -> Iterator[str]:
        return iter(self._doc_lengths)

    def document_length(self, doc_id: str) -> int:
        """Token count of a document (raises on unknown ids)."""
        try:
            return self._doc_lengths[doc_id]
        except KeyError:
            raise IndexError_(f"unknown document: {doc_id!r}") from None

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self._postings.get(term, ()))

    def collection_frequency(self, term: str) -> int:
        """Total occurrences of ``term`` in the collection."""
        return self._collection_frequency.get(term, 0)

    def collection_probability(self, term: str) -> float:
        """Maximum-likelihood background probability ``p(term | C)``.

        Unseen terms get a half-count ("+0.5") so smoothing never divides by
        zero on out-of-vocabulary query terms.
        """
        if self._total_tokens == 0:
            return 0.0
        count = self._collection_frequency.get(term, 0)
        if count == 0:
            return 0.5 / self._total_tokens
        return count / self._total_tokens

    # ------------------------------------------------------------------
    # Postings access
    # ------------------------------------------------------------------

    def postings(self, term: str) -> list[Posting]:
        """All postings of ``term``, ordered by doc id for determinism."""
        by_doc = self._postings.get(term)
        if not by_doc:
            return []
        return [Posting(doc_id, by_doc[doc_id]) for doc_id in sorted(by_doc)]

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Occurrences of ``term`` in ``doc_id`` (0 when absent)."""
        return len(self._postings.get(term, {}).get(doc_id, ()))

    def positions(self, term: str, doc_id: str) -> list[int]:
        """Sorted positions of ``term`` in ``doc_id`` (empty when absent)."""
        return list(self._postings.get(term, {}).get(doc_id, ()))

    def documents_containing(self, term: str) -> set[str]:
        """Ids of documents containing ``term``."""
        return set(self._postings.get(term, ()))

    def terms(self) -> Iterator[str]:
        """All indexed terms (the vocabulary), in insertion order."""
        return iter(self._postings)

    # ------------------------------------------------------------------
    # Serialisation (service snapshots)
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready dump of the index contents.

        Collection frequencies and the total token count are derivable and
        deliberately omitted; :meth:`from_payload` recomputes them, so a
        hand-edited payload can never carry inconsistent statistics.
        """
        return {
            "documents": [[doc_id, length] for doc_id, length in self._doc_lengths.items()],
            "postings": {
                term: {doc_id: positions for doc_id, positions in by_doc.items()}
                for term, by_doc in self._postings.items()
            },
        }

    @classmethod
    def from_payload(
        cls, payload: dict, tokenizer: Tokenizer | None = None
    ) -> "PositionalIndex":
        """Rebuild an index from :meth:`to_payload` output.

        Raises :class:`IndexError_` when postings reference documents that
        are not declared in ``documents``.
        """
        index = cls(tokenizer)
        try:
            documents = payload["documents"]
            postings = payload["postings"]
        except (KeyError, TypeError) as exc:
            raise IndexError_(f"index payload is missing field {exc}") from exc
        for doc_id, length in documents:
            doc_id = str(doc_id)
            if doc_id in index._doc_lengths:
                raise IndexError_(f"document {doc_id!r} declared twice in payload")
            index._doc_lengths[doc_id] = int(length)
        for term, by_doc in postings.items():
            rebuilt: dict[str, list[int]] = {}
            frequency = 0
            for doc_id, positions in by_doc.items():
                if doc_id not in index._doc_lengths:
                    raise IndexError_(
                        f"postings for {term!r} reference undeclared document {doc_id!r}"
                    )
                rebuilt[doc_id] = sorted(int(p) for p in positions)
                frequency += len(rebuilt[doc_id])
            index._postings[term] = rebuilt
            index._collection_frequency[term] = frequency
        index._total_tokens = sum(index._doc_lengths.values())
        return index

    def split(self, part_of: Callable[[str], int], count: int) -> list["PositionalIndex"]:
        """Split into ``count`` indexes; document ``d`` goes to ``part_of(d)``.

        One pass over the postings.  A part lists its terms in this
        index's order and a term's documents in id order (the order
        :meth:`postings` emits) and counts its own statistics, so sums
        over the parts reproduce this index's exactly.  Position lists
        are shared with this index: neither side ever mutates one.
        """
        parts = [PositionalIndex(self._tokenizer) for _ in range(count)]
        home: dict[str, int] = {}
        for doc_id, length in self._doc_lengths.items():
            home[doc_id] = number = part_of(doc_id)
            part = parts[number]
            part._doc_lengths[doc_id] = length
            part._total_tokens += length
        for term, by_doc in self._postings.items():
            rows: list[dict[str, list[int]]] = [{} for _ in parts]
            for doc_id in sorted(by_doc):
                rows[home[doc_id]][doc_id] = by_doc[doc_id]
            for part, row in zip(parts, rows):
                if row:
                    part._postings[term] = row
                    part._collection_frequency[term] = sum(map(len, row.values()))
        return parts

    def documents_containing_all(self, terms: Iterable[str]) -> set[str]:
        """Ids of documents containing every term (conjunctive lookup).

        Returns the empty set when ``terms`` is empty — an empty conjunction
        over a collection would otherwise select everything, which no caller
        of this index wants.
        """
        result: set[str] | None = None
        for term in terms:
            docs = self._postings.get(term)
            if not docs:
                return set()
            result = set(docs) if result is None else result & docs.keys()
            if not result:
                return set()
        return result or set()

    def __repr__(self) -> str:
        return (
            f"PositionalIndex(docs={self.num_documents}, "
            f"vocab={self.vocabulary_size}, tokens={self._total_tokens})"
        )
