"""Frozen, array-backed positional index (the serving-side read path).

:class:`CompactIndex` is the immutable counterpart of
:class:`~repro.retrieval.index.PositionalIndex`: terms and document ids
are interned into contiguous integer ids and the postings live in CSR
(compressed sparse row) layout over flat integer arrays —

* ``term_offsets[tid] .. term_offsets[tid+1]`` is the posting range of a
  term, ``posting_docs[slot]`` the interned doc id of one posting
  (ascending within a term, so per-term doc order matches the
  lexicographic order the dict index emits);
* ``position_offsets[slot] .. position_offsets[slot+1]`` delimits that
  posting's occurrence positions in ``positions``;
* per-document lengths, per-term collection frequencies and the
  smoothing background probabilities are one array lookup each, frozen
  at build time instead of being re-derived per query.

The class exposes the exact query surface :class:`SearchEngine`, the
phrase operator and the sharded-ranking protocol consume, and returns
bit-identical statistics (same integer counts, same float background
probabilities), so scorers run on either index unchanged and produce
identical scores.  Mutation raises: freezing is the point — the build
path stays on :class:`PositionalIndex`, the serve path runs here
(the queries-under-updates split of Berkholz et al.).

Serialisation is a single binary blob (see :mod:`repro.blobio`):
``save``/``load`` round-trip through a file that ``load`` maps with
``mmap``, turning the numeric sections into zero-copy memoryviews — a
cold start touches pages on demand instead of parsing every posting.

Where this sits in the serving stack (and the on-disk format carrying
these blobs) is mapped in ``docs/architecture.md``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.blobio import map_blob, pack_blob, unpack_blob
from repro.errors import IndexError_
from repro.retrieval.index import PositionalIndex, Posting
from repro.retrieval.tokenizer import Tokenizer

__all__ = ["CompactIndex"]

_MAGIC = b"RPCIDX1\n"


class CompactIndex:
    """Read-only positional index over interned ids and CSR arrays.

    Build one with :meth:`from_index` (freeze a dict-backed index) or
    :meth:`load` (map a saved blob).  The constructor wires
    already-validated parts together and is not a public entry point.
    """

    __slots__ = (
        "_tokenizer", "_terms", "_term_of", "_docs", "_doc_of",
        "_term_offsets", "_posting_docs", "_position_offsets", "_positions",
        "_doc_lengths", "_collection_freq", "_collection_prob",
        "_total_tokens", "_oov_prob", "_handle",
    )

    def __init__(
        self,
        tokenizer: Tokenizer,
        terms: list[str],
        docs: list[str],
        term_offsets,
        posting_docs,
        position_offsets,
        positions,
        doc_lengths,
        collection_freq,
        collection_prob,
        total_tokens: int,
        handle=None,
    ) -> None:
        self._tokenizer = tokenizer
        self._terms = terms
        self._term_of = {term: tid for tid, term in enumerate(terms)}
        self._docs = docs
        self._doc_of = {doc_id: did for did, doc_id in enumerate(docs)}
        self._term_offsets = term_offsets
        self._posting_docs = posting_docs
        self._position_offsets = position_offsets
        self._positions = positions
        self._doc_lengths = doc_lengths
        self._collection_freq = collection_freq
        self._collection_prob = collection_prob
        self._total_tokens = total_tokens
        self._oov_prob = 0.5 / total_tokens if total_tokens else 0.0
        self._handle = handle  # keeps a backing mmap alive, if any

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------

    @classmethod
    def from_index(cls, index: PositionalIndex) -> "CompactIndex":
        """Freeze a dict-backed index into the compact layout.

        Documents are interned in lexicographic id order, matching the
        per-term ordering :meth:`PositionalIndex.postings` emits; terms
        keep their first-occurrence order so ``terms()`` iterates
        identically on both index kinds.
        """
        if isinstance(index, cls):
            return index
        docs = sorted(index.doc_ids())
        doc_of = {doc_id: did for did, doc_id in enumerate(docs)}
        terms = list(index.terms())

        term_offsets = array("i", [0])
        posting_docs = array("i")
        position_offsets = array("i", [0])
        positions = array("i")
        collection_freq = array("i")
        for term in terms:
            frequency = 0
            for posting in index.postings(term):
                posting_docs.append(doc_of[posting.doc_id])
                positions.extend(posting.positions)
                position_offsets.append(len(positions))
                frequency += len(posting.positions)
            term_offsets.append(len(posting_docs))
            collection_freq.append(frequency)

        total = index.total_tokens
        collection_prob = array(
            "d",
            (
                (count / total if count else 0.5 / total) if total else 0.0
                for count in collection_freq
            ),
        )
        doc_lengths = array("i", (index.document_length(doc_id) for doc_id in docs))
        return cls(
            tokenizer=index.tokenizer,
            terms=terms,
            docs=docs,
            term_offsets=term_offsets,
            posting_docs=posting_docs,
            position_offsets=position_offsets,
            positions=positions,
            doc_lengths=doc_lengths,
            collection_freq=collection_freq,
            collection_prob=collection_prob,
            total_tokens=total,
        )

    # ------------------------------------------------------------------
    # Statistics (PositionalIndex surface)
    # ------------------------------------------------------------------

    @property
    def tokenizer(self) -> Tokenizer:
        return self._tokenizer

    @property
    def num_documents(self) -> int:
        return len(self._docs)

    @property
    def total_tokens(self) -> int:
        return self._total_tokens

    @property
    def vocabulary_size(self) -> int:
        return len(self._terms)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_of

    def doc_ids(self) -> Iterator[str]:
        return iter(self._docs)

    def document_length(self, doc_id: str) -> int:
        did = self._doc_of.get(doc_id)
        if did is None:
            raise IndexError_(f"unknown document: {doc_id!r}")
        return self._doc_lengths[did]

    def document_frequency(self, term: str) -> int:
        tid = self._term_of.get(term)
        if tid is None:
            return 0
        return self._term_offsets[tid + 1] - self._term_offsets[tid]

    def collection_frequency(self, term: str) -> int:
        tid = self._term_of.get(term)
        return 0 if tid is None else self._collection_freq[tid]

    def collection_probability(self, term: str) -> float:
        """Background probability, precomputed at freeze time.

        Matches :meth:`PositionalIndex.collection_probability` exactly
        (same division of the same integers, same half-count floor for
        out-of-vocabulary terms).
        """
        tid = self._term_of.get(term)
        return self._oov_prob if tid is None else self._collection_prob[tid]

    # ------------------------------------------------------------------
    # Postings access
    # ------------------------------------------------------------------

    def _posting_slot(self, term: str, doc_id: str) -> int | None:
        tid = self._term_of.get(term)
        if tid is None:
            return None
        did = self._doc_of.get(doc_id)
        if did is None:
            return None
        lo = self._term_offsets[tid]
        hi = self._term_offsets[tid + 1]
        slot = bisect_left(self._posting_docs, did, lo, hi)
        if slot == hi or self._posting_docs[slot] != did:
            return None
        return slot

    def postings(self, term: str) -> list[Posting]:
        """All postings of ``term``, ordered by doc id for determinism."""
        tid = self._term_of.get(term)
        if tid is None:
            return []
        docs = self._docs
        posting_docs = self._posting_docs
        offsets = self._position_offsets
        positions = self._positions
        return [
            Posting(docs[posting_docs[slot]], list(positions[offsets[slot]:offsets[slot + 1]]))
            for slot in range(self._term_offsets[tid], self._term_offsets[tid + 1])
        ]

    def term_frequency(self, term: str, doc_id: str) -> int:
        slot = self._posting_slot(term, doc_id)
        if slot is None:
            return 0
        return self._position_offsets[slot + 1] - self._position_offsets[slot]

    def positions(self, term: str, doc_id: str) -> list[int]:
        slot = self._posting_slot(term, doc_id)
        if slot is None:
            return []
        return list(self._positions[self._position_offsets[slot]:self._position_offsets[slot + 1]])

    def documents_containing(self, term: str) -> set[str]:
        tid = self._term_of.get(term)
        if tid is None:
            return set()
        docs = self._docs
        posting_docs = self._posting_docs
        return {
            docs[posting_docs[slot]]
            for slot in range(self._term_offsets[tid], self._term_offsets[tid + 1])
        }

    def _posting_ranges(self, terms: Iterable[str]) -> list[tuple[int, int, int, int]]:
        """``(length, index in terms, lo, hi)`` of every term's posting
        range, shortest first; empty when ``terms`` is, or when a term is
        unknown or has no posting here (no document holds them all)."""
        ranges: list[tuple[int, int, int, int]] = []
        for shift, term in enumerate(terms):
            tid = self._term_of.get(term)
            if tid is None:
                return []
            lo, hi = self._term_offsets[tid], self._term_offsets[tid + 1]
            if lo == hi:
                return []
            ranges.append((hi - lo, shift, lo, hi))
        ranges.sort()
        return ranges

    def documents_containing_all(self, terms: Iterable[str]) -> set[str]:
        """Conjunctive lookup (empty input selects nothing, like the dict
        index).  Terms are intersected rarest-first to keep the running
        candidate set minimal."""
        posting_docs = self._posting_docs
        result: set[int] | None = None
        for _, _, lo, hi in self._posting_ranges(terms):
            found = {posting_docs[slot] for slot in range(lo, hi)}
            result = found if result is None else result & found
            if not result:
                break
        docs = self._docs
        return {docs[did] for did in result or ()}

    def phrase_counts(self, phrase: tuple[str, ...]) -> dict[str, int]:
        """Exact occurrences of ``phrase`` per document that has any.

        The phrase operator on ordinals: walk the rarest term's posting
        range, bisect each other term's range for the same document
        (rarest first: a miss ends the document) and intersect the
        position slices shifted to the phrase start.  Equals the
        ``documents_containing_all`` + ``phrase_occurrences`` loop of
        :mod:`repro.retrieval.phrase`, with no set over a whole range.
        """
        ranges = self._posting_ranges(phrase)
        if not ranges:
            return {}
        posting_docs = self._posting_docs
        offsets = self._position_offsets
        positions = self._positions
        (_, pivot_shift, lo, hi), others = ranges[0], ranges[1:]

        def starts_at(at: int, shift: int) -> set[int]:
            return {p - shift for p in positions[offsets[at]:offsets[at + 1]]}

        counts: dict[str, int] = {}
        for slot in range(lo, hi):
            did = posting_docs[slot]
            starts = None
            for _, shift, first, end in others:
                at = bisect_left(posting_docs, did, first, end)
                if at == end or posting_docs[at] != did:
                    break
                if starts is None:
                    starts = starts_at(slot, pivot_shift)
                starts &= starts_at(at, shift)
                if not starts:
                    break
            else:
                counts[self._docs[did]] = len(
                    starts_at(slot, pivot_shift) if starts is None else starts
                )
        return counts

    def terms(self) -> Iterator[str]:
        """All indexed terms, in the original first-occurrence order."""
        return iter(self._terms)

    # ------------------------------------------------------------------
    # Mutation guard
    # ------------------------------------------------------------------

    def add_document(self, doc_id: str, text: str) -> int:
        raise IndexError_(
            "CompactIndex is frozen; build documents into a PositionalIndex "
            "and re-freeze with CompactIndex.from_index"
        )

    def add_documents(self, items: Iterable[tuple[str, str]]) -> int:
        raise IndexError_(
            "CompactIndex is frozen; build documents into a PositionalIndex "
            "and re-freeze with CompactIndex.from_index"
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready dump in the :class:`PositionalIndex` payload shape.

        An equality witness: round-tripping through
        :meth:`PositionalIndex.from_payload` reproduces the original
        dict-backed index exactly.
        """
        return {
            "documents": [
                [doc_id, self._doc_lengths[did]] for did, doc_id in enumerate(self._docs)
            ],
            "postings": {
                term: {
                    posting.doc_id: posting.positions for posting in self.postings(term)
                }
                for term in self._terms
            },
        }

    def to_blob(self) -> bytes:
        """Serialise into the single-file binary layout of :meth:`load`."""
        header = {
            "total_tokens": self._total_tokens,
            "terms": self._terms,
            "documents": self._docs,
            "tokenizer": {
                "stopwords": sorted(self._tokenizer.stopwords),
                "min_length": self._tokenizer.min_length,
            },
        }
        sections = {
            "term_offsets": self._as_array("i", self._term_offsets),
            "posting_docs": self._as_array("i", self._posting_docs),
            "position_offsets": self._as_array("i", self._position_offsets),
            "positions": self._as_array("i", self._positions),
            "doc_lengths": self._as_array("i", self._doc_lengths),
            "collection_freq": self._as_array("i", self._collection_freq),
            "collection_prob": self._as_array("d", self._collection_prob),
        }
        return pack_blob(_MAGIC, header, sections)

    @staticmethod
    def _as_array(typecode: str, values) -> array:
        return values if isinstance(values, array) else array(typecode, values)

    @classmethod
    def from_blob(cls, data) -> "CompactIndex":
        """Rebuild an index over ``data`` (bytes or a mapped buffer).

        Numeric sections stay zero-copy views into ``data``; only the
        interning dictionaries are materialised.  Raises
        :class:`IndexError_` on malformed or truncated blobs.
        """
        header, sections = unpack_blob(_MAGIC, data, IndexError_)
        return cls._from_parsed(header, sections, handle=None)

    @classmethod
    def _from_parsed(cls, header: dict, sections: dict, handle) -> "CompactIndex":
        try:
            terms = [str(term) for term in header["terms"]]
            docs = [str(doc_id) for doc_id in header["documents"]]
            total_tokens = int(header["total_tokens"])
            tok_config = header["tokenizer"]
            stopwords = frozenset(str(s) for s in tok_config["stopwords"])
            tokenizer = Tokenizer(
                stopwords=stopwords or None,
                min_length=int(tok_config["min_length"]),
            )
            term_offsets = sections["term_offsets"]
            posting_docs = sections["posting_docs"]
            position_offsets = sections["position_offsets"]
            positions = sections["positions"]
            doc_lengths = sections["doc_lengths"]
            collection_freq = sections["collection_freq"]
            collection_prob = sections["collection_prob"]
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexError_(f"compact index blob is malformed: {exc}") from exc
        if len(term_offsets) != len(terms) + 1 or len(doc_lengths) != len(docs) \
                or len(collection_freq) != len(terms) \
                or len(collection_prob) != len(terms) \
                or len(position_offsets) != len(posting_docs) + 1:
            raise IndexError_("compact index blob sections disagree on counts")
        return cls(
            tokenizer=tokenizer,
            terms=terms,
            docs=docs,
            term_offsets=term_offsets,
            posting_docs=posting_docs,
            position_offsets=position_offsets,
            positions=positions,
            doc_lengths=doc_lengths,
            collection_freq=collection_freq,
            collection_prob=collection_prob,
            total_tokens=total_tokens,
            handle=handle,
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_bytes(self.to_blob())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CompactIndex":
        """Map ``path`` read-only and serve from the page cache."""
        header, sections, handle = map_blob(path, _MAGIC, IndexError_)
        return cls._from_parsed(header, sections, handle=handle)

    def __repr__(self) -> str:
        return (
            f"CompactIndex(docs={self.num_documents}, "
            f"vocab={self.vocabulary_size}, tokens={self._total_tokens}, "
            f"mapped={self._handle is not None})"
        )
