"""``CompactIndex.phrase_counts`` against the dict-path phrase loop.

The frozen index answers phrase statistics on ordinals (rarest term's
posting range, bisection into the others, shifted position slices); the
loop it replaced on the serving path — ``documents_containing_all`` +
``phrase_occurrences`` — stays as the oracle and runs here on both index
kinds.  A five-word vocabulary makes repeated tokens, phrases longer
than any document and terms one segment never saw the common case.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.retrieval import (
    CompactIndex,
    PositionalIndex,
    collect_phrase_stats,
    phrase_occurrences,
)

WORDS = ("new", "york", "of", "city", "bridge")

documents = st.lists(
    st.lists(st.sampled_from(WORDS), max_size=9), min_size=1, max_size=12
)
# "zebra" is in no document; 11 tokens is longer than every document.
phrases = st.lists(st.sampled_from(WORDS + ("zebra",)), max_size=11).map(tuple)


def build(docs) -> PositionalIndex:
    index = PositionalIndex()
    for number, words in enumerate(docs):
        index.add_document(f"d{number:02d}", " ".join(words))
    return index


def loop_counts(index, phrase) -> dict[str, int]:
    counts = {}
    for doc_id in index.documents_containing_all(phrase):
        occurrences = phrase_occurrences(index, phrase, doc_id)
        if occurrences:
            counts[doc_id] = occurrences
    return counts


def both_layouts(index: PositionalIndex) -> list[CompactIndex]:
    """The index frozen (``array`` sections) and the same mapped from
    its blob (``memoryview`` sections)."""
    frozen = CompactIndex.from_index(index)
    return [frozen, CompactIndex.from_blob(frozen.to_blob())]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(docs=documents, phrase=phrases)
@example(docs=[["new", "new", "new"]], phrase=("new", "new"))
@example(docs=[["of"], ["york", "of"]], phrase=("york", "of", "of"))
@example(docs=[["new", "york"], ["york", "new"]], phrase=("new", "york"))
@example(docs=[["city"]], phrase=("city",))
@example(docs=[["city"]], phrase=("zebra", "city"))
@example(docs=[["city"]], phrase=())
def test_phrase_counts_equal_the_dict_path_loop(docs, phrase):
    index = build(docs)
    # The halves by document parity too: a half may hold no posting of a
    # term the other has (and may hold no document at all).
    for part in [index, *index.split(lambda doc_id: int(doc_id[1:]) % 2, 2)]:
        expected = loop_counts(part, phrase)
        for twin in both_layouts(part):
            assert twin.phrase_counts(phrase) == expected == loop_counts(twin, phrase)
            # Named in ordinal order, i.e. ascending doc id.
            assert list(twin.phrase_counts(phrase)) == sorted(expected)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(docs=documents, phrase=phrases)
def test_phrase_stats_agree_field_by_field_on_both_index_kinds(docs, phrase):
    index = build(docs)
    on_dict = collect_phrase_stats(index, phrase)
    for twin in both_layouts(index):
        on_frozen = collect_phrase_stats(twin, phrase)
        assert on_frozen.phrase == on_dict.phrase == phrase
        assert on_frozen.collection_frequency == on_dict.collection_frequency
        assert on_frozen.document_frequency == on_dict.document_frequency
        assert on_frozen.per_document == on_dict.per_document
        assert on_frozen.collection_probability(twin) == on_dict.collection_probability(index)
        for doc_id in index.doc_ids():
            assert on_frozen.occurrences_in(doc_id) == on_dict.occurrences_in(doc_id)


def test_a_term_with_an_empty_posting_range_matches_nothing():
    """No freeze produces one, but a blob may declare a term with no
    posting; it must read as absent, not as a phrase start."""
    frozen = CompactIndex.from_index(build([["new", "york"], ["york"]]))
    parts = {name: getattr(frozen, f"_{name}") for name in (
        "posting_docs", "position_offsets", "positions", "doc_lengths",
    )}
    ghosted = CompactIndex(
        tokenizer=frozen.tokenizer,
        terms=list(frozen.terms()) + ["ghost"],
        docs=list(frozen.doc_ids()),
        term_offsets=list(frozen._term_offsets) + [frozen._term_offsets[-1]],
        collection_freq=list(frozen._collection_freq) + [0],
        collection_prob=list(frozen._collection_prob) + [0.0],
        total_tokens=frozen.total_tokens,
        **parts,
    )
    assert ghosted.document_frequency("ghost") == 0
    for phrase in (("ghost",), ("new", "ghost"), ("ghost", "york")):
        assert ghosted.phrase_counts(phrase) == loop_counts(ghosted, phrase) == {}
    assert ghosted.phrase_counts(("new", "york")) == {"d00": 1}
