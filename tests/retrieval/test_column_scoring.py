"""Column scoring (``search_with_background``) against the per-document oracle.

``SearchEngine.search`` walks the query tree once per candidate document
(``_score``) and stays the oracle; ``search_with_background`` scores one
leaf at a time over the whole candidate list and sums an operator's
children row by row.  Both must produce the same floats in the same
order, so ids, scores and ranks are compared repr-exact — on a
``PositionalIndex``, on its ``CompactIndex.from_index`` twin, and across a
two-segment split merged by ``merge_ranked_lists``.  A five-word
vocabulary makes repeated leaves, unknown terms, phrases no document
holds and ties broken by doc id the common case.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.retrieval import CompactIndex, PositionalIndex, SearchEngine
from repro.retrieval.engine import background_from_counts, merge_ranked_lists
from repro.retrieval.qlang import BandNode, CombineNode, PhraseNode, TermNode
from repro.retrieval.scoring import (
    DirichletSmoothing,
    JelinekMercerSmoothing,
    TwoStageSmoothing,
)

WORDS = ("new", "york", "of", "city", "bridge")

documents = st.lists(
    st.lists(st.sampled_from(WORDS), max_size=9), min_size=1, max_size=12
)
# "zebra" is in no document.
words = st.sampled_from(WORDS + ("zebra",))
leaves = st.one_of(
    words.map(TermNode),
    st.lists(words, min_size=1, max_size=3).map(lambda tokens: PhraseNode(tuple(tokens))),
)


def operators(children):
    # Single-child nodes and repeated children come up on their own.
    child_lists = st.lists(children, min_size=1, max_size=5).map(tuple)
    return st.one_of(child_lists.map(CombineNode), child_lists.map(BandNode))


# Depth <= 3: an operator over operators over operators over leaves.
roots = operators(operators(operators(leaves) | leaves) | leaves)
smoothings = st.sampled_from([
    DirichletSmoothing(mu=300.0),
    JelinekMercerSmoothing(lam=0.4),
    TwoStageSmoothing(mu=300.0, lam=0.1),
])


def build(docs) -> PositionalIndex:
    index = PositionalIndex()
    for number, tokens in enumerate(docs):
        index.add_document(f"d{number:02d}", " ".join(tokens))
    return index


def triples(results):
    return [(result.doc_id, repr(result.score), result.rank) for result in results]


def oracle(index, smoothing, root, top_k):
    return triples(SearchEngine(smoothing=smoothing, index=index).search(root, top_k))


SIX_PHRASES = CombineNode(tuple(
    PhraseNode(tokens) for tokens in (
        ("new", "york"), ("york", "city"), ("of",), ("city", "bridge"),
        ("new",), ("bridge", "of", "new"),
    )
))
SIX_DOCS = [
    ["new", "york", "city", "bridge", "of", "new", "york"],
    ["york", "city", "of", "city", "bridge"],
    ["bridge", "of", "new", "york", "of"],
    ["new", "new", "city"],
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(docs=documents, root=roots, smoothing=smoothings,
       top_k=st.integers(min_value=1, max_value=15))
@example(docs=SIX_DOCS, root=SIX_PHRASES, smoothing=DirichletSmoothing(mu=300.0), top_k=4)
@example(docs=[["city"]], root=CombineNode((TermNode("zebra"),)),
         smoothing=DirichletSmoothing(mu=300.0), top_k=1)
@example(docs=[["new", "york"], ["york"]],
         root=BandNode((PhraseNode(("new", "york")), TermNode("york"), TermNode("york"))),
         smoothing=DirichletSmoothing(mu=300.0), top_k=3)
def test_column_scoring_equals_the_per_document_oracle(docs, root, smoothing, top_k):
    index = build(docs)
    expected = oracle(index, smoothing, root, top_k)
    for twin in (index, CompactIndex.from_index(index)):
        engine = SearchEngine(smoothing=smoothing, index=twin)
        background = background_from_counts(
            engine.leaf_collection_counts(root), twin.total_tokens
        )
        assert triples(engine.search_with_background(root, background, top_k)) == expected
        assert oracle(twin, smoothing, root, top_k) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(docs=documents, root=roots, smoothing=smoothings,
       top_k=st.integers(min_value=1, max_value=15))
@example(docs=SIX_DOCS, root=SIX_PHRASES, smoothing=DirichletSmoothing(mu=300.0), top_k=4)
def test_a_two_segment_split_merges_to_the_monolithic_search(docs, root, smoothing, top_k):
    index = build(docs)
    expected = oracle(index, smoothing, root, top_k)
    # The halves by document parity: a half may hold no posting of a
    # leaf the other has (and may hold no document at all).
    halves = index.split(lambda doc_id: int(doc_id[1:]) % 2, 2)
    for segments in (halves, [CompactIndex.from_index(half) for half in halves]):
        engines = [SearchEngine(smoothing=smoothing, index=half) for half in segments]
        counts: dict = {}
        for engine in engines:
            for leaf, count in engine.leaf_collection_counts(root).items():
                counts[leaf] = counts.get(leaf, 0) + count
        background = background_from_counts(
            counts, sum(half.total_tokens for half in segments)
        )
        merged = merge_ranked_lists(
            [engine.search_with_background(root, background, top_k) for engine in engines],
            top_k,
        )
        assert triples(merged) == expected
