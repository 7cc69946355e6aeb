"""The index split walks the postings once and changes nothing.

``PositionalIndex.split`` fills the per-shard segments directly; until
ISSUE 23 ``ShardedSnapshot.from_snapshot`` built one JSON-shaped payload
per shard and parsed it back with ``PositionalIndex.from_payload``.
That round trip stays here as the oracle: for 1, 2, 3 and 5 shards the
segments must equal it down to dict iteration order, because that order
is what a freeze interns and a saved ``index.bin`` therefore holds.  The
last test pins the bytes themselves: the shards of the bench corpus hash
to what the parent commit wrote, so old servers load new builds and new
servers old ones.
"""

import hashlib
import json

import pytest

from repro.collection import Benchmark, SyntheticCollectionConfig
from repro.retrieval import PositionalIndex
from repro.service import ShardedSnapshot, Snapshot
from repro.wiki import SyntheticWikiConfig, shard_of_document


def payload_round_trip_split(index: PositionalIndex, num_shards: int):
    """``artifacts._split_index`` as the parent commit had it."""
    doc_shard = {
        doc_id: shard_of_document(doc_id, num_shards) for doc_id in index.doc_ids()
    }
    payloads = [{"documents": [], "postings": {}} for _ in range(num_shards)]
    for doc_id, shard in doc_shard.items():
        payloads[shard]["documents"].append([doc_id, index.document_length(doc_id)])
    for term in index.terms():
        for posting in index.postings(term):
            shard_payload = payloads[doc_shard[posting.doc_id]]
            shard_payload["postings"].setdefault(term, {})[posting.doc_id] = \
                posting.positions
    return [
        PositionalIndex.from_payload(payload, tokenizer=index.tokenizer)
        for payload in payloads
    ]


@pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
def test_split_equals_the_payload_round_trip(snapshot, num_shards):
    index = snapshot.index
    segments = index.split(
        lambda doc_id: shard_of_document(doc_id, num_shards), num_shards
    )
    oracle = payload_round_trip_split(index, num_shards)
    assert len(segments) == len(oracle) == num_shards
    for segment, expected in zip(segments, oracle):
        # json.dumps keeps dict order: documents, terms, and each
        # term's documents all iterate as the oracle's do.
        assert json.dumps(segment.to_payload()) == json.dumps(expected.to_payload())
        assert list(segment.terms()) == list(expected.terms())
        assert list(segment.doc_ids()) == list(expected.doc_ids())
        assert segment.total_tokens == expected.total_tokens
        assert segment.tokenizer is index.tokenizer
        for term in index.terms():
            assert segment.collection_frequency(term) == \
                expected.collection_frequency(term)
            assert segment.document_frequency(term) == expected.document_frequency(term)
    assert sum(s.total_tokens for s in segments) == index.total_tokens
    assert sum(s.num_documents for s in segments) == index.num_documents
    if num_shards > 1:  # one shard reuses the index itself
        sharded = ShardedSnapshot.from_snapshot(snapshot, num_shards)
        assert [s.to_payload() for s in sharded.segments] == \
            [s.to_payload() for s in segments]
        assert all(type(s) is PositionalIndex for s in sharded.segments)


def test_a_segment_does_not_see_documents_added_to_the_index_later(snapshot):
    """Segments share position lists with the index they were split from;
    both are append-only, so neither side's later documents show."""
    index = PositionalIndex.from_payload(snapshot.index.to_payload())
    before = index.to_payload()
    first, second = index.split(lambda doc_id: 0, 2)
    first.add_document("added-to-segment", "falconry falconry festival")
    assert index.to_payload() == before
    index.add_document("added-to-index", "falconry festival")
    assert "added-to-index" not in first and second.num_documents == 0


# sha256 of shard-000N/index.bin as commit 63d201c (the parent of
# ISSUE 23) saves the bench corpus (bench/corpus.py: seed 7, scale 2.0,
# 2 shards); identical under any PYTHONHASHSEED.
PARENT_INDEX_SHA256 = [
    "15cd288e4732e315e12fb3ec62311c87f73847d24de0c25e50c2a17b8654083a",
    "8a9954f2fd60bb7f46d3e06489217c98d0466b8498d7bb92d7b68793b3f05c9f",
]


def test_bench_corpus_shards_save_the_bytes_the_parent_commit_wrote(tmp_path):
    benchmark = Benchmark.synthetic(
        SyntheticWikiConfig(seed=7, num_domains=100, background_articles=1600,
                            background_categories=120),
        SyntheticCollectionConfig(seed=13, background_docs=800),
    )
    sharded = ShardedSnapshot.from_snapshot(Snapshot.build(benchmark), 2)
    sharded.save(tmp_path)
    assert [
        hashlib.sha256((tmp_path / f"shard-{n:04d}" / "index.bin").read_bytes()).hexdigest()
        for n in range(2)
    ] == PARENT_INDEX_SHA256
