"""Seeded, witnessed streams: same seed, same bytes."""

import pytest

from bench.corpus import build_corpus
from bench.streams import (
    NUM_CLIENTS,
    READS_PER_WRITE,
    WORKLOADS,
    WRITE_NODE_BASE,
    clients_of,
    plan_workload,
)

SCALE = 0.3  # a few hundred nodes: planning is the subject, not size


SEED = 11


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(SCALE)


def _digests(corpus, seed):
    return {w: plan_workload(w, corpus, seed).digests for w in WORKLOADS}


def test_same_seed_gives_byte_identical_streams(corpus):
    assert _digests(corpus, SEED) == _digests(build_corpus(SCALE), SEED)


def test_another_seed_gives_other_streams(corpus):
    mine, other = _digests(corpus, SEED), _digests(corpus, SEED + 1)
    for workload in WORKLOADS:
        assert mine[workload]["reads"] != other[workload]["reads"]
    assert mine["read_write_mix"]["writes"] != other["read_write_mix"]["writes"]


def test_the_corpus_and_its_popularity_order_do_not_follow_the_seed(corpus):
    again = build_corpus(SCALE)
    assert corpus.heads == again.heads and corpus.tails == again.tails
    top = corpus.heads[0]
    for seed in (SEED, SEED + 1):
        reads = plan_workload("hot_topics", corpus, seed).reads
        asked = sum(top in r.body["query"] for r in reads)
        # Zipf(1.1): the first head alone draws a good tenth of the traffic
        assert asked > len(reads) / 10


def test_worker_workload_replays_the_hot_stream_byte_for_byte(corpus):
    hot = plan_workload("hot_topics", corpus, SEED)
    workers = plan_workload("hot_topics_workers", corpus, SEED)
    assert hot.digests == workers.digests
    assert plan_workload("read_write_mix", corpus, SEED).digests["reads"] \
        != hot.digests["reads"]


def test_cold_tail_never_repeats_a_query(corpus):
    reads = plan_workload("cold_tail", corpus, SEED).reads
    queries = [r.body["query"] for r in reads]
    assert len(set(queries)) == len(queries)
    assert all(" compared with " in q for q in queries)


def test_hot_reads_only_ask_for_heads(corpus):
    heads = set(corpus.heads)
    for request in plan_workload("hot_topics", corpus, SEED).reads[:500]:
        assert any(head in request.body["query"] for head in heads)


def test_writes_are_contiguous_fresh_and_target_real_articles(corpus):
    plan = plan_workload("read_write_mix", corpus, SEED)
    assert plan.writes and not plan_workload("hot_topics", corpus, SEED).writes
    articles = {a.node_id for a in corpus.snapshot.graph.articles()}
    seqs = []
    for index, write in enumerate(plan.writes):
        assert write.path == "/admin/apply_delta"
        assert write.body["generation"] == 1
        add_article, add_edge = write.body["deltas"]
        assert add_article["node_id"] == WRITE_NODE_BASE + index
        assert add_article["node_id"] not in articles
        assert add_edge["source"] == add_article["node_id"]
        assert add_edge["target"] in articles
        seqs += [add_article["seq"], add_edge["seq"]]
    assert seqs == list(range(1, len(seqs) + 1))
    # one write per READS_PER_WRITE reads of the writing client
    assert len(plan.writes) == \
        len(plan.reads) // (NUM_CLIENTS * READS_PER_WRITE)


def test_clients_split_the_stream_without_overlap(corpus):
    plan = plan_workload("hot_topics", corpus, SEED)
    assert clients_of("hot_topics") == NUM_CLIENTS
    split = [plan.reads_of(c) for c in range(NUM_CLIENTS)]
    assert sum(len(s) for s in split) == len(plan.reads)
    assert {r.index for r in split[0]}.isdisjoint(r.index for r in split[1])


def test_one_client_sends_the_whole_worker_stream(corpus):
    plan = plan_workload("hot_topics_workers", corpus, SEED)
    assert clients_of("hot_topics_workers") == 1
    assert plan.reads_of(0) == plan.reads


def test_unknown_workload_is_rejected(corpus):
    with pytest.raises(ValueError):
        plan_workload("no_such_workload", corpus, SEED)
