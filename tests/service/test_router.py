"""ShardRouter behaviour: exact equivalence with the single-shard path."""

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.retrieval import SearchResult, merge_ranked_lists
from repro.service import ExpansionService, ShardRouter, ShardedSnapshot


@pytest.fixture(scope="module")
def sharded_snapshot(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=4)


@pytest.fixture()
def router(sharded_snapshot) -> ShardRouter:
    return ShardRouter(sharded_snapshot)


@pytest.fixture()
def single(snapshot) -> ExpansionService:
    return ExpansionService.from_snapshot(snapshot)


class TestEquivalence:
    def test_expand_query_identical_to_single_shard(
        self, small_benchmark, router, single
    ):
        """Same linked entities, same expansion, same doc ids AND scores."""
        for topic in small_benchmark.topics:
            mine = router.expand_query(topic.keywords, top_k=10)
            reference = single.expand_query(topic.keywords, top_k=10)
            assert mine.link.article_ids == reference.link.article_ids
            assert mine.expansion.article_ids == reference.expansion.article_ids
            assert mine.expansion.titles == reference.expansion.titles
            assert [(r.doc_id, r.rank) for r in mine.results] == \
                   [(r.doc_id, r.rank) for r in reference.results]
            for a, b in zip(mine.results, reference.results):
                assert a.score == b.score  # bit-identical, not approx

    def test_batch_expand_identical_to_single_shard(
        self, small_benchmark, router, single
    ):
        queries = [topic.keywords for topic in small_benchmark.topics]
        batch = router.batch_expand(queries, top_k=10)
        for query, response in zip(queries, batch):
            reference = single.expand_query(query, top_k=10)
            assert [(r.doc_id, r.score) for r in response.results] == \
                   [(r.doc_id, r.score) for r in reference.results]

    def test_single_shard_router_matches_too(self, snapshot, small_benchmark, single):
        one = ShardRouter(ShardedSnapshot.from_snapshot(snapshot, num_shards=1))
        for topic in small_benchmark.topics:
            mine = one.expand_query(topic.keywords, top_k=10)
            reference = single.expand_query(topic.keywords, top_k=10)
            assert [(r.doc_id, r.score) for r in mine.results] == \
                   [(r.doc_id, r.score) for r in reference.results]

    def test_unlinked_query_falls_back_to_keywords(self, router, single):
        text = "completely unknowable gibberish"
        mine = router.expand_query(text)
        reference = single.expand_query(text)
        assert not mine.linked
        assert [(r.doc_id, r.score) for r in mine.results] == \
               [(r.doc_id, r.score) for r in reference.results]
        assert router.stats()["unlinked_queries"] == 1

    def test_empty_query_returns_no_results(self, router):
        response = router.expand_query("!!! ???")
        assert response.normalized_query == ""
        assert response.results == ()


class TestRouting:
    def test_seed_sets_route_to_their_owner_shard(self, small_benchmark, router):
        """Repeats of one query always hit the same worker's cache."""
        keywords = small_benchmark.topics[0].keywords
        first = router.expand_query(keywords)
        assert first.linked
        owner = router.owner_shard(first.link.article_ids)
        second = router.expand_query(keywords)
        assert second.expansion_cached
        per_shard = router.stats()["per_shard"]
        assert per_shard[owner]["expansion_cache"]["hits"] >= 1
        for shard_id, stats in enumerate(per_shard):
            if shard_id != owner:
                assert stats["expansion_cache"]["hits"] == 0

    def test_batch_prefills_across_shards(self, small_benchmark, router):
        queries = [topic.keywords for topic in small_benchmark.topics]
        batch = router.batch_expand(queries)
        # The batch pays for its own expansions: nothing reports cached.
        assert not any(r.expansion_cached for r in batch if r.linked)
        again = router.batch_expand(queries)
        assert all(r.expansion_cached for r in again if r.linked)

    def test_duplicate_raw_queries_share_a_response(self, small_benchmark, router):
        keywords = small_benchmark.topics[0].keywords
        batch = router.batch_expand([keywords, keywords, keywords.upper()])
        assert batch[0] is batch[1] is batch[2]
        assert router.stats()["queries"] == 3  # offered load

    def test_clear_caches_forces_recompute(self, small_benchmark, router):
        keywords = small_benchmark.topics[0].keywords
        router.expand_query(keywords)
        router.clear_caches()
        response = router.expand_query(keywords)
        assert not response.expansion_cached
        assert not response.link_cached


class TestBatchMining:
    """A batch mines through ``expand_seeds`` like a single query: once
    per distinct seed set, counted by the answer's own ``cached`` flag,
    and composed from the anchor entries earlier queries left behind."""

    def test_a_cold_batch_counts_a_miss_per_distinct_seed_set(
        self, small_benchmark, router
    ):
        topics = [topic.keywords for topic in small_benchmark.topics]
        texts = topics + [text.upper() for text in topics]
        seed_sets = {
            router.link_text(router.normalize(text))[0].article_ids
            for text in topics
        } - {frozenset()}
        owned = [
            sum(router.owner_shard(seeds) == shard for seeds in seed_sets)
            for shard in range(router.num_shards)
        ]

        def hits_and_misses():
            return [
                (shard["expansion_cache"]["hits"], shard["expansion_cache"]["misses"])
                for shard in router.stats()["per_shard"]
            ]

        router.batch_expand(texts)
        assert hits_and_misses() == [(0, n) for n in owned]
        router.batch_expand(texts)
        assert hits_and_misses() == [(n, n) for n in owned]

    def test_a_batch_after_a_single_composes_from_its_anchors(
        self, small_benchmark, sharded_snapshot, router
    ):
        from repro.obs import trace as tracing

        head = small_benchmark.topics[0].keywords
        seeds = router.expand_query(head).link.article_ids
        assert len(seeds) > 1
        tails = [  # ids above min(seeds): the same owner shard as the head
            article for article in small_benchmark.graph.main_articles()
            if article.node_id > min(seeds) and article.node_id not in seeds
        ][:4]
        texts = [f"{head} compared with {tail.title}" for tail in tails]
        with tracing.start_trace() as trace:
            batch = router.batch_expand(texts)
        assert [r.link.article_ids for r in batch] == \
            [seeds | {tail.node_id} for tail in tails]
        mined = [s.labels for s in trace.spans if s.stage == "cycle_mine"]
        assert [(s["anchors"], s["reused"]) for s in mined] == \
            [(len(seeds) + 1, len(seeds))] * len(tails)
        assert not any(r.expansion_cached for r in batch)

        fresh = ShardRouter(sharded_snapshot)
        try:
            for text, response in zip(texts, batch):
                alone = fresh.expand_query(text)
                assert response.expansion == alone.expansion
                assert [(r.doc_id, r.score) for r in response.results] == \
                    [(r.doc_id, r.score) for r in alone.results]
        finally:
            fresh.close()


class TestStats:
    def test_stats_shape(self, small_benchmark, router):
        router.expand_query(small_benchmark.topics[0].keywords)
        router.batch_expand([small_benchmark.topics[1].keywords])
        payload = router.stats()
        assert payload["shards"] == 4
        assert payload["queries"] == 2
        assert payload["batches"] == 1
        assert len(payload["per_shard"]) == 4
        for cache_key in ("link_cache", "expansion_cache"):
            assert payload[cache_key]["capacity"] > 0
            assert payload[cache_key]["size"] >= 0
        assert payload["expansion_cache"]["misses"] == sum(
            s["expansion_cache"]["misses"] for s in payload["per_shard"]
        )
        assert json.loads(json.dumps(payload)) == payload

    def test_requests_total_is_monotonic_and_counts_batch_members(
        self, small_benchmark, router
    ):
        """/stats and /healthz read these directly — no per-shard summing."""
        router.expand_query(small_benchmark.topics[0].keywords)
        router.batch_expand([
            small_benchmark.topics[1].keywords,
            small_benchmark.topics[1].keywords,
        ])
        payload = router.stats()
        assert payload["requests_total"] == 3
        assert payload["errors"] == 0

    def test_errors_counted_and_requests_stay_monotonic(
        self, small_benchmark, router, monkeypatch
    ):
        def boom(normalized):
            raise RuntimeError("linker down")

        monkeypatch.setattr(router, "link_text", boom)
        with pytest.raises(RuntimeError):
            router.expand_query(small_benchmark.topics[0].keywords)
        with pytest.raises(RuntimeError):
            router.batch_expand([small_benchmark.topics[1].keywords])
        stats = router.stats()
        assert stats["requests_total"] == 2  # offered load, failures included
        assert stats["errors"] == 2
        assert stats["queries"] == 0

    def test_per_shard_queries_add_up_to_the_router_queries(
        self, small_benchmark, router
    ):
        """Each single query is served by exactly one shard — the owner
        of its seed set, shard 0 for an unlinked one — and is counted
        there (``per_shard[i].queries`` used to stay 0 behind a router)."""
        texts = [t.keywords for t in small_benchmark.topics] + ["qzxunseen", "?!"]
        expected = [0] * router.num_shards
        for text in texts:
            response = router.expand_query(text)
            expected[router.owner_shard(response.link.article_ids)] += 1
        stats = router.stats()
        assert [s["queries"] for s in stats["per_shard"]] == expected
        assert sum(expected) == stats["queries"] == len(texts)

    def test_threads_racing_through_the_router_lose_no_count(
        self, small_benchmark, router
    ):
        """Every count lives in a lock-guarded registry family; threads
        (more than cores, switching often) lose no increment."""
        texts = [t.keywords for t in small_benchmark.topics] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4 * (os.cpu_count() or 2)) as pool:
                list(pool.map(router.expand_query, texts, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        stats = router.stats()
        assert stats["requests_total"] == stats["queries"] == len(texts)
        assert sum(s["queries"] for s in stats["per_shard"]) == len(texts)
        cache = stats["expansion_cache"]
        assert cache["hits"] + cache["misses"] == len(texts)

    def test_per_shard_hit_rates_guard_zero_lookups(self, small_benchmark, router):
        """Shards that never saw a lookup report 0.0, not a ZeroDivisionError,
        and the rates are exposed per shard in the stats payload."""
        keywords = small_benchmark.topics[0].keywords
        first = router.expand_query(keywords)
        assert first.linked
        router.expand_query(keywords)  # warm repeat: owner shard hits
        stats = router.stats()
        rates = stats["per_shard_hit_rates"]
        assert len(rates) == stats["shards"]
        owner = router.owner_shard(first.link.article_ids)
        assert rates[owner] > 0.0
        for shard_id, rate in enumerate(rates):
            if shard_id != owner:
                assert rate == 0.0
        assert rates == [
            s["expansion_cache"]["hit_rate"] for s in stats["per_shard"]
        ]

    def test_empty_segments_are_tolerated(self, snapshot, small_benchmark):
        """More shards than needed leaves some segments empty; ranking
        still works and matches the single-shard path."""
        many = ShardRouter(ShardedSnapshot.from_snapshot(snapshot, num_shards=16))
        single = ExpansionService.from_snapshot(snapshot)
        keywords = small_benchmark.topics[0].keywords
        mine = many.expand_query(keywords, top_k=5)
        reference = single.expand_query(keywords, top_k=5)
        assert [(r.doc_id, r.score) for r in mine.results] == \
               [(r.doc_id, r.score) for r in reference.results]


class TestMerge:
    def test_merge_preserves_scores_and_breaks_ties_by_doc_id(self):
        left = [SearchResult("b", -1.0, 1), SearchResult("d", -3.0, 2)]
        right = [SearchResult("c", -1.0, 1), SearchResult("a", -2.0, 2)]
        merged = merge_ranked_lists([left, right], top_k=3)
        assert [(r.doc_id, r.score, r.rank) for r in merged] == [
            ("b", -1.0, 1), ("c", -1.0, 2), ("a", -2.0, 3),
        ]

    def test_merge_top_k_bounds(self):
        merged = merge_ranked_lists([[SearchResult("a", -1.0, 1)]], top_k=5)
        assert len(merged) == 1
        with pytest.raises(ValueError):
            merge_ranked_lists([], top_k=0)
