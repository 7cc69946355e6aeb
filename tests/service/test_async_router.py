"""AsyncShardRouter: bit-identical to the sync router, each shard call sent once
while it is in flight."""

import asyncio
from collections import Counter

import pytest

from repro.service import AsyncShardRouter, ShardRouter, ShardedSnapshot

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def sharded_snapshot(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=4)


@pytest.fixture()
def sync_router(sharded_snapshot) -> ShardRouter:
    return ShardRouter(sharded_snapshot)


def run(coro):
    return asyncio.run(coro)


class TestEquivalence:
    def test_expand_query_identical_to_sync_router(
        self, small_benchmark, sharded_snapshot, sync_router
    ):
        """Same doc ids AND scores as the blocking scatter-gather."""
        async_router = AsyncShardRouter(ShardRouter(sharded_snapshot))

        async def all_queries():
            return [
                await async_router.expand_query(topic.keywords, top_k=10)
                for topic in small_benchmark.topics
            ]

        responses = run(all_queries())
        async_router.close()
        for topic, mine in zip(small_benchmark.topics, responses):
            reference = sync_router.expand_query(topic.keywords, top_k=10)
            assert mine.query == topic.keywords
            assert mine.link.article_ids == reference.link.article_ids
            assert mine.expansion.article_ids == reference.expansion.article_ids
            assert [(r.doc_id, r.score) for r in mine.results] == \
                   [(r.doc_id, r.score) for r in reference.results]

    def test_batch_expand_identical_to_sync_batch(
        self, small_benchmark, sharded_snapshot, sync_router
    ):
        queries = [topic.keywords for topic in small_benchmark.topics]
        queries.append(queries[0])  # raw duplicate, like real batches
        async_router = AsyncShardRouter(ShardRouter(sharded_snapshot))
        batch = run(async_router.batch_expand(queries, top_k=10))
        async_router.close()
        reference = sync_router.batch_expand(queries, top_k=10)
        assert len(batch) == len(reference) == len(queries)
        for query, mine, ref in zip(queries, batch, reference):
            assert mine.query == ref.query
            assert mine.expansion_cached == ref.expansion_cached
            assert [(r.doc_id, r.score) for r in mine.results] == \
                   [(r.doc_id, r.score) for r in ref.results], query

    def test_batch_marks_what_it_mined_as_cold_then_repeats_as_cached(
        self, small_benchmark, sharded_snapshot
    ):
        queries = [topic.keywords for topic in small_benchmark.topics]
        async_router = AsyncShardRouter(ShardRouter(sharded_snapshot))
        first = run(async_router.batch_expand(queries))
        assert not any(r.expansion_cached for r in first if r.linked)
        again = run(async_router.batch_expand(queries))
        assert all(r.expansion_cached for r in again if r.linked)
        async_router.close()

    def test_empty_batch_and_empty_query(self, sharded_snapshot):
        async_router = AsyncShardRouter(ShardRouter(sharded_snapshot))
        assert run(async_router.batch_expand([])) == []
        response = run(async_router.expand_query("!!! ???"))
        assert response.normalized_query == ""
        assert response.results == ()
        async_router.close()


def rank_calls(responses) -> Counter:
    """``(shard, phase)`` of every ``rank`` span across the traces."""
    return Counter(
        (span.shard, span.labels.get("phase"))
        for response in responses for span in response.trace.spans
        if span.stage == "rank"
    )


class TestCoalescing:
    """Concurrent requests share every shard call in flight: one mines,
    probes or ranks, the others await it (a joined mine answers cached).
    Each request still links and is traced on its own."""

    def test_identical_concurrent_queries_share_one_computation(
        self, small_benchmark, sharded_snapshot
    ):
        """N concurrent copies of one cold query pay one expansion pass
        and every awaiter gets the same answer."""
        keywords = small_benchmark.topics[0].keywords
        async_router = AsyncShardRouter(ShardRouter(sharded_snapshot))

        async def fan_out():
            return await asyncio.gather(*(
                async_router.expand_query(keywords) for _ in range(5)
            ))

        responses = run(fan_out())
        first = responses[0]
        for other in responses[1:]:
            assert [(r.doc_id, r.score) for r in other.results] == \
                   [(r.doc_id, r.score) for r in first.results]
        assert sorted(r.expansion_cached for r in responses) == \
            [False, True, True, True, True]
        stats = async_router.stats()
        assert stats["queries"] == 5  # offered load is still 5
        assert stats["expansion_cache"]["misses"] == 1
        assert stats["expansion_cache"]["hits"] == 4
        async_router.close()

    def test_coalesced_requests_keep_their_own_raw_query_text(
        self, small_benchmark, sharded_snapshot
    ):
        """Case variants normalise identically, share one mine, and each
        echoes its own raw text back."""
        keywords = small_benchmark.topics[0].keywords
        variants = [keywords, keywords.upper(), f"  {keywords}  "]
        async_router = AsyncShardRouter(ShardRouter(sharded_snapshot))

        async def fan_out():
            return await asyncio.gather(*(
                async_router.expand_query(text) for text in variants
            ))

        responses = run(fan_out())
        assert [r.query for r in responses] == variants
        assert len({r.normalized_query for r in responses}) == 1
        assert sorted(r.expansion_cached for r in responses) == \
            [False, True, True]
        async_router.close()

    def test_different_top_k_do_not_coalesce(
        self, small_benchmark, sharded_snapshot
    ):
        """Their answers stay their own, each ranked to its own
        ``top_k``; only the seed set's mine is shared."""
        keywords = small_benchmark.topics[0].keywords
        async_router = AsyncShardRouter(ShardRouter(sharded_snapshot))

        async def fan_out():
            return await asyncio.gather(
                async_router.expand_query(keywords, top_k=3),
                async_router.expand_query(keywords, top_k=5),
            )

        three, five = run(fan_out())
        assert len(three.results) <= 3 < len(five.results) <= 5
        assert sorted([three.expansion_cached, five.expansion_cached]) == \
            [False, True]
        # One probe per shard serves both; each top_k scores on its own.
        assert rank_calls([three, five]) == Counter({
            **{(shard, "counts"): 1 for shard in range(4)},
            **{(shard, "score"): 2 for shard in range(4)},
        })
        async_router.close()

    def test_identical_concurrent_texts_share_one_probe_and_one_rank(
        self, small_benchmark, sharded_snapshot
    ):
        """Four copies of one text at once, cold and then warm (expansion
        cached, leaf counts forgotten): across their four traces each
        shard answers one ``counts`` and one ``score`` rank call, and
        every answer equals a fresh router's."""
        keywords = small_benchmark.topics[0].keywords
        expected = ShardRouter(sharded_snapshot).expand_query(keywords)
        router = ShardRouter(sharded_snapshot)
        async_router = AsyncShardRouter(router)

        async def fan_out():
            return await asyncio.gather(*(
                async_router.expand_query(keywords) for _ in range(4)
            ))

        async def cold_then_warm():
            cold = await fan_out()
            router._collection_stats.clear()
            return cold, await fan_out()

        try:
            cold, warm = run(cold_then_warm())
        finally:
            async_router.close()
        assert sorted(r.expansion_cached for r in cold) == [False, True, True, True]
        assert all(r.expansion_cached for r in warm)
        once = Counter({
            (shard, phase): 1 for shard in range(4) for phase in ("counts", "score")
        })
        for responses in (cold, warm):
            assert rank_calls(responses) == once
            for response in responses:
                assert [(r.doc_id, repr(r.score)) for r in response.results] == \
                       [(r.doc_id, repr(r.score)) for r in expected.results]

    def test_paraphrases_of_one_uncached_seed_set_share_one_mine(
        self, small_benchmark, sharded_snapshot
    ):
        """Distinct texts that link to one seed set, sent at once: one
        ``cycle_mine`` across all their traces, every answer but the one
        that mined says cached, and each equals a fresh router's."""
        keywords = small_benchmark.topics[0].keywords
        texts = [keywords, keywords.upper(), f"{keywords} zqxv", f"zqxv {keywords}"]
        fresh = ShardRouter(sharded_snapshot)
        expected = [fresh.expand_query(text) for text in texts]
        assert len({r.normalized_query for r in expected}) == 3
        assert len({r.link.article_ids for r in expected}) == 1
        assert expected[0].link.article_ids
        async_router = AsyncShardRouter(ShardRouter(sharded_snapshot))

        async def fan_out():
            return await asyncio.gather(*(
                async_router.expand_query(text) for text in texts
            ))

        try:
            responses = run(fan_out())
        finally:
            async_router.close()
        mines = [
            span for response in responses for span in response.trace.spans
            if span.stage == "cycle_mine"
        ]
        assert len(mines) == 1
        assert len({response.trace.trace_id for response in responses}) == 4
        assert sorted(r.expansion_cached for r in responses) == \
            [False, True, True, True]
        for mine, reference in zip(responses, expected):
            assert mine.query == reference.query
            assert mine.expansion == reference.expansion
            assert [(r.doc_id, r.score) for r in mine.results] == \
                   [(r.doc_id, r.score) for r in reference.results]


class TestAccounting:
    def test_requests_total_and_errors_count_failures(
        self, small_benchmark, sharded_snapshot, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SHARD_ADAPTER", raising=False)
        router = ShardRouter(sharded_snapshot)
        async_router = AsyncShardRouter(router)

        def boom(normalized):
            raise RuntimeError("linker down")

        router.link_text = boom
        with pytest.raises(RuntimeError):
            run(async_router.expand_query(small_benchmark.topics[0].keywords))
        stats = async_router.stats()
        assert stats["requests_total"] == 1
        assert stats["errors"] == 1
        assert stats["queries"] == 0
        async_router.close()


class TestBatchIsObservedOnce:
    def test_sync_and_async_batch_leave_the_same_metrics(
        self, small_benchmark, sharded_snapshot, monkeypatch
    ):
        """One plan, so one accounting: the batch is observed once, as
        ``batch_expand``, on both routers (the async one used to add an
        ``expand_query`` observation and a phantom link hit per member).
        Compared on the executor adapters; worker spans replay the same
        over sockets, but ``wire`` adds families of its own."""
        monkeypatch.delenv("REPRO_SHARD_ADAPTER", raising=False)
        topics = [topic.keywords for topic in small_benchmark.topics[:3]]
        batch = topics + [topics[0], "completely unknowable gibberish"]
        families = (
            "repro_requests_total", "repro_errors_total",
            "repro_request_seconds_count", "repro_cache_lookups_total",
        )

        def samples(router):
            return sorted(
                line for line in router.metrics.render().splitlines()
                if line.startswith(families)
            )

        sync_router = ShardRouter(sharded_snapshot)
        sync_router.batch_expand(batch)
        wrapped = ShardRouter(sharded_snapshot)
        async_router = AsyncShardRouter(wrapped)
        run(async_router.batch_expand(batch))
        async_router.close()

        mine, reference = samples(wrapped), samples(sync_router)
        assert mine == reference
        assert 'repro_requests_total{path="batch_expand"} 1' in mine
        assert 'repro_request_seconds_count{path="batch_expand"} 1' in mine
        assert not [line for line in mine if 'path="expand_query"' in line]
        assert not [line for line in mine if 'cache="link"' in line]
        for name in ("requests_total", "queries", "batches", "unlinked_queries"):
            assert wrapped.stats()[name] == sync_router.stats()[name], name
        assert wrapped.stats()["queries"] == len(batch)
        assert wrapped.stats()["unlinked_queries"] == 1
