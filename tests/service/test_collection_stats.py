"""The fused rank exchange: probe the missing leaves, then score.

The rank steps of the query plan (``ShardRouter.rank_plan``) keep
``leaf -> global count`` and ask the segments only about leaves the
router has not seen.  The property below pins what makes that safe: for
any query tree and any subset of its leaves already cached — including a
cache so small it evicts between the probe and the use — the background
equals ``global_background`` over the full exchange *key for key, in the
same order*, and the merged top-k is repr-exact, with the steps executed
on the in-process workers and through the async router's adapters (real
worker processes in the ``REPRO_SHARD_ADAPTER=socket`` CI leg).
"""

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import trace as tracing
from repro.retrieval.engine import collect_leaves, merge_ranked_lists
from repro.retrieval.qlang import BandNode, CombineNode, PhraseNode, TermNode
from repro.service import AsyncShardRouter, ShardRouter, ShardedSnapshot
from repro.service.cache import LRUCache


@pytest.fixture(scope="module")
def stack(snapshot):
    sharded = ShardedSnapshot.from_snapshot(snapshot, num_shards=2)
    router = ShardRouter(sharded)
    async_router = AsyncShardRouter(router)
    yield router, async_router
    async_router.close()
    router.close()


@pytest.fixture(scope="module")
def leaf_pool(stack, snapshot):
    """Leaves over the index vocabulary: frequent and rare terms, title
    phrases that occur in documents, and leaves no segment has seen."""
    router, _ = stack
    vocabulary = sorted({
        term for worker in router.workers for term in worker.engine.index.terms()
    })
    terms = [TermNode(term) for term in vocabulary[:: max(1, len(vocabulary) // 40)]]
    titles = sorted(tokens for tokens in snapshot.title_index if len(tokens) > 1)
    phrases = [PhraseNode(tuple(tokens)) for tokens in titles[:: max(1, len(titles) // 25)]]
    unseen = [
        TermNode("qzxunseen"),
        PhraseNode(("qzxunseen", "qzxnever")),
        PhraseNode((vocabulary[0], vocabulary[-1], vocabulary[0])),
    ]
    return terms + phrases + unseen


def _roots(pool):
    leaf = st.sampled_from(pool)
    band = st.lists(leaf, min_size=1, max_size=3).map(
        lambda children: BandNode(tuple(children))
    )
    # Lists, not sets: duplicate leaves (and a leaf both bare and inside
    # a #band) are exactly what collect_leaves has to dedupe in order.
    return st.lists(st.one_of(leaf, band), min_size=1, max_size=8).map(
        lambda children: CombineNode(tuple(children))
    )


def _on_workers(router):
    """Execute a plan step on the router's in-process workers."""
    return lambda call, items: [
        getattr(router.workers[shard], call)(argument)
        for shard, argument in items
    ]


def _on_adapters(async_router):
    """Execute a plan step through the async router's shard adapters."""
    async def fan_out(call, items):
        return await asyncio.gather(*(
            getattr(async_router.adapters[shard], call)(argument)
            for shard, argument in items
        ))

    return lambda call, items: asyncio.run(fan_out(call, items))


def _drive(plan, execute, steps=None):
    """Run a plan to its result, recording each ``(call, items)`` step."""
    value = None
    try:
        while True:
            call, items = plan.send(value)
            if steps is not None:
                steps.append((call, items))
            value = execute(call, items)
    except StopIteration as done:
        return done.value


def _fused_background(router, root):
    """The rank steps of one root on the workers: ``(probe, background)``
    — the sub-query the shards were asked to count (None: every leaf was
    known) and the background every shard was asked to score under."""
    steps = []
    _drive(router.rank_plan([root], 1), _on_workers(router), steps)
    shards = list(range(router.num_shards))
    *probes, (call, scores) = steps
    assert call == "search_with_background"
    assert [shard for shard, _ in scores] == shards
    assert len({id(request) for _, request in scores}) == 1
    probe = None
    if probes:
        ((call, items),) = probes
        assert call == "leaf_collection_counts"
        assert [shard for shard, _ in items] == shards
        probe = items[0][1]
        assert all(argument == probe for _, argument in items)
    return probe, scores[0][1].background


def _reference(router, root, top_k):
    engines = [worker.engine for worker in router.workers]
    background = router.global_background(
        root, [engine.leaf_collection_counts(root) for engine in engines]
    )
    ranked = merge_ranked_lists(
        [e.search_with_background(root, background, top_k) for e in engines],
        top_k,
    )
    return background, ranked


class TestFusedExchangeProperty:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_equals_the_full_exchange_for_any_precached_subset(
        self, stack, leaf_pool, data
    ):
        router, async_router = stack
        root = data.draw(_roots(leaf_pool), label="root")
        leaves = collect_leaves(root)
        precached = data.draw(
            st.lists(st.sampled_from(leaves), unique=True), label="precached"
        )
        # Sometimes smaller than the query: entries are evicted between
        # the probe and the use, and even while the pass is reading.
        capacity = data.draw(
            st.sampled_from([1, 2, len(leaves), 1024]), label="capacity"
        )
        top_k = data.draw(st.integers(1, 12), label="top_k")
        expected_background, expected_ranked = _reference(router, root, top_k)

        def fresh_cache():
            router._collection_stats = LRUCache(capacity)
            if precached:
                _fused_background(router, CombineNode(tuple(precached)))

        original = router._collection_stats
        try:
            fresh_cache()
            held = [l for l in leaves if l in router._collection_stats]
            probe, background = _fused_background(router, root)
            assert background == expected_background
            assert list(background) == list(expected_background)
            missing = [leaf for leaf in leaves if leaf not in held]
            assert (probe.children if probe else ()) == tuple(missing)
            if capacity >= len(leaves):
                assert _fused_background(router, root) == \
                    (None, expected_background)

            for execute in (_on_workers(router), _on_adapters(async_router)):
                fresh_cache()
                (ranked,) = _drive(router.rank_plan([root], top_k), execute)
                assert [repr(r) for r in ranked] == \
                    [repr(r) for r in expected_ranked]
        finally:
            router._collection_stats = original


class TestExchangeBookkeeping:
    def test_clear_caches_forgets_the_counts(self, stack):
        router, _ = stack
        root = CombineNode((TermNode("qzxunseen"),))
        _fused_background(router, root)
        assert _fused_background(router, root)[0] is None
        router.clear_caches()
        assert _fused_background(router, root)[0] == root

    def test_merge_span_says_whether_a_probe_was_needed(self, stack):
        router, _ = stack
        router.clear_caches()
        root = CombineNode((TermNode("qzxunseen"), TermNode("qzxnever")))
        with tracing.start_trace() as trace:
            _drive(router.rank_plan([root], 3), _on_workers(router))
            _drive(router.rank_plan([root], 3), _on_workers(router))
        background = [
            s.labels for s in trace.spans
            if s.stage == "merge" and s.labels.get("phase") == "background"
        ]
        assert background == [
            {"phase": "background", "cached": False, "probed": 2},
            {"phase": "background", "cached": True, "probed": 0},
        ]
        # The probe round is the only one that records counts-phase spans.
        counts = [s for s in trace.spans if s.labels.get("phase") == "counts"]
        assert len(counts) == router.num_shards
