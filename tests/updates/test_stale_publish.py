"""Regression: a result computed across an applied delta is not cached.

``apply`` swaps the graph view and *then* evicts.  A request that read
the old view before the swap and finishes mining after the eviction used
to ``put`` its pre-delta result into a cache nothing would evict again —
every later request got it with ``expansion_cached: true``.  The caches'
invalidation epoch closes that window; these tests hold a request
mid-mining (an expander gated on an ``Event``), apply a delta that
changes the answer, release it, and require the *next* request to equal
a from-scratch rebuild — on the blocking router, the asyncio router and
a socket worker, plus the same race for the router's link cache.

A miss composed from per-anchor cache entries has a second window: it
reads its graph view, a delta lands, and the anchors' entries it then
finds were re-published from the view after.  The same epoch closes it —
the request answers from the one view it read and publishes nothing.
"""

import asyncio
import threading

import pytest

from repro.core.expansion import NeighborhoodCycleExpander
from repro.service import (
    AsyncShardRouter,
    ShardRouter,
    ShardWorkerServer,
    ShardedSnapshot,
    SocketShardAdapter,
    make_shard_worker,
)
from repro.service.async_router import SHARD_ADAPTER_ENV
from repro.updates import (
    ShardWorkerUpdater,
    UpdateCoordinator,
    apply_deltas_to_graph,
    decode_deltas,
)

from update_helpers import assert_same_answers, rebuild_snapshot

_NEW = 9_400_000
_WAIT_S = 30.0


class GatedExpander:
    """The paper-tuned expander, able to park one call mid-mining.

    ``expand`` is entered with the graph view the service read, so a
    parked call is exactly "a request that started before ``apply``".
    """

    def __init__(self) -> None:
        self._inner = NeighborhoodCycleExpander()
        self.engine = self._inner.engine
        self.entered = threading.Event()
        self.release = threading.Event()
        self._armed = False

    def arm(self) -> None:
        self.entered.clear()
        self.release.clear()
        self._armed = True

    def expand(self, graph, seeds):
        if self._armed:
            self._armed = False
            self.entered.set()
            assert self.release.wait(_WAIT_S), "gated expansion never released"
        return self._inner.expand(graph, seeds)


class GatedLinker:
    """A linker proxy whose next ``link`` parks before it answers."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def link(self, normalized):
        result = self._inner.link(normalized)  # reads the old title surface
        self.entered.set()
        assert self.release.wait(_WAIT_S), "gated link never released"
        return result

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture(scope="module")
def sharded1(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=1).frozen()


@pytest.fixture()
def topic(small_benchmark, sharded2):
    """A benchmark query, one of its seed articles, and a delta batch
    that adds a reciprocal link pair (a new 2-cycle) on that seed."""
    query = small_benchmark.topics[0].keywords
    router = ShardRouter(sharded2)
    try:
        seeds = router.link_text(router.normalize(query))[0].article_ids
    finally:
        router.close()
    anchor = min(seeds)
    payloads = [
        {"op": "add_article", "seq": 1, "node_id": _NEW,
         "title": "Stale Publish Probe"},
        {"op": "add_edge", "seq": 2, "source": anchor, "target": _NEW,
         "kind": "link"},
        {"op": "add_edge", "seq": 3, "source": _NEW, "target": anchor,
         "kind": "link"},
    ]
    return query, seeds, payloads


def _rebuilt(small_benchmark, sharded, payloads):
    oracle = apply_deltas_to_graph(
        small_benchmark.graph, decode_deltas(payloads)
    )
    return rebuild_snapshot(sharded, oracle)


def _assert_fresh(second, reference):
    assert_same_answers(second, reference)
    assert second.expansion == reference.expansion  # cycles included
    assert not second.expansion_cached, "a pre-delta result was published"


class TestExpansionMinedAcrossADelta:
    def test_sync_router(self, small_benchmark, sharded2, topic):
        query, _seeds, payloads = topic
        gated = GatedExpander()
        router = ShardRouter(sharded2, gated)
        reference = ShardRouter(_rebuilt(small_benchmark, sharded2, payloads))
        try:
            before = router.expand_query(query)
            router.clear_caches()
            gated.arm()
            parked: list = []
            thread = threading.Thread(
                target=lambda: parked.append(router.expand_query(query))
            )
            thread.start()
            assert gated.entered.wait(_WAIT_S)
            summary = UpdateCoordinator(router).apply(payloads, generation=1)
            assert summary["applied"] == 3
            gated.release.set()
            thread.join(_WAIT_S)
            assert not thread.is_alive()
            # The parked request answers from the view it started on ...
            assert parked[0].expansion == before.expansion
            # ... and the delta really changes this query's expansion.
            expected = reference.expand_query(query)
            assert expected.expansion != before.expansion
            _assert_fresh(router.expand_query(query), expected)
        finally:
            router.close()
            reference.close()

    def test_async_router(
        self, small_benchmark, sharded2, topic, monkeypatch
    ):
        # The gate lives in this process's workers, not in env-spawned ones.
        monkeypatch.delenv(SHARD_ADAPTER_ENV, raising=False)
        query, _seeds, payloads = topic
        gated = GatedExpander()
        router = ShardRouter(sharded2, gated)
        async_router = AsyncShardRouter(router)
        reference = ShardRouter(_rebuilt(small_benchmark, sharded2, payloads))

        async def scenario():
            loop = asyncio.get_running_loop()
            gated.arm()
            first = asyncio.ensure_future(async_router.expand_query(query))
            assert await loop.run_in_executor(
                None, gated.entered.wait, _WAIT_S
            )
            coordinator = UpdateCoordinator(router)
            await loop.run_in_executor(
                None, lambda: coordinator.apply(payloads, generation=1)
            )
            gated.release.set()
            await asyncio.wait_for(first, _WAIT_S)
            return await async_router.expand_query(query)

        try:
            second = asyncio.run(scenario())
            _assert_fresh(second, reference.expand_query(query))
        finally:
            async_router.close()
            router.close()
            reference.close()

    def test_socket_worker(self, small_benchmark, sharded1, topic):
        """The same window inside a worker process's own overlay
        (``ShardWorkerUpdater.apply``), reached over the wire — and the
        conditional fetch must not paper over it: the parked answer's
        etag names an object the worker no longer serves."""
        _query, seeds, payloads = topic
        gated = GatedExpander()
        worker = make_shard_worker(sharded1.shard(0), expander=gated)
        updater = ShardWorkerUpdater(worker, sharded1.graph)
        rebuilt = make_shard_worker(
            _rebuilt(small_benchmark, sharded1, payloads).shard(0)
        )

        async def scenario():
            loop = asyncio.get_running_loop()
            server = ShardWorkerServer(worker, 0, updater=updater)
            await server.start("127.0.0.1", 0)
            adapter = SocketShardAdapter(lambda: ("127.0.0.1", server.port), 0)
            try:
                gated.arm()
                first = asyncio.ensure_future(adapter.expand_seeds(seeds))
                assert await loop.run_in_executor(
                    None, gated.entered.wait, _WAIT_S
                )
                applied = await adapter._call(
                    "apply_delta", {"deltas": payloads, "generation": 1}
                )
                assert applied["result"]["applied"] == 3
                gated.release.set()
                stale, _ = await asyncio.wait_for(first, _WAIT_S)
                return stale, await adapter.expand_seeds(seeds)
            finally:
                adapter.close()
                await server.stop()

        stale, (second, cached) = asyncio.run(scenario())
        expected, _ = rebuilt.expand_seeds(seeds)
        assert expected != stale, "the delta must change this expansion"
        assert second == expected
        assert not cached, "a pre-delta result was published"


class GatedAnchors(NeighborhoodCycleExpander):
    """Parks the next ``exact_ball``: the service has read its graph view
    and the cache epoch, but not yet its anchors' entries."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()
        self.armed = False

    def exact_ball(self, graph, seeds):
        if self.armed:
            self.armed = False
            self.entered.set()
            assert self.release.wait(_WAIT_S), "gated request never released"
        return super().exact_ball(graph, seeds)


class TestComposedAcrossADelta:
    def test_parts_from_after_a_delta_are_not_composed_with_the_view_before(
        self, small_benchmark, sharded1, topic
    ):
        """A request reads the pre-delta view; the delta lands and another
        request re-publishes the head's anchors from the post-delta view;
        the first request then finds those entries.  Composing them with a
        tail mined from its own view would be an answer no graph ever had:
        it must answer from its one view and publish nothing."""
        _query, seeds, payloads = topic
        gated = GatedAnchors()
        worker = make_shard_worker(sharded1.shard(0), expander=gated)
        updater = ShardWorkerUpdater(worker, sharded1.graph)
        rebuilt = make_shard_worker(
            _rebuilt(small_benchmark, sharded1, payloads).shard(0)
        )
        seeds = frozenset(seeds)
        tail = next(
            a.node_id for a in sharded1.graph.main_articles()
            if a.node_id not in seeds
        )
        target = seeds | {tail}
        before = NeighborhoodCycleExpander().expand(worker.graph, target)
        expected = rebuilt.expand_seeds(target)[0]
        assert expected != before, "the delta must change this expansion"

        gated.armed = True
        parked: list = []
        thread = threading.Thread(
            target=lambda: parked.append(worker.expand_seeds(target))
        )
        thread.start()
        assert gated.entered.wait(_WAIT_S)
        assert updater.apply(decode_deltas(payloads))["applied"] == 3
        fresh_head = worker.expand_seeds(seeds)[0]  # anchors, post-delta
        assert fresh_head == rebuilt.expand_seeds(seeds)[0]
        gated.release.set()
        thread.join(_WAIT_S)
        assert not thread.is_alive()

        assert parked == [(before, False)]  # one view, the one it read
        held: set = set()
        worker.evict_expansions(lambda key: held.add(key) or False)
        assert target not in held and frozenset({tail}) not in held
        assert worker.expand_seeds(target) == (expected, False)
        for key in (seeds, frozenset({min(seeds)}), frozenset({tail})):
            assert worker.expand_seeds(key)[0] == rebuilt.expand_seeds(key)[0]


class TestLinkComputedAcrossADelta:
    def test_router_link_cache(self, sharded2):
        """A link pass that read the old title surface must not be cached
        after ``evict_links`` ran: the next request links the new title."""
        router = ShardRouter(sharded2)
        gate = GatedLinker(router.linker)
        router._linker = gate
        query = router.normalize("fresh unheard probe title")
        payloads = [{"op": "add_article", "seq": 1, "node_id": _NEW,
                     "title": "Fresh Unheard Probe Title"}]
        try:
            parked: list = []
            thread = threading.Thread(
                target=lambda: parked.append(router.link_text(query))
            )
            thread.start()
            assert gate.entered.wait(_WAIT_S)
            UpdateCoordinator(router).apply(payloads, generation=1)
            gate.release.set()
            thread.join(_WAIT_S)
            assert not thread.is_alive()
            assert parked[0][0].article_ids == frozenset()
            link, cached = router.link_text(query)
            assert link.article_ids == frozenset({_NEW})
            assert not cached, "a pre-delta link result was published"
        finally:
            router.close()
