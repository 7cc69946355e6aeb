"""Protocol 3: the conditional ``expand_seeds`` fetch and the ``wire`` span.

The adapter offers the etag of the expansion it last decoded (``have``);
the worker answers ``not_modified`` — no body — only while it would
serve that very object again.  The worker is the only authority:
whatever makes it serve a different object (an LRU eviction here, a
delta in ``tests/updates/test_worker_updates.py``, a restart) shows up
as a token mismatch and a full body.  The adapter's own memo is an
optimisation that may forget at any time.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.errors import WorkerCallError
from repro.obs import trace as tracing
from repro.obs.serving import ServingMetrics
from repro.retrieval.qlang import CombineNode, TermNode
from repro.service import (
    AsyncShardRouter,
    FaultPlan,
    ShardCallPolicy,
    ShardRouter,
    ShardSupervisor,
    ShardWorkerServer,
    ShardedSnapshot,
    SocketShardAdapter,
    make_shard_worker,
    wire,
)
from repro.service.cache import LRUCache

# A rank probe: answered on the worker's loop, and cheap.
ROOT = CombineNode((TermNode("anything"), TermNode("at"), TermNode("all")))


@pytest.fixture(scope="module")
def sharded1(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=1)


@pytest.fixture(scope="module")
def sharded1_dir(sharded1, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sharded1-conditional")
    sharded1.save(directory)
    return directory


@pytest.fixture()
def worker(sharded1):
    return make_shard_worker(sharded1.shard(0))  # fresh caches per test


@pytest.fixture(scope="module")
def seed_sets(small_benchmark, sharded1):
    """Distinct linked seed sets of the benchmark topics."""
    linker = sharded1.make_linker()
    found = {
        linker.link_keywords(topic.keywords) for topic in small_benchmark.topics
    }
    found.discard(frozenset())
    assert len(found) >= 3
    return sorted(found, key=sorted)


def with_server(worker, fn, *, fault_spec="", policy=None):
    """Run ``fn(adapter, server)`` against an in-process worker server."""

    async def go():
        faults = FaultPlan.from_spec(fault_spec) if fault_spec else None
        server = ShardWorkerServer(worker, 0, faults=faults)
        await server.start("127.0.0.1", 0)
        adapter = SocketShardAdapter(
            lambda: ("127.0.0.1", server.port), 0,
            policy=policy or ShardCallPolicy(),
        )
        try:
            return await fn(adapter, server)
        finally:
            adapter.close()
            await server.stop()

    return asyncio.run(go())


async def traced_expand(adapter, seeds):
    """``expand_seeds`` plus the ``wire`` spans its attempts recorded."""
    with tracing.start_trace() as trace:
        expansion, cached = await adapter.expand_seeds(seeds)
    spans = [s for s in trace.spans if s.stage == "wire"]
    return expansion, cached, spans


class TestNotModified:
    def test_second_identical_call_skips_the_body(
        self, sharded1, worker, seed_sets
    ):
        seeds = seed_sets[0]

        async def fn(adapter, _server):
            return [await traced_expand(adapter, seeds) for _ in range(3)]

        first, second, third = with_server(worker, fn)
        reference = make_shard_worker(sharded1.shard(0))
        assert first[0] == reference.expand_seeds(seeds)[0]
        assert [cached for _, cached, _ in (first, second, third)] == \
            [False, True, True]
        (cold,), (warm,), (again,) = first[2], second[2], third[2]
        assert cold.labels["call"] == "expand_seeds"
        assert cold.shard == 0
        assert cold.labels["not_modified"] is False
        assert warm.labels["not_modified"] is True
        assert again.labels["not_modified"] is True
        # The request grows by the token; the response loses the body.
        assert warm.labels["bytes_out"] > cold.labels["bytes_out"]
        assert warm.labels["bytes_in"] < cold.labels["bytes_in"] // 4
        # Not merely equal: the decoded object is reused, nothing re-decoded.
        assert second[0] is first[0] and third[0] is first[0]

    def test_response_frames_carry_the_documented_fields(
        self, worker, seed_sets
    ):
        seeds = seed_sets[0]

        async def fn(adapter, _server):
            full = await adapter._call("expand_seeds", {"seeds": sorted(seeds)})
            same = await adapter._call(
                "expand_seeds", {"seeds": sorted(seeds), "have": full["etag"]}
            )
            other = await adapter._call(
                "expand_seeds", {"seeds": sorted(seeds), "have": "stale:0"}
            )
            return full, same, other

        full, same, other = with_server(worker, fn)
        assert set(full) == {"expansion", "cached", "etag"}
        assert same == {"not_modified": True, "cached": True,
                        "etag": full["etag"]}
        # An unknown token is simply not a match: v2 behaviour plus etag.
        assert set(other) == {"expansion", "cached", "etag"}
        assert other["etag"] == full["etag"]
        assert other["expansion"] == full["expansion"]
        nonce, counter = full["etag"].split(":")
        assert len(nonce) == 12 and int(counter) >= 1

    def test_worker_lru_eviction_is_a_new_object_and_a_full_body(
        self, sharded1, seed_sets
    ):
        """The worker re-mines an entry its expansion LRU dropped: equal
        content, but a different object — the old token must not match."""
        tiny = make_shard_worker(sharded1.shard(0), expansion_cache_size=1)
        first_seeds, second_seeds = seed_sets[:2]

        async def fn(adapter, _server):
            before = await traced_expand(adapter, first_seeds)
            await adapter.expand_seeds(second_seeds)  # evicts the first
            return before, await traced_expand(adapter, first_seeds)

        before, after = with_server(tiny, fn)
        assert after[1] is False  # re-mined, not cached
        assert after[2][0].labels["not_modified"] is False
        assert after[0] == before[0] and after[0] is not before[0]

    def test_adapter_memo_eviction_falls_back_to_a_full_body(
        self, worker, seed_sets
    ):
        first_seeds, second_seeds = seed_sets[:2]

        async def fn(adapter, _server):
            adapter._expansions = LRUCache(1)
            await adapter.expand_seeds(first_seeds)
            await adapter.expand_seeds(second_seeds)  # memo forgets the first
            return await traced_expand(adapter, first_seeds)

        expansion, cached, (span,) = with_server(worker, fn)
        assert cached is True  # the worker still has it ...
        assert span.labels["not_modified"] is False  # ... and re-ships it
        assert expansion == worker.expand_seeds(first_seeds)[0]

    def test_worker_etag_table_is_bounded(self, worker, seed_sets):
        async def fn(adapter, server):
            server._etags = LRUCache(2)
            for seeds in seed_sets[:3]:
                await adapter.expand_seeds(seeds)
            # The oldest token is gone worker-side: offering it gets a
            # full body under a newly minted token, and the same answer.
            return await traced_expand(adapter, seed_sets[0]), len(server._etags)

        (expansion, cached, (span,)), held = with_server(worker, fn)
        assert held == 2
        assert cached is True
        assert span.labels["not_modified"] is False
        assert expansion == worker.expand_seeds(seed_sets[0])[0]

    @pytest.mark.parametrize("action", ["garbage", "short"])
    def test_faults_on_a_conditional_request_retry_to_the_answer(
        self, worker, seed_sets, action
    ):
        """The second ``expand_seeds`` carries ``have``; a corrupted
        response to it must be retried, not mistaken for anything."""
        seeds = seed_sets[0]

        async def fn(adapter, _server):
            first = await adapter.expand_seeds(seeds)
            second = await traced_expand(adapter, seeds)
            return first, second, adapter.retries_total

        first, (expansion, cached, spans), retries = with_server(
            worker, fn, fault_spec=f"{action}@2:expand_seeds",
            policy=ShardCallPolicy(max_attempts=3, backoff_base_s=0.01),
        )
        assert retries == 1
        assert expansion is first[0] and cached is True
        assert len(spans) == 2  # one wire span per attempt
        assert "not_modified" not in spans[0].labels  # no response decoded
        assert spans[1].labels["not_modified"] is True

    def test_restarted_worker_never_matches_an_old_token(
        self, sharded1_dir, seed_sets
    ):
        seeds = seed_sets[0]
        supervisor = ShardSupervisor(str(sharded1_dir), 1, max_restarts=3)
        supervisor.start(timeout_s=120.0)
        adapter = SocketShardAdapter(
            lambda: supervisor.endpoint(0), 0,
            policy=ShardCallPolicy(
                max_attempts=12, backoff_base_s=0.25, backoff_max_s=1.0,
            ),
        )
        try:
            async def warm():
                await adapter.expand_seeds(seeds)
                return await traced_expand(adapter, seeds)

            before = asyncio.run(warm())
            assert before[2][-1].labels["not_modified"] is True
            old_etag = adapter._expansions.peek(seeds)[0]

            os.kill(supervisor.describe()[0]["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 60.0
            while supervisor.restarts_total < 1 or \
                    supervisor.describe()[0]["state"] != "up":
                assert time.monotonic() < deadline, supervisor.describe()
                time.sleep(0.05)

            after = asyncio.run(traced_expand(adapter, seeds))
            answered = [s for s in after[2] if "not_modified" in s.labels]
            assert [s.labels["not_modified"] for s in answered] == [False]
            assert after[0] == before[0]
            new_etag = adapter._expansions.peek(seeds)[0]
            assert new_etag.split(":")[0] != old_etag.split(":")[0]
        finally:
            adapter.close()
            supervisor.stop()


class TestHandshake:
    @staticmethod
    def hello(worker, protocol):
        """The worker's answer to a raw hello, and what follows it."""

        async def fn(adapter, _server):
            reader, writer = await asyncio.open_connection(*adapter._endpoint())
            try:
                await wire.write_frame(
                    writer, {"call": "hello", "protocol": protocol}
                )
                return await wire.read_frame(reader), \
                    await wire.read_frame(reader)
            finally:
                writer.close()

        return with_server(worker, fn)

    def test_a_v2_peer_is_refused(self, worker):
        assert wire.SHARD_PROTOCOL_VERSION == 4
        response, trailing = self.hello(worker, 2)
        assert response["error"]["type"] == "protocol_mismatch"
        assert "protocol 2" in response["error"]["message"]
        assert trailing is None, "the worker must close after the mismatch"

    def test_a_v3_peer_is_refused(self, worker):
        """Version 4 removed ``link_text``: a v3 router would still send it."""
        response, trailing = self.hello(worker, 3)
        assert response["error"]["type"] == "protocol_mismatch"
        assert "protocol 3" in response["error"]["message"]
        assert trailing is None, "the worker must close after the mismatch"

    def test_a_v4_adapter_refuses_a_v3_worker(self, worker, monkeypatch):
        """The adapter checks the hello it gets back, too."""

        async def fn(adapter, server):
            real = server._hello_response
            monkeypatch.setattr(
                server, "_hello_response", lambda: {**real(), "protocol": 3}
            )
            with pytest.raises(WorkerCallError) as err:
                await adapter.leaf_collection_counts(ROOT)
            return err.value.error_type, adapter.retries_total

        assert with_server(worker, fn) == ("protocol_mismatch", 0)

    def test_a_link_text_call_is_unknown_and_not_retried(self, worker):
        async def fn(adapter, server):
            with pytest.raises(WorkerCallError) as err:
                await adapter._call("link_text", {"normalized": "walled manuscript"})
            return err.value.error_type, adapter.retries_total, server.calls_served

        assert with_server(worker, fn) == ("unknown_call", 0, 0)


class TestRouterSeesWorkerCacheOutcomes:
    """``/healthz`` hit rates and ``/stats`` expansion_cache used to read
    0.0 under ``--workers``: they read the idle in-process workers."""

    def test_stats_overlay_counts_cached_flags_per_shard(
        self, small_benchmark, snapshot, tmp_path
    ):
        sharded = ShardedSnapshot.from_snapshot(snapshot, num_shards=2)
        sharded.save(tmp_path)
        supervisor = ShardSupervisor(str(tmp_path), 2)
        supervisor.start(timeout_s=120.0)
        router = ShardRouter(sharded)
        async_router = AsyncShardRouter(router, supervisor=supervisor)
        queries = [topic.keywords for topic in small_benchmark.topics]
        try:
            async def go():
                for _ in range(3):
                    for query in queries:
                        await async_router.expand_query(query)

            asyncio.run(go())
            stats = async_router.stats()
            per_shard = [s["expansion_cache"] for s in stats["per_shard"]]
            assert sum(c["misses"] for c in per_shard) == len(queries)
            assert sum(c["hits"] for c in per_shard) == 2 * len(queries)
            assert stats["expansion_cache"]["hit_rate"] == pytest.approx(
                2 / 3, abs=1e-4
            )
            owners = {
                router.owner_shard(
                    router.link_text(router.normalize(q))[0].article_ids
                ) for q in queries
            }
            for shard_id, cache in enumerate(per_shard):
                assert (cache["hits"] + cache["misses"] > 0) == (shard_id in owners)
            # The in-process workers really were idle: the counts come
            # from the answers the plan received, not from their caches.
            assert all(
                worker.stats().expansion_cache.lookups == 0
                for worker in router.workers
            )
            assert stats["per_shard_hit_rates"] == [
                c["hit_rate"] for c in per_shard
            ]
        finally:
            async_router.close()
            supervisor.stop()
            router.close()

    def test_metrics_count_both_new_caches(self, worker, seed_sets):
        """``wire`` spans of expand_seeds feed ``expansion_wire``; other
        calls' wire spans carry no ``not_modified`` and count nothing."""
        seeds = seed_sets[0]

        async def fn(adapter, _server):
            with tracing.start_trace() as trace:
                await adapter.expand_seeds(seeds)
                await adapter.expand_seeds(seeds)
                await adapter.leaf_collection_counts(ROOT)
            return trace

        metrics = ServingMetrics()
        metrics.observe_request("expand_query", with_server(worker, fn), 0.01)
        lookups = metrics.cache_lookups
        assert lookups.value(cache="expansion_wire", result="miss") == 1
        assert lookups.value(cache="expansion_wire", result="hit") == 1
        assert metrics.stage_latency.snapshot(stage="wire")[2] == 3
        assert metrics.shard_stage_latency.snapshot(shard=0, stage="wire")[2] == 3
