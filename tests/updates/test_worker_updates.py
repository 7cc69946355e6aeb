"""Live updates on the out-of-process serving path.

Three layers again, mirroring the fault suite: the
:class:`ShardWorkerUpdater` alone, a real :class:`ShardWorkerServer` on
a loopback socket in this process (wire-level ``apply_delta``), and
supervised worker subprocesses behind the full coordinator (fan-out,
log replay on restart, rolling reload across a compaction).
"""

import asyncio
from pathlib import Path

import pytest

from repro.errors import StaleGenerationError
from repro.linking import EntityLinker
from repro.service import (
    AsyncShardRouter,
    ShardCallPolicy,
    ShardRouter,
    ShardSupervisor,
    ShardWorkerServer,
    ShardedSnapshot,
    SocketShardAdapter,
    make_shard_worker,
)
from repro.service import wire
from repro.service.wire import SHARD_PROTOCOL_VERSION
from repro.updates import (
    Delta,
    DeltaLog,
    ShardWorkerUpdater,
    UpdateCoordinator,
    apply_deltas_to_graph,
)

from update_helpers import assert_same_answers, rebuild_snapshot

_NEW = 9_300_000


def _payloads(seed_article):
    return [
        {"op": "add_article", "seq": 1, "node_id": _NEW,
         "title": "Socket Update Page"},
        {"op": "add_edge", "seq": 2, "source": _NEW, "target": seed_article,
         "kind": "link"},
    ]


@pytest.fixture(scope="module")
def sharded1(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=1).frozen()


def _anchor(small_benchmark):
    graph = small_benchmark.graph
    return next(
        a.node_id for a in graph.articles()
        if not a.is_redirect and graph.links_from(a.node_id)
    )


class TestShardWorkerUpdater:
    def test_worker_overlay_matches_router_overlay(
        self, small_benchmark, sharded1
    ):
        """A worker applying a batch itself answers like a router whose
        coordinator published the same batch."""
        anchor = _anchor(small_benchmark)
        worker = make_shard_worker(sharded1.shard(0))
        updater = ShardWorkerUpdater(worker, sharded1.graph)
        summary = updater.apply_payloads(_payloads(anchor))
        assert summary["applied"] == 2
        assert updater.last_seq == 2

        router = ShardRouter(sharded1)
        UpdateCoordinator(router).apply(_payloads(anchor))
        seeds = frozenset({anchor, _NEW})
        mine, _cached = worker.expand_seeds(seeds)
        reference, _cached = router.workers[0].expand_seeds(seeds)
        assert mine.article_ids == reference.article_ids
        assert mine.titles == reference.titles
        router.close()

    def test_replay_is_idempotent_and_stale_generation_refused(
        self, small_benchmark, sharded1
    ):
        anchor = _anchor(small_benchmark)
        worker = make_shard_worker(sharded1.shard(0))
        updater = ShardWorkerUpdater(worker, sharded1.graph)
        assert updater.apply_payloads(_payloads(anchor))["applied"] == 2
        again = updater.apply_payloads(_payloads(anchor))
        assert again["applied"] == 0
        assert again["invalidated"] == 0
        with pytest.raises(StaleGenerationError):
            updater.apply_payloads(_payloads(anchor), generation=3)


    def test_replay_summary_has_the_applied_summary_shape(
        self, small_benchmark, sharded1
    ):
        worker = make_shard_worker(sharded1.shard(0))
        updater = ShardWorkerUpdater(worker, sharded1.graph)
        first = updater.apply_payloads(_payloads(_anchor(small_benchmark)))
        replay = updater.apply_payloads(_payloads(_anchor(small_benchmark)))
        assert set(replay) == set(first) == {
            "generation", "applied", "last_seq", "ball_size", "invalidated",
        }
        assert first["ball_size"] > 1
        assert (replay["applied"], replay["ball_size"]) == (0, 0)
        assert replay["last_seq"] == first["last_seq"] == 2


class TestWorkersHoldNoLinker:
    """Only the router links (the owner shard is known after linking), so
    no shard worker builds, holds or patches an entity linker."""

    def test_a_shard_worker_has_no_linker(self, sharded1):
        assert make_shard_worker(sharded1.shard(0)).linker is None

    def test_router_workers_stay_linkerless_across_apply_and_swap(
        self, small_benchmark, sharded1
    ):
        router = ShardRouter(sharded1)
        coordinator = UpdateCoordinator(router)
        try:
            assert [w.linker for w in router.workers] == [None]
            coordinator.apply(_payloads(_anchor(small_benchmark)))  # apply_overlay
            assert [w.linker for w in router.workers] == [None]
            assert router.linker.link_keywords("socket update page") == {_NEW}
            coordinator.compact()  # swap_snapshot
            assert [w.linker for w in router.workers] == [None]
            assert router.linker.link_keywords("socket update page") == {_NEW}
        finally:
            router.close()

    def test_a_title_batch_on_a_worker_patches_no_linker(
        self, small_benchmark, sharded1, monkeypatch
    ):
        calls = {"patched": 0, "rebuilt": 0}

        def counting(name):
            real = getattr(EntityLinker, name)

            def counted(self, *args):
                calls[name] += 1
                return real(self, *args)
            return counted

        for name in calls:
            monkeypatch.setattr(EntityLinker, name, counting(name))
        anchor = _anchor(small_benchmark)
        worker = make_shard_worker(sharded1.shard(0))
        summary = ShardWorkerUpdater(worker, sharded1.graph).apply_payloads(
            _payloads(anchor)
        )
        assert calls == {"patched": 0, "rebuilt": 0}

        router = ShardRouter(sharded1)  # the router side does patch
        try:
            expected = UpdateCoordinator(router).apply(_payloads(anchor))
        finally:
            router.close()
        assert calls == {"patched": 1, "rebuilt": 0}
        assert summary == {
            "generation": 1, "applied": 2, "last_seq": 2,
            "ball_size": expected["ball_size"], "invalidated": 0,
        }


def _wire_call(port, frame):
    return wire.blocking_call(("127.0.0.1", port), frame, timeout=30)


class TestWireApplyDelta:
    def _serve(self, sharded1, fn):
        worker = make_shard_worker(sharded1.shard(0))
        updater = ShardWorkerUpdater(worker, sharded1.graph)

        async def go():
            server = ShardWorkerServer(worker, 0, updater=updater)
            await server.start("127.0.0.1", 0)
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None, fn, server.port
                )
            finally:
                await server.stop()

        return asyncio.run(go()), worker, updater

    def test_hello_reports_generation_and_wire_apply_works(
        self, small_benchmark, sharded1
    ):
        anchor = _anchor(small_benchmark)

        def exercise(port):
            hello, response = _wire_call(port, {
                "call": "apply_delta",
                "protocol": SHARD_PROTOCOL_VERSION,
                "generation": 1,
                "deltas": _payloads(anchor),
            })
            return hello, response

        (hello, response), _worker, updater = self._serve(sharded1, exercise)
        assert hello["ok"]
        assert hello["protocol"] == SHARD_PROTOCOL_VERSION
        assert hello["generation"] == 1
        assert hello["delta_seq"] == 0
        assert response.get("error") is None
        assert response["result"]["applied"] == 2
        assert updater.last_seq == 2

    def test_wire_stale_generation_returns_an_error_frame(self, sharded1):
        def exercise(port):
            return _wire_call(port, {
                "call": "apply_delta",
                "protocol": SHARD_PROTOCOL_VERSION,
                "generation": 9,
                "deltas": [{"op": "remove_article", "seq": 1, "node_id": 1}],
            })

        (_hello, response), _worker, updater = self._serve(sharded1, exercise)
        assert response["error"] is not None
        assert "generation" in response["error"]["message"]
        assert updater.last_seq == 0

    def test_server_without_updater_rejects_apply_delta(self, sharded1):
        worker = make_shard_worker(sharded1.shard(0))

        async def go():
            server = ShardWorkerServer(worker, 0)
            await server.start("127.0.0.1", 0)
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None, _wire_call, server.port, {
                        "call": "apply_delta",
                        "protocol": SHARD_PROTOCOL_VERSION,
                        "deltas": [],
                    }
                )
            finally:
                await server.stop()

        hello, response = asyncio.run(go())
        assert "generation" not in hello
        assert response["error"] is not None


class TestSupervisedLiveUpdates:
    """Real worker subprocesses: fan-out, replay, rolling reload."""

    def test_fan_out_replay_and_compaction_reload(
        self, small_benchmark, snapshot, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("live-serving")
        sharded = ShardedSnapshot.from_snapshot(snapshot, num_shards=2)
        sharded.save(root)
        anchor = _anchor(small_benchmark)
        oracle = apply_deltas_to_graph(
            small_benchmark.graph,
            [Delta.from_payload(p) for p in _payloads(anchor)],
        )
        queries = [t.keywords for t in small_benchmark.topics[:4]]
        queries.append("socket update page")

        supervisor = ShardSupervisor(str(root), 2)
        supervisor.start(timeout_s=120.0)
        router = ShardRouter(sharded)
        async_router = AsyncShardRouter(router, supervisor=supervisor)
        coordinator = UpdateCoordinator(
            router, snapshot_dir=root, supervisor=supervisor
        )
        reference = ShardRouter(rebuild_snapshot(sharded, oracle))

        def ask_all():
            async def go():
                return [
                    await async_router.expand_query(query, top_k=10)
                    for query in queries
                ]
            return asyncio.run(go())

        try:
            # Live fan-out: every worker took the batch over the wire.
            summary = coordinator.apply(_payloads(anchor))
            assert summary["stale_workers"] == []
            for query, mine in zip(queries, ask_all()):
                assert_same_answers(
                    mine, reference.expand_query(query, top_k=10), label=query
                )

            # Replay: freshly exec'd workers fold the durable log back in.
            assert len(DeltaLog(root).segments()) == 1
            supervisor.reload(timeout_s=120.0)
            assert [w["state"] for w in supervisor.describe()] == ["up", "up"]
            for query, mine in zip(queries, ask_all()):
                assert_same_answers(
                    mine, reference.expand_query(query, top_k=10), label=query
                )

            # Compaction: CURRENT flips, workers rolling-restart onto
            # generation 2, answers stay bit-identical.
            pids_before = [w["pid"] for w in supervisor.describe()]
            compacted = coordinator.compact()
            assert compacted["generation"] == 2
            assert (root / "CURRENT").read_text().strip() == "gen-0002"
            pids_after = [w["pid"] for w in supervisor.describe()]
            assert set(pids_before).isdisjoint(pids_after)
            assert supervisor.restarts_total == 0  # reloads burn no budget

            host, port = supervisor.endpoint(0)
            hello, _ = _wire_call(port, {
                "call": "hello", "protocol": SHARD_PROTOCOL_VERSION,
            })
            assert hello["generation"] == 2
            assert hello["delta_seq"] == 0
            for query, mine in zip(queries, ask_all()):
                assert_same_answers(
                    mine, reference.expand_query(query, top_k=10), label=query
                )
        finally:
            reference.close()
            async_router.close()
            supervisor.stop()

    @pytest.mark.skipif(
        not Path("/proc/self/maps").exists(), reason="reads /proc/<pid>/maps"
    )
    def test_workers_map_only_their_shard_across_the_rolling_reload(
        self, snapshot, tmp_path_factory
    ):
        """A worker process maps the graph and its own segment — of the
        first generation at start, of ``gen-0002/`` after a compaction's
        rolling reload — and never another shard's segment."""
        root = tmp_path_factory.mktemp("live-shard-maps").resolve()
        sharded = ShardedSnapshot.from_snapshot(snapshot, num_shards=2)
        sharded.save(root)
        supervisor = ShardSupervisor(str(root), 2)
        supervisor.start(timeout_s=120.0)
        router = ShardRouter(sharded)
        coordinator = UpdateCoordinator(
            router, snapshot_dir=root, supervisor=supervisor
        )

        def mapped():
            per_worker = []
            for worker in supervisor.describe():
                lines = Path(f"/proc/{worker['pid']}/maps").read_text().splitlines()
                per_worker.append(sorted({
                    Path(line.split()[-1]).relative_to(root).as_posix()
                    for line in lines if line.split()[-1].startswith(str(root))
                }))
            return per_worker

        try:
            assert mapped() == [
                ["graph.bin", "shard-0000/index.bin"],
                ["graph.bin", "shard-0001/index.bin"],
            ]
            assert coordinator.compact()["generation"] == 2
            assert mapped() == [
                ["gen-0002/graph.bin", "gen-0002/shard-0000/index.bin"],
                ["gen-0002/graph.bin", "gen-0002/shard-0001/index.bin"],
            ]
        finally:
            supervisor.stop()
            router.close()

    def test_apply_summary_counts_what_the_workers_evicted(
        self, small_benchmark, snapshot, tmp_path_factory
    ):
        """With worker processes serving, theirs are the expansion caches
        a delta evicts from: the apply summary, the eviction metric and
        ``/stats`` count what the reached workers evicted (they counted
        the router's idle in-process caches, 0, and the next answer was
        nevertheless ``expansion_cached: false``)."""
        root = tmp_path_factory.mktemp("live-evictions")
        sharded = ShardedSnapshot.from_snapshot(snapshot, num_shards=2)
        sharded.save(root)
        query = small_benchmark.topics[0].keywords
        supervisor = ShardSupervisor(str(root), 2)
        supervisor.start(timeout_s=120.0)
        router = ShardRouter(sharded)
        async_router = AsyncShardRouter(router, supervisor=supervisor)
        coordinator = UpdateCoordinator(
            router, snapshot_dir=root, supervisor=supervisor
        )
        seeds = router.link_text(router.normalize(query))[0].article_ids
        # A reciprocal link pair on a seed: a new 2-cycle.
        payloads = _payloads(min(seeds)) + [{
            "op": "add_edge", "seq": 3, "source": min(seeds), "target": _NEW,
            "kind": "link",
        }]

        def ask():
            return asyncio.run(async_router.expand_query(query, top_k=10))

        try:
            assert [ask().expansion_cached for _ in range(2)] == [False, True]
            summary = coordinator.apply(payloads)
            assert summary["stale_workers"] == []
            evicted = summary["invalidated"]["expansion"]
            assert evicted >= 1
            metric = router.metrics.delta_invalidations
            assert metric.value(cache="expansion") == evicted
            assert async_router.stats()["delta_invalidations"] == \
                evicted + summary["invalidated"]["link"]
            assert not ask().expansion_cached
        finally:
            async_router.close()
            supervisor.stop()
            router.close()

    def test_conditional_fetch_follows_delta_eviction(
        self, small_benchmark, snapshot, tmp_path_factory
    ):
        """Protocol 3 across a live update: a repeated query is answered
        ``not_modified`` until a delta evicts its expansion worker-side;
        the next answer is a full body under a new etag and equals the
        from-scratch rebuild — expansion, cycles and scores."""
        root = tmp_path_factory.mktemp("live-conditional")
        sharded = ShardedSnapshot.from_snapshot(snapshot, num_shards=2)
        sharded.save(root)
        query = small_benchmark.topics[0].keywords
        supervisor = ShardSupervisor(str(root), 2)
        supervisor.start(timeout_s=120.0)
        router = ShardRouter(sharded)
        async_router = AsyncShardRouter(router, supervisor=supervisor)
        coordinator = UpdateCoordinator(
            router, snapshot_dir=root, supervisor=supervisor
        )
        seeds = router.link_text(router.normalize(query))[0].article_ids
        # A reciprocal link pair on a seed: a new 2-cycle, a new answer.
        payloads = _payloads(min(seeds)) + [{
            "op": "add_edge", "seq": 3, "source": min(seeds), "target": _NEW,
            "kind": "link",
        }]
        reference = ShardRouter(rebuild_snapshot(sharded, apply_deltas_to_graph(
            small_benchmark.graph, [Delta.from_payload(p) for p in payloads],
        )))
        adapter = async_router.adapters[router.owner_shard(seeds)]

        def ask():
            response = asyncio.run(async_router.expand_query(query, top_k=10))
            (fetch,) = [
                span.labels["not_modified"] for span in response.trace.spans
                if span.stage == "wire"
                and span.labels["call"] == "expand_seeds"
            ]
            return response, fetch, adapter._expansions.peek(seeds)[0]

        try:
            _, first_fetch, first_etag = ask()
            again, second_fetch, second_etag = ask()
            assert (first_fetch, second_fetch) == (False, True)
            assert second_etag == first_etag

            summary = coordinator.apply(payloads)
            assert summary["stale_workers"] == []
            after, fetch, etag = ask()
            assert fetch is False, "an evicted entry must ship a full body"
            assert etag != first_etag
            assert not after.expansion_cached
            expected = reference.expand_query(query, top_k=10)
            assert_same_answers(after, expected, label=query)
            assert after.expansion == expected.expansion  # cycles included
            assert after.expansion != again.expansion

            settled, fetch, settled_etag = ask()
            assert fetch is True and settled_etag == etag
            assert settled.expansion is after.expansion
        finally:
            reference.close()
            async_router.close()
            supervisor.stop()
            router.close()
