"""UpdateCoordinator: bit-identity, idempotency, invalidation, compaction.

The acceptance bar from the live-update issue: a router serving
generation N plus an overlay answers bit-identically (doc ids AND
scores) to a router rebuilt from scratch over the delta'd graph, and so
does the compacted generation N+1 — across the sync, async, and (in
``test_worker_updates``) socket-worker paths.
"""

import asyncio

import pytest

from repro.errors import StaleGenerationError
from repro.service import AsyncShardRouter, ShardRouter, ShardedSnapshot
from repro.service.artifacts import resolve_snapshot_dir
from repro.updates import (
    Delta,
    UpdateCoordinator,
    apply_deltas_to_graph,
)

from repro.wiki.partition import shard_of_node

from update_helpers import (
    assert_router_matches_oracle,
    assert_same_answers,
    cached_expansion_keys,
    rebuild_snapshot,
)

_NEW = 9_100_000


def _batch(small_benchmark, start_seq=1):
    """Adds two wired-in articles, rewires an edge, sets a redirect."""
    graph = small_benchmark.graph
    articles = [a.node_id for a in graph.articles() if not a.is_redirect]
    linked = next(n for n in articles if graph.links_from(n))
    link_target = sorted(graph.links_from(linked))[0]
    loner = next(
        n for n in articles
        if not graph.redirects_of(n) and n not in (linked, link_target)
    )
    redirect_target = next(
        n for n in articles
        if n not in (loner, linked, link_target) and not graph.redirects_of(n)
    )
    seq = iter(range(start_seq, start_seq + 6))
    return [
        Delta(op="add_article", seq=next(seq), node_id=_NEW,
              title="Live Update Alpha"),
        Delta(op="add_article", seq=next(seq), node_id=_NEW + 1,
              title="Live Update Beta"),
        Delta(op="add_edge", seq=next(seq), source=_NEW, target=_NEW + 1,
              kind="link"),
        Delta(op="add_edge", seq=next(seq), source=_NEW, target=linked,
              kind="link"),
        Delta(op="remove_edge", seq=next(seq), source=linked,
              target=link_target, kind="link"),
        Delta(op="set_redirect", seq=next(seq), node_id=loner,
              target=redirect_target),
    ]


def _queries(small_benchmark):
    queries = [topic.keywords for topic in small_benchmark.topics]
    return queries + ["live update alpha", "live update beta"]


@pytest.fixture()
def router(sharded2):
    instance = ShardRouter(sharded2)
    yield instance
    instance.close()


class TestBitIdentity:
    def test_overlay_matches_from_scratch_rebuild(
        self, small_benchmark, router
    ):
        deltas = _batch(small_benchmark)
        coordinator = UpdateCoordinator(router)
        summary = coordinator.apply([d.to_payload() for d in deltas])
        assert summary["applied"] == len(deltas)
        assert summary["last_seq"] == deltas[-1].seq
        oracle = apply_deltas_to_graph(small_benchmark.graph, deltas)
        assert_router_matches_oracle(router, oracle, _queries(small_benchmark))

    def test_compacted_generation_matches_rebuild_and_overlay(
        self, small_benchmark, router
    ):
        deltas = _batch(small_benchmark)
        coordinator = UpdateCoordinator(router)
        coordinator.apply([d.to_payload() for d in deltas])
        overlay_answers = [
            router.expand_query(q, top_k=10) for q in _queries(small_benchmark)
        ]
        summary = coordinator.compact()
        assert summary["generation"] == 2
        assert summary["previous_generation"] == 1
        assert summary["folded_seq"] == deltas[-1].seq
        assert router.generation == 2
        assert coordinator.describe()["overlay_empty"]

        oracle = apply_deltas_to_graph(small_benchmark.graph, deltas)
        assert_router_matches_oracle(router, oracle, _queries(small_benchmark))
        for query, before in zip(_queries(small_benchmark), overlay_answers):
            assert_same_answers(
                router.expand_query(query, top_k=10), before, label=query
            )

    def test_async_router_sees_the_overlay(self, small_benchmark, sharded2):
        """The async front end shares the sync router's state: a delta
        published through the coordinator changes its answers too."""
        router = ShardRouter(sharded2)
        async_router = AsyncShardRouter(router)
        try:
            deltas = _batch(small_benchmark)
            UpdateCoordinator(router).apply([d.to_payload() for d in deltas])
            oracle = apply_deltas_to_graph(small_benchmark.graph, deltas)
            reference = ShardRouter(rebuild_snapshot(sharded2, oracle))

            async def all_queries():
                return [
                    await async_router.expand_query(query, top_k=10)
                    for query in _queries(small_benchmark)
                ]

            for query, mine in zip(
                _queries(small_benchmark), asyncio.run(all_queries())
            ):
                assert_same_answers(
                    mine, reference.expand_query(query, top_k=10), label=query
                )
            reference.close()
        finally:
            async_router.close()

    def test_delta_on_another_shards_node_evicts_the_entry(
        self, small_benchmark, router
    ):
        """An expansion cached on its owner shard A is evicted by a delta
        naming only nodes the hash places on shard B: every worker mines
        the one whole graph, so placement never shelters a cache entry."""
        graph = small_benchmark.graph
        query, seeds, owner, neighbour = next(
            (topic.keywords, seeds, router.owner_shard(seeds), node)
            for topic in small_benchmark.topics
            for seeds in [router.linker.link_keywords(topic.keywords)] if seeds
            for node in sorted(graph.links_from(min(seeds)))
            if not graph.article(node).is_redirect
            and shard_of_node(node, 2) != router.owner_shard(seeds)
        )
        newcomer = next(
            _NEW + offset for offset in range(7, 64)
            if shard_of_node(_NEW + offset, 2) != owner
        )
        assert router.expand_query(query, top_k=10).expansion_cached is False
        assert router.expand_query(query, top_k=10).expansion_cached is True
        deltas = [
            Delta(op="add_article", seq=1, node_id=newcomer,
                  title="Halo Companion"),
            Delta(op="add_edge", seq=2, source=newcomer, target=neighbour,
                  kind="link"),
        ]
        summary = UpdateCoordinator(router).apply([d.to_payload() for d in deltas])
        assert summary["invalidated"]["expansion"] >= 1
        assert seeds not in cached_expansion_keys(router.workers[owner])
        assert router.expand_query(query, top_k=10).expansion_cached is False
        oracle = apply_deltas_to_graph(small_benchmark.graph, deltas)
        queries = _queries(small_benchmark) + [
            small_benchmark.graph.title(neighbour).lower(), "halo companion",
        ]
        assert_router_matches_oracle(router, oracle, queries)


class TestIdempotencyAndStaleness:
    def test_double_apply_is_a_no_op(self, small_benchmark, router):
        deltas = _batch(small_benchmark)
        payloads = [d.to_payload() for d in deltas]
        coordinator = UpdateCoordinator(router)
        first = coordinator.apply(payloads)
        baseline = [
            router.expand_query(q, top_k=10) for q in _queries(small_benchmark)
        ]
        second = coordinator.apply(payloads)
        assert first["applied"] == len(deltas)
        assert second["applied"] == 0
        assert second["skipped"] == len(deltas)
        assert second["last_seq"] == first["last_seq"]
        assert second["invalidated"] == {"expansion": 0, "link": 0}
        for query, before in zip(_queries(small_benchmark), baseline):
            assert_same_answers(
                router.expand_query(query, top_k=10), before, label=query
            )

    def test_replay_summary_has_the_applied_summary_shape(
        self, small_benchmark, router
    ):
        """Every 200 of ``/admin/apply_delta`` carries the documented
        keys: a retried (all-skipped) batch used to drop ``ball_size``
        and ``stale_workers``."""
        payloads = [d.to_payload() for d in _batch(small_benchmark)]
        coordinator = UpdateCoordinator(router)
        first = coordinator.apply(payloads)
        replay = coordinator.apply(payloads)
        assert set(replay) == set(first)
        assert replay["ball_size"] == 0
        assert replay["stale_workers"] == []
        assert set(replay["stages_ms"]) == {"validate"}

    def test_stale_generation_is_rejected_without_side_effects(
        self, small_benchmark, router
    ):
        coordinator = UpdateCoordinator(router)
        payloads = [d.to_payload() for d in _batch(small_benchmark)]
        with pytest.raises(StaleGenerationError) as excinfo:
            coordinator.apply(payloads, generation=41)
        assert excinfo.value.expected == 1
        assert excinfo.value.got == 41
        assert coordinator.last_seq == 0
        assert coordinator.describe()["overlay_empty"]

        coordinator.apply(payloads, generation=1)  # the right one works
        coordinator.compact()
        with pytest.raises(StaleGenerationError):
            # a client still validating against generation 1 is refused
            coordinator.apply(
                [{"op": "remove_article", "seq": 1, "node_id": _NEW}],
                generation=1,
            )


class TestTargetedInvalidation:
    def test_far_away_delta_keeps_unrelated_entries_warm(
        self, small_benchmark, router
    ):
        """A delta whose ball misses a cached seed set must not evict
        it: adding a disconnected article invalidates nothing."""
        queries = [t.keywords for t in small_benchmark.topics[:3]]
        for query in queries:
            router.expand_query(query, top_k=10)
        coordinator = UpdateCoordinator(router)
        summary = coordinator.apply([
            {"op": "add_article", "seq": 1, "node_id": _NEW + 9,
             "title": "Distant Island"},
        ])
        assert summary["ball_size"] == 1
        assert summary["invalidated"]["expansion"] == 0
        assert summary["invalidated"]["link"] > 0  # title surface changed
        for query in queries:
            assert router.expand_query(query, top_k=10).expansion_cached, query

    def test_nearby_delta_evicts_the_touched_entry(
        self, small_benchmark, router
    ):
        query = small_benchmark.topics[0].keywords
        response = router.expand_query(query, top_k=10)
        assert response.linked
        seed = sorted(response.link.article_ids)[0]
        coordinator = UpdateCoordinator(router)
        summary = coordinator.apply([
            {"op": "add_article", "seq": 1, "node_id": _NEW + 8,
             "title": "Adjacent Newcomer"},
            {"op": "add_edge", "seq": 2, "source": _NEW + 8, "target": seed,
             "kind": "link"},
        ])
        assert summary["invalidated"]["expansion"] >= 1
        after = router.expand_query(query, top_k=10)
        assert not after.expansion_cached
        assert router.stats()["delta_invalidations"] == sum(
            summary["invalidated"].values()
        )

    def test_pure_edge_delta_keeps_the_link_cache(
        self, small_benchmark, router
    ):
        query = small_benchmark.topics[0].keywords
        response = router.expand_query(query, top_k=10)
        seeds = sorted(response.link.article_ids)
        graph = small_benchmark.graph
        target = next(
            n for n in (a.node_id for a in graph.articles())
            if not graph.article(n).is_redirect
            and n not in graph.links_from(seeds[0]) and n != seeds[0]
            and not graph.article(seeds[0]).is_redirect
        )
        summary = UpdateCoordinator(router).apply([
            {"op": "add_edge", "seq": 1, "source": seeds[0], "target": target,
             "kind": "link"},
        ])
        assert summary["invalidated"]["link"] == 0
        assert router.expand_query(query, top_k=10).link_cached


class TestSharedDocNames:
    def test_one_mapping_from_snapshot_through_router_across_compaction(
        self, sharded2, router
    ):
        """Deltas never touch documents, so neither the router nor a
        compacted generation copies the snapshot's document names."""
        assert router.doc_names is sharded2.doc_names
        UpdateCoordinator(router).compact()
        assert router.generation == 2
        assert router.doc_names is router.snapshot.doc_names \
            is sharded2.doc_names


class TestOnDiskLifecycle:
    def test_apply_logs_and_compact_flips_current(
        self, small_benchmark, snapshot, tmp_path
    ):
        root = tmp_path / "serving"
        sharded = ShardedSnapshot.from_snapshot(snapshot, num_shards=2)
        sharded.save(root)
        router = ShardRouter(ShardedSnapshot.load(root))
        coordinator = UpdateCoordinator(router, snapshot_dir=root)
        deltas = _batch(small_benchmark)
        coordinator.apply([d.to_payload() for d in deltas])
        assert len(coordinator.delta_log.segments()) == 1
        assert coordinator.delta_log.replay(1) == deltas

        summary = coordinator.compact()
        assert summary["saved"]
        assert summary["log_segments_dropped"] == 1
        assert (root / "gen-0002").is_dir()
        assert (root / "CURRENT").read_text().strip() == "gen-0002"
        assert resolve_snapshot_dir(root) == root / "gen-0002"
        assert coordinator.delta_log.segments() == []

        reloaded = ShardedSnapshot.load(root)
        assert reloaded.generation == 2
        fresh = ShardRouter(reloaded)
        oracle = apply_deltas_to_graph(small_benchmark.graph, deltas)
        try:
            for query in _queries(small_benchmark):
                assert_same_answers(
                    fresh.expand_query(query, top_k=10),
                    router.expand_query(query, top_k=10),
                    label=query,
                )
            assert_router_matches_oracle(
                fresh, oracle, _queries(small_benchmark)
            )
        finally:
            fresh.close()
            router.close()

    def test_restart_resumes_from_the_log_before_serving(
        self, small_benchmark, snapshot, tmp_path
    ):
        """A new router and coordinator over a directory whose log holds
        an acknowledged batch serve it at once: ``last_seq`` and the
        graph are restored, answers equal the oracle's, a reused seq is
        skipped, and nothing is appended to the log."""
        root = tmp_path / "serving"
        ShardedSnapshot.from_snapshot(snapshot, num_shards=2).save(root)
        deltas = _batch(small_benchmark)
        first = ShardRouter(ShardedSnapshot.load(root))
        try:
            UpdateCoordinator(first, snapshot_dir=root).apply(
                [d.to_payload() for d in deltas]
            )
        finally:
            first.close()

        router = ShardRouter(ShardedSnapshot.load(root))
        coordinator = UpdateCoordinator(router, snapshot_dir=root)
        try:
            assert coordinator.last_seq == deltas[-1].seq
            assert router.stats()["delta_seq"] == deltas[-1].seq
            assert len(coordinator.delta_log.segments()) == 1
            assert _NEW in router.graph
            assert all(_NEW in worker.graph for worker in router.workers)
            oracle = apply_deltas_to_graph(small_benchmark.graph, deltas)
            assert_router_matches_oracle(router, oracle, _queries(small_benchmark))

            reused = Delta(op="add_article", seq=1, node_id=_NEW + 7,
                           title="Reused Sequence Number")
            summary = coordinator.apply([reused.to_payload()])
            assert (summary["applied"], summary["skipped"]) == (0, 1)
            assert _NEW + 7 not in router.graph
            assert coordinator.delta_log.replay(1) == deltas
        finally:
            router.close()

    def test_stats_and_metrics_expose_the_generation(
        self, small_benchmark, router
    ):
        coordinator = UpdateCoordinator(router)
        stats = router.stats()
        assert stats["generation"] == 1
        assert stats["delta_seq"] == 0
        coordinator.apply([d.to_payload() for d in _batch(small_benchmark)])
        stats = router.stats()
        assert stats["delta_seq"] == 6
        assert 'repro_delta_seq 6' in router.metrics.render()
        coordinator.compact()
        stats = router.stats()
        assert stats["generation"] == 2
        assert stats["delta_seq"] == 0
        rendered = router.metrics.render()
        assert 'repro_snapshot_generation 2' in rendered
        assert 'repro_delta_seq 0' in rendered
        assert "repro_delta_invalidations_total" in rendered
