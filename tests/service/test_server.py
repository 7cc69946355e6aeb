"""ExpansionService behaviour: end-to-end answers, batching, concurrency."""

import threading

import pytest

from repro.core.expansion import CycleExpander, Expander, NeighborhoodCycleExpander
from repro.errors import ServiceError
from repro.linking.linker import EntityLinker
from repro.service import ExpansionService


@pytest.fixture()
def service(snapshot):
    return ExpansionService.from_snapshot(snapshot)


class TestSingleQuery:
    def test_matches_manual_pipeline(self, small_benchmark, service):
        """The service answer equals the hand-assembled offline pipeline."""
        keywords = small_benchmark.topics[0].keywords
        response = service.expand_query(keywords, top_k=10)

        linker = EntityLinker(small_benchmark.graph)
        seeds = linker.link_keywords(keywords)
        expander = NeighborhoodCycleExpander()
        expansion = expander.expand(small_benchmark.graph, seeds)
        engine = small_benchmark.build_engine()
        expected = engine.search_phrases(
            expansion.all_titles(small_benchmark.graph), top_k=10
        )

        assert response.link.article_ids == seeds
        assert response.expansion.article_ids == expansion.article_ids
        assert [r.doc_id for r in response.results] == [r.doc_id for r in expected]

    def test_unlinked_query_falls_back_to_keywords(self, service):
        response = service.expand_query("completely unknowable gibberish")
        assert not response.linked
        assert response.expansion.num_features == 0
        assert service.stats().unlinked_queries == 1

    def test_empty_query_returns_no_results(self, service):
        response = service.expand_query("!!! ???")
        assert response.normalized_query == ""
        assert response.results == ()

    def test_latency_is_reported(self, small_benchmark, service):
        response = service.expand_query(small_benchmark.topics[0].keywords)
        assert response.latency_ms > 0.0

    def test_rejects_empty_engine(self, snapshot):
        from repro.retrieval import SearchEngine

        with pytest.raises(ServiceError):
            ExpansionService(snapshot.graph, SearchEngine(), snapshot.make_linker())


class TestBatch:
    def test_batch_equals_individual_answers(self, small_benchmark, snapshot):
        queries = [topic.keywords for topic in small_benchmark.topics]
        batch_service = ExpansionService.from_snapshot(snapshot)
        batch = batch_service.batch_expand(queries, top_k=10)

        single_service = ExpansionService.from_snapshot(snapshot)
        for query, response in zip(queries, batch):
            single = single_service.expand_query(query, top_k=10)
            assert response.expansion.article_ids == single.expansion.article_ids
            assert response.expansion.titles == single.expansion.titles
            assert [r.doc_id for r in response.results] == \
                   [r.doc_id for r in single.results]

    def test_duplicate_queries_share_a_response(self, small_benchmark, service):
        keywords = small_benchmark.topics[0].keywords
        batch = service.batch_expand([keywords, keywords.upper(), keywords])
        assert batch[0] is batch[1] is batch[2]
        assert service.stats().queries == 3  # offered load, not unique load

    def test_batch_marks_own_work_as_cold(self, small_benchmark, service):
        keywords = small_benchmark.topics[0].keywords
        first = service.batch_expand([keywords])
        second = service.batch_expand([keywords])
        assert not first[0].expansion_cached
        assert second[0].expansion_cached

    def test_empty_batch(self, service):
        assert service.batch_expand([]) == []

    def test_identical_raw_queries_pay_one_pass(self, small_benchmark, snapshot):
        """N copies of one string cost one tokenisation, one link and one
        expansion — not N cache probes racing the in-flight table."""
        calls = []

        class CountingExpander(NeighborhoodCycleExpander):
            def expand(self, graph, seed_articles):
                calls.append(frozenset(seed_articles))
                return super().expand(graph, seed_articles)

        service = ExpansionService.from_snapshot(snapshot, expander=CountingExpander())
        tokenize_calls = []
        original = service.engine.tokenizer.tokenize_phrase

        def counting_tokenize(text):
            tokenize_calls.append(text)
            return original(text)

        service.engine.tokenizer.tokenize_phrase = counting_tokenize
        try:
            keywords = small_benchmark.topics[0].keywords
            batch = service.batch_expand([keywords] * 5)
        finally:
            service.engine.tokenizer.tokenize_phrase = original

        assert len(batch) == 5
        assert len(calls) == 1
        assert tokenize_calls.count(keywords) == 1
        stats = service.stats()
        assert stats.link_cache.misses == 1
        assert stats.queries == 5

    def test_expander_without_batch_api_still_works(self, small_benchmark, snapshot):
        class PlainExpander(Expander):
            """A custom expander with nothing but ``expand``: no anchor
            composition, so every batch member is mined whole."""

            def expand(self, graph, seed_articles):
                return NeighborhoodCycleExpander().expand(graph, seed_articles)

        service = ExpansionService.from_snapshot(
            snapshot, expander=PlainExpander()
        )
        queries = [topic.keywords for topic in list(small_benchmark.topics)[:3]]
        batch = service.batch_expand(queries)
        assert len(batch) == len(queries)
        assert all(response.results for response in batch)


class TestConcurrency:
    def test_mixed_concurrent_traffic_is_consistent(self, small_benchmark, snapshot):
        service = ExpansionService.from_snapshot(snapshot)
        queries = [topic.keywords for topic in list(small_benchmark.topics)[:4]]
        expected = {
            query: service.expand_query(query).expansion.article_ids
            for query in queries
        }
        errors = []

        def worker(query):
            try:
                for _ in range(5):
                    response = service.expand_query(query)
                    assert response.expansion.article_ids == expected[query]
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(query,))
            for query in queries for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestStats:
    def test_counters_accumulate(self, small_benchmark, service):
        keywords = small_benchmark.topics[0].keywords
        service.expand_query(keywords)
        service.expand_query(keywords)
        service.batch_expand([keywords, small_benchmark.topics[1].keywords])
        stats = service.stats()
        assert stats.queries == 4
        assert stats.batches == 1
        assert stats.link_cache.hits >= 1
        assert stats.expansion_cache.hits >= 1
        payload = stats.as_dict()
        assert payload["queries"] == 4
        assert 0.0 <= payload["expansion_cache"]["hit_rate"] <= 1.0

    def test_stats_report_cache_capacity_and_size(self, small_benchmark, snapshot):
        """The stats payload must expose cache bounds and occupancy, not
        just hit/miss counters (operators size caches from it)."""
        service = ExpansionService.from_snapshot(
            snapshot, link_cache_size=17, expansion_cache_size=9
        )
        response = service.expand_query(small_benchmark.topics[0].keywords)
        payload = service.stats().as_dict()
        assert payload["link_cache"]["capacity"] == 17
        assert payload["expansion_cache"]["capacity"] == 9
        assert payload["link_cache"]["size"] == 1
        # The seed set and, beside it, one entry per anchor it was
        # composed from; hits / misses still count seed-set lookups only.
        anchors = len(response.link.article_ids)
        assert anchors > 1
        assert payload["expansion_cache"]["size"] == 1 + anchors
        assert payload["expansion_cache"]["misses"] == 1
        assert payload["expansion_cache"]["hits"] == 0

    def test_clear_caches_forces_recompute(self, small_benchmark, service):
        keywords = small_benchmark.topics[0].keywords
        service.expand_query(keywords)
        service.clear_caches()
        response = service.expand_query(keywords)
        assert not response.expansion_cached


class TestCycleMineSpan:
    @pytest.mark.parametrize("engine", ["kernels", "dfs"])
    def test_span_says_how_selective_anchors_and_filters_were(
        self, small_benchmark, snapshot, engine
    ):
        """``roots`` / ``emitted`` / ``kept`` ride the cycle_mine span —
        identical on both engines — and stay out of the metric labels."""
        from repro.obs import ServingMetrics
        from repro.obs import trace as tracing

        service = ExpansionService.from_snapshot(
            snapshot, expander=NeighborhoodCycleExpander(engine=engine)
        )
        keywords = small_benchmark.topics[0].keywords
        with tracing.start_trace() as trace:
            response = service.expand_query(keywords)
        (span,) = [s for s in trace.spans if s.stage == "cycle_mine"]
        assert span.labels["engine"] == engine
        assert span.labels["roots"] == len(response.link.article_ids) > 0
        assert span.labels["kept"] == len(response.expansion.cycles) > 0
        assert span.labels["emitted"] >= span.labels["kept"]
        reference = CycleExpander(engine="dfs").qualifying_cycles(
            service._graph.induced_subgraph(
                NeighborhoodCycleExpander().neighborhood(
                    service._graph, frozenset(response.link.article_ids)
                )
            ),
            frozenset(response.link.article_ids),
        )
        assert span.labels["emitted"] == len(reference)  # no filters: all

        metrics = ServingMetrics()
        metrics.observe_request("/expand", trace, 0.001)
        exposition = metrics.render()
        assert f'repro_cycle_mine_total{{engine="{engine}"}} 1' in exposition
        for name in ("roots", "emitted", "kept"):
            assert name not in exposition

        # A cached repeat mines nothing, so it reports nothing.
        with tracing.start_trace() as cached:
            service.expand_query(keywords)
        assert not [s for s in cached.spans if s.stage == "cycle_mine"]


class TestAnchorComposition:
    """A seed-set miss is composed from its anchors' own cache entries
    (``frozenset({a})``): only the anchors nobody asked about are mined."""

    @pytest.fixture()
    def head_and_tail(self, small_benchmark, service):
        head = service.linker.link_keywords(small_benchmark.topics[0].keywords)
        assert len(head) > 1
        tail = next(
            a.node_id for a in small_benchmark.graph.main_articles()
            if a.node_id not in head
            and small_benchmark.graph.undirected_neighbors(a.node_id)
        )
        return frozenset(head), tail

    @staticmethod
    def _traced(service, seeds):
        from repro.obs import trace as tracing

        with tracing.start_trace() as trace:
            result, cached = service.expand_seeds(frozenset(seeds))
        return result, cached, [
            s.labels for s in trace.spans if s.stage == "cycle_mine"
        ]

    def test_cold_tail_shape_mines_only_the_tail(
        self, small_benchmark, service, head_and_tail
    ):
        head, tail = head_and_tail
        oracle = NeighborhoodCycleExpander(engine="dfs")
        graph = small_benchmark.graph  # the dict path; the service's is CSR

        warm, cached, (span,) = self._traced(service, head)
        assert not cached and warm == oracle.expand(graph, head)
        assert (span["anchors"], span["reused"], span["roots"]) == \
            (len(head), 0, len(head))
        size = service.stats().expansion_cache.size
        assert size == 1 + len(head)

        composed, cached, (span,) = self._traced(service, head | {tail})
        assert not cached, "the seed set was never cached: a miss"
        assert composed == oracle.expand(graph, head | {tail})
        assert composed == NeighborhoodCycleExpander().expand(
            service.graph, head | {tail}
        )
        assert (span["anchors"], span["reused"], span["roots"]) == \
            (len(head) + 1, len(head), 1)
        assert span["kept"] <= len(composed.cycles)
        assert service.stats().expansion_cache.size == size + 2
        # Composites share their anchors' cycle objects.
        shared = {id(f) for f in warm.cycles}
        assert any(id(f) in shared for f in composed.cycles)

        # The singletons stay behind: a one-entity query is now a hit ...
        for anchor in head | {tail}:
            single, cached, spans = self._traced(service, {anchor})
            assert cached and not spans
            assert single == oracle.expand(graph, {anchor})
        # ... and a seed set whose anchors are all known mines nothing.
        pair = frozenset({min(head), tail})
        result, cached, spans = self._traced(service, pair)
        assert not cached and not spans
        assert result == oracle.expand(graph, pair)
        assert self._traced(service, pair)[1:] == (True, [])

        # hits / misses keep meaning seed-set lookups.
        stats = service.stats().expansion_cache
        assert (stats.misses, stats.hits) == (3, len(head) + 2)

    def test_reused_anchors_are_refreshed_in_the_lru(
        self, snapshot, head_and_tail
    ):
        head, tail = head_and_tail
        service = ExpansionService.from_snapshot(
            snapshot, expansion_cache_size=2 * len(head) + 2
        )
        service.expand_seeds(head)
        filler = [
            a.node_id for a in service.graph.main_articles()
            if a.node_id not in head and a.node_id != tail
        ]
        for node in filler[:len(head)]:
            service.expand_seeds(frozenset({node}))  # head entries now oldest
        service.expand_seeds(head | {tail})  # refreshes them, evicts fillers
        for anchor in head:
            assert service.expand_seeds(frozenset({anchor}))[1]

    def test_who_mines_jointly(self, small_benchmark, snapshot, head_and_tail):
        """DFS, ``RedirectExpander`` and duck-typed expanders never compose:
        no anchor entries, one joint ``cycle_mine`` per miss."""
        from repro.core.expansion import RedirectExpander

        head, tail = head_and_tail

        class Duck:
            def expand(self, graph, seeds):
                return NeighborhoodCycleExpander().expand(graph, seeds)

        for expander in (
            NeighborhoodCycleExpander(engine="dfs"),
            RedirectExpander(NeighborhoodCycleExpander()),
            Duck(),
        ):
            service = ExpansionService.from_snapshot(snapshot, expander=expander)
            service.expand_seeds(head)
            result, cached, (span,) = self._traced(service, head | {tail})
            assert not cached and span["reused"] == 0
            assert result == expander.expand(service.graph, head | {tail})
            assert service.stats().expansion_cache.size == 2

    def test_a_capped_ball_takes_the_joint_path(self, snapshot, head_and_tail):
        head, tail = head_and_tail
        ball = NeighborhoodCycleExpander().neighborhood(
            ExpansionService.from_snapshot(snapshot).graph, head | {tail}
        )
        expander = NeighborhoodCycleExpander(max_nodes=len(ball))
        service = ExpansionService.from_snapshot(snapshot, expander=expander)
        result, cached, (span,) = self._traced(service, head | {tail})
        assert span["reused"] == 0 and not cached
        assert result == expander.expand(service.graph, head | {tail})
        assert service.stats().expansion_cache.size == 1


class TestShardProtocolCalls:
    """The four calls a router makes on a worker record their own spans,
    labelled with the worker's shard id — the in-process driver, the
    executor adapter and the worker process all call exactly these."""

    def test_each_call_records_its_shard_labelled_span(
        self, small_benchmark, snapshot
    ):
        from repro.obs import trace as tracing
        from repro.retrieval.engine import background_from_counts
        from repro.retrieval.qlang import CombineNode, TermNode
        from repro.service.wire import SearchRequest

        worker = ExpansionService.from_snapshot(snapshot, shard_id=3)
        normalized = worker.normalize(small_benchmark.topics[0].keywords)
        root = CombineNode(tuple(TermNode(t) for t in normalized.split()))
        seeds = snapshot.make_linker().link_keywords(normalized)
        with tracing.start_trace() as trace:
            worker.expand_seeds(seeds)
            counts = worker.leaf_collection_counts(root)
            assert counts == worker.engine.leaf_collection_counts(root)
            background = background_from_counts(
                counts, worker.engine.index.total_tokens
            )
            ranked = worker.search_with_background(
                SearchRequest(root, background, 4)
            )
            assert ranked == worker.engine.search_with_background(
                root, background, 4
            )
        assert {span.shard for span in trace.spans} == {3}
        assert [
            (span.stage, span.labels.get("cached"), span.labels.get("phase"))
            for span in trace.spans if span.stage != "cycle_mine"
        ] == [
            ("expand", False, None),
            ("rank", None, "counts"), ("rank", None, "score"),
        ]

    def test_expand_query_links_inside_its_own_span(self, small_benchmark, snapshot):
        """No shard call links; the standalone service still does, traced."""
        from repro.obs import trace as tracing

        service = ExpansionService.from_snapshot(snapshot, shard_id=3)
        spans = []
        for _ in range(2):
            with tracing.start_trace() as trace:
                service.expand_query(small_benchmark.topics[0].keywords)
            spans += [
                (span.shard, span.labels["cached"])
                for span in trace.spans if span.stage == "link"
            ]
        assert spans == [(3, False), (3, True)]

    def test_expand_seeds_leaves_counting_to_the_router(
        self, small_benchmark, service
    ):
        """A worker's answer is counted by the router plan that asked for
        it (``repro_shard_queries_total``), not by the worker."""
        keywords = small_benchmark.topics[0].keywords
        response = service.expand_query(keywords)
        assert service.stats().queries == 1  # not 2: its own path is private
        service.expand_seeds(response.link.article_ids)
        service.expand_seeds(frozenset())
        assert service.stats().queries == 1
