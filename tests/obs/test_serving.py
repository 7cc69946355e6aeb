"""ServingMetrics: folding traces into families, scrape-time gauges."""

from repro.obs.metrics import parse_prometheus_text
from repro.obs.serving import ServingMetrics
from repro.obs.trace import Trace


def make_trace() -> Trace:
    trace = Trace()
    trace.add("link", 1.0, cached=True)
    trace.add("expand", 4.0, shard=1, cached=False)
    trace.add("cycle_mine", 3.5, shard=1)
    trace.add("rank", 2.0, shard=0, phase="score")
    trace.add("rank", 2.5, shard=1, phase="score")
    trace.add("merge", 0.5, phase="topk")
    return trace


class TestObserveRequest:
    def test_counters_and_histograms_advance(self):
        metrics = ServingMetrics()
        metrics.observe_request("expand_query", make_trace(), 0.015)
        assert metrics.requests.value(path="expand_query") == 1
        assert metrics.errors.value(path="expand_query") == 0
        _, total, count = metrics.request_latency.snapshot(path="expand_query")
        assert (total, count) == (0.015, 1)
        # Fan-out stage: two rank spans fold into one stage histogram ...
        assert metrics.stage_latency.snapshot(stage="rank")[2] == 2
        # ... and split per shard.
        assert metrics.shard_stage_latency.snapshot(shard=0, stage="rank")[2] == 1
        assert metrics.shard_stage_latency.snapshot(shard=1, stage="rank")[2] == 1
        # Shardless spans only hit the stage family.
        assert metrics.stage_latency.snapshot(stage="link")[2] == 1

    def test_cache_outcomes_derive_from_span_labels(self):
        metrics = ServingMetrics()
        metrics.observe_request("expand_query", make_trace(), 0.01)
        assert metrics.cache_lookups.value(cache="link", result="hit") == 1
        assert metrics.cache_lookups.value(cache="expansion", result="miss") == 1
        assert metrics.cache_lookups.value(cache="expansion", result="hit") == 0

    def test_collection_stats_and_expansion_wire_lookups(self):
        """One lookup per rank exchange (did it need a probe round?) and
        one per expand_seeds over a socket (was it not_modified?)."""
        metrics = ServingMetrics()
        trace = make_trace()  # its merge span is phase=topk: no label
        trace.add("merge", 0.1, phase="background", cached=True, probed=0)
        trace.add("merge", 0.3, phase="background", cached=False, probed=4)
        trace.add("wire", 1.0, shard=1, call="expand_seeds",
                  bytes_out=90, bytes_in=70, not_modified=True)
        trace.add("wire", 2.0, shard=1, call="expand_seeds",
                  bytes_out=60, bytes_in=9000, not_modified=False)
        trace.add("wire", 1.5, shard=0, call="search_with_background",
                  bytes_out=1753, bytes_in=563)
        metrics.observe_request("expand_query", trace, 0.01)
        lookups = metrics.cache_lookups
        assert lookups.value(cache="collection_stats", result="hit") == 1
        assert lookups.value(cache="collection_stats", result="miss") == 1
        assert lookups.value(cache="expansion_wire", result="hit") == 1
        assert lookups.value(cache="expansion_wire", result="miss") == 1
        # The pre-existing tiers are untouched by the new labels.
        assert lookups.value(cache="link", result="hit") == 1
        assert lookups.value(cache="expansion", result="miss") == 1
        assert metrics.shard_stage_latency.snapshot(shard=1, stage="wire")[2] == 2

    def test_spans_without_cached_label_do_not_count_as_lookups(self):
        metrics = ServingMetrics()
        trace = Trace()
        trace.add("link", 1.0)  # e.g. the batched link pass
        metrics.observe_request("batch_expand", trace, 0.01)
        assert metrics.cache_lookups.value(cache="link", result="hit") == 0
        assert metrics.cache_lookups.value(cache="link", result="miss") == 0

    def test_error_requests_count_twice(self):
        metrics = ServingMetrics()
        metrics.observe_request("expand_query", None, 0.002, error=True)
        assert metrics.requests.value(path="expand_query") == 1
        assert metrics.errors.value(path="expand_query") == 1

    def test_traceless_request_still_observes_latency(self):
        metrics = ServingMetrics()
        metrics.observe_request("batch_expand", None, 0.02)
        assert metrics.request_latency.snapshot(path="batch_expand")[2] == 1

    def test_cycle_mine_engine_label_feeds_the_engine_counter(self):
        metrics = ServingMetrics()
        trace = Trace()
        trace.add("cycle_mine", 3.0, shard=0, engine="kernels")
        trace.add("cycle_mine", 9.0, shard=1, engine="dfs")
        metrics.observe_request("expand_query", trace, 0.02)
        metrics.observe_request("expand_query", trace, 0.02)
        assert metrics.cycle_mine.value(engine="kernels") == 2
        assert metrics.cycle_mine.value(engine="dfs") == 2

    def test_cycle_mine_span_without_engine_label_is_not_counted(self):
        metrics = ServingMetrics()
        metrics.observe_request("expand_query", make_trace(), 0.01)
        assert metrics.cycle_mine.value(engine="kernels") == 0
        assert metrics.cycle_mine.value(engine="dfs") == 0
        # The stage histogram still sees the span either way.
        assert metrics.stage_latency.snapshot(stage="cycle_mine")[2] == 1


class TestScrapeTimeGauges:
    def test_render_sets_uptime_and_inflight_from_the_registry(self):
        metrics = ServingMetrics()
        metrics._started -= 12.3456
        metrics.queries.inc(10, outcome="offered")
        metrics.queries.inc(7, outcome="served")
        metrics.queries.inc(1, outcome="failed")
        metrics.render()
        assert 12.3456 <= metrics.uptime.value() < 13.0
        assert metrics.inflight.value() == 2  # 10 offered - 7 done - 1 failed

    def test_inflight_clamps_at_zero(self):
        metrics = ServingMetrics()
        metrics.queries.inc(5, outcome="offered")
        metrics.queries.inc(5, outcome="served")
        metrics.queries.inc(1, outcome="failed")
        metrics.render()
        assert metrics.inflight.value() == 0


class TestExposition:
    def test_render_parses_back_with_all_families(self):
        metrics = ServingMetrics()
        metrics.observe_request("expand_query", make_trace(), 0.015)
        metrics.shard_inflight.set(0, shard=0)
        parsed = parse_prometheus_text(metrics.render())
        for family in (
            "repro_requests_total",
            "repro_errors_total",
            "repro_queries_total",
            "repro_shard_queries_total",
            "repro_request_seconds",
            "repro_stage_seconds",
            "repro_shard_stage_seconds",
            "repro_cache_lookups_total",
            "repro_cycle_mine_total",
            "repro_inflight_requests",
            "repro_shard_inflight",
            "repro_uptime_seconds",
        ):
            assert family in parsed["types"], family
        assert parsed["samples"][
            ("repro_queries_total", frozenset({("outcome", "offered")}))
        ] == 0

    def test_two_routers_can_share_one_registry(self):
        first = ServingMetrics()
        second = ServingMetrics(first.registry)  # idempotent re-registration
        second.requests.inc(path="expand_query")
        assert first.requests.value(path="expand_query") == 1
