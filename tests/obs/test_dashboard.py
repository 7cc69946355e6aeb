"""The `repro top` frame renderer as a pure function of canned payloads."""

import io

from repro.obs.dashboard import render_dashboard, run_top
from repro.obs.metrics import MetricsRegistry


def canned_stats() -> dict:
    return {
        "shards": 2,
        "uptime_s": 42.0,
        "requests_total": 120,
        "queries": 118,
        "batches": 3,
        "errors": 2,
        "link_cache": {"hits": 90, "misses": 30, "hit_rate": 0.75,
                       "size": 30, "max_size": 512},
        "expansion_cache": {"hits": 80, "misses": 40, "hit_rate": 2 / 3,
                            "size": 40, "max_size": 256},
        "per_shard": [
            {"queries": 70},
            {"queries": 48},
        ],
        "per_shard_hit_rates": [0.8, 0.5],
        "per_shard_inflight": [1, 0],
        "http": {
            "requests_total": 130,
            "errors": 5,
            "errors_by_status": {"404": 3, "500": 2},
            "slow_queries": {
                "threshold_ms": 100.0,
                "requests": 120,
                "slow": 2,
                "reservoir_capacity": 32,
                "entries": [
                    {"seq": 9, "endpoint": "/expand", "latency_ms": 250.5,
                     "query": "graph mining"},
                    {"seq": 4, "endpoint": "/expand", "latency_ms": 140.0,
                     "query": "query expansion"},
                ],
            },
        },
    }


def canned_metrics_text() -> str:
    registry = MetricsRegistry()
    stages = registry.histogram(
        "repro_stage_seconds", "busy", ("stage",), buckets=(0.001, 0.01, 0.1)
    )
    for stage, value in (("link", 0.0005), ("expand", 0.002),
                         ("rank", 0.005), ("rank", 0.02), ("merge", 0.0004)):
        stages.observe(value, stage=stage)
    return registry.render()


class TestRenderDashboard:
    def test_frame_carries_every_section(self):
        frame = render_dashboard(canned_stats(), canned_metrics_text())
        assert "repro top — shards=2  uptime=42s" in frame
        assert "router  requests=120  queries=118  batches=3  errors=2" in frame
        assert "http    requests=130  errors=5 (404:3 500:2)" in frame
        assert "link_cache" in frame and "75.0% hit" in frame
        assert "shard  queries  inflight  hit_rate" in frame
        assert "coalesced" not in frame and "waits" not in frame
        assert "stage        count   p50_ms   p95_ms   p99_ms" in frame
        assert "slow queries (>= 100 ms): 2/120 sampled" in frame
        assert "'graph mining'" in frame

    def test_stage_rows_follow_pipeline_order(self):
        frame = render_dashboard(canned_stats(), canned_metrics_text())
        positions = [frame.index(stage) for stage in
                     ("link", "expand", "rank", "merge")
                     if stage in frame]
        stage_section = frame[frame.index("stage        count"):]
        order = [stage for stage in ("link", "expand", "rank", "merge")]
        indices = [stage_section.index(f"\n{stage}") for stage in order]
        assert indices == sorted(indices)
        assert positions  # the stages all rendered somewhere

    def test_qps_needs_a_previous_frame(self):
        stats = canned_stats()
        assert "qps=-" in render_dashboard(stats)
        previous = dict(stats, requests_total=100)
        frame = render_dashboard(stats, previous=previous, interval_s=2.0)
        assert "qps=10.0" in frame

    def test_resilience_line_counts_retries_and_restarts_only(self):
        # An older server still sends the hedge counters; none renders.
        stats = dict(canned_stats(), retries_total=4, worker_restarts=1,
                     hedges_total=3, hedge_wins_total=1)
        frame = render_dashboard(stats)
        assert "resil.  retries=4  worker_restarts=1" in frame
        assert "hedges" not in frame and "wins" not in frame
        assert "resil." not in render_dashboard(canned_stats())

    def test_minimal_stats_render_without_optional_sections(self):
        frame = render_dashboard({"shards": 1})
        assert "repro top — shards=1" in frame
        assert "slow queries" not in frame
        assert "stage " not in frame

    def test_cycle_mine_engine_line_renders_from_the_counter(self):
        registry = MetricsRegistry()
        runs = registry.counter(
            "repro_cycle_mine_total", "runs by engine", ("engine",)
        )
        runs.inc(engine="kernels")
        runs.inc(engine="kernels")
        runs.inc(engine="dfs")
        frame = render_dashboard(canned_stats(), registry.render())
        assert "cycle_mine engines: dfs=1  kernels=2" in frame

    def test_engine_line_absent_without_the_counter(self):
        frame = render_dashboard(canned_stats(), canned_metrics_text())
        assert "cycle_mine engines" not in frame

    def test_top_level_slow_queries_key_is_honoured(self):
        stats = {"shards": 1,
                 "slow_queries": {"threshold_ms": 50.0, "requests": 10,
                                  "slow": 1, "reservoir_capacity": 4,
                                  "entries": []}}
        assert "slow queries (>= 50 ms): 1/10 sampled" \
            in render_dashboard(stats)


class TestRunTop:
    def test_unreachable_server_exits_nonzero_with_a_message(self):
        out = io.StringIO()
        code = run_top("http://127.0.0.1:1", once=True, out=out)
        assert code == 1
        assert "cannot reach" in out.getvalue()
