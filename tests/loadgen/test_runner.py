"""Closed-loop runner + SLO report: replay, cross-check, bench merge."""

import asyncio
import json
import math
import threading

import pytest

from repro.loadgen import (
    build_report,
    merge_into_bench,
    percentile,
    plan_workload,
    run_plans,
    stream_digest,
)
from repro.loadgen.report import server_quantiles
from repro.loadgen.runner import fetch_healthz, fetch_metrics
from repro.obs import RequestLog
from repro.service import (
    AdmissionPolicy,
    AsyncShardRouter,
    HttpFrontEnd,
    ShardRouter,
)
from repro.updates import UpdateCoordinator


@pytest.fixture(scope="module")
def server(snapshot):
    """A front end with admission control on a private loop thread."""
    router = ShardRouter(snapshot.frozen())
    request_log = RequestLog(slow_ms=float("inf"))
    front = HttpFrontEnd(
        AsyncShardRouter(router),
        coordinator=UpdateCoordinator(router, request_log=request_log),
        request_log=request_log,
        admission=AdmissionPolicy(queue_limit=64),
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    bound = asyncio.run_coroutine_threadsafe(
        front.start("127.0.0.1", 0), loop
    ).result(timeout=30)
    port = bound.sockets[0].getsockname()[1]
    yield port
    asyncio.run_coroutine_threadsafe(front.stop(), loop).result(timeout=30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=30)
    front.service.close()


class TestLiveReplay:
    @pytest.fixture(scope="class")
    def replay(self, server, pool):
        plans = plan_workload(
            seed=31, pool=pool,
            shapes=["interactive", "flood", "delta_trickle"], count=16,
        )
        result = run_plans(
            "127.0.0.1", server, plans, rate=200.0, concurrency=2,
        )
        stream = [
            r for name in plans for r in plans[name]
        ]
        report = build_report(
            result, seed=31, rate=200.0,
            stream_sha256=stream_digest(stream), zipf_s=1.1,
        )
        return result, report

    def test_every_planned_request_has_an_outcome(self, replay):
        result, _ = replay
        assert len(result.outcomes["interactive"]) == 16
        assert len(result.outcomes["flood"]) == 16
        assert len(result.outcomes["delta_trickle"]) == 2
        for outcomes in result.outcomes.values():
            assert [o.index for o in outcomes] == list(range(len(outcomes)))

    def test_reads_and_writes_succeed(self, replay):
        result, _ = replay
        for name in ("interactive", "flood", "delta_trickle"):
            for outcome in result.outcomes[name]:
                assert outcome.ok, (name, outcome)
                assert outcome.latency_ms > 0

    def test_delta_trickle_advanced_the_server_seq(self, server, replay):
        assert fetch_healthz("127.0.0.1", server)["delta_seq"] > 0

    def test_report_carries_quantiles_per_shape(self, replay):
        _, report = replay
        for name in ("interactive", "flood", "delta_trickle"):
            shape = report["shapes"][name]
            assert shape["p50_ms"] <= shape["p99_ms"] <= shape["p999_ms"]
            assert shape["error_rate"] == 0.0
        assert report["achieved_rate_total"] > 0

    def test_server_quantiles_cross_check_client_timings(self, replay):
        """The server's histogram view of the run must land in the same
        regime as the client stopwatch: the server p50 may not exceed
        the client's p999 (the server excludes wire+connect overhead)."""
        _, report = replay
        client_p999 = max(
            shape["p999_ms"] for name, shape in report["shapes"].items()
            if name != "delta_trickle"
        )
        assert 0 < report["server"]["p50_ms"] <= client_p999

    def test_second_identical_plan_is_byte_identical(self, pool):
        plans = plan_workload(
            seed=31, pool=pool,
            shapes=["interactive", "flood", "delta_trickle"], count=16,
        )
        again = plan_workload(
            seed=31, pool=pool,
            shapes=["interactive", "flood", "delta_trickle"], count=16,
        )
        flat = lambda p: [r.to_line() for name in p for r in p[name]]  # noqa: E731
        assert flat(plans) == flat(again)


class TestRunnerValidation:
    def test_rejects_bad_rate_and_concurrency(self, pool):
        plans = plan_workload(
            seed=1, pool=pool, shapes=["interactive"], count=2
        )
        with pytest.raises(ValueError):
            run_plans("127.0.0.1", 1, plans, rate=0.0)
        with pytest.raises(ValueError):
            run_plans("127.0.0.1", 1, plans, rate=1.0, concurrency=0)

    def test_metrics_endpoint_round_trips(self, server):
        text = fetch_metrics("127.0.0.1", server)
        assert "repro_request_seconds_bucket" in text
        assert "repro_shed_total" in text


class TestPercentile:
    def test_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.5) == 25.0
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 1.0) == 40.0

    def test_empty_and_singleton(self):
        assert percentile([], 0.99) == 0.0
        assert percentile([7.5], 0.99) == 7.5

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestServerQuantiles:
    def _render(self, buckets, extra=""):
        lines = ["# TYPE repro_request_seconds histogram"]
        for le, count in buckets:
            bound = "+Inf" if le == math.inf else str(le)
            lines.append(
                f'repro_request_seconds_bucket{{path="expand",le="{bound}"}} '
                f"{count}"
            )
        if extra:
            lines.append(extra)
        return "\n".join(lines) + "\n"

    def test_bucket_deltas_are_not_double_cumulated(self):
        """Exposed buckets are cumulative; the delta math must subtract,
        not re-accumulate (regression: p99 pinned at the top bound)."""
        before = self._render([(0.01, 0), (0.1, 0), (math.inf, 0)])
        after = self._render([(0.01, 90), (0.1, 100), (math.inf, 100)])
        out = server_quantiles(before, after)
        assert out["p50_ms"] < 10.0
        assert out["p99_ms"] <= 100.0

    def test_shed_counts_are_deltas(self):
        base = self._render([(0.01, 0), (math.inf, 0)])
        shed = '\nrepro_shed_total{reason="over_capacity"} 7'
        before = base + 'repro_shed_total{reason="over_capacity"} 2\n'
        after = base + shed.strip() + "\n"
        out = server_quantiles(before, after)
        assert out["shed_by_reason"] == {"over_capacity": 5}
        assert out["shed_total"] == 5


    def test_cache_hit_rate_counts_the_result_caches_only(self):
        """The router-side ``collection_stats`` / ``expansion_wire``
        lookups share the family but not this rate's meaning."""
        base = self._render([(0.01, 0), (math.inf, 0)])
        lookups = (
            'repro_cache_lookups_total{cache="link",result="hit"} 3\n'
            'repro_cache_lookups_total{cache="expansion",result="miss"} 1\n'
            'repro_cache_lookups_total{cache="collection_stats",result="hit"} 50\n'
            'repro_cache_lookups_total{cache="expansion_wire",result="miss"} 50\n'
        )
        out = server_quantiles(base, base + lookups)
        assert out["cache_hit_rate"] == 0.75


class TestBenchMerge:
    def test_merge_preserves_other_sections(self, tmp_path):
        path = tmp_path / "BENCH_service.json"
        path.write_text(json.dumps(
            {"cycle_kernel_speedup": {"x": 1}, "service_latency_ms": {}}
        ))
        merged = merge_into_bench(path, {"seed": 3})
        assert merged["cycle_kernel_speedup"] == {"x": 1}
        assert merged["service_latency_ms"] == {}
        on_disk = json.loads(path.read_text())
        assert on_disk["loadgen_slo"] == {"seed": 3}
        assert on_disk["cycle_kernel_speedup"] == {"x": 1}

    def test_merge_creates_the_file(self, tmp_path):
        path = tmp_path / "BENCH_service.json"
        merge_into_bench(path, {"seed": 4})
        assert json.loads(path.read_text())["loadgen_slo"]["seed"] == 4
