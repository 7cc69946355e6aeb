"""Loadgen SLO bench: seeded shapes, overload shedding, recovery.

Three phases against one self-hosted front end with admission control:

1. **baseline** — the interactive shape alone, topics pre-warmed, to
   establish the unloaded p99;
2. **overload** — interactive + adversarial flood concurrently.  The
   flood client must be shed with structured 429s while the interactive
   tail stays within ``2 x`` its unloaded value (the tentpole's SLO
   budget — asserted on full runs, at the highest percentile the 120
   samples support; smoke runs keep the phase but skip the timing
   assertion);
3. **recovery** — the flood stops; shedding must return to zero.

The overload phase's report is emitted as the ``loadgen_slo`` section of
``BENCH_service.json`` through the shared ``emit_bench`` fixture (other
sections carried over; the tracked file only under
``REPRO_BENCH_WRITE=1``).  Smoke mode
(``REPRO_BENCH_SMOKE=1``) shrinks counts and rates, not coverage.
"""

import json
import os

import pytest

from repro.harness import default_benchmark
from repro.loadgen import (
    build_report,
    plan_workload,
    run_plans,
    stream_digest,
    topic_pool,
)
from repro.loadgen.report import server_quantiles
from repro.obs import RequestLog
from repro.service import (
    AdmissionPolicy,
    AsyncShardRouter,
    HttpFrontEnd,
    ShardRouter,
    ShardedSnapshot,
)
from repro.service.admission import SHED_CLIENT_RATE, SHED_OVER_CAPACITY
from repro.updates import UpdateCoordinator

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

SEED = 7
RATE = 40.0 if SMOKE else 80.0
COUNT = 16 if SMOKE else 120
FLOOD_COUNT = 24 if SMOKE else 240
# Sub-millisecond baselines make a 2x ratio meaningless noise; clamp
# the denominator to a realistic floor before asserting the budget.
BASELINE_P99_FLOOR_MS = 2.0
QUEUE_LIMIT = 8
CLIENT_RATE = 20.0
CLIENT_BURST = 10.0


@pytest.fixture(scope="module")
def stack():
    """Router + front end with admission control on a loop thread."""
    import asyncio
    import threading

    benchmark = default_benchmark(seed=SEED)
    snapshot = ShardedSnapshot.build(benchmark, num_shards=2).frozen()
    router = ShardRouter(snapshot)
    request_log = RequestLog(slow_ms=float("inf"))
    front = HttpFrontEnd(
        AsyncShardRouter(router),
        coordinator=UpdateCoordinator(router, request_log=request_log),
        request_log=request_log,
        admission=AdmissionPolicy(
            queue_limit=QUEUE_LIMIT,
            client_rate=CLIENT_RATE,
            client_burst=CLIENT_BURST,
        ),
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = asyncio.run_coroutine_threadsafe(
        front.start("127.0.0.1", 0), loop
    ).result(timeout=60)
    port = server.sockets[0].getsockname()[1]
    yield snapshot, port
    asyncio.run_coroutine_threadsafe(front.stop(), loop).result(timeout=60)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=60)
    front.service.close()


@pytest.fixture(scope="module")
def phases(stack):
    snapshot, port = stack
    pool = topic_pool(snapshot)

    interactive_only = plan_workload(
        seed=SEED, pool=pool, shapes=["interactive"], count=COUNT
    )
    # Determinism witness: planning twice must be byte-identical.
    replanned = plan_workload(
        seed=SEED, pool=pool, shapes=["interactive"], count=COUNT
    )
    assert [r.to_line() for r in interactive_only["interactive"]] == \
           [r.to_line() for r in replanned["interactive"]]

    # Warm-up: the baseline measures the *unloaded* server, not its
    # cold-cache transient, so replay the interactive plan once first.
    run_plans("127.0.0.1", port, interactive_only, rate=RATE, concurrency=4)
    baseline = run_plans(
        "127.0.0.1", port, interactive_only, rate=RATE, concurrency=4
    )

    overload_plans = {
        "interactive": interactive_only["interactive"],
        "flood": plan_workload(
            seed=SEED, pool=pool, shapes=["flood"], count=FLOOD_COUNT
        )["flood"],
    }
    stream = [r for name in overload_plans for r in overload_plans[name]]
    overload = run_plans(
        "127.0.0.1", port, overload_plans, rate=RATE, concurrency=4
    )

    recovery = run_plans(
        "127.0.0.1", port, interactive_only, rate=RATE, concurrency=4
    )
    report = build_report(
        overload, seed=SEED, rate=RATE,
        stream_sha256=stream_digest(stream), zipf_s=1.1,
    )
    return {
        "baseline": baseline,
        "overload": overload,
        "recovery": recovery,
        "report": report,
    }


def _p99(result, shape: str) -> float:
    from repro.loadgen import percentile

    return percentile(
        [o.latency_ms for o in result.outcomes[shape] if o.ok], 0.99
    )


def test_baseline_serves_cleanly(phases):
    baseline = phases["baseline"]
    assert all(o.ok for o in baseline.outcomes["interactive"])
    assert _p99(baseline, "interactive") > 0


def test_flood_is_shed_with_structured_429s(phases):
    flood = phases["overload"].outcomes["flood"]
    shed = [o for o in flood if o.shed]
    assert shed, "the flood must trigger load shedding"
    for outcome in shed:
        assert outcome.error_code in (SHED_CLIENT_RATE, SHED_OVER_CAPACITY)
        assert outcome.retry_after_s is not None and outcome.retry_after_s >= 1
    # No flood request may fail any other way — refusals are structured.
    assert all(o.ok or o.shed for o in flood)


def test_interactive_is_untouched_by_the_flood(phases):
    interactive = phases["overload"].outcomes["interactive"]
    assert all(o.ok for o in interactive), (
        "polite clients must not be shed while the flood is refused"
    )


def _supported_tail(result, shape: str) -> tuple[float, float]:
    """``(percentile, latency_ms)`` at the highest percentile the sample
    supports: at least ten samples beyond it, the rule ``bench/README.md``
    states.  The p99 of 120 samples is its second-largest one — a single
    scheduler hiccup, not a tail."""
    from bench.stats import percentile, supported_tail

    latencies = [o.latency_ms for o in result.outcomes[shape] if o.ok]
    tail = supported_tail(len(latencies))
    return tail, percentile(latencies, tail)


@pytest.mark.skipif(SMOKE, reason="timing budget asserted on full runs only")
def test_interactive_p99_within_2x_of_unloaded(phases):
    """The 2x budget, asserted on the supported tail (p90 at 120
    samples); the emitted ``loadgen_slo`` section keeps reporting p99."""
    tail, baseline = _supported_tail(phases["baseline"], "interactive")
    unloaded = max(baseline, BASELINE_P99_FLOOR_MS)
    loaded_tail, loaded = _supported_tail(phases["overload"], "interactive")
    assert loaded_tail == tail  # same plan, same sample count
    assert loaded <= 2.0 * unloaded, (
        f"interactive p{tail:g} {loaded:.2f}ms exceeded 2x the unloaded "
        f"{unloaded:.2f}ms while shedding the flood"
    )


def test_shedding_recovers_after_the_flood(phases):
    recovery = phases["recovery"]
    assert all(o.ok for o in recovery.outcomes["interactive"])
    # The recovery run's own metrics window records zero new sheds.
    window = server_quantiles(recovery.metrics_before, recovery.metrics_after)
    assert window["shed_total"] == 0


def test_emit_loadgen_slo(phases, emit_bench):
    report = phases["report"]
    assert report["shapes"]["flood"]["shed_rate"] > 0
    assert report["shapes"]["interactive"]["shed_rate"] == 0.0
    slo = emit_bench({"loadgen_slo": report})["loadgen_slo"]
    assert slo == json.loads(json.dumps(report))
    assert slo["stream_sha256"] == report["stream_sha256"]
    assert len(slo["stream_sha256"]) == 64 and slo["target_rate_per_shape"] > 0
    for shape in ("interactive", "flood"):
        summary = slo["shapes"][shape]
        for key in ("p50_ms", "p99_ms", "p999_ms", "error_rate", "shed_rate"):
            assert key in summary, (shape, key)
        assert summary["p50_ms"] <= summary["p99_ms"] <= summary["p999_ms"]
        assert summary["error_rate"] == 0.0
    server = slo["server"]
    assert server["shed_total"] > 0
    assert set(server["shed_by_reason"]) <= {
        SHED_CLIENT_RATE, SHED_OVER_CAPACITY
    }
    assert server["p50_ms"] >= 0
