"""One scripted run through the HTTP front end, pinned endpoint by endpoint.

The scenario drives :class:`HttpFrontEnd` in process (its dispatch, one
event loop, admission on) through every event the JSON endpoints count:
single queries, four concurrent identical ones that coalesce, an
over-capacity 429, a batch with duplicates, client errors, a
title-touching delta and a compaction.  After each step it reads
``/stats``, ``/healthz`` and ``/metrics`` and compares them with
``stats_golden.json``, minus what depends on the clock: uptimes,
latencies and the slow-query reservoir.  ``/metrics`` is pinned by its
counter and gauge samples (histogram buckets are timings).

The shard calls run on the in-process executor adapters whatever
``REPRO_SHARD_ADAPTER`` says: the golden values are the in-process
deployment's.  To regenerate the file after an intended change, run
``python tests/service/test_stats_golden.py`` from the repository root
with ``PYTHONPATH=src`` and review the diff.
"""

import asyncio
import json
from pathlib import Path

from repro.collection import Benchmark, SyntheticCollectionConfig
from repro.obs.metrics import parse_prometheus_text
from repro.service import (
    AdmissionPolicy,
    AsyncShardRouter,
    HttpFrontEnd,
    ShardedSnapshot,
    ShardRouter,
    Snapshot,
)
from repro.service.async_router import SHARD_ADAPTER_ENV
from repro.updates import UpdateCoordinator
from repro.wiki import SyntheticWikiConfig

GOLDEN = Path(__file__).with_name("stats_golden.json")

_NEW = 9_400_000
_UNLINKED = "zqxv wkjh"


def _expand(query: str) -> tuple[str, str, bytes]:
    return "POST", "/expand", json.dumps({"query": query, "top_k": 5}).encode()


def _metric_samples(text: str) -> dict:
    """Counter and gauge samples by family, labels rendered sorted."""
    parsed = parse_prometheus_text(text)
    samples: dict[str, dict[str, float]] = {}
    for (name, labels), value in parsed["samples"].items():
        if name == "repro_uptime_seconds" \
                or parsed["types"].get(name) not in ("counter", "gauge"):
            continue
        key = ",".join(f"{k}={v}" for k, v in sorted(labels))
        samples.setdefault(name, {})[key] = value
    return {
        name: dict(sorted(series.items()))
        for name, series in sorted(samples.items())
    }


def _without_clock(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("uptime_s", None)
    log = payload.pop("slow_queries", None)
    if log is not None:
        payload["slow_queries"] = {
            key: log[key]
            for key in ("threshold_ms", "requests", "reservoir_capacity")
        }
    return payload


async def _scenario(router: ShardRouter, topics: list[str]) -> list[dict]:
    async_router = AsyncShardRouter(router)
    front = HttpFrontEnd(
        async_router,
        snapshot_format="v3",
        coordinator=UpdateCoordinator(router),
        admission=AdmissionPolicy(queue_limit=4),
    )
    seeds = router.link_text(router.normalize(topics[0]))[0].article_ids
    delta = [
        {"op": "add_article", "seq": 1, "node_id": _NEW,
         "title": "Golden Scenario Page"},
        {"op": "add_edge", "seq": 2, "source": _NEW, "target": min(seeds),
         "kind": "link"},
        {"op": "add_edge", "seq": 3, "source": min(seeds), "target": _NEW,
         "kind": "link"},
    ]
    steps = {
        "single": [
            [_expand(topics[0])], [_expand(topics[0])], [_expand(topics[1])],
            [("POST", "/search", json.dumps({"query": topics[1]}).encode())],
            [_expand(_UNLINKED)],
        ],
        "coalesce": [[_expand(topics[2])] * 4],
        "shed": [[_expand(topics[3])] * 5],
        "batch": [[(
            "POST", "/batch_expand",
            json.dumps({"queries": [
                topics[0], topics[4], topics[0], _UNLINKED, topics[4].upper(),
            ]}).encode(),
        )]],
        "errors": [
            [("GET", "/nowhere", b"")], [("GET", "/expand", b"")],
            [("POST", "/expand", b"{not json")],
        ],
        "delta": [
            [("POST", "/admin/apply_delta",
              json.dumps({"deltas": delta, "generation": 1}).encode())],
            [_expand(topics[0])], [_expand("golden scenario page")],
        ],
        "compact": [
            [("POST", "/admin/compact", b"{}")], [_expand(topics[0])],
        ],
    }
    record = []
    try:
        for step, rounds in steps.items():
            statuses = []
            for requests in rounds:
                answers = await asyncio.gather(*(
                    front._dispatch(method, path, body, client="golden")
                    for method, path, body in requests
                ))
                statuses.append(sorted(status for status, _ in answers))
            _, stats = await front._dispatch("GET", "/stats", b"")
            _, health = await front._dispatch("GET", "/healthz", b"")
            _, metrics = await front._dispatch("GET", "/metrics", b"")
            record.append({
                "step": step,
                "statuses": statuses,
                "stats": _without_clock(stats),
                "healthz": _without_clock(health),
                "metrics": _metric_samples(metrics),
            })
    finally:
        async_router.close()
    return record


def run_scenario(benchmark: Benchmark) -> list[dict]:
    """Build a two-shard stack over ``benchmark`` and play the scenario."""
    sharded = ShardedSnapshot.from_snapshot(Snapshot.build(benchmark), num_shards=2)
    router = ShardRouter(sharded)
    try:
        return json.loads(json.dumps(asyncio.run(_scenario(
            router, [topic.keywords for topic in benchmark.topics]
        ))))
    finally:
        router.close()


def _golden_benchmark() -> Benchmark:
    return Benchmark.synthetic(
        SyntheticWikiConfig(seed=61, num_domains=5, background_articles=80,
                            background_categories=10),
        SyntheticCollectionConfig(seed=62, background_docs=40),
    )


def test_every_endpoint_matches_the_golden_run(monkeypatch):
    monkeypatch.delenv(SHARD_ADAPTER_ENV, raising=False)
    golden = json.loads(GOLDEN.read_text())
    actual = run_scenario(_golden_benchmark())
    assert [step["step"] for step in actual] == [step["step"] for step in golden]
    for mine, pinned in zip(actual, golden):
        for endpoint in ("statuses", "stats", "healthz", "metrics"):
            assert mine[endpoint] == pinned[endpoint], (mine["step"], endpoint)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_scenario(_golden_benchmark()), indent=1) + "\n")
