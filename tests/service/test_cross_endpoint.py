"""``/stats``, ``/healthz`` and ``/metrics`` agree, because they render
one registry.

Each count the JSON endpoints report is also a ``/metrics`` family; a
mixed run of requests (single queries, a batch with duplicates,
coalesced and shed requests, client errors and a delta) must leave the
two views equal.  ``default`` builds the stack the way the environment
says (in-process shards here, env-spawned workers in CI's
``REPRO_SHARD_ADAPTER=socket`` leg); ``supervised`` always serves from
supervised worker processes with the delta fanned out to them.
"""

import asyncio
import json

import pytest

from repro.obs.metrics import parse_prometheus_text
from repro.service import (
    AdmissionPolicy,
    AsyncShardRouter,
    HttpFrontEnd,
    ShardRouter,
    ShardSupervisor,
    ShardedSnapshot,
)
from repro.updates import UpdateCoordinator

_NEW = 9_500_000


@pytest.fixture(params=["default", "supervised"])
def front(request, snapshot, tmp_path):
    sharded = ShardedSnapshot.from_snapshot(snapshot, num_shards=2)
    router = ShardRouter(sharded)
    supervisor = None
    if request.param == "supervised":
        sharded.save(tmp_path)
        supervisor = ShardSupervisor(str(tmp_path), 2)
        supervisor.start(timeout_s=120.0)
    service = AsyncShardRouter(router, supervisor=supervisor)
    coordinator = UpdateCoordinator(
        router, snapshot_dir=tmp_path if supervisor else None,
        supervisor=supervisor,
    )
    yield HttpFrontEnd(
        service, coordinator=coordinator,
        admission=AdmissionPolicy(queue_limit=3),
    )
    service.close()
    if supervisor is not None:
        supervisor.stop()
    router.close()


def _post(path: str, payload: dict) -> tuple[str, str, bytes]:
    return "POST", path, json.dumps(payload).encode()


async def _get(front, path: str):
    status, payload = await front._dispatch("GET", path, b"")
    assert status == 200, payload
    return payload


def _series(samples: dict, name: str) -> dict[str, float]:
    """One single-label family as ``{label value: sample}``."""
    return {
        dict(labels).popitem()[1]: value
        for (family, labels), value in samples.items() if family == name
    }


def test_json_endpoints_equal_the_metric_families(front, small_benchmark):
    topics = [topic.keywords for topic in small_benchmark.topics[:4]]
    router = front.service.router
    seeds = router.link_text(router.normalize(topics[0]))[0].article_ids

    async def scenario():
        singles = [topics[0], topics[1], topics[0], "qzxv unseen words"]
        for text in singles:
            status, _ = await front._dispatch(*_post("/expand", {"query": text}))
            assert status == 200
        stats = await _get(front, "/stats")
        # Each single query is one expand_seeds answer, on its owner.
        assert sum(s["queries"] for s in stats["per_shard"]) == len(singles)
        assert stats["queries"] == len(singles)

        rounds = [
            [_post("/batch_expand", {"queries": [topics[2], topics[2], topics[3]]})],
            [_post("/expand", {"query": topics[3]})] * 4,  # 3 coalesce, 1 shed
            [("GET", "/nowhere", b"")],
            [("GET", "/expand", b"")],
            [("POST", "/search", b"[1, 2]")],
            [_post("/admin/apply_delta", {"generation": 1, "deltas": [
                {"op": "add_article", "seq": 1, "node_id": _NEW,
                 "title": "Cross Endpoint Page"},
                {"op": "add_edge", "seq": 2, "source": _NEW,
                 "target": min(seeds), "kind": "link"},
                {"op": "add_edge", "seq": 3, "source": min(seeds),
                 "target": _NEW, "kind": "link"},
            ]})],
            [_post("/expand", {"query": topics[0]})],
        ]
        statuses = []
        for requests in rounds:
            answers = await asyncio.gather(*(
                front._dispatch(*request, client="c") for request in requests
            ))
            statuses += [status for status, _ in answers]
        assert sorted(statuses) == [200] * 6 + [400, 404, 405, 429]
        return (
            await _get(front, "/stats"), await _get(front, "/healthz"),
            parse_prometheus_text(await _get(front, "/metrics"))["samples"],
        )

    stats, health, samples = asyncio.run(scenario())
    http = stats["http"]
    requests = _series(samples, "repro_http_requests_total")
    # The /healthz and /metrics reads came after /stats rendered.
    assert http["requests_total"] + 2 == sum(requests.values())
    assert health["http_requests_total"] + 1 == sum(requests.values())
    later = {"/healthz": 1, "/metrics": 1}
    assert http["by_endpoint"] == {
        endpoint: count - later.get(endpoint, 0)
        for endpoint, count in requests.items()
        if endpoint != "unknown" and count > later.get(endpoint, 0)
    }
    errors = _series(samples, "repro_http_errors_total")
    assert http["errors_by_status"] == health["errors_by_status"] == errors
    assert http["errors"] == health["http_errors"] == sum(errors.values()) == 4
    shed = _series(samples, "repro_shed_total")
    assert http["admission"]["shed_by_reason"] == shed == {"over_capacity": 1}
    assert http["admission"]["shed_total"] == 1
    inflight = samples[("repro_inflight_requests", frozenset())]
    assert stats["requests_total"] - stats["queries"] - stats["errors"] == inflight
    texts = _series(samples, "repro_queries_total")
    assert texts["offered"] == stats["requests_total"] == 11
    assert texts["served"] == stats["queries"] == 11
    assert texts["unlinked"] == stats["unlinked_queries"] == 1
    assert texts["failed"] == stats["errors"] == 0
    invalidated = _series(samples, "repro_delta_invalidations_total")
    assert stats["delta_invalidations"] == sum(invalidated.values()) > 0
    assert health["per_shard"] == [
        {
            "shard": shard_id, "queries": shard["queries"],
            "inflight": shard["inflight"],
            "expansion_hit_rate": shard["expansion_cache"]["hit_rate"],
        }
        for shard_id, shard in enumerate(stats["per_shard"])
    ]
    by_shard: dict[str, float] = {}
    for (name, labels), value in samples.items():
        if name == "repro_shard_queries_total":
            shard = dict(labels)["shard"]
            by_shard[shard] = by_shard.get(shard, 0) + value
    assert [s["queries"] for s in stats["per_shard"]] == [
        by_shard.get(str(shard_id), 0) for shard_id in range(2)
    ]
