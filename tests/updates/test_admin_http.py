"""The HTTP admin surface: apply_delta / compact / generation reporting."""

import asyncio
import http.client
import json
import threading

import pytest

from repro.service import (
    AsyncShardRouter,
    HttpFrontEnd,
    ShardRouter,
)
from repro.updates import UpdateCoordinator, apply_deltas_to_graph, decode_deltas

from update_helpers import assert_same_answers, rebuild_snapshot

_NEW = 9_200_000


class ServerHandle:
    """An HttpFrontEnd running on a private event-loop thread."""

    def __init__(self, front: HttpFrontEnd):
        self.front = front
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        server = asyncio.run_coroutine_threadsafe(
            front.start("127.0.0.1", 0), self.loop
        ).result(timeout=30)
        self.port = server.sockets[0].getsockname()[1]

    def request(self, method: str, path: str, payload=None):
        body = json.dumps(payload).encode() if payload is not None else None
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body,
                         {"Content-Type": "application/json"} if body else {})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def close(self):
        asyncio.run_coroutine_threadsafe(
            self.front.stop(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.front.service.close()


@pytest.fixture()
def stack(sharded2):
    router = ShardRouter(sharded2)
    coordinator = UpdateCoordinator(router)
    handle = ServerHandle(HttpFrontEnd(
        AsyncShardRouter(router),
        snapshot_format="v3",
        coordinator=coordinator,
    ))
    yield handle, router, coordinator
    handle.close()


def _payloads():
    return [
        {"op": "add_article", "seq": 1, "node_id": _NEW,
         "title": "Admin Added Page"},
        {"op": "add_article", "seq": 2, "node_id": _NEW + 1,
         "title": "Admin Added Friend"},
        {"op": "add_edge", "seq": 3, "source": _NEW, "target": _NEW + 1,
         "kind": "link"},
    ]


class TestApplyDelta:
    def test_apply_then_requery_then_compact_hot_swaps(
        self, stack, small_benchmark, sharded2
    ):
        handle, router, _ = stack
        status, health = handle.request("GET", "/healthz")
        assert status == 200
        assert health["snapshot_generation"] == 1
        assert health["delta_seq"] == 0
        assert health["snapshot_format"] == "v3"

        status, summary = handle.request(
            "POST", "/admin/apply_delta",
            {"deltas": _payloads(), "generation": 1},
        )
        assert status == 200
        assert summary["applied"] == 3
        assert summary["stale_workers"] == []
        assert handle.request("GET", "/healthz")[1]["delta_seq"] == 3

        oracle = apply_deltas_to_graph(
            small_benchmark.graph, decode_deltas(_payloads())
        )
        reference = ShardRouter(rebuild_snapshot(sharded2, oracle))
        status, body = handle.request(
            "POST", "/expand", {"query": "admin added page", "top_k": 5}
        )
        assert status == 200
        expected = reference.expand_query("admin added page", top_k=5)
        assert [r["doc_id"] for r in body["results"]] == \
               [r.doc_id for r in expected.results]
        assert [r["score"] for r in body["results"]] == \
               [r.score for r in expected.results]

        status, compacted = handle.request("POST", "/admin/compact", {})
        assert status == 200
        assert compacted["generation"] == 2
        assert compacted["folded_seq"] == 3
        health = handle.request("GET", "/healthz")[1]
        assert health["snapshot_generation"] == 2
        assert health["delta_seq"] == 0

        status, body = handle.request(
            "POST", "/expand", {"query": "admin added page", "top_k": 5}
        )
        assert status == 200
        assert [r["doc_id"] for r in body["results"]] == \
               [r.doc_id for r in expected.results]
        reference.close()

    def test_replayed_batch_answers_the_same_shape(self, stack):
        """A client that reads ``summary["stale_workers"]`` on a retry
        must not get a KeyError: applied and all-skipped 200s carry the
        same keys (docs/http_api.md)."""
        handle, _, _ = stack
        body = {"deltas": _payloads(), "generation": 1}
        status, first = handle.request("POST", "/admin/apply_delta", body)
        assert status == 200 and first["applied"] == 3
        status, replay = handle.request("POST", "/admin/apply_delta", body)
        assert status == 200
        assert replay["applied"] == 0 and replay["skipped"] == 3
        assert set(replay) == set(first)
        assert replay["ball_size"] == 0
        assert replay["stale_workers"] == []
        assert replay["invalidated"] == {"expansion": 0, "link": 0}
        stages = first["stages_ms"]
        assert set(stages) == {
            "validate", "log", "linker", "ball", "publish", "evict", "fanout",
        }
        assert all(ms >= 0 for ms in stages.values())

    def test_stale_generation_is_409_with_expected_and_got(self, stack):
        handle, _, _ = stack
        status, body = handle.request(
            "POST", "/admin/apply_delta",
            {"deltas": _payloads(), "generation": 12},
        )
        assert status == 409
        assert body["error"]["code"] == "stale_generation"
        assert body["error"]["expected"] == 1
        assert body["error"]["got"] == 12

    @pytest.mark.parametrize("payload,needle", [
        ({}, "deltas"),
        ({"deltas": "nope"}, "list"),
        ({"deltas": []}, "empty"),
        ({"deltas": [{"op": "bogus", "seq": 1}]}, "invalid_delta"),
        ({"deltas": [{"op": "remove_article", "seq": 1, "node_id": 10**7}]},
         "invalid_delta"),
        ({"deltas": [{"op": "remove_article", "seq": 1, "node_id": 1}],
          "generation": True}, "generation"),
    ])
    def test_bad_requests_are_400(self, stack, payload, needle):
        handle, _, _ = stack
        status, body = handle.request("POST", "/admin/apply_delta", payload)
        assert status == 400
        assert needle in json.dumps(body["error"])

    def test_admin_routes_404_without_a_coordinator(self, sharded2):
        handle = ServerHandle(HttpFrontEnd(
            AsyncShardRouter(ShardRouter(sharded2))
        ))
        try:
            status, _ = handle.request(
                "POST", "/admin/apply_delta", {"deltas": _payloads()}
            )
            assert status == 404
            assert handle.request("POST", "/admin/compact", {})[0] == 404
        finally:
            handle.close()

    def test_metrics_expose_generation_and_invalidations(self, stack):
        handle, _, _ = stack
        handle.request("POST", "/expand", {"query": "anything at all"})
        handle.request("POST", "/admin/apply_delta", {"deltas": _payloads()})
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        assert "repro_snapshot_generation 1" in text
        assert "repro_delta_seq 3" in text
        assert 'repro_delta_invalidations_total{cache="link"}' in text
        for stage in ("validate", "log", "linker", "ball", "publish",
                      "evict", "fanout"):
            assert f'repro_apply_stage_seconds_count{{stage="{stage}"}} 1' \
                in text, stage

    def test_apply_stage_family_is_registered_before_the_first_write(
        self, stack
    ):
        from repro.obs import parse_prometheus_text

        handle, _, _ = stack
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        parse_prometheus_text(text)  # a family with no series still parses
        assert "# TYPE repro_apply_stage_seconds histogram" in text


class TestWarmup:
    def test_compact_rewarms_recent_queries_from_the_request_log(
        self, stack, small_benchmark
    ):
        """The prefill satellite: queries the request log saw recently
        are re-expanded through the router the front end serves once
        the fresh generation is swapped in, so a delta-evicted hot entry
        is warm again before traffic returns."""
        handle, _, _ = stack
        hot = {"query": small_benchmark.topics[0].keywords, "top_k": 10}
        handle.request("POST", "/expand", hot)

        response = handle.request("POST", "/expand", hot)[1]
        assert response["expansion_cached"]
        seed = response["link"]["article_ids"][0]
        status, _ = handle.request("POST", "/admin/apply_delta", {"deltas": [
            {"op": "add_article", "seq": 1, "node_id": _NEW + 20,
             "title": "Eviction Trigger"},
            {"op": "add_edge", "seq": 2, "source": _NEW + 20, "target": seed,
             "kind": "link"},
        ]})
        assert status == 200
        status, summary = handle.request("POST", "/admin/compact", {})
        assert status == 200
        assert summary["warmed_queries"] == 1
        assert handle.request("POST", "/expand", hot)[1]["expansion_cached"]
