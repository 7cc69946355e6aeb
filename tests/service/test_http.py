"""HTTP front end: endpoints, wire fidelity, and failure modes."""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.service import (
    AsyncShardRouter,
    HttpFrontEnd,
    ShardRouter,
    ShardedSnapshot,
)


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

    def request(self, method: str, path: str, payload=None, raw_body=None):
        """One request; returns (status, parsed JSON body)."""
        body = raw_body if raw_body is not None \
            else (json.dumps(payload).encode() if payload is not None else None)
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


@pytest.fixture(scope="module")
def sharded_snapshot(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=2)


@pytest.fixture(scope="module")
def server(sharded_snapshot):
    handle = ServerHandle(HttpFrontEnd(
        AsyncShardRouter(ShardRouter(sharded_snapshot)),
        snapshot_info="test layout line",
        max_body_bytes=64 * 1024,
    ))
    yield handle
    handle.close()


@pytest.fixture()
def sync_reference(sharded_snapshot) -> ShardRouter:
    return ShardRouter(sharded_snapshot)


class TestEndpoints:
    def test_healthz_reports_liveness_and_layout(self, server):
        status, payload = server.request("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["shards"] == 2
        assert payload["snapshot"] == "test layout line"
        # The ambiguous "requests_total" key was split by plane.
        assert "requests_total" not in payload
        assert payload["http_requests_total"] >= 1
        assert payload["router_requests_total"] >= 0
        assert payload["http_errors"] >= 0
        assert payload["router_errors"] >= 0
        assert isinstance(payload["errors_by_status"], dict)
        assert payload["uptime_s"] >= 0
        assert set(payload["hit_rates"]) == {"link", "expansion"}
        assert len(payload["per_shard"]) == 2
        for shard_id, shard in enumerate(payload["per_shard"]):
            assert shard["shard"] == shard_id
            assert shard["inflight"] >= 0
            assert 0.0 <= shard["expansion_hit_rate"] <= 1.0

    def test_expand_round_trips_bit_identical(
        self, small_benchmark, server, sync_reference
    ):
        """The JSON payload carries the exact in-process answer: same doc
        ids, same float scores after the round trip."""
        for topic in small_benchmark.topics[:3]:
            status, payload = server.request(
                "POST", "/expand", {"query": topic.keywords}
            )
            reference = sync_reference.expand_query(topic.keywords)
            assert status == 200
            assert payload["query"] == topic.keywords
            assert payload["linked"] == reference.linked
            assert payload["link"]["article_ids"] == \
                sorted(reference.link.article_ids)
            assert payload["expansion"]["article_ids"] == \
                sorted(reference.expansion.article_ids)
            assert payload["expansion"]["titles"] == \
                list(reference.expansion.titles)
            assert [(r["doc_id"], r["score"]) for r in payload["results"]] == \
                   [(r.doc_id, r.score) for r in reference.results]

    def test_expand_repeat_reports_cached(self, small_benchmark, server):
        query = {"query": small_benchmark.topics[0].keywords}
        server.request("POST", "/expand", query)
        _, payload = server.request("POST", "/expand", query)
        assert payload["expansion_cached"] is True

    def test_search_returns_slim_payload(
        self, small_benchmark, server, sync_reference
    ):
        keywords = small_benchmark.topics[1].keywords
        status, payload = server.request(
            "POST", "/search", {"query": keywords, "top_k": 5}
        )
        reference = sync_reference.expand_query(keywords, top_k=5)
        assert status == 200
        assert set(payload) == {"query", "normalized_query", "linked", "results"}
        assert [(r["doc_id"], r["score"]) for r in payload["results"]] == \
               [(r.doc_id, r.score) for r in reference.results]
        assert all(r["name"] for r in payload["results"])

    def test_batch_expand_preserves_order_and_dedupes(
        self, small_benchmark, server
    ):
        queries = [
            small_benchmark.topics[0].keywords,
            small_benchmark.topics[1].keywords,
            small_benchmark.topics[0].keywords,  # duplicate
        ]
        status, payload = server.request(
            "POST", "/batch_expand", {"queries": queries}
        )
        assert status == 200
        responses = payload["responses"]
        assert [r["query"] for r in responses] == queries
        assert responses[0]["results"] == responses[2]["results"]

    def test_per_shard_queries_add_up_to_the_router_queries(
        self, small_benchmark, server
    ):
        """A shard's ``queries`` counts the ``expand_seeds`` calls it
        answered, so single queries sum to the router's own counter —
        in /stats and /healthz, with workers in or out of process."""
        def counters():
            _, stats = server.request("GET", "/stats")
            _, health = server.request("GET", "/healthz")
            per_shard = [shard["queries"] for shard in stats["per_shard"]]
            assert per_shard == [s["queries"] for s in health["per_shard"]]
            return stats["queries"], per_shard

        before, shards_before = counters()
        texts = [t.keywords for t in small_benchmark.topics] + ["qzxunseen"]
        for text in texts:
            assert server.request("POST", "/expand", {"query": text})[0] == 200
        after, shards_after = counters()
        assert after - before == len(texts)
        assert sum(shards_after) - sum(shards_before) == len(texts)
        assert all(b <= a for b, a in zip(shards_before, shards_after))

    def test_stats_reports_router_and_http_counters(self, server):
        status, payload = server.request("GET", "/stats")
        assert status == 200
        for key in ("shards", "requests_total", "errors", "queries",
                    "link_cache", "expansion_cache", "per_shard", "http"):
            assert key in payload, key
        http_stats = payload["http"]
        assert http_stats["requests_total"] >= 1
        assert http_stats["by_endpoint"].get("/stats", 0) >= 1


class TestFailureModes:
    def test_malformed_json_body_is_400(self, server):
        status, payload = server.request(
            "POST", "/expand", raw_body=b"{not json!"
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "JSON" in payload["error"]["message"]

    def test_non_object_body_is_400(self, server):
        status, payload = server.request("POST", "/expand", raw_body=b'["list"]')
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_missing_and_invalid_fields_are_400(self, server):
        for body in ({}, {"query": 7}, {"query": "   "},
                     {"query": "x", "top_k": 0}, {"query": "x", "top_k": True}):
            status, payload = server.request("POST", "/expand", body)
            assert status == 400, body
            assert payload["error"]["code"] in ("bad_request", "invalid_request")
        status, payload = server.request("POST", "/batch_expand", {"queries": []})
        assert status == 400
        status, payload = server.request(
            "POST", "/batch_expand", {"queries": ["ok", 5]}
        )
        assert status == 400

    def test_unknown_endpoint_is_404(self, server):
        status, payload = server.request("GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, server):
        status, payload = server.request("GET", "/expand")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        status, _ = server.request("POST", "/healthz", {"x": 1})
        assert status == 405

    def test_too_many_headers_is_400(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            head = "GET /healthz HTTP/1.1\r\n" + \
                "".join(f"X-H{i}: v\r\n" for i in range(200)) + "\r\n"
            sock.sendall(head.encode("latin-1"))
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
        assert b"400" in response.split(b"\r\n", 1)[0]

    def test_a_header_line_over_the_stream_limit_is_400(self, sharded_snapshot):
        """A header line longer than the 64 KiB stream limit is answered
        400 and counted, not raised out of the connection handler."""
        import socket

        handle = ServerHandle(HttpFrontEnd(
            AsyncShardRouter(ShardRouter(sharded_snapshot))
        ))
        unhandled = []
        handle.loop.set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        try:
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=30
            ) as sock:
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\nX-Long: "
                    + b"a" * (70 * 1024) + b"\r\n\r\n"
                )
                response = b""
                while chunk := sock.recv(4096):
                    response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
            assert b"Connection: close" in head
            assert json.loads(body)["error"]["code"] == "bad_request"
            status, payload = handle.request("GET", "/stats")
            assert status == 200
            assert payload["http"]["errors_by_status"] == {"400": 1}
        finally:
            handle.close()
        assert unhandled == []

    def test_stop_lets_in_flight_requests_finish(
        self, sharded_snapshot, monkeypatch
    ):
        """stop() must deliver in-flight responses, then close."""
        # Patches the in-process workers, so force the executor adapter
        # even when the suite runs in its socket-adapter configuration.
        monkeypatch.delenv("REPRO_SHARD_ADAPTER", raising=False)
        router = ShardRouter(sharded_snapshot)
        release = threading.Event()
        arrived = threading.Event()
        real_expand = router.workers[0].expand_seeds.__func__

        def slow_expand(worker_self, seeds):
            arrived.set()
            release.wait(timeout=30)
            return real_expand(worker_self, seeds)

        for worker in router.workers:
            worker.expand_seeds = slow_expand.__get__(worker)

        handle = ServerHandle(HttpFrontEnd(AsyncShardRouter(router)))
        result: dict = {}

        def fire():
            status, payload = handle.request(
                "POST", "/expand", {"query": "completely unknowable words"}
            )
            result["status"] = status
            result["payload"] = payload

        thread = threading.Thread(target=fire)
        thread.start()
        try:
            assert arrived.wait(timeout=30)  # request parked on a shard thread
            stop_future = asyncio.run_coroutine_threadsafe(
                handle.front.stop(), handle.loop
            )
            time.sleep(0.1)  # stop() is now draining, request still held
            assert not stop_future.done()
            release.set()
            stop_future.result(timeout=30)
            thread.join(timeout=30)
            assert result["status"] == 200
            assert result["payload"]["query"] == "completely unknowable words"
        finally:
            release.set()
            thread.join(timeout=30)
            handle.loop.call_soon_threadsafe(handle.loop.stop)
            handle.thread.join(timeout=30)
            handle.front.service.close()

    def test_oversized_request_is_413(self, server):
        huge = {"query": "q" * (128 * 1024)}  # over the 64 KiB fixture cap
        status, payload = server.request("POST", "/expand", huge)
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"

    def test_internal_error_is_500_and_counted(
        self, sharded_snapshot, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SHARD_ADAPTER", raising=False)
        router = ShardRouter(sharded_snapshot)

        def boom(normalized):
            raise RuntimeError("shard on fire")

        router.link_text = boom
        handle = ServerHandle(HttpFrontEnd(AsyncShardRouter(router)))
        try:
            status, payload = handle.request("POST", "/expand", {"query": "x"})
            assert status == 500
            assert payload["error"]["code"] == "internal_error"
            assert "shard on fire" in payload["error"]["message"]
            _, stats = handle.request("GET", "/stats")
            assert stats["errors"] == 1          # router-level error counter
            assert stats["http"]["errors"] >= 1  # http-level error counter
        finally:
            handle.close()


class TestCoalescing:
    def test_concurrent_identical_requests_coalesce_to_identical_payloads(
        self, sharded_snapshot, small_benchmark, monkeypatch
    ):
        """A thundering herd on one cold query pays ONE mine: one request
        expands, the others await its in-flight call and say cached.
        Every client receives the same answer; only the per-request
        fields (latency, stages, trace id, cache flags) differ."""
        # Relies on patching the in-process workers to park requests.
        monkeypatch.delenv("REPRO_SHARD_ADAPTER", raising=False)
        router = ShardRouter(sharded_snapshot)
        release = threading.Event()
        real_expand = router.workers[0].expand_seeds.__func__
        arrived = threading.Event()

        def slow_expand(worker_self, seeds):
            arrived.set()
            release.wait(timeout=30)
            return real_expand(worker_self, seeds)

        for worker in router.workers:
            worker.expand_seeds = slow_expand.__get__(worker)

        handle = ServerHandle(HttpFrontEnd(AsyncShardRouter(router)))
        keywords = small_benchmark.topics[2].keywords
        payloads: list[tuple[int, bytes]] = []
        lock = threading.Lock()

        def fire():
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=60
            )
            try:
                conn.request(
                    "POST", "/expand",
                    json.dumps({"query": keywords}).encode(),
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                with lock:
                    payloads.append((response.status, response.read()))
            finally:
                conn.close()

        threads = [threading.Thread(target=fire) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            # Hold the expansion until every request has arrived, so the
            # overlap is deterministic, not timing.
            assert arrived.wait(timeout=30)
            deadline = time.time() + 30
            while time.time() < deadline:
                _, stats = handle.request("GET", "/stats")
                if stats["http"]["by_endpoint"].get("/expand", 0) >= 4:
                    break
                time.sleep(0.02)
            release.set()
            for thread in threads:
                thread.join(timeout=60)
            assert len(payloads) == 4
            statuses = {status for status, _ in payloads}
            assert statuses == {200}
            bodies = [json.loads(body) for _, body in payloads]
            assert sorted(body["expansion_cached"] for body in bodies) == \
                [False, True, True, True]
            per_request = (
                "latency_ms", "stages", "trace_id", "link_cached",
                "expansion_cached",
            )
            answers = {
                json.dumps({
                    k: v for k, v in body.items() if k not in per_request
                }, sort_keys=True)
                for body in bodies
            }
            assert len(answers) == 1, "one seed set, one answer"
            _, stats = handle.request("GET", "/stats")
            assert stats["expansion_cache"]["misses"] == 1
        finally:
            release.set()
            handle.close()
