"""Load shedding fault matrix: queue bound, client buckets, recovery.

The controller tests drive a fake monotonic clock, so admit/refuse
sequences are exact.  The HTTP tests run a real front end: the queue
bound is exercised by gating the router behind an ``asyncio.Event`` so
"server busy" is a controlled state, not a race; the client-bucket
tests inject a fake-clock controller so throttling decisions are
deterministic over real sockets.
"""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.obs.metrics import parse_prometheus_text
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    AsyncShardRouter,
    HttpFrontEnd,
    ShardRouter,
    ShardedSnapshot,
)
from repro.service.admission import SHED_CLIENT_RATE, SHED_OVER_CAPACITY
from repro.service.http import SHEDDABLE_PATHS


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestAdmissionPolicy:
    def test_defaults_disable_everything(self):
        policy = AdmissionPolicy()
        assert not policy.enabled

    def test_either_knob_enables(self):
        assert AdmissionPolicy(queue_limit=4).enabled
        assert AdmissionPolicy(client_rate=2.0).enabled

    @pytest.mark.parametrize("kwargs", [
        {"queue_limit": 0},
        {"client_rate": 0.0},
        {"client_rate": -1.0},
        {"client_burst": 0.5},
        {"retry_after_s": 0.0},
        {"max_tracked_clients": 0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ServiceError):
            AdmissionPolicy(**kwargs)


class TestQueueGate:
    def test_bounds_inflight_and_recovers(self):
        controller = AdmissionController(AdmissionPolicy(queue_limit=2))
        first = controller.admit("a")
        second = controller.admit("b")
        assert first.admitted and second.admitted
        third = controller.admit("c")
        assert not third.admitted
        assert third.reason == SHED_OVER_CAPACITY
        assert third.retry_after_s == pytest.approx(1.0)
        controller.release()
        fourth = controller.admit("c")
        assert fourth.admitted
        controller.release()
        controller.release()
        assert controller.queue_depth == 0
        reasons = [d.reason for d in (first, second, third, fourth)]
        assert reasons == [None, None, SHED_OVER_CAPACITY, None]

    def test_refusals_never_take_a_slot(self):
        controller = AdmissionController(AdmissionPolicy(queue_limit=1))
        assert controller.admit("a").admitted
        for _ in range(5):
            assert not controller.admit("b").admitted
        assert controller.queue_depth == 1
        controller.release()
        assert controller.queue_depth == 0

    def test_snapshot_reports_peak_and_reasons(self):
        controller = AdmissionController(AdmissionPolicy(queue_limit=2))
        reasons = [controller.admit(client).reason for client in "abc"]
        controller.release()
        snapshot = controller.snapshot()
        assert snapshot["queue_depth"] == 1
        assert snapshot["peak_queue_depth"] == 2
        assert snapshot["queue_limit"] == 2
        assert reasons == [None, None, SHED_OVER_CAPACITY]
        # Refusals are counted by whoever acts on them (the front end's
        # repro_shed_total), not by the controller.
        assert "shed_by_reason" not in snapshot


class TestClientBuckets:
    def _controller(self, **kwargs) -> tuple[AdmissionController, FakeClock]:
        clock = FakeClock()
        policy = AdmissionPolicy(**kwargs)
        return AdmissionController(policy, clock=clock), clock

    def test_burst_then_throttle_then_refill(self):
        controller, clock = self._controller(client_rate=2.0, client_burst=4.0)
        outcomes = [controller.admit("greedy").admitted for _ in range(6)]
        assert outcomes == [True] * 4 + [False] * 2
        refused = controller.admit("greedy")
        assert refused.reason == SHED_CLIENT_RATE
        assert refused.retry_after_s == pytest.approx(0.5)
        clock.advance(1.0)  # 2 tokens accrue
        assert controller.admit("greedy").admitted
        assert controller.admit("greedy").admitted
        assert not controller.admit("greedy").admitted

    def test_greedy_client_cannot_starve_polite_one(self):
        controller, _ = self._controller(client_rate=1.0, client_burst=2.0)
        greedy = [controller.admit("greedy").reason for _ in range(10)]
        polite = [controller.admit("polite").admitted for _ in range(2)]
        assert polite == [True, True]
        assert greedy == [None] * 2 + [SHED_CLIENT_RATE] * 8

    def test_full_recovery_after_flood_stops(self):
        controller, clock = self._controller(client_rate=4.0, client_burst=4.0)
        for _ in range(20):
            controller.admit("flood")
        clock.advance(10.0)  # far more than burst/rate
        outcomes = [controller.admit("flood").admitted for _ in range(4)]
        assert outcomes == [True] * 4, "bucket must refill to full burst"

    def test_client_table_is_lru_bounded(self):
        controller, _ = self._controller(
            client_rate=1.0, client_burst=1.0, max_tracked_clients=3
        )
        for name in ("a", "b", "c", "d"):
            controller.admit(name)
        assert controller.snapshot()["clients_tracked"] == 3
        # "a" was evicted: it gets a fresh (full) bucket again.
        assert controller.admit("a").admitted

    def test_client_gate_runs_before_queue_gate(self):
        controller, _ = self._controller(
            queue_limit=1, client_rate=1.0, client_burst=1.0
        )
        assert controller.admit("x").admitted  # takes the only slot
        refused = controller.admit("x")  # bucket empty AND queue full
        assert refused.reason == SHED_CLIENT_RATE


# ----------------------------------------------------------------------
# HTTP integration
# ----------------------------------------------------------------------


class GatedService:
    """Delegating wrapper that can hold expansions at an asyncio gate."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.gate = asyncio.Event()
        self.gate.set()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    async def expand_query(self, query, top_k=10):
        await self.gate.wait()
        return await self._inner.expand_query(query, top_k=top_k)


class ShedServer:
    """Front end + gate + raw-header access on a private loop thread."""

    def __init__(self, snapshot, admission) -> None:
        self.router = ShardRouter(snapshot)
        self.gated = GatedService(AsyncShardRouter(self.router))
        self.front = HttpFrontEnd(self.gated, admission=admission)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        server = asyncio.run_coroutine_threadsafe(
            self.front.start("127.0.0.1", 0), self.loop
        ).result(timeout=30)
        self.port = server.sockets[0].getsockname()[1]

    def request(self, method, path, payload=None, client=None):
        """Returns (status, body, headers-dict)."""
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        if client is not None:
            headers["X-Client-Id"] = client
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body, headers)
            response = conn.getresponse()
            return (
                response.status,
                json.loads(response.read()),
                {k.lower(): v for k, v in response.getheaders()},
            )
        finally:
            conn.close()

    def metrics_text(self) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def hold(self):
        self.loop.call_soon_threadsafe(self.gated.gate.clear)

    def release(self):
        self.loop.call_soon_threadsafe(self.gated.gate.set)

    def close(self):
        self.release()
        asyncio.run_coroutine_threadsafe(
            self.front.stop(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        # The async router owns its adapters: under
        # REPRO_SHARD_ADAPTER=socket those are worker processes.
        self.gated.close()
        self.router.close()


@pytest.fixture(scope="module")
def sharded(snapshot):
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=1)


@pytest.fixture()
def queue_server(sharded):
    server = ShedServer(sharded, AdmissionPolicy(queue_limit=2))
    yield server
    server.close()


@pytest.fixture(scope="module")
def topic(sharded):
    return " ".join(sorted(sharded.title_index)[0])


class TestQueueFullOverHttp:
    def _wait_for_depth(self, server, depth, timeout_s=5.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if server.front.admission.queue_depth >= depth:
                return
            time.sleep(0.01)
        raise AssertionError(
            f"queue never reached depth {depth}; "
            f"at {server.front.admission.queue_depth}"
        )

    def test_queue_full_gets_structured_429_and_recovers(
        self, queue_server, topic
    ):
        server = queue_server
        server.hold()
        results: list[tuple[int, dict]] = []

        def held_request():
            status, payload, _ = server.request(
                "POST", "/expand", {"query": topic}
            )
            results.append((status, payload))

        workers = [threading.Thread(target=held_request) for _ in range(2)]
        for worker in workers:
            worker.start()
        self._wait_for_depth(server, 2)

        # Queue full: the third request is refused before router work.
        status, payload, headers = server.request(
            "POST", "/expand", {"query": topic}
        )
        assert status == 429
        assert payload["error"]["code"] == SHED_OVER_CAPACITY
        assert "retry later" in payload["error"]["message"]
        assert payload["error"]["retry_after_s"] == pytest.approx(1.0)
        assert headers["retry-after"] == "1"

        # Flood over: held requests complete fine, shedding stops.
        server.release()
        for worker in workers:
            worker.join(timeout=30)
        assert [status for status, _ in results] == [200, 200]
        status, _, _ = server.request("POST", "/expand", {"query": topic})
        assert status == 200
        assert server.front.admission.queue_depth == 0

        # Accounting: the 429 is in errors_by_status, repro_shed_total
        # and the healthz admission block.
        status, health, _ = server.request("GET", "/healthz")
        assert health["errors_by_status"].get("429") == 1
        assert health["admission"]["shed_total"] == 1
        assert health["admission"]["shed_by_reason"] == {SHED_OVER_CAPACITY: 1}
        samples = parse_prometheus_text(server.metrics_text())["samples"]
        assert samples[(
            "repro_shed_total", frozenset({("reason", SHED_OVER_CAPACITY)})
        )] == 1.0
        assert samples[("repro_admission_queue_depth", frozenset())] == 0.0

    def test_non_sheddable_paths_bypass_the_queue(self, queue_server, topic):
        server = queue_server
        server.hold()
        workers = [
            threading.Thread(target=lambda: server.request(
                "POST", "/expand", {"query": topic}
            ))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        self._wait_for_depth(server, 2)
        # Introspection must stay reachable during overload — that is
        # how operators see the overload at all.
        for path in ("/healthz", "/stats", "/metrics"):
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                conn.request("GET", path)
                assert conn.getresponse().status == 200, path
            finally:
                conn.close()
        server.release()
        for worker in workers:
            worker.join(timeout=30)

    def test_sheddable_paths_constant_matches_routes(self):
        assert SHEDDABLE_PATHS == {"/expand", "/search", "/batch_expand"}


class TestClientIsolationOverHttp:
    @pytest.fixture()
    def bucket_server(self, sharded):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(client_rate=1.0, client_burst=3.0), clock=clock
        )
        server = ShedServer(sharded, controller)
        server.clock = clock
        yield server
        server.close()

    def test_greedy_throttled_polite_untouched(self, bucket_server, topic):
        server = bucket_server
        greedy = [
            server.request("POST", "/search", {"query": topic}, client="greedy")
            for _ in range(6)
        ]
        assert [status for status, _, _ in greedy] == \
            [200, 200, 200, 429, 429, 429]
        refused = greedy[3]
        assert refused[1]["error"]["code"] == SHED_CLIENT_RATE
        assert float(refused[2]["retry-after"]) >= 1
        # Every polite request is admitted while the greedy client is
        # actively being refused.
        polite = [
            server.request("POST", "/search", {"query": topic}, client="polite")
            for _ in range(3)
        ]
        assert [status for status, _, _ in polite] == [200, 200, 200]

        # Recovery: once the flood stops and the bucket refills, the
        # greedy client serves again — shed rate returns to zero.
        server.clock.advance(10.0)
        status, _, _ = server.request(
            "POST", "/search", {"query": topic}, client="greedy"
        )
        assert status == 200
        status, health, _ = server.request("GET", "/healthz")
        assert health["admission"]["shed_by_reason"] == {SHED_CLIENT_RATE: 3}
        assert health["errors_by_status"].get("429") == 3

    def test_missing_client_header_falls_back_to_peer(
        self, bucket_server, topic
    ):
        server = bucket_server
        # No X-Client-Id: both "different" callers share the loopback
        # peer address, hence one bucket (burst 3).
        statuses = [
            server.request("POST", "/search", {"query": topic})[0]
            for _ in range(4)
        ]
        assert statuses == [200, 200, 200, 429]
