"""Hand-rolled asyncio HTTP/1.1 front end over the async router.

No web framework, no new dependencies: :class:`HttpFrontEnd` speaks a
deliberately small slice of HTTP/1.1 (request line, headers,
``Content-Length`` bodies, keep-alive) over ``asyncio`` streams and
serves six endpoints::

    POST /expand        one query, full ServiceResponse payload
    POST /search        one query, ranked results only
    POST /batch_expand  many queries in one request
    GET  /stats         router and front-end counters + slow log
    GET  /healthz       liveness: status, shards, per-shard health,
                        hit-rate breakdown, error breakdown by status,
                        serving snapshot generation + delta sequence
    GET  /metrics       Prometheus text exposition (text/plain, not JSON)

plus, when an :class:`~repro.updates.UpdateCoordinator` is attached
(``repro serve --http`` always attaches one)::

    POST /admin/apply_delta  apply one typed graph-delta batch live
    POST /admin/compact      fold the overlay into generation N+1 + swap

Every endpoint, every request/response schema, the error envelope and
the status codes are specified in ``docs/http_api.md`` (the metric
families in ``docs/observability.md``) — change the two together.
Errors are always JSON::

    {"error": {"code": "<machine-readable>", "message": "<human-readable>"}}

with 400 (malformed JSON / invalid fields / invalid delta), 404
(unknown path), 405 (known path, wrong method), 409 (delta batch
against a stale snapshot generation), 413 (body over
``max_body_bytes``), 429 (load shedding — see below) and 500 (handler
raised; also bumps the router error counter via the failed request).

Load shedding: with an :class:`~repro.service.admission.AdmissionPolicy`
attached (``repro serve --http --queue-limit/--client-rate``), the query
endpoints (``/expand``, ``/search``, ``/batch_expand``) pass an
admission gate before any router work happens.  A full admission queue
answers ``429 over_capacity``; a client that exhausted its token bucket
(keyed by the ``X-Client-Id`` header, falling back to the peer address)
answers ``429 client_rate_limited``.  Both carry ``retry_after_s`` in
the envelope plus a ``Retry-After`` header, count into
``repro_shed_total{reason}`` and ``errors_by_status``, and cost no
router work — that is the point.  Monitoring and admin endpoints are
never shed, so operators can watch an overloaded server.

Concurrency model: the event loop parses requests and dispatches to an
:class:`~repro.service.async_router.AsyncShardRouter`; shard work runs
on its executor threads (or in worker processes) while the loop keeps
serving other connections.  Concurrent queries share every shard call
in flight (see the async router), so a thundering herd on one cold
query pays one cycle mining pass, one probe and one rank fan-out.

Start one with ``repro serve --http PORT`` (port 0 picks an ephemeral
port and prints it), or programmatically::

    front = HttpFrontEnd(AsyncShardRouter(router))
    server = await front.start("127.0.0.1", 8080)
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.errors import DeltaError, ShardUnavailableError, StaleGenerationError
from repro.obs.logs import RequestLog
from repro.service.admission import (
    SHED_CLIENT_RATE,
    SHED_OVER_CAPACITY,
    AdmissionController,
    AdmissionPolicy,
)
from repro.service.async_router import AsyncShardRouter

__all__ = ["HttpFrontEnd", "DEFAULT_MAX_BODY_BYTES", "SHEDDABLE_PATHS"]

# Prometheus text exposition content type (the version is part of it).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

DEFAULT_MAX_BODY_BYTES = 1 << 20  # 1 MiB of JSON is already a huge batch
DEFAULT_READ_TIMEOUT = 120.0  # seconds to finish sending one request
_MAX_TOP_K = 1000
_MAX_BATCH_QUERIES = 1024
_MAX_HEADERS = 128
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}
_MAX_DELTA_BATCH = 4096

# The endpoints admission control may refuse: the ones that cost router
# work.  Monitoring (/stats /healthz /metrics) and the admin plane stay
# reachable under overload by design.
SHEDDABLE_PATHS = frozenset({"/expand", "/search", "/batch_expand"})

_SHED_MESSAGES = {
    SHED_OVER_CAPACITY:
        "server at capacity: the admission queue is full; retry later",
    SHED_CLIENT_RATE:
        "client over its admission rate: token bucket empty; retry later",
}


class _RequestError(Exception):
    """A client error mapped straight onto the JSON error envelope."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


def _error_body(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


class HttpFrontEnd:
    """Serve an :class:`AsyncShardRouter` over HTTP/1.1 + JSON.

    Parameters
    ----------
    service:
        The async router to serve (its stats/doc-name surfaces feed
        ``/stats``, ``/healthz`` and result rendering).
    snapshot_info:
        Optional human-readable snapshot layout line, echoed in
        ``/healthz`` so operators can tell which format a live server
        loaded.
    snapshot_format:
        Optional on-disk format tag of the loaded snapshot (``"v3"``),
        echoed in ``/healthz``.  The *serving generation* is not a
        parameter: ``/healthz`` reports the router's live
        ``snapshot_generation`` (an integer that advances on
        compaction), so a fleet rollout can assert every replica serves
        the same generation.
    coordinator:
        Optional :class:`~repro.updates.UpdateCoordinator`.  When
        attached, the admin endpoints ``POST /admin/apply_delta`` and
        ``POST /admin/compact`` are served (``docs/live_updates.md``);
        without one they 404.
    request_log:
        The :class:`~repro.obs.logs.RequestLog` receiving one record per
        HTTP request (slow ones are sampled into its reservoir and
        surfaced under ``/stats``).  A silent default is created when
        omitted; ``repro serve`` passes one that writes slow-query JSON
        lines to stderr.
    admission:
        Optional load-shedding configuration: an
        :class:`~repro.service.admission.AdmissionPolicy` (a controller
        is built from it) or a prebuilt
        :class:`~repro.service.admission.AdmissionController` (tests
        inject one with a fake clock).  ``None`` — the default — turns
        admission control off entirely; no request is ever shed.
    max_body_bytes:
        Requests with a larger declared body are rejected with 413
        before the body is read.
    read_timeout:
        Seconds a client gets to finish sending one request (headers and
        body) once its request line arrived; a stalled sender is
        disconnected instead of pinning the connection forever.  Idle
        keep-alive connections (waiting *between* requests) are not
        subject to it.
    """

    def __init__(
        self,
        service: AsyncShardRouter,
        *,
        snapshot_info: str = "",
        snapshot_format: str = "",
        coordinator=None,
        request_log: RequestLog | None = None,
        admission: AdmissionPolicy | AdmissionController | None = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        read_timeout: float = DEFAULT_READ_TIMEOUT,
    ) -> None:
        self._service = service
        self._snapshot_info = snapshot_info
        self._snapshot_format = snapshot_format
        self._coordinator = coordinator
        self._request_log = request_log or RequestLog()
        if isinstance(admission, AdmissionPolicy):
            admission = AdmissionController(admission) if admission.enabled \
                else None
        self._admission = admission
        self._max_body_bytes = max_body_bytes
        self._read_timeout = read_timeout
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        self._connections: set[asyncio.StreamWriter] = set()
        self._busy: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        # HTTP-plane families live in the router's registry, so one
        # /metrics scrape renders the whole serving stack, and /stats
        # and /healthz render their HTTP counts from them.
        registry = service.metrics.registry
        self._http_requests_metric = registry.counter(
            "repro_http_requests_total",
            "HTTP requests received, by endpoint.",
            ("endpoint",),
        )
        self._http_errors_metric = registry.counter(
            "repro_http_errors_total",
            "HTTP error responses, by status code.",
            ("status",),
        )
        # Registered unconditionally so the families exist (at zero) on
        # servers with admission control off — dashboards can rely on
        # them being scrapeable either way.
        self._shed_metric = registry.counter(
            "repro_shed_total",
            "Requests refused by admission control, by reason.",
            ("reason",),
        )
        self._queue_depth_gauge = registry.gauge(
            "repro_admission_queue_depth",
            "Admitted sheddable requests currently in flight.",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 8080):
        """Bind and start serving; returns the ``asyncio`` server.

        ``port=0`` binds an ephemeral port; read it back from
        ``server.sockets[0].getsockname()[1]``.
        """
        self._server = await asyncio.start_server(
            self._serve_connection, host, port
        )
        return self._server

    async def stop(self) -> None:
        """Stop accepting connections and drain the open ones.

        Idle keep-alive connections are closed (their handlers see EOF
        and exit); connections mid-request finish and send their
        response first (the handler sees ``_closing`` afterwards and
        ends the connection instead of waiting for another request).
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            if writer not in self._busy:
                writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    @property
    def service(self) -> AsyncShardRouter:
        return self._service

    @property
    def request_log(self) -> RequestLog:
        return self._request_log

    @property
    def admission(self) -> AdmissionController | None:
        return self._admission

    async def replay_recent(self) -> int:
        """Re-expand the request log's recent queries through the router
        this front end serves — under ``--workers``, in the worker
        processes that answer — and return how many answered.  Run at
        startup (a persisted recency set) and after every compaction."""
        warmed = 0
        for query in self._request_log.recent_queries():
            try:
                await self._service.expand_query(query, top_k=1)
                warmed += 1
            except Exception:  # noqa: BLE001 — warming never fails its caller
                continue
        return warmed

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._connections.add(writer)
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) and peername \
            else "unknown"
        async def timed(read_coro):
            """One read step of an in-flight request; a sender that
            stalls past the timeout is disconnected, not waited on."""
            return await asyncio.wait_for(read_coro, self._read_timeout)

        try:
            while True:
                # Waiting for the *next* request on a keep-alive
                # connection is legitimate idleness: no timeout here.
                try:
                    request_line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    break  # request line over the stream limit: not ours
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                # A request is now in flight: the connection is busy
                # (stop() lets it finish) and reads are on the clock.
                self._busy.add(writer)
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3 or not parts[2].startswith("HTTP/"):
                    await self._send(
                        writer, 400,
                        _error_body("bad_request", "malformed request line"),
                        keep_alive=False,
                    )
                    break
                method, path = parts[0].upper(), parts[1]

                headers: dict[str, str] = {}
                while True:
                    try:
                        line = await timed(reader.readline())
                    except ValueError:  # a line over the stream limit
                        raise _RequestError(400, "bad_request", "header line too long")
                    if line in (b"\r\n", b"\n", b""):
                        break
                    if len(headers) >= _MAX_HEADERS:
                        raise _RequestError(
                            400, "bad_request",
                            f"more than {_MAX_HEADERS} request headers",
                        )
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                keep_alive = headers.get("connection", "").lower() != "close"

                try:
                    length = int(headers.get("content-length", "0") or "0")
                    if length < 0:
                        raise ValueError(length)
                except ValueError:
                    await self._send(
                        writer, 400,
                        _error_body("bad_request", "invalid Content-Length"),
                        keep_alive=False,
                    )
                    break
                if length > self._max_body_bytes:
                    # Reject without processing — but drain a bounded
                    # amount first so a client mid-send can still read
                    # the 413 instead of hitting a connection reset.
                    try:
                        await timed(reader.readexactly(min(length, 4 << 20)))
                    except asyncio.IncompleteReadError:
                        pass
                    await self._send(
                        writer, 413,
                        _error_body(
                            "payload_too_large",
                            f"request body of {length} bytes exceeds the "
                            f"{self._max_body_bytes}-byte limit",
                        ),
                        keep_alive=False,
                    )
                    break
                body = await timed(reader.readexactly(length)) if length else b""

                # Admission keys on the declared client id; the peer
                # address is the fallback so an anonymous flood is still
                # attributed to its sender, not pooled with everyone.
                client = headers.get("x-client-id", "").strip() or peer
                status, payload = await self._dispatch(
                    method, path, body, client=client
                )
                await self._send(writer, status, payload, keep_alive=keep_alive)
                self._busy.discard(writer)
                if not keep_alive or self._closing:
                    break
        except _RequestError as exc:
            self._http_errors_metric.inc(status=str(exc.status))
            try:
                await self._send(
                    writer, exc.status, _error_body(exc.code, exc.message),
                    keep_alive=False,
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
        except (
            asyncio.IncompleteReadError, ConnectionResetError,
            BrokenPipeError, TimeoutError, asyncio.TimeoutError,
        ):
            pass  # client went away or stalled mid-request; drop it
        finally:
            self._busy.discard(writer)
            self._connections.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(
        self, writer: asyncio.StreamWriter, status: int, payload,
        *, keep_alive: bool,
    ) -> None:
        # Handlers return dicts (JSON endpoints) or a ready string (the
        # Prometheus exposition, which must not be JSON-quoted).
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = METRICS_CONTENT_TYPE
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        retry_after = ""
        if status in (429, 503) and isinstance(payload, dict):
            seconds = payload.get("error", {}).get("retry_after_s")
            if seconds is not None:
                # HTTP Retry-After is integral seconds; round up so a
                # compliant client never retries before the window.
                retry_after = f"Retry-After: {max(1, int(-(-seconds // 1)))}\r\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{retry_after}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes, client: str = ""
    ):
        path = path.split("?", 1)[0]
        routes = {
            "/expand": ("POST", self._handle_expand),
            "/search": ("POST", self._handle_search),
            "/batch_expand": ("POST", self._handle_batch_expand),
            "/stats": ("GET", self._handle_stats),
            "/healthz": ("GET", self._handle_healthz),
            "/metrics": ("GET", self._handle_metrics),
        }
        if self._coordinator is not None:
            routes["/admin/apply_delta"] = ("POST", self._handle_apply_delta)
            routes["/admin/compact"] = ("POST", self._handle_compact)
        started = time.perf_counter()
        route = routes.get(path)
        # Unknown paths share one metric label so arbitrary request
        # paths cannot grow the label set without bound.
        self._http_requests_metric.inc(
            endpoint=path if route is not None else "unknown"
        )
        # Load shedding: query endpoints pass the admission gate before
        # the handler runs, so a refusal costs parsing only — never
        # router work.  The slot is held for the handler's full life.
        admitted = False
        shed = None
        if (
            self._admission is not None
            and route is not None
            and method == route[0]
            and path in SHEDDABLE_PATHS
        ):
            decision = self._admission.admit(client)
            if decision.admitted:
                admitted = True
            else:
                shed = decision
        try:
            if shed is not None:
                self._shed_metric.inc(reason=shed.reason)
                payload = _error_body(shed.reason, _SHED_MESSAGES[shed.reason])
                payload["error"]["retry_after_s"] = round(
                    shed.retry_after_s, 3
                )
                status = 429
            else:
                status, payload = await self._route(route, method, path, body)
        finally:
            if admitted:
                self._admission.release()
        if status >= 400:
            self._http_errors_metric.inc(status=str(status))
        self._log_request(
            path, status, payload, (time.perf_counter() - started) * 1000.0
        )
        return status, payload

    async def _route(self, route, method: str, path: str, body: bytes):
        """Resolve one request to ``(status, payload)`` — errors included."""
        if route is None:
            return 404, _error_body("not_found", f"unknown endpoint {path!r}")
        expected_method, handler = route
        if method != expected_method:
            return 405, _error_body(
                "method_not_allowed", f"{path} expects {expected_method}"
            )
        try:
            if expected_method == "POST":
                payload = self._parse_json(body)
                return 200, await handler(payload)
            return 200, await handler()
        except _RequestError as exc:
            return exc.status, _error_body(exc.code, exc.message)
        except StaleGenerationError as exc:
            # The client validated its batch against a generation that
            # compaction has since retired: a retryable conflict, not a
            # bad request — refetch /healthz and resubmit.
            body = _error_body("stale_generation", str(exc))
            body["error"].update(expected=exc.expected, got=exc.got)
            return 409, body
        except DeltaError as exc:
            return 400, _error_body("invalid_delta", str(exc))
        except ShardUnavailableError as exc:
            # Graceful degradation, not an internal error: the query's
            # owning shard worker is down.  Healthy-shard queries keep
            # serving; this one gets a structured, retryable 503.
            body = _error_body("shard_unavailable", str(exc))
            body["error"].update(
                shard=exc.shard_id,
                state=exc.state,
                retry_after_s=exc.retry_after_s,
            )
            return 503, body
        except Exception as exc:  # noqa: BLE001 — the envelope must hold
            return 500, _error_body(
                "internal_error", f"{type(exc).__name__}: {exc}"
            )

    def _log_request(
        self, path: str, status: int, payload, latency_ms: float
    ) -> None:
        """Feed the request log; slow requests pull trace context out of
        the response payload (already serialised, so no trace objects)."""
        query = trace_id = None
        stages = None
        if isinstance(payload, dict):
            value = payload.get("query")
            query = value if isinstance(value, str) else None
            trace_id = payload.get("trace_id")
            stages = payload.get("stages")
        self._request_log.record(
            endpoint=path,
            latency_ms=latency_ms,
            status=status,
            query=query,
            trace_id=trace_id,
            stages=stages if isinstance(stages, dict) else None,
        )

    def _parse_json(self, body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _RequestError(
                400, "bad_request", f"request body is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise _RequestError(
                400, "bad_request", "request body must be a JSON object"
            )
        return payload

    @staticmethod
    def _query_field(payload: dict) -> str:
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise _RequestError(
                400, "invalid_request", "'query' must be a non-empty string"
            )
        return query

    @staticmethod
    def _top_k_field(payload: dict) -> int:
        top_k = payload.get("top_k", 10)
        if not isinstance(top_k, int) or isinstance(top_k, bool) \
                or not 1 <= top_k <= _MAX_TOP_K:
            raise _RequestError(
                400, "invalid_request",
                f"'top_k' must be an integer in [1, {_MAX_TOP_K}]",
            )
        return top_k

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    async def _handle_expand(self, payload: dict) -> dict:
        query = self._query_field(payload)
        top_k = self._top_k_field(payload)
        response = await self._service.expand_query(query, top_k=top_k)
        return response.as_dict(self._service.doc_names)

    async def _handle_search(self, payload: dict) -> dict:
        """Ranked results only — same pipeline, slimmer payload."""
        query = self._query_field(payload)
        top_k = self._top_k_field(payload)
        response = await self._service.expand_query(query, top_k=top_k)
        return {
            "query": response.query,
            "normalized_query": response.normalized_query,
            "linked": response.linked,
            "results": response.results_as_dicts(self._service.doc_names),
        }

    async def _handle_batch_expand(self, payload: dict) -> dict:
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries \
                or not all(isinstance(q, str) and q.strip() for q in queries):
            raise _RequestError(
                400, "invalid_request",
                "'queries' must be a non-empty list of non-empty strings",
            )
        if len(queries) > _MAX_BATCH_QUERIES:
            raise _RequestError(
                400, "invalid_request",
                f"a batch may hold at most {_MAX_BATCH_QUERIES} queries",
            )
        top_k = self._top_k_field(payload)
        responses = await self._service.batch_expand(queries, top_k=top_k)
        names = self._service.doc_names
        return {"responses": [r.as_dict(names) for r in responses]}

    def _http_counts(self) -> dict:
        """The front end's counts, read from its metric families."""
        requests = {e: n for (e,), n in self._http_requests_metric.samples().items()}
        errors = {s: n for (s,), n in self._http_errors_metric.samples().items()}
        return {
            "requests_total": sum(requests.values()),
            "errors": sum(errors.values()),
            "errors_by_status": errors,
            "by_endpoint": {e: n for e, n in requests.items() if e != "unknown"},
        }

    def _admission_snapshot(self) -> dict:
        """Admission state, and the refusals from ``repro_shed_total``."""
        shed = {r: n for (r,), n in self._shed_metric.samples().items()}
        return {
            **self._admission.snapshot(),
            "shed_total": sum(shed.values()), "shed_by_reason": shed,
        }

    async def _handle_stats(self) -> dict:
        stats = self._service.stats()
        stats["http"] = self._http_counts()
        if self._admission is not None:
            stats["http"]["admission"] = self._admission_snapshot()
        stats["slow_queries"] = self._request_log.snapshot()
        return stats

    async def _handle_healthz(self) -> dict:
        """Liveness plus enough layout to triage a sick replica.

        ``http_requests_total`` counts requests this front end parsed;
        ``router_requests_total`` counts queries offered to the shared
        router (batch members each count, and the in-process surface
        feeds the same counter) — the old ambiguous ``requests_total``
        key is gone.
        """
        stats = self._service.stats()
        http = self._http_counts()
        supervisor = getattr(self._service, "supervisor", None)
        status = "ok"
        if supervisor is not None and supervisor.degraded:
            status = "degraded"
        payload = {
            "status": status,
            "shards": stats["shards"],
            "uptime_s": stats["uptime_s"],
            "http_requests_total": http["requests_total"],
            "http_errors": http["errors"],
            "router_requests_total": stats["requests_total"],
            "router_errors": stats["errors"],
            "errors_by_status": http["errors_by_status"],
            "hit_rates": {
                "link": stats["link_cache"]["hit_rate"],
                "expansion": stats["expansion_cache"]["hit_rate"],
            },
            "per_shard": [
                {
                    "shard": shard_id,
                    "queries": shard["queries"],
                    "inflight": shard["inflight"],
                    "expansion_hit_rate": shard["expansion_cache"]["hit_rate"],
                }
                for shard_id, shard in enumerate(stats["per_shard"])
            ],
        }
        if supervisor is not None:
            # Out-of-process deployment: per-shard worker process state
            # (pid/port/state/restarts) plus the resilience counters.
            payload["workers"] = supervisor.describe()
            payload["worker_restarts"] = stats["worker_restarts"]
            payload["retries_total"] = stats["retries_total"]
        if self._snapshot_info:
            payload["snapshot"] = self._snapshot_info
        if self._snapshot_format:
            payload["snapshot_format"] = self._snapshot_format
        if self._admission is not None:
            # Overload triage: current queue depth against the limit,
            # plus what has been shed and why (docs/operations.md).
            payload["admission"] = self._admission_snapshot()
        # Load-bearing for live updates: clients read the generation
        # here and echo it in /admin/apply_delta; a mismatch is a 409.
        payload["snapshot_generation"] = stats["generation"]
        payload["delta_seq"] = stats["delta_seq"]
        return payload

    async def _handle_metrics(self) -> str:
        """The whole stack's families as Prometheus text exposition.

        Counters and histograms are live (folded per request); the
        gauges that follow state — queue depth, uptime, requests and
        expansions in flight — are set here, at scrape time.
        """
        self._queue_depth_gauge.set(
            self._admission.queue_depth if self._admission is not None else 0
        )
        return self._service.router.render_metrics()

    async def _handle_apply_delta(self, payload: dict) -> dict:
        """Apply one delta batch to the live stack (docs/live_updates.md).

        The body carries ``deltas`` (a list of delta objects in wire
        form) and ``generation`` (the generation the client validated
        against — read it from ``/healthz``).  Validation errors are
        400s; a stale generation is a 409; success returns the apply
        summary (applied count, last sequence, eviction counts).
        """
        deltas = payload.get("deltas")
        if not isinstance(deltas, list) or not deltas:
            raise _RequestError(
                400, "invalid_request",
                "'deltas' must be a non-empty list of delta objects",
            )
        if len(deltas) > _MAX_DELTA_BATCH:
            raise _RequestError(
                400, "invalid_request",
                f"a delta batch may hold at most {_MAX_DELTA_BATCH} deltas",
            )
        generation = payload.get("generation")
        if generation is not None and (
            not isinstance(generation, int) or isinstance(generation, bool)
        ):
            raise _RequestError(
                400, "invalid_request", "'generation' must be an integer"
            )
        coordinator = self._coordinator
        return await asyncio.get_running_loop().run_in_executor(
            None, lambda: coordinator.apply(deltas, generation=generation)
        )

    async def _handle_compact(self, payload: dict) -> dict:
        """Fold the overlay into a new on-disk generation and hot-swap.

        The body is an empty JSON object (reserved for future options).
        Compaction is serialised against concurrent applies inside the
        coordinator; the response reports the new generation and how many
        recent queries were replayed into the restarted caches.
        """
        del payload  # no options yet; the empty object is the contract
        summary = await asyncio.get_running_loop().run_in_executor(
            None, self._coordinator.compact
        )
        summary["warmed_queries"] = await self.replay_recent()
        return summary
