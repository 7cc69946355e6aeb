"""Hand-rolled asyncio HTTP/1.1 front end over the async router.

No web framework, no new dependencies: :class:`HttpFrontEnd` speaks a
deliberately small slice of HTTP/1.1 (request line, headers,
``Content-Length`` bodies, keep-alive, pipelining) and serves
``/expand``, ``/search``, ``/batch_expand``, ``/stats``, ``/healthz``,
``/metrics`` and, with an :class:`~repro.updates.UpdateCoordinator`
attached, ``/admin/apply_delta`` and ``/admin/compact``.  Endpoints,
schemas, the JSON error envelope and the status codes are specified in
``docs/http_api.md`` (metric families in ``docs/observability.md``) —
change them together.

Parsing is sans-IO: :class:`HttpParser` does no I/O, keeps no clock
and uses no asyncio, and it owns every protocol limit.  A connection's
loop feeds it what the socket has and answers its events in order — a
:class:`Request` through :meth:`HttpFrontEnd._dispatch`, an
:class:`HttpError` counted and with ``Connection: close``.  Reads of a
partly received request run under one deadline, :data:`READ_TIMEOUT_S`
from its first byte; idle keep-alive waits have none.

Load shedding: with an :class:`~repro.service.admission.AdmissionPolicy`
attached, the query endpoints (:data:`SHEDDABLE_PATHS`) pass an
admission gate before any router work; a refusal is a structured 429
with ``Retry-After``, counted in ``repro_shed_total{reason}``.
Monitoring and admin endpoints are never shed.

Concurrency: the event loop parses and dispatches to an
:class:`~repro.service.async_router.AsyncShardRouter`, whose shard work
runs on executor threads or in worker processes, and which shares every
shard call already in flight between concurrent queries.

Start one with ``repro serve --http PORT`` (port 0 picks an ephemeral
port and prints it), or programmatically::

    front = HttpFrontEnd(AsyncShardRouter(router))
    server = await front.start("127.0.0.1", 8080)
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, replace

from repro.errors import DeltaError, ShardUnavailableError, StaleGenerationError
from repro.obs.logs import RequestLog
from repro.service.admission import (
    SHED_CLIENT_RATE,
    SHED_OVER_CAPACITY,
    AdmissionController,
    AdmissionPolicy,
)
from repro.service.async_router import AsyncShardRouter

__all__ = [
    "HttpFrontEnd", "HttpParser", "DEFAULT_MAX_BODY_BYTES", "SHEDDABLE_PATHS",
]

# Prometheus text exposition content type (the version is part of it).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

DEFAULT_MAX_BODY_BYTES = 1 << 20  # 1 MiB of JSON is already a huge batch
READ_TIMEOUT_S = 120.0  # a client's time to send one request, first byte on
HEAD_LIMIT = 64 * 1024  # request line, headers and the blank line
MAX_HEADERS = 128
DISCARD_LIMIT = 4 << 20  # most of an oversized body read before its 413
_MAX_TOP_K = 1000
_MAX_BATCH_QUERIES = 1024
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


@dataclass(frozen=True, slots=True)
class Request:
    """One whole request; header names are lower-cased, and the last of
    a repeated header wins."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


@dataclass(frozen=True, slots=True)
class HttpError:
    """A refused request, in the JSON error envelope's terms."""

    status: int
    code: str
    message: str


class HttpParser:
    """One connection's bytes to :class:`Request` / :class:`HttpError`.

    A head may hold :data:`HEAD_LIMIT` bytes and :data:`MAX_HEADERS`
    headers; ``Content-Length`` is ASCII digits (absent or empty is 0).
    A body over ``max_body_bytes`` is dropped, up to
    :data:`DISCARD_LIMIT` bytes, before its 413, so a client mid-send
    reads the answer instead of a reset.  Lines end in CRLF or LF, and
    blank lines before a request line are skipped.  An error is the last
    event: the stream cannot be resynchronised after one.
    """

    def __init__(self, max_body_bytes: int) -> None:
        self._max_body_bytes = max_body_bytes
        self._buf = bytearray()
        self._scanned = 0  # head bytes already searched for the blank line
        # The event waiting for its body — a Request keeps the body, a
        # 413 drops it — and how many body bytes are still to come.
        self._awaiting: tuple[Request | HttpError, int] | None = None
        self._failed = False

    @property
    def pending(self) -> bool:
        """Whether part of a request has arrived that no event answered."""
        return bool(self._buf) or self._awaiting is not None

    def feed(self, data: bytes) -> list[Request | HttpError]:
        """The events ``data`` completes, in order; never raises."""
        if self._failed:
            return []
        self._buf += data
        events: list[Request | HttpError] = []
        while (event := self._next()) is not None:
            events.append(event)
            if isinstance(event, HttpError):
                self._failed = True
                self._buf.clear()
                break
        return events

    def _next(self) -> Request | HttpError | None:
        if self._awaiting is None:
            head = self._head()
            if not isinstance(head, tuple):
                return head
            self._awaiting = head
        (event, size), buf = self._awaiting, self._buf
        if isinstance(event, Request):
            if len(buf) < size:
                return None
            event = replace(event, body=bytes(buf[:size]))
        elif len(buf) < size:
            self._awaiting = event, size - len(buf)
            buf.clear()
            return None
        del buf[:size]
        self._awaiting = None
        return event

    def _head(self) -> tuple[Request | HttpError, int] | HttpError | None:
        """``(event, body length)`` for the next whole head, an error, or
        None while the head is still arriving."""
        buf = self._buf
        if buf[:1] in (b"\r", b"\n"):
            del buf[:len(buf) - len(buf.lstrip(b"\r\n"))]
            self._scanned = 0
        start = max(self._scanned - 2, 0)
        ends = [
            (at, at + len(blank))
            for blank in (b"\n\r\n", b"\n\n")
            if (at := buf.find(blank, start, HEAD_LIMIT)) >= 0
        ]
        if not ends:
            self._scanned = len(buf)
            if len(buf) < HEAD_LIMIT:
                return None
            return HttpError(
                400, "bad_request", f"request head over {HEAD_LIMIT} bytes"
            )
        lines_end, head_end = min(ends)
        request_line, *lines = buf[:lines_end].decode("latin-1").split("\n")
        del buf[:head_end]
        self._scanned = 0
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return HttpError(400, "bad_request", "malformed request line")
        if len(lines) > MAX_HEADERS:
            return HttpError(
                400, "bad_request", f"more than {MAX_HEADERS} request headers"
            )
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "")
        if length and not (length.isascii() and length.isdigit()):
            return HttpError(400, "bad_request", "invalid Content-Length")
        length = int(length or 0)
        if length > self._max_body_bytes:
            return HttpError(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{self._max_body_bytes}-byte limit",
            ), min(length, DISCARD_LIMIT)
        return Request(parts[0].upper(), parts[1], headers), length


class _RequestError(Exception):
    """A request body that fails validation: a 400 with this code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


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
        echoed in ``/healthz`` beside the router's live
        ``snapshot_generation``.
    coordinator:
        Optional :class:`~repro.updates.UpdateCoordinator`.  When
        attached, the admin endpoints ``POST /admin/apply_delta`` and
        ``POST /admin/compact`` are served (``docs/live_updates.md``);
        without one they 404.
    request_log:
        The :class:`~repro.obs.logs.RequestLog` receiving one record per
        HTTP request (slow ones surface under ``/stats``); a silent one
        when omitted.
    admission:
        Optional load shedding: an
        :class:`~repro.service.admission.AdmissionPolicy` (a controller
        is built from it) or a prebuilt
        :class:`~repro.service.admission.AdmissionController`.  ``None``
        turns admission control off; no request is ever shed.
    max_body_bytes:
        Requests with a larger declared body are answered 413 without
        being processed.
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
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        self._idle: set[asyncio.StreamWriter] = set()  # between requests
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
        """Stop accepting connections and drain the open ones: idle
        keep-alive connections close at once, and one mid-request sends
        its response first, then closes."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._idle):
            writer.close()  # its handler reads EOF and exits
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    @property
    def service(self) -> AsyncShardRouter:
        return self._service

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
        self._conn_tasks.add(task)
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) and peername \
            else "unknown"
        parser = HttpParser(self._max_body_bytes)
        loop = asyncio.get_running_loop()
        # One deadline per request, from its first byte, so a stalled or
        # dribbling sender is cut off; an idle keep-alive wait has none.
        deadline = None
        try:
            # After stop(), only a request already in hand is read on.
            while deadline is not None or not self._closing:
                if deadline is None:
                    self._idle.add(writer)  # stop() may close it now
                async with asyncio.timeout_at(deadline):
                    data = await reader.read(HEAD_LIMIT)
                self._idle.discard(writer)
                if not data:
                    break
                arrived = loop.time() + READ_TIMEOUT_S
                events = parser.feed(data)
                if events or deadline is None:
                    deadline = arrived  # what the parser holds began here
                for event in events:
                    if isinstance(event, HttpError):
                        self._http_errors_metric.inc(status=str(event.status))
                        await self._send(
                            writer, event.status,
                            _error_body(event.code, event.message),
                            keep_alive=False,
                        )
                        return
                    # Admission keys on the declared client id, else the
                    # peer address, so an anonymous flood is not pooled.
                    client = event.headers.get("x-client-id", "").strip()
                    status, payload = await self._dispatch(
                        event.method, event.path, event.body,
                        client=client or peer,
                    )
                    await self._send(
                        writer, status, payload, keep_alive=event.keep_alive
                    )
                    if not event.keep_alive or self._closing:
                        return
                if not parser.pending:
                    deadline = None
        except (ConnectionError, TimeoutError):
            pass  # the client went away or stalled mid-request; drop it
        finally:
            self._idle.discard(writer)
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
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
        gated = (
            self._admission is not None and route is not None
            and method == route[0] and path in SHEDDABLE_PATHS
        )
        decision = self._admission.admit(client) if gated else None
        if decision is not None and not decision.admitted:
            self._shed_metric.inc(reason=decision.reason)
            status, payload = 429, _error_body(
                decision.reason, _SHED_MESSAGES[decision.reason]
            )
            payload["error"]["retry_after_s"] = round(decision.retry_after_s, 3)
        else:
            try:
                status, payload = await self._route(route, method, path, body)
            finally:
                if decision is not None:
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
            return 400, _error_body(exc.code, str(exc))
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
        fields = payload if isinstance(payload, dict) else {}
        query, stages = fields.get("query"), fields.get("stages")
        self._request_log.record(
            endpoint=path, latency_ms=latency_ms, status=status,
            query=query if isinstance(query, str) else None,
            trace_id=fields.get("trace_id"),
            stages=stages if isinstance(stages, dict) else None,
        )

    def _parse_json(self, body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _RequestError(
                "bad_request", f"request body is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise _RequestError(
                "bad_request", "request body must be a JSON object"
            )
        return payload

    @staticmethod
    def _query_field(payload: dict) -> str:
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise _RequestError(
                "invalid_request", "'query' must be a non-empty string"
            )
        return query

    @staticmethod
    def _top_k_field(payload: dict) -> int:
        top_k = payload.get("top_k", 10)
        if not isinstance(top_k, int) or isinstance(top_k, bool) \
                or not 1 <= top_k <= _MAX_TOP_K:
            raise _RequestError(
                "invalid_request",
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
                "invalid_request",
                "'queries' must be a non-empty list of non-empty strings",
            )
        if len(queries) > _MAX_BATCH_QUERIES:
            raise _RequestError(
                "invalid_request",
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
        router (batch members each count).
        """
        stats = self._service.stats()
        http = self._http_counts()
        supervisor = getattr(self._service, "supervisor", None)
        degraded = supervisor is not None and supervisor.degraded
        payload = {
            "status": "degraded" if degraded else "ok",
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
        """The whole stack's families as Prometheus text exposition;
        gauges that follow state are set here, at scrape time."""
        self._queue_depth_gauge.set(
            self._admission.queue_depth if self._admission is not None else 0
        )
        return self._service.router.render_metrics()

    async def _handle_apply_delta(self, payload: dict) -> dict:
        """Apply one delta batch to the live stack (docs/live_updates.md):
        ``deltas`` in wire form, validated against ``generation`` (read
        from ``/healthz``; a stale one is a 409)."""
        deltas = payload.get("deltas")
        if not isinstance(deltas, list) or not deltas:
            raise _RequestError(
                "invalid_request",
                "'deltas' must be a non-empty list of delta objects",
            )
        if len(deltas) > _MAX_DELTA_BATCH:
            raise _RequestError(
                "invalid_request",
                f"a delta batch may hold at most {_MAX_DELTA_BATCH} deltas",
            )
        generation = payload.get("generation")
        if generation is not None and (
            not isinstance(generation, int) or isinstance(generation, bool)
        ):
            raise _RequestError(
                "invalid_request", "'generation' must be an integer"
            )
        coordinator = self._coordinator
        return await asyncio.get_running_loop().run_in_executor(
            None, lambda: coordinator.apply(deltas, generation=generation)
        )

    async def _handle_compact(self, payload: dict) -> dict:
        """Fold the overlay into a new on-disk generation and hot-swap,
        then replay the recent queries into the restarted caches.  The
        body is an empty JSON object."""
        del payload  # no options yet; the empty object is the contract
        summary = await asyncio.get_running_loop().run_in_executor(
            None, self._coordinator.compact
        )
        summary["warmed_queries"] = await self.replay_recent()
        return summary
