"""Socket-backed shard adapter: one deadline, retries, fallback.

:class:`SocketShardAdapter` is the drop-in replacement for
:class:`~repro.service.async_router.ExecutorShardAdapter` that speaks
the versioned wire protocol (``docs/shard_protocol.md``) to a
:mod:`repro.service.shard_worker` process instead of calling an
in-process worker.  The three protocol methods have identical signatures
and return identical values — bit-identical doc ids and scores is the
acceptance bar, asserted per query in the latency bench — so
:class:`~repro.service.async_router.AsyncShardRouter` cannot tell the
two apart.

What is genuinely new here is the robustness layer a remote shard
needs:

* **One bound** — the supervisor's liveness ping kills a worker whose
  loop a call holds too long.  Every attempt's deadline,
  :data:`~repro.service.supervisor.CALL_DEADLINE_S`, is derived from it
  so that it only bounds a peer no supervisor watches
  (``connect_timeout_s`` bounds dialing).
* **Retries** — transport failures (connect refused, torn frames,
  deadlines, a worker killed mid-call) are retried on a *fresh*
  connection with bounded exponential backoff.  Safe unconditionally:
  every protocol call is a pure function of snapshot + arguments.  An
  *error frame* from a live worker
  (:class:`~repro.errors.WorkerCallError`) is never retried — the
  worker would deterministically fail again.
* **Graceful degradation** — when every attempt fails the call raises
  :class:`~repro.errors.ShardUnavailableError`.  For the two *rank*
  calls the adapter can instead fall back to a router-local
  ``fallback_engine`` (the router keeps the snapshot loaded, so
  queries owned by healthy shards stay bit-identical while one shard
  is down); ``expand_seeds`` has no fallback by design — the owner
  shard's expansion cache is the whole point — so dead-shard-owned
  queries surface as a structured 503 at the HTTP layer.

Two things keep a cached query cheap on the wire.  ``expand_seeds`` is
a *conditional fetch*: the adapter remembers the last decoded expansion
per seed set with the ``etag`` the worker gave it, offers that token as
``have``, and skips the body and its decode when the worker answers
``not_modified`` (the worker alone decides — this memo is never
invalidated from the router side).  And a ``search_with_background``
fan-out shares one :class:`~repro.service.wire.SearchRequest`, so its
frame is encoded once per request, not once per shard; every attempt
runs in the caller's task, so a cached request creates none.

Worker spans ride home in each response (``spans``) and are replayed
into the active request trace, so one ``/metrics`` scrape still sees
``expand``/``cycle_mine``/``rank`` per shard with workers out
of process.  Each attempt also records a ``wire`` span of its own
(``call``, ``bytes_out``, ``bytes_in``, and ``not_modified`` on
``expand_seeds``): the round trip as the router saw it, worker time
included.

Loop affinity matches the async router: one adapter belongs to one
event loop; counters (``connects_total``, ``retries_total``,
``fallback_calls_total``) are mutated loop-side only, no locks.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable

from repro.errors import (
    ShardUnavailableError,
    WireProtocolError,
    WorkerCallError,
)
from repro.obs import trace as tracing
from repro.service import wire
from repro.service.cache import LRUCache
from repro.service.supervisor import CALL_DEADLINE_S
from repro.service.wire import SHARD_PROTOCOL_VERSION

__all__ = ["ShardCallPolicy", "SocketShardAdapter"]

# Endpoint resolver: returns the worker's current (host, port) — a
# callable, not a constant, because a supervised worker changes ports
# across restarts.  Raises ShardUnavailableError while the worker has
# no serving address (restarting, or past its restart budget).
Endpoint = Callable[[], tuple[str, int]]

# Idle connections kept per adapter.  One is dialed only while every
# other is in use, so the pool holds as many as were ever in use at once.
_MAX_IDLE_CONNECTIONS = 16


@dataclass(frozen=True, slots=True)
class ShardCallPolicy:
    """Retry knobs for one shard's calls (see ``docs/operations.md``):
    three attempts with sub-second backoff.  The per-attempt deadline is
    not a knob: it is derived from the supervisor's liveness ping."""

    connect_timeout_s: float = 2.0
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_max_s: float = 1.0

    def backoff_s(self, retry_index: int) -> float:
        """Delay before retry ``retry_index`` (1-based), capped."""
        return min(
            self.backoff_base_s * (2 ** (retry_index - 1)), self.backoff_max_s
        )


class SocketShardAdapter:
    """The three shard-protocol query calls over a supervised worker socket."""

    def __init__(
        self,
        endpoint: Endpoint,
        shard_id: int,
        *,
        policy: ShardCallPolicy | None = None,
        fallback_engine=None,
    ) -> None:
        self._endpoint = endpoint
        self._shard_id = shard_id
        self._policy = policy or ShardCallPolicy()
        self._fallback_engine = fallback_engine
        # Idle connections; a restarted worker invalidates them all, which
        # surfaces as one transport error → drop them, retry on fresh.
        # Each (loop, reader, writer) entry remembers its owning loop:
        # callers like asyncio.run give every call a fresh loop, and a
        # stream must never be reused outside the loop that created it.
        self._pool: list[tuple] = []
        self.connects_total = 0
        self.retries_total = 0
        self.fallback_calls_total = 0
        # seeds -> (etag, decoded ExpansionResult): what the worker last
        # sent for these seeds, reused only when it says not_modified.
        self._expansions = LRUCache(wire.EXPANSION_ETAG_ENTRIES)

    # ------------------------------------------------------------------
    # The three protocol calls
    # ------------------------------------------------------------------

    async def expand_seeds(self, seeds: frozenset[int]):
        # No fallback: expansion belongs to the owner shard (its
        # cache).  A dead owner means a structured 503 upstream.
        payload: dict = {"seeds": sorted(seeds)}
        held = self._expansions.get(seeds)
        if held is not None:
            payload["have"] = held[0]
        response = await self._call("expand_seeds", payload)
        if held is not None and response.get("not_modified"):
            expansion = held[1]
        else:
            expansion = wire.decode_expansion(response["expansion"])
            self._expansions.put(seeds, (str(response["etag"]), expansion))
        return expansion, bool(response["cached"])

    async def leaf_collection_counts(self, root) -> dict:
        try:
            response = await self._call(
                "leaf_collection_counts", {"root": wire.encode_query(root)}
            )
        except ShardUnavailableError:
            return self._fallback(
                "counts", lambda engine: engine.leaf_collection_counts(root)
            )
        return wire.decode_counts(response["counts"])

    async def search_with_background(self, request: wire.SearchRequest):
        try:
            response = await self._call("search_with_background", request)
        except ShardUnavailableError:
            return self._fallback(
                "score",
                lambda engine: engine.search_with_background(
                    request.root, request.background, request.top_k
                ),
            )
        return wire.decode_results(response["results"])

    def close(self) -> None:
        """Drop pooled connections (call from the owning loop's thread)."""
        while self._pool:
            _, _, writer = self._pool.pop()
            self._safe_close(writer)

    # ------------------------------------------------------------------
    # Call machinery: retries around deadline-bounded attempts
    # ------------------------------------------------------------------

    async def _call(self, call: str, payload) -> dict:
        """``payload``: the call's fields, or the fan-out's shared
        :class:`~repro.service.wire.SearchRequest` (one frame for all)."""
        trace = tracing.current_trace()
        trace_id = None if trace is None else trace.trace_id
        frame = (
            payload.call_frame(trace_id)
            if isinstance(payload, wire.SearchRequest)
            else wire.encode_call(call, payload, trace_id)
        )
        policy = self._policy
        last_exc: Exception | None = None
        for attempt in range(policy.max_attempts):
            if attempt:
                self.retries_total += 1
                await asyncio.sleep(policy.backoff_s(attempt))
            try:
                async with asyncio.timeout(CALL_DEADLINE_S):
                    response = await self._attempt_once(call, frame)
            except WorkerCallError:
                raise  # the worker answered: deterministic, not transient
            except (
                WireProtocolError,
                ShardUnavailableError,
                ConnectionError,
                TimeoutError,
                OSError,
            ) as exc:
                last_exc = exc
                self.close()  # its idle siblings are as old: don't try each
                continue
            self._replay_spans(trace, response)
            return response
        if isinstance(last_exc, ShardUnavailableError):
            raise last_exc
        raise ShardUnavailableError(
            self._shard_id,
            f"shard {self._shard_id} unreachable after "
            f"{policy.max_attempts} attempt(s): {last_exc}",
        ) from last_exc

    async def _attempt_once(self, call: str, frame: bytes) -> dict:
        with tracing.span(
            "wire", shard=self._shard_id, call=call,
            bytes_out=len(frame), bytes_in=0,
        ) as span:
            conn = self._pool_get() or await self._connect()
            reader, writer = conn
            try:
                writer.write(frame)
                await writer.drain()
                body = await wire.read_frame_body(reader)
                if body is None:
                    raise WireProtocolError(
                        f"shard {self._shard_id}: connection closed before "
                        "the response frame"
                    )
                span["bytes_in"] = wire.FRAME_PREFIX_BYTES + len(body)
                response = wire.decode_frame_body(body)
            except BaseException:  # includes the deadline's cancellation
                writer.close()
                raise
            if call == "expand_seeds":
                span["not_modified"] = bool(response.get("not_modified"))
        self._pool_put(conn)  # an error frame still ends a clean exchange
        error = response.get("error")
        if error is not None:
            raise WorkerCallError(
                self._shard_id,
                str(error.get("type")),
                str(error.get("message")),
            )
        return response

    async def _connect(self):
        host, port = self._endpoint()
        self.connects_total += 1
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), self._policy.connect_timeout_s
        )
        try:
            await wire.write_frame(
                writer, {"call": "hello", "protocol": SHARD_PROTOCOL_VERSION}
            )
            wire.check_hello(await wire.read_frame(reader), self._shard_id)
        except BaseException:  # no handshake, no connection
            writer.close()
            raise
        return reader, writer

    def _pool_get(self):
        loop = asyncio.get_running_loop()
        while self._pool:
            conn_loop, reader, writer = self._pool.pop()
            if conn_loop is loop and not reader.at_eof():
                return reader, writer
            self._safe_close(writer)  # an earlier, dead loop's, or hung up
        return None

    def _pool_put(self, conn) -> None:
        if len(self._pool) < _MAX_IDLE_CONNECTIONS:
            self._pool.append((asyncio.get_running_loop(), *conn))
        else:
            conn[1].close()

    @staticmethod
    def _safe_close(writer) -> None:
        try:
            writer.close()
        except RuntimeError:
            pass  # the owning loop is gone; the socket dies with it

    def _replay_spans(self, trace, response: dict) -> None:
        """Fold worker-side spans into the router's request trace.

        Only durations and labels replay (offsets are meaningless across
        clocks), which is all :meth:`ServingMetrics.observe_request`
        folds into histograms.
        """
        spans = response.pop("spans", None)
        if trace is None or not spans:
            return
        for item in spans:
            try:
                labels = dict(item.get("labels", {}))
                trace.add(
                    str(item["stage"]),
                    float(item["duration_ms"]),
                    shard=item.get("shard"),
                    **labels,
                )
            except (KeyError, TypeError, ValueError):
                continue  # a garbled span is not worth failing a call

    def _fallback(self, phase: str, run):
        """Serve a rank call from the router-local engine, traced, where
        the caller stands (on the loop)."""
        if self._fallback_engine is None:
            raise ShardUnavailableError(
                self._shard_id,
                f"shard {self._shard_id} is unavailable and no local "
                "fallback engine is configured",
            )
        self.fallback_calls_total += 1
        with tracing.span("rank", shard=self._shard_id, phase=phase, fallback=True):
            return run(self._fallback_engine)

    def __repr__(self) -> str:
        return (
            f"SocketShardAdapter(shard={self._shard_id}, "
            f"retries={self.retries_total})"
        )
