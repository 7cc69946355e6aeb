"""Out-of-process shard worker: one shard served over the wire protocol.

A shard worker is a process that loads *one* shard of a
:class:`~repro.service.artifacts.ShardedSnapshot` and serves the
shard-protocol calls (``docs/shard_protocol.md``) over length-prefixed
JSON frames (:mod:`repro.service.wire`) on the same asyncio-streams
machinery the HTTP front end uses.  Start one with::

    python -m repro.cli shard-worker --snapshot DIR --shard 2 --port 0

``--port 0`` binds an ephemeral port; the worker prints a single ready
line (``shard-worker: shard 2 serving on 127.0.0.1:PORT pid=PID``) that
:class:`~repro.service.supervisor.ShardSupervisor` parses.

Connection lifecycle: the first frame on every connection must be a
``hello`` handshake carrying the peer's protocol version.  A mismatch
is answered with a clean error frame and the connection is closed —
version negotiation fails loudly instead of mis-decoding call frames.
The hello response carries static shard metadata (pid, document count,
segment token total) so a supervisor's liveness ping doubles as a
readiness check without touching the query calls.  A worker never links
(the router does, before it knows the owner shard), so it holds no
vocabulary.

Trace propagation (the PR-6 follow-up): a call frame may carry the
router's ``trace_id``; the worker executes the call inside a trace with
that id and returns its recorded spans in the response, which the
socket adapter replays into the router-side request trace — one
``/metrics`` scrape still sees the whole pipeline, processes included.

Conditional expansion fetch (protocol 3): every ``expand_seeds``
response carries an ``etag`` naming the result *object* the worker
answered with, and a request whose ``have`` names that same object is
answered ``not_modified`` without the body.  The worker stays the only
authority on freshness — a delta eviction, an LRU eviction, a restart
or a rolling reload each make the next answer a new object (or a new
process), hence a new token and a full body; the router never has to
invalidate anything itself.

Execution model: one thread owns the shard.  Every call, a mining miss
and ``apply_delta`` included, is answered on the event loop where its
frame was read, one at a time — pure-Python work the GIL would
serialise anyway, so a pool would only add hops and locks
(``docs/shard_protocol.md``).  A call waiting behind a long mine waits
for it, and so does the supervisor's liveness ping: a call that holds
the loop past that bound gets the worker killed and restarted.  The
router has already deduplicated concurrent mines of one seed set.

Fault injection (:mod:`repro.service.faults`) hooks in *here*, at the
frame layer — after a request is decoded, before it is dispatched — so
``tests/service/test_shard_faults.py`` can kill, stall, or corrupt a
specific call deterministically.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time

from repro.core.expansion import Expander, NeighborhoodCycleExpander
from repro.errors import ServiceError
from repro.obs import trace as tracing
from repro.service import wire
from repro.service.artifacts import ShardedSnapshot, SnapshotShard
from repro.service.cache import LRUCache
from repro.service.faults import FaultPlan
from repro.service.server import ExpansionService
from repro.service.wire import SHARD_PROTOCOL_VERSION

__all__ = ["make_shard_worker", "ShardWorkerServer", "run_worker"]

READY_LINE = "shard-worker: shard {shard} serving on {host}:{port} pid={pid}"


def make_shard_worker(
    shard: SnapshotShard,
    *,
    expander: Expander | None = None,
    expansion_cache_size: int = 1024,
) -> ExpansionService:
    """One shard's :class:`ExpansionService`, configured the router way.

    Shared by :class:`~repro.service.router.ShardRouter` (in-process
    workers, from ``snapshot.shard(i)``) and :class:`ShardWorkerServer`
    (worker processes, from ``ShardedSnapshot.load(dir, shard=i)``), so
    both deployments serve from identically configured workers: no
    linker and no document names (the router links and names), and
    empty index segments allowed.
    """
    return ExpansionService(
        shard.graph,
        shard.make_engine(),
        None,
        expander or NeighborhoodCycleExpander(),
        expansion_cache_size=expansion_cache_size,
        allow_empty_index=True,
        shard_id=shard.shard_id,
    )


class ShardWorkerServer:
    """Serve one shard worker's protocol calls over asyncio streams."""

    def __init__(
        self,
        worker: ExpansionService,
        shard_id: int,
        *,
        faults: FaultPlan | None = None,
        updater=None,
    ) -> None:
        self._worker = worker
        self._shard_id = shard_id
        self._faults = faults
        # Live-update receiver (repro.updates.ShardWorkerUpdater); a
        # server without one rejects apply_delta with an error frame.
        self._updater = updater
        self._server: asyncio.AbstractServer | None = None
        self.calls_served = 0
        # seeds -> (etag, result) of the last expand_seeds answer, for
        # the conditional fetch.  Holding the result keeps the identity
        # comparison sound (no id reuse); the nonce keeps tokens of a
        # restarted or reloaded worker from ever matching.
        self._etags = LRUCache(wire.EXPANSION_ETAG_ENTRIES)
        self._etag_nonce = os.urandom(6).hex()
        self._etag_counter = itertools.count(1)

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        self._server = await asyncio.start_server(self._serve_connection, host, port)
        return self._server

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _hello_response(self) -> dict:
        engine = self._worker.engine
        payload = {
            "ok": True,
            "protocol": SHARD_PROTOCOL_VERSION,
            "shard": self._shard_id,
            "pid": os.getpid(),
            "documents": engine.num_documents,
            "total_tokens": engine.index.total_tokens,
        }
        if self._updater is not None:
            payload["generation"] = self._updater.generation
            payload["delta_seq"] = self._updater.last_seq
        return payload

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            hello = await wire.read_frame(reader)
            if hello is None:
                return
            if hello.get("call") != "hello":
                await wire.write_frame(writer, _error_frame(
                    "protocol_error",
                    f"expected a hello handshake, got {hello.get('call')!r}",
                ))
                return
            if hello.get("protocol") != SHARD_PROTOCOL_VERSION:
                await wire.write_frame(writer, _error_frame(
                    "protocol_mismatch",
                    f"peer speaks shard protocol {hello.get('protocol')!r}, "
                    f"this worker speaks {SHARD_PROTOCOL_VERSION}",
                ))
                return
            await wire.write_frame(writer, self._hello_response())
            while True:
                request = await wire.read_frame(reader)
                if request is None:
                    return
                if not await self._serve_call(request, writer):
                    return
        except (
            wire.WireProtocolError, ConnectionResetError, BrokenPipeError,
        ):
            pass  # peer vanished or sent garbage; drop the connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_call(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one call frame; False closes the connection."""
        call = request.get("call")
        if call not in wire.CALLS:
            await wire.write_frame(
                writer, _error_frame("unknown_call", f"unknown call {call!r}")
            )
            return True
        fault = self._faults.check(call) if self._faults else None
        if fault is not None and fault.action == "kill":
            os._exit(17)  # a hard crash: no response, no cleanup
        if fault is not None and fault.action == "stall":
            time.sleep(fault.arg)  # holds the loop, as a slow mine does
        if fault is not None and fault.action == "garbage":
            # A well-framed body that is not JSON: exercises the
            # receiver's decode error path, not its length check.
            body = b"\xffgarbage\xfe"
            writer.write(len(body).to_bytes(4, "big") + body)
            await writer.drain()
            return False

        trace = tracing.Trace(trace_id=request.get("trace_id") or None)
        try:
            with tracing.start_trace(trace):
                response = self._dispatch(call, request)
        except Exception as exc:  # noqa: BLE001 — becomes an error frame
            response = _error_frame(type(exc).__name__, str(exc))
        else:
            response["spans"] = [span.as_dict() for span in trace.spans]
        self.calls_served += 1

        if fault is not None and fault.action == "short":
            frame = wire.encode_frame(response)
            writer.write(frame[: max(1, len(frame) // 2)])
            await writer.drain()
            return False
        await wire.write_frame(writer, response)
        return True

    # ------------------------------------------------------------------
    # Call dispatch (inside the call's trace, on the event loop)
    # ------------------------------------------------------------------

    def _dispatch(self, call: str, request: dict) -> dict:
        worker = self._worker
        if call == "expand_seeds":
            seeds = _seed_set(request["seeds"])
            expansion, cached = worker.expand_seeds(seeds)
            etag = self._etag_of(seeds, expansion)
            if request.get("have") == etag:
                return {"not_modified": True, "cached": cached, "etag": etag}
            return {
                "expansion": wire.encode_expansion(expansion),
                "cached": cached,
                "etag": etag,
            }
        if call == "leaf_collection_counts":
            root = wire.decode_query(request["root"])
            counts = worker.leaf_collection_counts(root)
            return {"counts": wire.encode_counts(counts)}
        if call == "search_with_background":
            results = worker.search_with_background(wire.SearchRequest(
                wire.decode_query(request["root"]),
                wire.decode_background(request["background"]),
                _json_int(request["top_k"], "top_k", 1),
            ))
            return {"results": wire.encode_results(results)}
        if call == "apply_delta":
            if self._updater is None:
                raise ServiceError(
                    "this shard worker was started without live-update "
                    "support (no delta updater attached)"
                )
            generation = request.get("generation")
            result = self._updater.apply_payloads(
                request["deltas"],
                generation=None if generation is None
                else _json_int(generation, "generation"),
            )
            return {"result": result}
        raise AssertionError(f"unreachable call {call!r}")

    def _etag_of(self, seeds: frozenset[int], expansion) -> str:
        """The token naming this exact result object for ``seeds``.

        A cache hit hands back the object a previous call saw, so its
        token is reused; a re-mined result is a new object and gets a
        new one.
        """
        held = self._etags.get(seeds)
        if held is not None and held[1] is expansion:
            return held[0]
        etag = f"{self._etag_nonce}:{next(self._etag_counter)}"
        self._etags.put(seeds, (etag, expansion))
        return etag


def _json_int(value, name: str, minimum: int = 0) -> int:
    """``value`` if it is a JSON integer of at least ``minimum``; a bool,
    a float or a numeric string is the call's ValueError."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name!r} must be an integer >= {minimum}, got {value!r}")
    return value


def _seed_set(values) -> frozenset[int]:
    """The ``seeds`` field: a JSON list of integer article ids."""
    if not isinstance(values, list):
        raise TypeError(f"'seeds' must be a list, got {type(values).__name__}")
    return frozenset(_json_int(value, "seed") for value in values)


def _error_frame(error_type: str, message: str) -> dict:
    return {"error": {"type": error_type, "message": message}}


def run_worker(
    snapshot_dir: str,
    shard_id: int,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    fault_spec: str = "",
) -> int:
    """Load one shard and serve it until interrupted (the CLI entry).

    ``snapshot_dir`` is the snapshot *root*: the loader follows its
    ``CURRENT`` generation pointer, verifies every artefact's checksum
    and materialises only this shard's parts (no vocabulary, no document
    names, no other segment).  Any delta-log segments of the loaded
    generation are replayed before the socket opens — a restarted worker
    catches up to the batches its peers applied live
    (``docs/live_updates.md``).
    """
    from repro.updates import DeltaLog, ShardWorkerUpdater

    shard = ShardedSnapshot.load(snapshot_dir, shard=shard_id)
    faults = FaultPlan.from_spec(fault_spec) if fault_spec \
        else FaultPlan.from_env()
    worker = make_shard_worker(shard)
    updater = ShardWorkerUpdater(worker, shard.graph, generation=shard.generation)
    pending = DeltaLog(snapshot_dir).replay(shard.generation)
    if pending:
        updater.apply(pending)
    server = ShardWorkerServer(
        worker, shard_id, faults=faults or None, updater=updater
    )

    async def serve() -> None:
        bound = await server.start(host, port)
        print(
            READY_LINE.format(
                shard=shard_id, host=host, port=server.port, pid=os.getpid()
            ),
            flush=True,
        )
        async with bound:
            await bound.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0
