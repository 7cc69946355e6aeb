"""Live-update orchestration: apply deltas, invalidate, compact, swap.

:class:`UpdateCoordinator` owns the mutable half of a serving stack
built from frozen artefacts.  It keeps one :class:`OverlayState` and
publishes it through one :class:`OverlayGraphView` over the one
immutable base the stack reads, the snapshot's
:class:`~repro.wiki.compact.CompactGraphView` — linking and
``build_query`` titles at the router, cycle mining and expansion titles
in the workers — so a batch becomes visible to every layer in one
reference swap (:meth:`~repro.service.router.ShardRouter.apply_overlay`).

``apply`` is the write path: validate the batch against the serving
generation (:class:`~repro.errors.StaleGenerationError` on mismatch),
fold it into a copy-on-write successor state, durably append it to the
:class:`~repro.updates.log.DeltaLog` *before* publishing, patch the
entity linker only when the title surface changed, evict exactly the
expansion-cache entries whose seeds fall inside the delta ball
(:mod:`repro.updates.invalidation`), publish, and fan the batch out to
supervised socket workers (which apply it idempotently by sequence
number; a worker that misses it replays the log on its next restart).

``compact`` is the fold: materialise base+overlay into a plain
:class:`~repro.wiki.graph.WikiGraph`, freeze it, rebuild the
linker vocabulary, and save the result as generation N+1 under
``gen-NNNN/`` with the ``CURRENT`` pointer flipped atomically
(:func:`~repro.service.artifacts.write_current_pointer`).  The router
hot-swaps in place — caches survive, because the overlay it was serving
is bit-identical to the compacted base — the delta log resets, workers
rolling-restart onto the new generation, and the recency set of the
request log is saved beside the snapshot.  Re-warming the caches that
serve is the front end's half (``POST /admin/compact`` replays the
recent queries through the async router, worker processes included).

Deltas only ever touch the *graph*; index segments, document names and
``mu`` ride through compaction untouched by construction.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.errors import DeltaError, StaleGenerationError
from repro.obs.trace import Trace, current_trace, span, start_trace
from repro.service import wire
from repro.service.artifacts import (
    ShardedSnapshot,
    generation_dir_name,
    write_current_pointer,
)
from repro.service.supervisor import CALL_DEADLINE_S
from repro.service.wire import SHARD_PROTOCOL_VERSION
from repro.updates.deltas import Delta, decode_deltas
from repro.updates.invalidation import (
    changed_nodes,
    delta_ball,
    deltas_touch_titles,
    expansion_eviction_predicate,
)
from repro.updates.log import DeltaLog
from repro.updates.overlay import (
    OverlayGraphView,
    OverlayState,
    apply_deltas,
    materialize_graph,
)

__all__ = ["UpdateCoordinator", "ShardWorkerUpdater", "fold_batch"]

# Sockets used for the worker fan-out are short-lived and blocking, and
# bounded like every other worker call (CALL_DEADLINE_S); a worker that
# cannot take a delta within it is left to catch up from the log on its
# next restart.
_FANOUT_ATTEMPTS = 3


def fold_batch(base, state: OverlayState, deltas, generation=None):
    """The pure half of a write, shared by coordinator and workers.

    Validates ``deltas`` against ``base`` + ``state`` (and ``generation``,
    the one the client validated against, against the state's:
    :class:`StaleGenerationError`) and folds them into a copy-on-write
    successor; publishes nothing.  Returns ``(new_state, applied,
    ball)``: the delta ball, walked over ``base``'s CSR rows when it is
    a frozen graph.  Work follows the batch and its ball, not the graph.
    """
    if generation is not None and int(generation) != state.generation:
        raise StaleGenerationError(state.generation, generation)
    with span("validate"):
        new_state, applied = apply_deltas(base, state, deltas)
    ball = frozenset()
    if applied:
        with span("ball") as labels:
            ball = delta_ball(
                changed_nodes(applied),
                before=OverlayGraphView(base, state),
                after=OverlayGraphView(base, new_state),
            )
            labels.update(size=len(ball), touched=len(new_state.touched))
    return new_state, applied, ball


def successor_linker(linker, base, state: OverlayState, new_state, applied):
    """The router's half of a write: the successor of the serving
    ``linker`` once ``applied`` folded ``state`` into ``new_state`` over
    ``base`` — patched (a rescan only when a key's owner was removed)
    when the title surface changed, else ``None``.  Only the router
    links, so no shard worker runs this (the ``linker`` write stage)."""
    with span("linker") as labels:
        if not deltas_touch_titles(applied):
            return None
        after = OverlayGraphView(base, new_state)
        new_linker = linker.patched(after, applied, OverlayGraphView(base, state))
        labels["patched"] = new_linker is not None
        return linker.rebuilt(after) if new_linker is None else new_linker


class UpdateCoordinator:
    """Drive live updates for one :class:`ShardRouter` serving stack.

    Parameters
    ----------
    router:
        The (synchronous) shard router under the serving stack.  The
        async front end shares its caches and counters, so updates
        published here are visible on every surface.
    snapshot_dir:
        The snapshot *root* directory (the one holding the ``CURRENT``
        pointer once compaction has run).  Enables the durable delta
        log and on-disk compaction; ``None`` keeps everything in memory
        (tests, ephemeral stacks).  The batches the log already holds
        for the serving generation are folded in and published before
        the constructor returns, so a restarted process resumes at the
        acknowledged ``last_seq``.
    supervisor:
        The :class:`~repro.service.supervisor.ShardSupervisor` when
        shard workers run out of process; applied batches fan out to
        every worker and compaction rolling-restarts them.
    request_log:
        The front end's :class:`~repro.obs.logs.RequestLog`; compaction
        saves its recency set beside the snapshot.
    """

    def __init__(
        self,
        router,
        *,
        snapshot_dir: str | Path | None = None,
        supervisor=None,
        request_log=None,
    ) -> None:
        self._router = router
        self._snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self._supervisor = supervisor
        self._request_log = request_log
        self._log = DeltaLog(self._snapshot_dir) if self._snapshot_dir else None
        self._lock = threading.Lock()
        self._state = OverlayState(generation=router.generation)
        self._metrics = router.metrics
        if self._log is not None:
            self._replay_log()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        return self._state.generation

    @property
    def last_seq(self) -> int:
        return self._state.last_seq

    @property
    def state(self) -> OverlayState:
        return self._state

    @property
    def delta_log(self) -> DeltaLog | None:
        return self._log

    def describe(self) -> dict:
        state = self._state
        return {
            "generation": state.generation,
            "last_seq": state.last_seq,
            "overlay_empty": state.is_empty,
            "touched_nodes": len(state.touched),
            "log_segments": len(self._log.segments()) if self._log else 0,
        }

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------

    def apply(self, payloads: list[dict], *, generation: int | None = None) -> dict:
        """Validate, persist, publish and fan out one delta batch.

        ``payloads`` is the JSON wire form (``Delta.to_payload``);
        ``generation`` is the generation the client validated against —
        a mismatch with the serving generation raises
        :class:`StaleGenerationError` (HTTP 409) without touching any
        state.  Re-submitting an already-applied batch is a no-op
        (idempotent by sequence number).
        """
        deltas = decode_deltas(payloads)
        trace = current_trace() or Trace()
        mark = len(trace.spans)
        with self._lock, start_trace(trace):
            summary = self._apply_locked(deltas, generation)
        stages = summary["stages_ms"] = {}
        for entry in trace.spans[mark:]:  # one span per write stage
            stages[entry.stage] = round(entry.duration_ms, 3)
            self._metrics.apply_stage_latency.observe(
                entry.duration_ms / 1000.0, stage=entry.stage
            )
        return summary

    def _apply_locked(self, deltas: list[Delta], generation) -> dict:
        router = self._router
        base = router.snapshot.graph
        new_state, applied, ball = fold_batch(base, self._state, deltas, generation)
        evicted = {"expansion": 0, "link": 0}
        stale_workers: list[int] = []
        if applied:
            linker = successor_linker(
                router.linker, base, self._state, new_state, applied
            )
            # Durability before visibility: once a batch is published, a
            # restarted worker must be able to replay it.
            with span("log"):
                if self._log is not None:
                    self._log.append(new_state.generation, applied)
            with span("publish"):
                router.apply_overlay(
                    OverlayGraphView(base, new_state),
                    linker=linker, delta_seq=new_state.last_seq,
                )
                self._state = new_state
            with span("evict"):
                evicted["expansion"] = router.evict_expansions(
                    expansion_eviction_predicate(ball)
                )
                if linker is not None:
                    evicted["link"] = router.evict_links()
            with span("fanout"):
                stale_workers, worker_evicted = self._fan_out(
                    applied, new_state.generation
                )
            if self._supervisor is not None:
                # The worker processes hold the expansion caches that
                # serve; the router's in-process ones sit idle.
                evicted["expansion"] = worker_evicted
            for cache, count in evicted.items():
                self._metrics.delta_invalidations.inc(count, cache=cache)
        # One shape, applied or replayed (all-skipped: empty ball).
        return {
            "generation": new_state.generation,
            "applied": len(applied),
            "skipped": len(deltas) - len(applied),
            "last_seq": new_state.last_seq,
            "ball_size": len(ball),
            "invalidated": evicted,
            "stale_workers": stale_workers,
        }

    # ------------------------------------------------------------------
    # Compaction + hot swap
    # ------------------------------------------------------------------

    def compact(self) -> dict:
        """Fold the overlay into generation N+1 and hot-swap onto it.

        Returns a summary even when the overlay is empty (compaction is
        then a generation bump — still useful to force a clean on-disk
        baseline).  The order is crash-safe: the new generation
        directory is complete before ``CURRENT`` flips, and the delta
        log resets only after the pointer is durable (stale-generation
        segments are ignored by replay anyway).
        """
        with self._lock:
            router = self._router
            state = self._state
            old_generation = state.generation
            new_generation = old_generation + 1
            folded_seq = state.last_seq

            overlay = OverlayGraphView(router.snapshot.graph, state)
            new_graph = materialize_graph(overlay)

            linker = router.linker.rebuilt(new_graph)
            old_snapshot = router.snapshot
            new_snapshot = ShardedSnapshot(
                graph=new_graph,
                segments=old_snapshot.segments,
                title_index=linker.vocabulary(),
                doc_names=old_snapshot.doc_names,
                mu=old_snapshot.mu,
                generation=new_generation,
            ).frozen()

            if self._snapshot_dir is not None:
                gen_dir = self._snapshot_dir / generation_dir_name(new_generation)
                new_snapshot.save(gen_dir)
                write_current_pointer(self._snapshot_dir, new_generation)
            dropped_segments = self._log.reset() if self._log else 0

            router.swap_snapshot(new_snapshot)
            self._state = OverlayState(generation=new_generation)

            if self._supervisor is not None:
                # Workers re-resolve CURRENT on exec, so the rolling
                # restart lands every process on the new generation.
                self._supervisor.reload()
            if self._request_log is not None and self._snapshot_dir is not None:
                # Compaction is the durable checkpoint of the serving
                # state, so the warm-up set rides along: a process that
                # restarts after this point cold-starts into the same
                # hot queries (docs/operations.md, "cold starts").
                try:
                    self._request_log.save_recent(self._snapshot_dir)
                except OSError:
                    pass  # persistence is best-effort; serving goes on

        return {
            "generation": new_generation,
            "previous_generation": old_generation,
            "folded_seq": folded_seq,
            "log_segments_dropped": dropped_segments,
            "saved": self._snapshot_dir is not None,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _replay_log(self) -> None:
        """Publish what the log holds for the serving generation: the
        write path minus its log append and its fan-out (each worker
        process replays the same log when it starts)."""
        pending = self._log.replay(self._state.generation)
        if not pending:
            return
        router = self._router
        base = router.snapshot.graph
        new_state, applied, ball = fold_batch(base, self._state, pending)
        linker = successor_linker(router.linker, base, self._state, new_state, applied)
        router.apply_overlay(
            OverlayGraphView(base, new_state), linker=linker, delta_seq=new_state.last_seq,
        )
        self._state = new_state
        router.evict_expansions(expansion_eviction_predicate(ball))

    def _fan_out(
        self, deltas: list[Delta], generation: int
    ) -> tuple[list[int], int]:
        """Push one applied batch to every supervised socket worker.

        Returns the shards that could not be reached — their durable log
        entry makes the next restart heal them; callers surface the list
        so operators can force a restart instead of waiting — and the
        expansion entries the reached workers evicted.
        """
        if self._supervisor is None:
            return [], 0
        payloads = [delta.to_payload() for delta in deltas]
        counts = [
            self._push_to_worker(shard_id, payloads, generation)
            for shard_id in range(self._supervisor.num_shards)
        ]
        stale = [shard_id for shard_id, n in enumerate(counts) if n is None]
        return stale, sum(n for n in counts if n is not None)

    def _push_to_worker(
        self, shard_id: int, payloads: list[dict], generation: int
    ) -> int | None:
        """The worker's eviction count, or None if it was not reached."""
        frame = {
            "call": "apply_delta", "protocol": SHARD_PROTOCOL_VERSION,
            "generation": generation, "deltas": payloads,
        }
        for _ in range(_FANOUT_ATTEMPTS):
            try:
                _hello, response = wire.blocking_call(
                    self._supervisor.endpoint(shard_id), frame,
                    timeout=CALL_DEADLINE_S,
                )
                if response.get("error") is None:
                    return int(response["result"]["invalidated"])
            except Exception:  # noqa: BLE001 — transport errors retry
                continue
        return None


class ShardWorkerUpdater:
    """Worker-process side of live updates: one shard's overlay.

    A :class:`~repro.service.shard_worker.ShardWorkerServer` holds one
    of these over its :class:`~repro.service.server.ExpansionService`
    and the snapshot's frozen compact graph.  ``apply`` runs the
    coordinator's :func:`fold_batch` and the same targeted eviction, so
    a worker that applied batches live answers bit-identically to one
    that replayed them from the log after a restart.  A worker holds no
    linker, so it folds state and ball only.  Batches are applied one at
    a time on the worker's event loop, so nothing here is locked.
    """

    def __init__(self, worker, base_graph, *, generation: int = 1) -> None:
        self._worker = worker
        self._base = base_graph
        self._state = OverlayState(generation=generation)

    @property
    def generation(self) -> int:
        return self._state.generation

    @property
    def last_seq(self) -> int:
        return self._state.last_seq

    def apply_payloads(
        self, payloads: list[dict], *, generation: int | None = None
    ) -> dict:
        if not isinstance(payloads, list):
            raise DeltaError("'deltas' must be a list of delta objects")
        return self.apply(decode_deltas(payloads), generation=generation)

    def apply(self, deltas: list[Delta], *, generation: int | None = None) -> dict:
        worker = self._worker
        new_state, applied, ball = fold_batch(
            self._base, self._state, deltas, generation
        )
        evicted = 0
        if applied:
            worker.set_graph(OverlayGraphView(self._base, new_state))
            self._state = new_state
            evicted = worker.evict_expansions(
                expansion_eviction_predicate(ball)
            )
        return {
            "generation": new_state.generation,
            "applied": len(applied),
            "last_seq": new_state.last_seq,
            "ball_size": len(ball),
            "invalidated": evicted,
        }
