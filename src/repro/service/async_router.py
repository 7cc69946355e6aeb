"""Asyncio serving over the shard router.

:class:`AsyncShardRouter` is the non-blocking driver of the router's
query plan (:meth:`ShardRouter.query_plan
<repro.service.router.ShardRouter.query_plan>`): the same link → expand
→ rank steps the synchronous router executes in order, but every shard
call runs through a *shard adapter* and each step's fan-out is awaited
together.  While one request's cycle mining sits on a shard
thread (or in a worker process), the event loop keeps accepting and
dispatching other requests — this is the front end the HTTP layer
(:mod:`repro.service.http`) serves from.

Results are bit-identical (doc ids AND scores) to the synchronous
router: there is one plan, and this module only decides how its steps
reach the shards; the latency bench asserts the equality over HTTP.

One dedup layer: a loop-side table of in-flight shard calls, keyed on
``(call, shard, argument)`` and read before any thread or socket is
used.  A request whose call is in flight awaits it instead of sending
its own: texts that link to one seed set pay one mine (a joiner answers
``expansion_cached: true``), and equal roots one probe and one rank
fan-out, in process and over the wire.  A shared call lives while a
request awaits it; the last awaiter to be cancelled cancels it.

:class:`ExecutorShardAdapter` exposes exactly the three shard-protocol
query calls (``expand_seeds``, ``leaf_collection_counts``,
``search_with_background``) of an in-process worker as awaitables.
``docs/shard_protocol.md`` specifies the same three calls as a
versioned JSON wire protocol, which
:class:`~repro.service.socket_adapter.SocketShardAdapter` speaks to a
worker process.

Loop affinity: one ``AsyncShardRouter`` belongs to one event loop
(the in-flight table is mutated loop-side without locks); the executor
threads only ever run the shard calls and link misses.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor

from repro.obs import trace as tracing
from repro.service.router import ShardRouter
from repro.service.server import ServiceResponse

__all__ = ["AsyncShardRouter", "ExecutorShardAdapter", "SHARD_ADAPTER_ENV"]

# Setting this to "socket" makes every AsyncShardRouter construct its
# shard adapters over supervised out-of-process workers instead of the
# in-process executor — the switch the CI socket-adapter leg flips to
# re-run the whole service suite against the wire protocol.
SHARD_ADAPTER_ENV = "REPRO_SHARD_ADAPTER"

# Snapshot directories exported for env-driven socket mode, keyed by
# snapshot identity (a strong reference keeps id() stable).  Routers
# over the same snapshot share one on-disk copy per process.
_SNAPSHOT_EXPORTS: dict[int, tuple[object, tempfile.TemporaryDirectory]] = {}


def _export_snapshot_dir(snapshot) -> str:
    entry = _SNAPSHOT_EXPORTS.get(id(snapshot))
    if entry is not None and entry[0] is snapshot:
        return entry[1].name
    tmp = tempfile.TemporaryDirectory(prefix="repro-snapshot-")
    snapshot.save(tmp.name)
    _SNAPSHOT_EXPORTS[id(snapshot)] = (snapshot, tmp)
    return tmp.name


class ExecutorShardAdapter:
    """The three shard-protocol query calls as awaitables over one worker.

    This is the seam where a shard stops being an object and becomes an
    address: the async router only ever talks to adapters, and an
    adapter that serialises these three calls over a socket (per
    ``docs/shard_protocol.md``) turns the in-process worker into a
    remote process without touching the router.  The worker records its
    own spans; an in-process call has no transport to fail or retry.
    """

    def __init__(self, worker, executor: ThreadPoolExecutor) -> None:
        self._worker = worker
        self._executor = executor

    async def _call(self, call: str, argument):
        # Executor threads run callables with an empty context; carry the
        # caller's across so spans recorded on the shard thread (expand,
        # cycle_mine, rank) land in the active request's trace.
        return await asyncio.get_running_loop().run_in_executor(
            self._executor,
            tracing.carry_context(getattr(self._worker, call)),
            argument,
        )

    async def expand_seeds(self, seeds):
        return await self._call("expand_seeds", seeds)

    async def leaf_collection_counts(self, root):
        return await self._call("leaf_collection_counts", root)

    async def search_with_background(self, request):
        return await self._call("search_with_background", request)

    def close(self) -> None:
        """Nothing to release: the executor belongs to the router."""


class AsyncShardRouter:
    """Non-blocking facade over a :class:`ShardRouter`.

    Wraps an existing router (caches, workers and counters are shared
    with the synchronous surface — a query served here hits the same
    per-shard expansion caches and is counted in the same
    :attr:`~repro.service.router.ShardRouter.metrics`).
    """

    def __init__(
        self,
        router: ShardRouter,
        *,
        adapters=None,
        supervisor=None,
        policy=None,
    ) -> None:
        self._router = router
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, router.num_shards),
            thread_name_prefix="async-shard",
        )
        self._supervisor = supervisor
        self._own_supervisor = False
        if (
            adapters is None
            and supervisor is None
            and os.environ.get(SHARD_ADAPTER_ENV, "").strip().lower() == "socket"
        ):
            self._supervisor = self._spawn_supervisor()
            self._own_supervisor = True
        if adapters is None and self._supervisor is not None:
            adapters = self._socket_adapters(self._supervisor, policy)
        self._adapters = list(adapters) if adapters is not None else [
            ExecutorShardAdapter(worker, self._executor)
            for worker in router.workers
        ]
        # (call, shard, argument) -> [task, awaiters, key]; loop-side, no lock.
        self._inflight: dict[tuple, list] = {}

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def num_shards(self) -> int:
        return self._router.num_shards

    @property
    def doc_names(self) -> dict[str, str]:
        return self._router.doc_names

    @property
    def metrics(self):
        """The wrapped router's :class:`~repro.obs.serving.ServingMetrics`
        (one registry per serving stack, sync and async paths included)."""
        return self._router.metrics

    @property
    def supervisor(self):
        """The worker supervisor when shards run out of process, else None."""
        return self._supervisor

    @property
    def adapters(self) -> tuple:
        return tuple(self._adapters)

    def stats(self) -> dict:
        """The router's :meth:`~ShardRouter.stats` plus what only the
        adapters and the supervisor hold: the shard-call retries and
        the worker restarts."""
        stats = self._router.stats()
        stats["retries_total"] = sum(
            getattr(a, "retries_total", 0) for a in self._adapters
        )
        if self._supervisor is not None:
            stats["worker_restarts"] = self._supervisor.restarts_total
        return stats

    async def expand_query(self, text: str, top_k: int = 10) -> ServiceResponse:
        """Answer one query: the plan :meth:`ShardRouter.expand_query`
        runs, in its own trace, sharing any shard call in flight."""
        with self._router.accounting(1) as served:
            served += await self._run(
                self._router.query_plan("expand_query", [text], top_k), top_k
            )
        return served[0]

    async def batch_expand(
        self, texts: list[str], top_k: int = 10
    ) -> list[ServiceResponse]:
        """Answer a batch: the plan :meth:`ShardRouter.batch_expand`
        runs, each step's shard calls awaited together."""
        if not texts:
            return []
        with self._router.accounting(len(texts)) as served:
            served += await self._run(
                self._router.query_plan("batch_expand", texts, top_k)
            )
        return served

    def close(self) -> None:
        """Shut the adapter executor down (the wrapped router survives).

        In socket mode this also closes pooled worker connections and,
        when this router spawned its own supervisor (env-driven mode),
        stops the worker processes.
        """
        for adapter in self._adapters:
            adapter.close()
        if self._own_supervisor and self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Socket-mode construction
    # ------------------------------------------------------------------

    def _spawn_supervisor(self):
        """Start supervised workers for env-driven socket mode.

        The router's snapshot is exported to a per-process temporary
        directory (shared across routers over the same snapshot object)
        and one worker process is spawned per shard.
        """
        from repro.service.supervisor import ShardSupervisor

        supervisor = ShardSupervisor(
            _export_snapshot_dir(self._router.snapshot),
            self._router.num_shards,
            metrics=self._router.metrics,
        )
        supervisor.start()
        return supervisor

    def _socket_adapters(self, supervisor, policy):
        """One socket adapter per shard, endpoint-resolved per attempt.

        Each adapter keeps the router-local worker engine as its rank
        fallback: with a shard's worker down, queries owned by healthy
        shards still rank over all segments bit-identically.
        """
        from repro.service.socket_adapter import SocketShardAdapter

        return [
            SocketShardAdapter(
                (lambda sid=shard_id: supervisor.endpoint(sid)),
                shard_id,
                policy=policy,
                fallback_engine=self._router.workers[shard_id].engine,
            )
            for shard_id in range(self._router.num_shards)
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    async def _run(self, plan, top_k: int | None = None):
        """Execute a plan over the adapters, throwing a failed step into
        it so its open spans close (a cancelled one included).  Given
        ``top_k`` (one query) it ranks ahead: the fan-out that followed
        this seed set last time starts beside ``expand_seeds`` and is
        used iff the plan then yields an equal step — a segment ranks
        equal requests equally, whatever changed since.  No call
        outlives the request but one another request awaits."""
        memo = self._router.rank_ahead
        resume, value = plan.send, None
        key = guess = early = None
        try:
            while True:
                step = call, items = resume(value)
                try:
                    if call == "expand_seeds" and top_k is not None and items[0][1]:
                        key = items[0][1], top_k
                        guess = memo.get(key)
                        if guess is not None:
                            early = asyncio.ensure_future(self._execute(*guess))
                        value = await self._execute(call, items)
                        if guess is None and not value[0][1]:
                            key = None  # learn from cached expansions only
                    elif step == guess:
                        tracing.annotate(rank_ahead="used")
                        value = await early
                    else:
                        if call == "search_with_background" and key is not None:
                            if early is not None:  # a wasted rank, reaped below
                                tracing.annotate(rank_ahead="discarded")
                            memo.put(key, step)
                        value = await self._execute(call, items)
                    resume = plan.send
                except BaseException as exc:  # the plan re-raises it
                    resume, value = plan.throw, exc
        except StopIteration as done:
            return done.value
        finally:
            if early is not None:
                early.cancel()
                await asyncio.gather(early, return_exceptions=True)

    async def _execute(self, call: str, items: list) -> list:
        """One step's calls, awaited together until the first failure.  A
        call in flight (same call, shard and argument, from any request) is
        joined, not sent again, and a joined mine answers cached; the last
        awaiter to leave a call cancels it and waits for it to end."""
        if items[0][0] is None:  # the router's own linking, never shared
            return [await self._link(argument) for _, argument in items]
        inflight, entries, joined = self._inflight, [], []
        waiter, left = asyncio.get_running_loop().create_future(), [len(items)]

        def wake(task):  # not gather, whose cancel would cancel a shared call
            left[0] -= 1  # the first failure, or the last answer, ends the wait
            failed = task.cancelled() or task.exception()  # read, or it is logged
            if (failed or not left[0]) and not waiter.done():
                waiter.set_result(task)

        for shard, argument in items:
            key = call, shard, argument
            entry = inflight.get(key)
            joined.append(entry is not None and call == "expand_seeds" and argument)
            if entry is None:
                sent = getattr(self._adapters[shard], call)(argument)
                entry = inflight[key] = [asyncio.ensure_future(sent), 0, key]
            entry[1] += 1
            entry[0].add_done_callback(wake)
            entries.append(entry)
        try:
            (await waiter).result()
        finally:
            for entry in entries:
                entry[1] -= 1
                if not entry[1]:
                    del inflight[entry[2]]
                    entry[0].cancel()
            if ended := [entry[0] for entry in entries if entry[0].cancelling()]:
                await asyncio.wait(ended)
        values = [entry[0].result() for entry in entries]
        return [(v[0], True) if shared else v for v, shared in zip(values, joined)]

    async def _link(self, normalized: str):
        """The router's own linking: a cached text is answered here, a
        miss on the executor (lock-guarded cache: parallel passes are safe)."""
        cached = self._router.link_cached(normalized)
        if cached is not None:
            return cached
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, self._router.link_text, normalized
        )

    def __repr__(self) -> str:
        return (
            f"AsyncShardRouter(shards={self.num_shards}, "
            f"inflight={len(self._inflight)})"
        )
