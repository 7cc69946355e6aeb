"""Fault injection against out-of-process shard serving.

Three layers are exercised:

* :class:`FaultPlan` parsing/counting (pure unit tests);
* a real :class:`ShardWorkerServer` on a loopback socket *in this
  process* (stall / garbage / short faults, handshake negotiation,
  trace propagation) — deterministic and fast, no subprocesses;
* :class:`ShardSupervisor`-managed worker *processes* (kill faults,
  restart-with-backoff, permanent death → graceful degradation, and the
  N-worker bit-identity acceptance check).

``kill`` is only ever used with supervised subprocesses: in-process it
would take pytest down with it.
"""

import asyncio
import time

import pytest

from repro.errors import (
    ServiceError,
    ShardUnavailableError,
    WorkerCallError,
)
from repro.obs import trace as tracing
from repro.retrieval.qlang import CombineNode, TermNode
from repro.service import (
    AsyncShardRouter,
    FaultPlan,
    ShardCallPolicy,
    ShardRouter,
    ShardSupervisor,
    ShardWorkerServer,
    ShardedSnapshot,
    SocketShardAdapter,
    make_shard_worker,
)
from repro.service import wire


@pytest.fixture(scope="module")
def sharded1(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=1)


@pytest.fixture(scope="module")
def sharded2(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=2)


@pytest.fixture(scope="module")
def sharded1_dir(sharded1, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sharded1")
    sharded1.save(directory)
    return directory


@pytest.fixture(scope="module")
def sharded2_dir(sharded2, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sharded2")
    sharded2.save(directory)
    return directory


@pytest.fixture(scope="module")
def worker(sharded1):
    return make_shard_worker(sharded1.shard(0))


def probe(text):
    """A cheap call to fault: ``leaf_collection_counts`` of the words,
    answered on the worker's event loop."""
    return CombineNode(tuple(TermNode(word) for word in text.split()))


def with_server(worker, fn, *, fault_spec="", policy=None):
    """Run ``fn(adapter)`` against an in-process worker server."""

    async def go():
        faults = FaultPlan.from_spec(fault_spec) if fault_spec else None
        server = ShardWorkerServer(worker, 0, faults=faults)
        await server.start("127.0.0.1", 0)
        adapter = SocketShardAdapter(
            lambda: ("127.0.0.1", server.port), 0,
            policy=policy or ShardCallPolicy(),
        )
        try:
            return await fn(adapter)
        finally:
            adapter.close()
            await server.stop()

    return asyncio.run(go())


class TestFaultPlan:
    def test_spec_round_trip(self):
        plan = FaultPlan.from_spec("kill@2, stall=1.5@1:expand_seeds, short@3")
        assert bool(plan)
        assert not bool(FaultPlan.from_spec(""))

    @pytest.mark.parametrize("spec", [
        "kill",              # missing @NTH
        "explode@1",         # unknown action
        "kill@0",            # NTH < 1
        "kill@x",            # NTH not an int
        "stall@1",           # stall without =SECONDS
    ])
    def test_malformed_specs_are_rejected(self, spec):
        with pytest.raises(ServiceError):
            FaultPlan.from_spec(spec)

    def test_fires_on_nth_matching_call_only(self):
        plan = FaultPlan.from_spec("stall=1@2:expand_seeds")
        assert plan.check("search_with_background") is None  # wrong call
        assert plan.check("expand_seeds") is None    # 1st match: armed at 2nd
        fault = plan.check("expand_seeds")
        assert fault is not None and fault.action == "stall"
        assert plan.check("expand_seeds") is None    # already fired

    def test_unfiltered_fault_counts_every_call(self):
        plan = FaultPlan.from_spec("garbage@2")
        assert plan.check("expand_seeds") is None
        assert plan.check("search_with_background") is not None


class TestInProcessWorkerFaults:
    """stall / garbage / short against a loopback ShardWorkerServer."""

    def test_garbage_frame_is_retried_on_fresh_connection(self, worker):
        root = probe("grand reef of hallowbrook")

        async def fn(adapter):
            return await adapter.leaf_collection_counts(root)

        counts = with_server(
            worker, fn, fault_spec="garbage@1",
            policy=ShardCallPolicy(max_attempts=3, backoff_base_s=0.01),
        )
        assert counts == worker.leaf_collection_counts(root)

    def test_garbage_retry_counter_increments(self, worker):
        async def fn(adapter):
            await adapter.leaf_collection_counts(probe("windmill of calligraphy"))
            return adapter.retries_total

        assert with_server(
            worker, fn, fault_spec="garbage@1",
            policy=ShardCallPolicy(max_attempts=3, backoff_base_s=0.01),
        ) == 1

    def test_short_write_is_retried(self, worker):
        root = probe("walled manuscript")

        async def fn(adapter):
            counts = await adapter.leaf_collection_counts(root)
            return counts, adapter.retries_total

        counts, retries = with_server(
            worker, fn, fault_spec="short@1",
            policy=ShardCallPolicy(max_attempts=3, backoff_base_s=0.01),
        )
        assert retries == 1
        assert counts == worker.leaf_collection_counts(root)

    def test_stalled_call_hits_deadline_then_retry_succeeds(self, worker):
        """A 5 s stall against a 0.4 s deadline costs one deadline, not
        a wedged caller — the retry lands on an unstalled worker."""
        root = probe("azure archipelago of milling")

        async def fn(adapter):
            started = time.perf_counter()
            counts = await adapter.leaf_collection_counts(root)
            return counts, adapter.retries_total, time.perf_counter() - started

        counts, retries, elapsed = with_server(
            worker, fn, fault_spec="stall=5@1",
            policy=ShardCallPolicy(
                call_timeout_s=0.4, max_attempts=2, backoff_base_s=0.01,
            ),
        )
        assert retries == 1
        assert elapsed < 4.0, "the stall must not be waited out"
        assert counts == worker.leaf_collection_counts(root)

    def test_hedge_wins_over_stalled_call(self, worker):
        """With hedging armed, a stalled primary is overtaken by the
        hedge on a fresh connection; the first answer wins."""
        root = probe("emerald windmill guild")

        async def fn(adapter):
            started = time.perf_counter()
            counts = await adapter.leaf_collection_counts(root)
            return (
                counts,
                adapter.hedges_total,
                adapter.hedge_wins_total,
                adapter.retries_total,
                time.perf_counter() - started,
            )

        counts, hedges, wins, retries, elapsed = with_server(
            worker, fn, fault_spec="stall=3@1",
            policy=ShardCallPolicy(
                call_timeout_s=15.0, max_attempts=1, hedge_after_s=0.15,
            ),
        )
        assert (hedges, wins, retries) == (1, 1, 0)
        assert elapsed < 2.5, "the hedge answer must beat the stall"
        assert counts == worker.leaf_collection_counts(root)

    def test_worker_error_frame_is_never_retried(self, worker):
        async def fn(adapter):
            with pytest.raises(WorkerCallError) as err:
                await adapter._call("not_a_protocol_call", {})
            return err.value.error_type, adapter.retries_total

        error_type, retries = with_server(worker, fn)
        assert error_type == "unknown_call"
        assert retries == 0, "a deterministic worker error must not retry"

    def test_protocol_version_mismatch_is_a_clean_error(self, worker):
        async def fn(adapter):
            host, port = "127.0.0.1", adapter._endpoint()[1]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                await wire.write_frame(
                    writer, {"call": "hello", "protocol": 99}
                )
                response = await wire.read_frame(reader)
                trailing = await wire.read_frame(reader)
            finally:
                writer.close()
            return response, trailing

        response, trailing = with_server(worker, fn)
        assert response["error"]["type"] == "protocol_mismatch"
        assert "99" in response["error"]["message"]
        assert trailing is None, "the worker must close after the mismatch"

    def test_first_frame_must_be_hello(self, worker):
        async def fn(adapter):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", adapter._endpoint()[1]
            )
            try:
                await wire.write_frame(writer, {
                    "call": "leaf_collection_counts", "protocol": 1,
                    "root": wire.encode_query(probe("x")),
                })
                return await wire.read_frame(reader)
            finally:
                writer.close()

        response = with_server(worker, fn)
        assert response["error"]["type"] == "protocol_error"

    def test_trace_id_propagates_into_worker_and_spans_replay(self, worker):
        seen = {}
        real_counts = worker.leaf_collection_counts

        def spy(root):
            active = tracing.current_trace()
            seen["trace_id"] = active.trace_id if active else None
            return real_counts(root)

        worker.leaf_collection_counts = spy
        try:
            async def fn(adapter):
                trace = tracing.Trace(trace_id="trace-originates-router-side")
                with tracing.start_trace(trace):
                    await adapter.leaf_collection_counts(probe("grand reef"))
                return trace

            trace = with_server(worker, fn)
        finally:
            del worker.leaf_collection_counts
        assert seen["trace_id"] == "trace-originates-router-side"
        rank_spans = [s for s in trace.spans if s.stage == "rank"]
        assert rank_spans, "worker-side spans must replay into the trace"
        assert rank_spans[0].shard == 0
        assert rank_spans[0].labels["phase"] == "counts"


class TestSupervisedWorkers:
    """Real worker processes under ShardSupervisor."""

    def test_killed_worker_is_restarted_and_call_succeeds(self, sharded1_dir):
        """kill@2: the first call serves, the second crashes the worker
        mid-call; the supervisor restarts it and a patient adapter's
        retry succeeds against the fresh process."""
        supervisor = ShardSupervisor(
            str(sharded1_dir), 1,
            fault_specs={0: "kill@2"}, max_restarts=3,
        )
        supervisor.start(timeout_s=120.0)
        try:
            adapter = SocketShardAdapter(
                lambda: supervisor.endpoint(0), 0,
                policy=ShardCallPolicy(
                    max_attempts=12, backoff_base_s=0.25,
                    backoff_max_s=1.0, call_timeout_s=30.0,
                ),
            )

            async def go():
                root = probe("walled manuscript")
                first = await adapter.leaf_collection_counts(root)
                second = await adapter.leaf_collection_counts(root)
                return first, second

            first, second = asyncio.run(go())
            assert first == second
            assert adapter.retries_total >= 1
            assert supervisor.restarts_total == 1
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                states = [w["state"] for w in supervisor.describe()]
                if states == ["up"]:
                    break
                time.sleep(0.1)
            assert states == ["up"]
        finally:
            supervisor.stop()

    def test_socket_serving_is_bit_identical_to_in_process(
        self, small_benchmark, sharded2, sharded2_dir
    ):
        """The acceptance bar: N supervised worker processes answer the
        full topic set with the same doc ids AND scores as the purely
        in-process router."""
        supervisor = ShardSupervisor(str(sharded2_dir), 2)
        supervisor.start(timeout_s=120.0)
        async_router = AsyncShardRouter(
            ShardRouter(sharded2), supervisor=supervisor
        )
        try:
            reference = ShardRouter(sharded2)

            async def all_queries():
                return [
                    await async_router.expand_query(topic.keywords, top_k=10)
                    for topic in small_benchmark.topics
                ]

            responses = asyncio.run(all_queries())
            for topic, mine in zip(small_benchmark.topics, responses):
                ref = reference.expand_query(topic.keywords, top_k=10)
                assert mine.link.article_ids == ref.link.article_ids
                assert mine.expansion.article_ids == ref.expansion.article_ids
                assert [(r.doc_id, r.score) for r in mine.results] == \
                       [(r.doc_id, r.score) for r in ref.results], topic.keywords
            assert all(w["state"] == "up" for w in supervisor.describe())
            stats = async_router.stats()
            assert stats["worker_restarts"] == 0
        finally:
            async_router.close()
            supervisor.stop()

    def test_permanently_dead_shard_degrades_gracefully(
        self, small_benchmark, sharded2, sharded2_dir
    ):
        """One shard's worker dies on its first call with no restart
        budget: queries owned by the healthy shard stay bit-identical
        (rank falls back to the router-local engine); queries owned by
        the dead shard raise the structured unavailability error."""
        supervisor = ShardSupervisor(
            str(sharded2_dir), 2,
            fault_specs={1: "kill@1"}, max_restarts=0,
        )
        supervisor.start(timeout_s=120.0)
        async_router = AsyncShardRouter(
            ShardRouter(sharded2), supervisor=supervisor,
            policy=ShardCallPolicy(
                max_attempts=2, backoff_base_s=0.05, call_timeout_s=30.0,
            ),
        )
        try:
            reference = ShardRouter(sharded2)
            owners = {}
            for topic in small_benchmark.topics:
                link, _ = reference.link_text(
                    reference.normalize(topic.keywords)
                )
                owners[topic.keywords] = reference.owner_shard(link.article_ids)
            healthy = [k for k, owner in owners.items() if owner == 0]
            dead = [k for k, owner in owners.items() if owner == 1]
            assert healthy and dead, f"need topics on both shards: {owners}"

            async def run_healthy():
                return [
                    await async_router.expand_query(keywords, top_k=10)
                    for keywords in healthy
                ]

            responses = asyncio.run(run_healthy())
            for keywords, mine in zip(healthy, responses):
                ref = reference.expand_query(keywords, top_k=10)
                assert [(r.doc_id, r.score) for r in mine.results] == \
                       [(r.doc_id, r.score) for r in ref.results], keywords

            with pytest.raises(ShardUnavailableError) as err:
                asyncio.run(async_router.expand_query(dead[0]))
            assert err.value.shard_id == 1
            assert err.value.retry_after_s > 0

            assert supervisor.degraded
            states = {w["shard"]: w["state"] for w in supervisor.describe()}
            assert states[0] == "up"
            assert states[1] == "failed"
            fallbacks = sum(
                getattr(a, "fallback_calls_total", 0)
                for a in async_router.adapters
            )
            assert fallbacks >= 1, "rank must have fallen back locally"
        finally:
            async_router.close()
            supervisor.stop()
