"""Where a shard call runs, and what a fan-out writes.

A shard worker answers on its event loop every call that can neither
mine nor write, and hops to an executor thread only for those that can:
the hop is two thread wake-ups, more than a cached answer costs, and it
never bought pure-Python rank work any parallelism.  What must survive
is the reason the executor exists — a slow mine on one connection does
not delay rank calls on another — and the expansion cache's accounting,
which the placement decision (an uncounted ``peek``) must not touch.

On the router side one ``search_with_background`` fan-out encodes its
frame once for every shard, byte-identical to the per-shard encoding it
replaces.
"""

import asyncio
import threading
import time

import pytest

from repro.errors import WorkerCallError
from repro.obs import trace as tracing
from repro.retrieval.qlang import CombineNode, PhraseNode, TermNode
from repro.service import (
    ShardCallPolicy,
    ShardWorkerServer,
    ShardedSnapshot,
    SocketShardAdapter,
    make_shard_worker,
    wire,
)

CALLS = (
    "expand_seeds", "prefill_expansions",
    "leaf_collection_counts", "search_with_background",
)


@pytest.fixture(scope="module")
def sharded1(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=1)


@pytest.fixture()
def worker(sharded1):
    return make_shard_worker(sharded1.shard(0))  # fresh caches per test


@pytest.fixture(scope="module")
def seed_sets(small_benchmark, sharded1):
    linker = sharded1.make_linker()
    found = {
        linker.link_keywords(topic.keywords) for topic in small_benchmark.topics
    }
    found.discard(frozenset())
    assert len(found) >= 3
    return sorted(found, key=sorted)


@pytest.fixture()
def search_request():
    """Fresh per test: the request caches its encoded frame."""
    leaf = PhraseNode(("grand", "canal"))
    root = CombineNode((leaf, TermNode("venice")))
    return wire.SearchRequest(root, {leaf: 0.1 + 0.2, TermNode("venice"): 5e-324}, 7)


def record_threads(worker) -> list[tuple[str, threading.Thread]]:
    """Wrap the worker's protocol calls to note the thread each ran on."""
    ran: list[tuple[str, threading.Thread]] = []

    def wrap(name):
        inner = getattr(worker, name)

        def recorded(*args, **kwargs):
            ran.append((name, threading.current_thread()))
            return inner(*args, **kwargs)

        setattr(worker, name, recorded)

    for name in CALLS:
        wrap(name)
    return ran


def serve(worker, fn, *, updater=None, adapters=1):
    """Run ``fn(server, *adapters)`` against a loopback worker server."""

    async def go():
        server = ShardWorkerServer(worker, 0, updater=updater)
        await server.start("127.0.0.1", 0)
        clients = [
            SocketShardAdapter(
                lambda: ("127.0.0.1", server.port), 0,
                policy=ShardCallPolicy(max_attempts=1),
            )
            for _ in range(adapters)
        ]
        try:
            return await fn(server, *clients)
        finally:
            for client in clients:
                client.close()
            await server.stop()

    return asyncio.run(go())


class TestDispatchRule:
    def test_only_calls_that_can_block_leave_the_loop(
        self, worker, seed_sets, search_request
    ):
        ran = record_threads(worker)

        class Updater:
            generation, last_seq = 1, 0

            def apply_payloads(self, deltas, *, generation=None):
                ran.append(("apply_delta", threading.current_thread()))
                return {"applied": len(deltas)}

        async def fn(_server, adapter):
            loop_thread = threading.current_thread()
            await adapter.expand_seeds(seed_sets[0])            # miss
            await adapter.expand_seeds(seed_sets[0])            # hit
            await adapter.expand_seeds(frozenset())             # nothing to mine
            await adapter.prefill_expansions([seed_sets[1]])
            await adapter.leaf_collection_counts(search_request.root)
            await adapter.search_with_background(search_request)
            await adapter._call("apply_delta", {"deltas": []})
            return loop_thread

        loop_thread = serve(worker, fn, updater=Updater())
        where = [
            (name, "loop" if thread is loop_thread else "executor")
            for name, thread in ran
        ]
        assert where == [
            ("expand_seeds", "executor"),
            ("expand_seeds", "loop"),
            ("expand_seeds", "loop"),
            ("prefill_expansions", "executor"),
            ("leaf_collection_counts", "loop"),
            ("search_with_background", "loop"),
            ("apply_delta", "executor"),
        ]
        executor_threads = {
            thread.name for _, thread in ran if thread is not loop_thread
        }
        assert all(name.startswith("shard-0") for name in executor_threads)

    def test_a_stalled_miss_does_not_delay_rank_on_another_connection(
        self, worker, seed_sets, search_request
    ):
        mining, release = threading.Event(), threading.Event()
        mine = worker._mine_seeds

        def stalled(*args):
            mining.set()
            assert release.wait(30), "the rank call never got through"
            return mine(*args)

        worker._mine_seeds = stalled

        async def fn(_server, a, b):
            miss = asyncio.ensure_future(a.expand_seeds(seed_sets[0]))
            await asyncio.get_running_loop().run_in_executor(None, mining.wait, 30)
            assert mining.is_set() and not miss.done()
            started = time.perf_counter()
            results = await b.search_with_background(search_request)
            elapsed = time.perf_counter() - started
            assert not miss.done(), "the miss is still held on its thread"
            release.set()
            _, cached = await miss
            return results, elapsed, cached

        results, elapsed, cached = serve(worker, fn, adapters=2)
        assert cached is False
        assert elapsed < 5.0
        assert results == worker.search_with_background(search_request)

    def test_malformed_calls_still_answer_with_an_error_frame(
        self, worker, search_request
    ):
        """The placement peek parses the request before the dispatch
        does; what it raises is the call's error, not a dropped
        connection."""

        async def fn(server, adapter):
            errors = []
            for payload in ({}, {"seeds": ["x"]}, {"seeds": 7}):
                with pytest.raises(WorkerCallError) as err:
                    await adapter._call("expand_seeds", payload)
                errors.append(err.value.error_type)
            counts = await adapter.leaf_collection_counts(search_request.root)
            return errors, counts, server.calls_served

        errors, counts, served = serve(worker, fn)
        assert errors == ["KeyError", "ValueError", "TypeError"]
        assert counts == worker.leaf_collection_counts(search_request.root)
        assert served == 4

    def test_worker_spans_ride_home_from_either_thread(self, worker, seed_sets):
        async def fn(_server, adapter):
            stages = []
            for _ in range(2):  # a miss (executor), then a hit (loop)
                with tracing.start_trace() as trace:
                    await adapter.expand_seeds(seed_sets[0])
                stages.append([span.stage for span in trace.spans])
            return stages

        cold, warm = serve(worker, fn)
        assert cold == ["wire", "cycle_mine", "expand"]
        assert warm == ["wire", "expand"]


class TestCacheAccounting:
    def test_hits_misses_and_recency_match_direct_calls(
        self, sharded1, worker, seed_sets
    ):
        """The placement peek is uncounted and leaves recency alone:
        after any call sequence the worker's expansion cache reads
        exactly as if every call had gone straight to ``expand_seeds``
        (which is all the parent's server did)."""
        a, b, c = seed_sets[:3]
        sequence = [a, b, a, c, b, b, frozenset(), a, c]
        reference = make_shard_worker(sharded1.shard(0))
        expected = [reference.expand_seeds(seeds) for seeds in sequence]

        async def fn(_server, adapter):
            return [await adapter.expand_seeds(seeds) for seeds in sequence]

        got = serve(worker, fn)
        assert got == expected
        mine, theirs = worker.stats(), reference.stats()
        assert mine == theirs
        assert mine.expansion_cache == theirs.expansion_cache
        assert mine.expansion_cache.hits == 5
        assert list(worker._expansion_cache.keys()) == \
            list(reference._expansion_cache.keys())

    def test_has_expansion_counts_nothing(self, worker, seed_sets):
        seeds, other = seed_sets[:2]
        assert worker.has_expansion(frozenset())
        assert not worker.has_expansion(seeds)
        worker.expand_seeds(seeds)
        worker.expand_seeds(other)
        before = worker.stats().expansion_cache
        order = list(worker._expansion_cache.keys())
        assert worker.has_expansion(seeds) and worker.has_expansion(other)
        assert worker.stats().expansion_cache == before
        assert list(worker._expansion_cache.keys()) == order


class TestSharedSearchFrame:
    def parent_frame(self, request, trace_id):
        """What every adapter built for itself before: the shared field
        dict under call / protocol, the trace id last, encoded per shard."""
        fields = {
            "call": "search_with_background",
            "protocol": wire.SHARD_PROTOCOL_VERSION,
            "root": wire.encode_query(request.root),
            "background": wire.encode_background(request.background),
            "top_k": 7,
        }
        if trace_id is not None:
            fields["trace_id"] = trace_id
        return wire.encode_frame(fields)

    def test_two_adapters_write_one_encoding(
        self, worker, search_request, monkeypatch
    ):
        request = search_request
        written, encoded = [], []
        encode_frame = wire.encode_frame

        def counting(payload):
            if payload.get("call") == "search_with_background":
                encoded.append(payload)
            return encode_frame(payload)

        monkeypatch.setattr(wire, "encode_frame", counting)
        attempt_once = SocketShardAdapter._attempt_once

        async def spying(self, call, frame):
            written.append(frame)
            return await attempt_once(self, call, frame)

        monkeypatch.setattr(SocketShardAdapter, "_attempt_once", spying)

        async def fn(_server, a, b):
            with tracing.start_trace() as trace:
                answers = await asyncio.gather(
                    a.search_with_background(request),
                    b.search_with_background(request),
                )
            return trace.trace_id, answers

        trace_id, (first, second) = serve(worker, fn, adapters=2)
        assert len(encoded) == 1
        assert len(written) == 2 and written[0] is written[1]
        assert written[0] == self.parent_frame(request, trace_id)
        assert first == second == worker.search_with_background(request)

    def test_frame_follows_the_trace_it_is_sent_under(self, search_request):
        request = search_request
        untraced = request.call_frame(None)
        assert untraced == self.parent_frame(request, None)
        assert request.call_frame(None) is untraced
        traced = request.call_frame("abc123")
        assert traced == self.parent_frame(request, "abc123")
        assert request.call_frame("abc123") is traced

    def test_encode_call_is_the_inline_form(self):
        assert wire.encode_call("expand_seeds", {"seeds": [3], "have": "n:1"}, "t") \
            == wire.encode_frame({
                "call": "expand_seeds", "protocol": wire.SHARD_PROTOCOL_VERSION,
                "seeds": [3], "have": "n:1", "trace_id": "t",
            })
        assert wire.encode_call("prefill_expansions", {"seed_sets": [[3]]}, None) \
            == wire.encode_frame({
                "call": "prefill_expansions",
                "protocol": wire.SHARD_PROTOCOL_VERSION, "seed_sets": [[3]],
            })


class TestNoTaskPerCall:
    def test_an_unhedged_call_runs_in_the_callers_task(
        self, worker, search_request
    ):
        """No ``ensure_future`` + ``wait_for`` pair per attempt: the call
        is awaited where it was made, still under its deadline."""

        async def fn(_server, adapter):
            caller = asyncio.current_task()
            seen = []
            attempt_once = adapter._attempt_once

            async def spying(call, frame):
                seen.append(asyncio.current_task())
                return await attempt_once(call, frame)

            # Dial first: the loopback server's connection handler is
            # a task of this same loop.
            await adapter.leaf_collection_counts(search_request.root)
            adapter._attempt_once = spying
            before = len(asyncio.all_tasks())
            await adapter.leaf_collection_counts(search_request.root)
            return seen == [caller], len(asyncio.all_tasks()) - before

        same_task, new_tasks = serve(worker, fn)
        assert same_task and new_tasks == 0
