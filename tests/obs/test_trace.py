"""Request-scoped traces: recording, contextvar scoping, thread carry."""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.obs import trace as tracing
from repro.obs.trace import Trace, carry_context, current_trace, start_trace
from repro.service.async_router import ExecutorShardAdapter


class TestTraceRecording:
    def test_span_records_stage_shard_and_labels(self):
        trace = Trace()
        with trace.span("rank", shard=2, phase="counts"):
            pass
        (span,) = trace.spans
        assert span.stage == "rank"
        assert span.shard == 2
        assert span.labels == {"phase": "counts"}
        assert span.duration_ms >= 0.0
        assert span.start_ms >= 0.0

    def test_span_body_can_set_labels_after_the_fact(self):
        trace = Trace()
        with trace.span("link") as labels:
            labels["cached"] = True
        (span,) = trace.spans
        assert span.labels == {"cached": True}

    def test_shard_key_in_label_dict_overrides_argument(self):
        trace = Trace()
        with trace.span("expand", shard=0) as labels:
            labels["shard"] = 7
        (span,) = trace.spans
        assert span.shard == 7
        assert "shard" not in span.labels

    def test_stage_totals_sum_fanout_spans(self):
        trace = Trace()
        trace.add("rank", 2.0, shard=0)
        trace.add("rank", 3.0, shard=1)
        trace.add("link", 1.0)
        assert trace.stage_totals_ms() == {"rank": 5.0, "link": 1.0}

    def test_as_dict_is_json_shaped(self):
        trace = Trace(trace_id="t-fixed")
        trace.annotate(endpoint="/expand")
        trace.add("link", 1.5, cached=False)
        payload = trace.as_dict()
        assert payload["trace_id"] == "t-fixed"
        assert payload["labels"] == {"endpoint": "/expand"}
        assert payload["spans"][0]["stage"] == "link"
        assert payload["spans"][0]["labels"] == {"cached": False}
        assert payload["stage_totals_ms"] == {"link": 1.5}

    def test_trace_ids_are_unique(self):
        assert Trace().trace_id != Trace().trace_id


class TestContextScoping:
    def test_no_trace_means_module_span_is_a_noop(self):
        assert current_trace() is None
        with tracing.span("link") as labels:
            labels["cached"] = True  # discarded, but must not raise
        assert current_trace() is None

    def test_start_trace_activates_and_restores(self):
        with start_trace() as outer:
            assert current_trace() is outer
            with tracing.span("link"):
                pass
            with start_trace() as inner:
                assert current_trace() is inner
                with tracing.span("rank"):
                    pass
            assert current_trace() is outer
        assert current_trace() is None
        assert [s.stage for s in outer.spans] == ["link"]
        assert [s.stage for s in inner.spans] == ["rank"]

    def test_module_annotate_reaches_the_active_trace(self):
        tracing.annotate(ignored=True)  # no active trace: no-op
        with start_trace() as trace:
            tracing.annotate(batch=3)
        assert trace.labels == {"batch": 3}


    def test_add_counts_accumulates_on_the_innermost_open_span(self):
        tracing.add_counts(emitted=1)  # no open span: no-op
        with start_trace() as trace:
            tracing.add_counts(emitted=1)  # a trace but no span: no-op
            with tracing.span("expand", shard=0):
                with tracing.span("cycle_mine", shard=0, batch=2):
                    tracing.add_counts(roots=2, emitted=10, kept=3)
                    tracing.add_counts(roots=1, emitted=5, kept=0)
                tracing.add_counts(kept=7)  # back on the outer span
        by_stage = {s.stage: s.labels for s in trace.spans}
        assert by_stage["cycle_mine"] == {
            "batch": 2, "roots": 3, "emitted": 15, "kept": 3,
        }
        assert by_stage["expand"] == {"kept": 7}
        assert trace.labels == {}


class TestThreadCarry:
    def test_plain_submit_does_not_see_the_trace(self):
        """The control: without carry_context the worker thread is blind."""
        with ThreadPoolExecutor(max_workers=1) as pool:
            with start_trace():
                assert pool.submit(current_trace).result() is None

    def test_carry_context_delivers_the_trace_to_the_worker(self):
        def record():
            with tracing.span("expand", shard=1):
                pass
            return current_trace()

        with ThreadPoolExecutor(max_workers=1) as pool:
            with start_trace() as trace:
                seen = pool.submit(carry_context(record)).result()
        assert seen is trace
        assert [(s.stage, s.shard) for s in trace.spans] == [("expand", 1)]

    def test_one_wrapped_callable_fans_out_across_map(self):
        def record(shard_id):
            with tracing.span("rank", shard=shard_id):
                time.sleep(0.001)
            return shard_id

        with ThreadPoolExecutor(max_workers=4) as pool:
            with start_trace() as trace:
                results = list(pool.map(carry_context(record), range(4)))
        assert results == [0, 1, 2, 3]
        assert sorted(s.shard for s in trace.spans) == [0, 1, 2, 3]

    def test_concurrent_requests_keep_their_spans_apart(self):
        """Two request threads sharing one pool must not cross-pollinate."""
        pool = ThreadPoolExecutor(max_workers=4)
        barrier = threading.Barrier(2)
        traces: dict[int, Trace] = {}

        def request(request_id: int) -> None:
            def work(shard_id):
                barrier.wait(timeout=5)  # force real overlap between requests
                with tracing.span("rank", shard=shard_id, req=request_id):
                    pass

            with start_trace() as trace:
                traces[request_id] = trace
                list(pool.map(carry_context(work), [request_id]))

        threads = [
            threading.Thread(target=request, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pool.shutdown()
        for request_id in range(2):
            spans = traces[request_id].spans
            assert len(spans) == 1
            assert spans[0].labels == {"req": request_id}


class _FakeWorker:
    """Just enough of ExpansionService for the adapter's calls,
    instrumented exactly like the real worker: each call records into
    whatever trace the submitting request carried over, labelled with
    the worker's own shard id (the adapter has none)."""

    def __init__(self, shard_id=0):
        self._shard_id = shard_id

    def expand_seeds(self, seeds):
        with tracing.span("expand", shard=self._shard_id) as labels:
            labels["cached"] = False
        return (frozenset(seeds), False)

    def leaf_collection_counts(self, root):
        with tracing.span("rank", shard=self._shard_id, phase="counts"):
            return {"root": root}


class TestExecutorShardAdapterBoundary:
    def test_spans_cross_the_run_in_executor_boundary(self):
        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as executor:
                adapter = ExecutorShardAdapter(_FakeWorker(5), executor)
                with start_trace() as trace:
                    await adapter.expand_seeds(frozenset({1}))
                    await adapter.leaf_collection_counts("root")
                return trace

        trace = asyncio.run(scenario())
        stages = [(s.stage, s.shard) for s in trace.spans]
        assert ("expand", 5) in stages
        assert ("rank", 5) in stages
        rank = next(s for s in trace.spans if s.stage == "rank")
        assert rank.labels == {"phase": "counts"}

    def test_concurrent_adapter_calls_isolate_traces(self):
        async def scenario():
            with ThreadPoolExecutor(max_workers=4) as executor:
                adapters = [
                    ExecutorShardAdapter(_FakeWorker(i), executor)
                    for i in range(2)
                ]

                async def one(request_id: int) -> Trace:
                    with start_trace() as trace:
                        await asyncio.gather(*(
                            adapter.leaf_collection_counts(request_id)
                            for adapter in adapters
                        ))
                    return trace

                return await asyncio.gather(one(0), one(1))

        first, second = asyncio.run(scenario())
        assert first is not second
        for trace in (first, second):
            assert sorted(s.shard for s in trace.spans) == [0, 1]
            assert all(s.stage == "rank" for s in trace.spans)
