"""Rank ahead and link on the loop: what the async driver may do early.

``AsyncShardRouter._run`` starts the ``search_with_background`` fan-out
that followed a ``(seed set, top_k)`` last time beside the
``expand_seeds`` call, and uses its result iff the plan then yields an
equal step.  Whatever it guessed, every answer must equal the
synchronous ``ShardRouter`` asked the same sequence — doc ids,
repr-exact scores and both ``cached`` flags — over executor adapters
and over real worker processes; the calls a request makes (and their
frame bytes) are those of an unpredicted request, only their order
overlaps; and no task, connection or exception is orphaned when the
request fails, is cancelled or loses a worker mid-flight.
"""

import asyncio
import gc
import os
import signal
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ShardUnavailableError, WorkerCallError
from repro.obs import trace as tracing
from repro.service import (
    SHARD_ADAPTER_ENV,
    AsyncShardRouter,
    ShardCallPolicy,
    ShardedSnapshot,
    ShardRouter,
    ShardSupervisor,
    wire,
)
from repro.updates import Delta, UpdateCoordinator, apply_deltas_to_graph

# The rebuild oracle of the live-update tests (the test directories are
# not packages, and tests/updates is collected after this one).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "updates"))
from update_helpers import assert_same_answers, rebuild_snapshot  # noqa: E402

SHARDS = 2
_NEW = 9_400_000


@pytest.fixture(scope="module")
def sharded(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=SHARDS)


def _open_stack(kind, sharded, root, *, policy=None, **supervisor_options):
    """A serving stack, a synchronous twin, and a coordinator for each."""
    sharded.save(root)
    base, reference = ShardRouter(sharded), ShardRouter(sharded)
    supervisor = None
    with pytest.MonkeyPatch.context() as patch:
        # CI's socket leg sets this; here the adapter kind is explicit.
        patch.delenv(SHARD_ADAPTER_ENV, raising=False)
        if kind == "socket":
            supervisor = ShardSupervisor(str(root), SHARDS, **supervisor_options)
            supervisor.start(timeout_s=120.0)
        service = AsyncShardRouter(base, supervisor=supervisor, policy=policy)
    coordinators = [
        UpdateCoordinator(base, snapshot_dir=root, supervisor=supervisor)
        if supervisor is not None else UpdateCoordinator(base),
        UpdateCoordinator(reference),
    ]

    def apply(payloads):
        for coordinator in coordinators:
            summary = coordinator.apply(payloads)
            assert summary.get("stale_workers", []) == []

    def close():
        service.close()
        if supervisor is not None:
            supervisor.stop()
        base.close()
        reference.close()

    return SimpleNamespace(
        kind=kind, sharded=sharded, base=base, service=service,
        reference=reference, supervisor=supervisor, apply=apply, close=close,
    )


@pytest.fixture(params=["executor", "socket"])
def stack(request, sharded, tmp_path):
    opened = _open_stack(request.param, sharded, tmp_path)
    yield opened
    opened.close()


def _answer(response):
    return (
        response.normalized_query,
        sorted(response.link.article_ids),
        response.expansion,
        [(r.doc_id, repr(r.score), r.rank) for r in response.results],
        response.link_cached,
        response.expansion_cached,
    )


async def _ask(stack, text, top_k=10):
    """One query through the async stack and its synchronous twin; the
    answers must agree.  Returns ``(response, rank_ahead label)``."""
    response = await stack.service.expand_query(text, top_k)
    expected = stack.reference.expand_query(text, top_k)
    assert _answer(response) == _answer(expected), text
    return response, response.trace.labels.get("rank_ahead")


async def _outcomes(stack, text, top_ks):
    return [(await _ask(stack, text, top_k))[1] for top_k in top_ks]


def _head(small_benchmark, stack, owner=None):
    """A topic's keywords and seed set (owned by shard ``owner`` if given)."""
    reference = stack.reference
    for topic in small_benchmark.topics:
        # The linker itself, not link_text: the twin's link cache stays in step.
        seeds = reference.linker.link(reference.normalize(topic.keywords)).article_ids
        if seeds and owner in (None, reference.owner_shard(seeds)):
            return topic.keywords, seeds
    raise AssertionError(f"no topic owned by shard {owner}")


def _delta_payloads(seed, *, first_seq, changes_expansion):
    """A new article linking to ``seed`` — which evicts every expansion
    near it and re-links every text — plus, to *change* the expansion,
    the link back: a reciprocal pair is a new 2-cycle through the seed."""
    payloads = [
        {"op": "add_article", "seq": first_seq, "node_id": _NEW,
         "title": "Rank Ahead Page"},
        {"op": "add_edge", "seq": first_seq + 1, "source": _NEW,
         "target": seed, "kind": "link"},
    ]
    if changes_expansion:
        payloads.append({
            "op": "add_edge", "seq": first_seq + 2, "source": seed,
            "target": _NEW, "kind": "link",
        })
    return payloads


class TestPrediction:
    def test_first_sight_learns_nothing_a_cached_one_teaches_then_it_is_used(
        self, small_benchmark, stack
    ):
        text, seeds = _head(small_benchmark, stack)

        async def scenario():
            return await _outcomes(stack, text, [10] * 5)

        assert asyncio.run(scenario()) == [None, None, "used", "used", "used"]
        assert list(stack.base.rank_ahead.keys()) == [(seeds, 10)]
        counted = stack.base.metrics.render()
        assert 'repro_rank_ahead_total{outcome="used"} 3' in counted
        assert 'outcome="discarded"' not in counted

    def test_each_top_k_is_predicted_from_its_second_cached_sight(
        self, small_benchmark, stack
    ):
        text, seeds = _head(small_benchmark, stack)

        async def scenario():
            return await _outcomes(stack, text, [10, 10, 10, 3, 3, 10, 3, 10, 3])

        assert asyncio.run(scenario()) == [
            None, None, "used",   # top_k 10: cold, learned, used
            None, "used",         # top_k 3: expansion cached, so learned at once
            "used", "used", "used", "used",  # alternating: a memo entry each
        ]
        assert set(stack.base.rank_ahead.keys()) == {(seeds, 10), (seeds, 3)}

    def test_texts_that_link_alike_share_one_prediction(
        self, small_benchmark, stack
    ):
        text, _ = _head(small_benchmark, stack)

        async def scenario():
            await _outcomes(stack, text, [10, 10])
            return [
                (await _ask(stack, variant))[1]
                for variant in (f"  {text.upper()}!", f"{text} qzxunseen")
            ]

        # Same seed set, same expansion titles, same root: same request.
        assert asyncio.run(scenario()) == ["used", "used"]

    def test_a_delta_that_changes_the_expansion_is_discarded_once(
        self, small_benchmark, stack
    ):
        text, seeds = _head(small_benchmark, stack)
        payloads = _delta_payloads(
            min(seeds), first_seq=1, changes_expansion=True
        )
        oracle = ShardRouter(rebuild_snapshot(stack.sharded, apply_deltas_to_graph(
            small_benchmark.graph, [Delta.from_payload(p) for p in payloads],
        )))

        async def scenario():
            before = await _outcomes(stack, text, [10, 10, 10])
            held = stack.base.rank_ahead.peek((seeds, 10))
            stack.apply(payloads)
            changed, discarded = await _ask(stack, text)
            assert stack.base.rank_ahead.peek((seeds, 10)) != held  # re-learned
            settled, used = await _ask(stack, text)
            return before, (changed, discarded), (settled, used)

        try:
            before, (changed, discarded), (settled, used) = asyncio.run(scenario())
            assert before == [None, None, "used"]
            assert (discarded, used) == ("discarded", "used")
            assert not changed.expansion_cached and settled.expansion_cached
            expected = oracle.expand_query(text, top_k=10)
            for mine in (changed, settled):
                assert_same_answers(mine, expected, label=text)
                assert mine.expansion == expected.expansion
            # The wasted rank is in the trace: one extra span per shard.
            phases = [
                s.labels["phase"] for s in changed.trace.spans if s.stage == "rank"
            ]
            assert phases.count("score") == 2 * SHARDS
            assert phases.count("counts") == SHARDS  # the new title's leaf
            counted = stack.base.metrics.render()
            assert 'repro_rank_ahead_total{outcome="discarded"} 1' in counted
        finally:
            oracle.close()

    def test_a_delta_that_only_evicts_is_used_while_the_owner_re_mines(
        self, small_benchmark, stack
    ):
        text, seeds = _head(small_benchmark, stack)

        async def scenario():
            await _outcomes(stack, text, [10, 10, 10])
            stack.apply(_delta_payloads(
                min(seeds), first_seq=1, changes_expansion=False
            ))
            return await _ask(stack, text)

        response, outcome = asyncio.run(scenario())
        assert outcome == "used"
        assert not response.expansion_cached and not response.link_cached
        assert any(span.stage == "cycle_mine" for span in response.trace.spans)

    def test_clear_caches_drops_the_memo(self, small_benchmark, stack):
        text, _ = _head(small_benchmark, stack)

        async def scenario():
            await _outcomes(stack, text, [10, 10, 10])
            stack.base.clear_caches()
            assert len(stack.base.rank_ahead) == 0
            response = await stack.service.expand_query(text, 10)
            return response

        response = asyncio.run(scenario())
        assert "rank_ahead" not in response.trace.labels
        assert_same_answers(
            response, stack.reference.expand_query(text, 10), label=text
        )

    def test_cold_seed_sets_are_never_stored(self, small_benchmark, snapshot, stack):
        """The ``cold_tail`` shape: every seed set is new, nothing is kept."""
        text, _ = _head(small_benchmark, stack)
        tails = [" ".join(tokens) for tokens in sorted(snapshot.title_index)][:6]

        async def scenario():
            return [
                (await _ask(stack, f"{text} compared with {tail}"))[1]
                for tail in tails
            ]

        assert asyncio.run(scenario()) == [None] * len(tails)
        assert len(stack.base.rank_ahead) == 0

    def test_unlinked_and_empty_queries_are_never_predicted(self, stack):
        async def scenario():
            return [
                (await _ask(stack, text))[1]
                for text in ["qzxunseen gibberish"] * 4 + ["?!"] * 3
            ]

        assert asyncio.run(scenario()) == [None] * 7
        assert len(stack.base.rank_ahead) == 0

    def test_batches_are_never_predicted_and_teach_nothing(
        self, small_benchmark, stack
    ):
        texts = [topic.keywords for topic in small_benchmark.topics[:3]]

        async def scenario():
            labels = []
            for _ in range(3):
                with tracing.start_trace() as trace:
                    responses = await stack.service.batch_expand(texts, 5)
                expected = stack.reference.batch_expand(texts, 5)
                assert [_answer(r) for r in responses] == \
                    [_answer(r) for r in expected]
                labels.append(trace.labels.get("rank_ahead"))
            learned = len(stack.base.rank_ahead)
            # ... and singles learned meanwhile are not used by a batch.
            await _outcomes(stack, texts[0], [5, 5])
            with tracing.start_trace() as trace:
                await stack.service.batch_expand(texts, 5)
            stack.reference.batch_expand(texts, 5)
            return labels, learned, trace.labels.get("rank_ahead")

        assert asyncio.run(scenario()) == ([None] * 3, 0, None)


class TestLinkOnTheLoop:
    def test_hits_are_answered_on_the_loop_and_counted_like_the_sync_router(
        self, small_benchmark, stack
    ):
        topics = [topic.keywords for topic in small_benchmark.topics[:3]]
        stream = [
            topics[0], topics[1], topics[0].upper(), "qzxunseen", topics[2],
            f" {topics[1]}! ", "qzxunseen", topics[0], f"{topics[2]} qzxunseen",
            topics[2],
        ]
        ran: list[tuple[str, bool, bool]] = []
        link_text = stack.base.link_text

        def recorded(normalized):
            result = link_text(normalized)
            on_loop = threading.current_thread() is threading.main_thread()
            ran.append((normalized, result[1], on_loop))
            return result

        stack.base.link_text = recorded

        async def scenario():
            return [(await _ask(stack, text, 5))[0] for text in stream]

        responses = asyncio.run(scenario())
        mine = stack.base.stats()["link_cache"]
        theirs = stack.reference.stats()["link_cache"]
        assert (mine["hits"], mine["misses"]) == (theirs["hits"], theirs["misses"])
        assert mine["misses"] == len({stack.base.normalize(t) for t in stream})
        # One recorded lookup per request; it ran on the loop iff it hit.
        assert len(ran) == len(stream)
        assert all(cached == on_loop for _, cached, on_loop in ran)
        for response in responses:
            (link,) = [s for s in response.trace.spans if s.stage == "link"]
            assert link.labels["cached"] == response.link_cached

    def test_a_title_delta_invalidates_what_the_loop_would_have_answered(
        self, small_benchmark, stack
    ):
        text, seeds = _head(small_benchmark, stack)

        async def scenario():
            await _outcomes(stack, text, [5, 5])
            stack.apply(_delta_payloads(
                min(seeds), first_seq=1, changes_expansion=False
            ))
            first, _ = await _ask(stack, "rank ahead page", 5)
            again, _ = await _ask(stack, "rank ahead page", 5)
            return first, again

        first, again = asyncio.run(scenario())
        assert first.link.article_ids == again.link.article_ids == {_NEW}
        assert (first.link_cached, again.link_cached) == (False, True)


def _record_calls(service):
    """Wrap every adapter call to note ``(event, call, shard, argument)``
    on the loop, and every frame a socket adapter writes."""
    events: list[tuple] = []
    frames: list[tuple[int, str, bytes]] = []

    def wrap(adapter, shard, name):
        inner = getattr(adapter, name)

        async def recorded(argument):
            events.append(("start", name, shard, argument))
            try:
                return await inner(argument)
            finally:
                events.append(("end", name, shard, argument))

        setattr(adapter, name, recorded)

    def wrap_frames(adapter, shard):
        inner = adapter._attempt_once

        async def recorded(call, frame):
            frames.append((shard, call, frame))
            return await inner(call, frame)

        adapter._attempt_once = recorded

    for shard, adapter in enumerate(service.adapters):
        for name in ("expand_seeds", "leaf_collection_counts",
                     "search_with_background"):
            wrap(adapter, shard, name)
        if hasattr(adapter, "_attempt_once"):
            wrap_frames(adapter, shard)
    return events, frames


class TestSameCallsSameBytes:
    def test_a_predicted_request_makes_an_unpredicted_ones_calls(
        self, small_benchmark, stack
    ):
        text, seeds = _head(small_benchmark, stack)
        owner = stack.base.owner_shard(seeds)
        events, frames = _record_calls(stack.service)

        async def one():
            del events[:], frames[:]
            # One trace id for both: the frames carry it.
            with tracing.start_trace(tracing.Trace("t-rank-ahead")):
                response = await stack.service.expand_query(text, 10)
            return response, list(events), list(frames)

        async def scenario():
            await stack.service.expand_query(text, 10)  # cold
            return await one(), await one()

        (plain, plain_events, plain_frames), (early, early_events, early_frames) = \
            asyncio.run(scenario())
        assert "rank_ahead" not in plain.trace.labels
        assert early.trace.labels["rank_ahead"] == "used"
        assert _answer(early) == _answer(plain)

        def calls(recorded):
            return sorted(
                (call, shard) for event, call, shard, _ in recorded
                if event == "start"
            )

        assert calls(early_events) == calls(plain_events) == sorted(
            [("expand_seeds", owner)]
            + [("search_with_background", shard) for shard in range(SHARDS)]
        )
        arguments = [
            [arg for event, call, _, arg in recorded
             if (event, call) == ("start", "search_with_background")]
            for recorded in (plain_events, early_events)
        ]
        assert arguments[0] == arguments[1]  # equal requests, by value
        # Only the order differs: every rank call of the predicted
        # request started before expand_seeds came back.
        expand_end = ("end", "expand_seeds", owner, seeds)
        started_before = [
            call for event, call, *_ in
            early_events[:early_events.index(expand_end)] if event == "start"
        ]
        assert started_before.count("search_with_background") == SHARDS
        assert not any(
            call == "search_with_background" for _, call, *_ in
            plain_events[:plain_events.index(expand_end)]
        )
        if stack.kind == "socket":
            assert len(early_frames) == 1 + SHARDS
            assert sorted(early_frames) == sorted(plain_frames)


class TestNothingOrphaned:
    """With a predicted fan-out in flight, the unhappy paths."""

    @staticmethod
    def _hold(stack, gate, call="search_with_background"):
        """Hold every rank call (or every ``call``) until ``gate`` is set;
        note how each ended."""
        ended: list[str] = []

        def wrap(adapter):
            inner = getattr(adapter, call)

            async def held(request):
                try:
                    await gate.wait()
                    result = await inner(request)
                except asyncio.CancelledError:
                    ended.append("cancelled")
                    raise
                ended.append("answered")
                return result

            setattr(adapter, call, held)

        for adapter in stack.service.adapters:
            wrap(adapter)
        return ended

    @staticmethod
    def _loop_errors():
        seen: list[dict] = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: seen.append(context)
        )
        return seen

    @staticmethod
    def _others():
        return asyncio.all_tasks() - {asyncio.current_task()}

    def test_a_dead_owner_leaves_no_task_and_no_unretrieved_exception(
        self, small_benchmark, stack
    ):
        text, seeds = _head(small_benchmark, stack)
        owner = stack.service.adapters[stack.base.owner_shard(seeds)]

        async def scenario():
            errors = self._loop_errors()
            await _outcomes(stack, text, [10, 10, 10])
            ended = self._hold(stack, asyncio.Event())  # never set

            async def dead(_seeds):
                await asyncio.sleep(0.01)  # the fan-out is in flight by now
                raise ShardUnavailableError(0, "owner is gone")

            owner.expand_seeds = dead
            with pytest.raises(ShardUnavailableError):
                await stack.service.expand_query(text, 10)
            pending = self._others()
            gc.collect()
            await asyncio.sleep(0)
            return ended, pending, errors

        ended, pending, errors = asyncio.run(scenario())
        assert ended == ["cancelled"] * SHARDS
        assert pending == set() and errors == []
        assert stack.base.stats()["errors"] == 1

    def test_a_failed_fan_out_that_is_discarded_is_dropped_silently(
        self, small_benchmark, stack
    ):
        """The guess ranks and fails; the plan asks for something else,
        so the failure is nobody's: the answer is the plan's own."""
        text, seeds = _head(small_benchmark, stack)

        async def scenario():
            errors = self._loop_errors()
            await _outcomes(stack, text, [10, 10])
            call, items = stack.base.rank_ahead.peek((seeds, 10))
            wrong = wire.SearchRequest(
                items[0][1].root, items[0][1].background, 11
            )
            stack.base.rank_ahead.put(
                (seeds, 10), (call, [(shard, wrong) for shard, _ in items])
            )
            for adapter in stack.service.adapters:
                inner = adapter.search_with_background

                async def picky(request, inner=inner):
                    if request.top_k == 11:
                        raise WorkerCallError(0, "ValueError", "a bad guess")
                    return await inner(request)

                adapter.search_with_background = picky
            _, outcome = await _ask(stack, text)
            relearned = stack.base.rank_ahead.peek((seeds, 10))[1][0][1].top_k
            gc.collect()
            await asyncio.sleep(0)
            return outcome, relearned, self._others(), errors

        assert asyncio.run(scenario()) == ("discarded", 10, set(), [])

    def test_a_failed_fan_out_that_is_used_fails_the_request_once(
        self, small_benchmark, stack
    ):
        text, _ = _head(small_benchmark, stack)

        async def scenario():
            errors = self._loop_errors()
            await _outcomes(stack, text, [10, 10, 10])

            async def broken(_request):
                raise WorkerCallError(1, "ValueError", "segment on fire")

            stack.service.adapters[1].search_with_background = broken
            with pytest.raises(WorkerCallError, match="segment on fire"):
                await stack.service.expand_query(text, 10)
            # gather leaves the failed call's sibling to finish, as ever.
            await asyncio.sleep(0.1)
            gc.collect()
            await asyncio.sleep(0)
            return self._others(), errors

        assert asyncio.run(scenario()) == (set(), [])
        stats = stack.base.stats()
        assert (stats["errors"], stats["queries"]) == (1, 3)

    def test_cancelling_the_request_cancels_the_fan_out(
        self, small_benchmark, stack
    ):
        text, _ = _head(small_benchmark, stack)

        async def scenario():
            errors = self._loop_errors()
            await _outcomes(stack, text, [10, 10, 10])
            ended = self._hold(stack, asyncio.Event())  # never set
            plan = stack.base.query_plan(
                "expand_query", [stack.base.normalize(text)], 10
            )
            request = asyncio.ensure_future(stack.service._run(plan, 10))
            await asyncio.sleep(0.05)  # expand_seeds is back; the rank is held
            assert ended == [] and len(self._others()) > 1
            request.cancel()
            with pytest.raises(asyncio.CancelledError):
                await request
            return ended, self._others(), errors

        ended, pending, errors = asyncio.run(scenario())
        assert ended == ["cancelled"] * SHARDS
        assert pending == set() and errors == []

    def test_a_cancelled_awaiter_does_not_strand_the_shared_computation(
        self, small_benchmark, stack
    ):
        """Two requests share the seed set's in-flight ``expand_seeds``;
        the one that started it is cancelled, and the call still answers
        the other."""
        text, _ = _head(small_benchmark, stack)

        async def scenario():
            await _outcomes(stack, text, [10, 10, 10])
            gate = asyncio.Event()
            ended = self._hold(stack, gate, "expand_seeds")
            impatient = asyncio.ensure_future(stack.service.expand_query(text, 10))
            patient = asyncio.ensure_future(stack.service.expand_query(text, 10))
            await asyncio.sleep(0.05)
            impatient.cancel()
            gate.set()
            response = await patient
            await asyncio.sleep(0)
            return response, ended, self._others()

        response, ended, pending = asyncio.run(scenario())
        assert response.trace.labels["rank_ahead"] == "used"
        assert ended == ["answered"] and pending == set()
        assert_same_answers(
            response, stack.reference.expand_query(text, 10), label=text
        )

    def test_a_cancelled_awaiter_does_not_strand_a_shared_rank(
        self, small_benchmark, stack
    ):
        """Two requests share each shard's held ``search_with_background``
        (the one sent ahead); the one that sent it is cancelled, and each
        call still answers the other, once."""
        text, _ = _head(small_benchmark, stack)

        async def scenario():
            await _outcomes(stack, text, [10, 10, 10])
            gate = asyncio.Event()
            ended = self._hold(stack, gate)
            impatient = asyncio.ensure_future(stack.service.expand_query(text, 10))
            patient = asyncio.ensure_future(stack.service.expand_query(text, 10))
            await asyncio.sleep(0.05)
            impatient.cancel()
            gate.set()
            response = await patient
            await asyncio.sleep(0)
            return response, ended, self._others()

        response, ended, pending = asyncio.run(scenario())
        assert response.trace.labels["rank_ahead"] == "used"
        assert ended == ["answered"] * SHARDS and pending == set()
        assert_same_answers(
            response, stack.reference.expand_query(text, 10), label=text
        )


class TestWorkersDyingMidFlight:
    """Real worker processes killed by the call the prediction sent."""

    def test_a_rank_worker_killed_by_the_early_send_is_one_fallback_answer(
        self, small_benchmark, sharded, tmp_path
    ):
        # The third rank call shard 1 receives is the first predicted one.
        stack = _open_stack(
            "socket", sharded, tmp_path,
            fault_specs={1: "kill@3:search_with_background"}, max_restarts=0,
            policy=ShardCallPolicy(max_attempts=2, backoff_base_s=0.05),
        )
        try:
            text, _ = _head(small_benchmark, stack, owner=0)

            async def scenario():
                return await _outcomes(stack, text, [10, 10, 10, 10])

            assert asyncio.run(scenario()) == [None, None, "used", "used"]
            fallbacks = [a.fallback_calls_total for a in stack.service.adapters]
            assert fallbacks == [0, 2]  # once for the kill, once after it
            stats = stack.service.stats()
            assert (stats["queries"], stats["errors"]) == (4, 0)
            assert stats["worker_restarts"] == 0
        finally:
            stack.close()

    def test_a_restarted_rank_worker_answers_the_early_send_on_retry(
        self, small_benchmark, sharded, tmp_path
    ):
        stack = _open_stack(
            "socket", sharded, tmp_path,
            fault_specs={1: "kill@3:search_with_background"}, max_restarts=3,
            policy=ShardCallPolicy(
                max_attempts=12, backoff_base_s=0.25, backoff_max_s=1.0,
            ),
        )
        try:
            text, _ = _head(small_benchmark, stack, owner=0)

            async def scenario():
                return await _outcomes(stack, text, [10, 10, 10])

            assert asyncio.run(scenario()) == [None, None, "used"]
            adapter = stack.service.adapters[1]
            assert adapter.fallback_calls_total == 0
            assert adapter.retries_total >= 1
            stats = stack.service.stats()
            assert (stats["queries"], stats["errors"]) == (3, 0)
            assert stats["worker_restarts"] == 1
        finally:
            stack.close()

    def test_an_owner_killed_by_expand_seeds_is_one_error(
        self, small_benchmark, sharded, tmp_path
    ):
        stack = _open_stack(
            "socket", sharded, tmp_path,
            fault_specs={1: "kill@3:expand_seeds"}, max_restarts=0,
            policy=ShardCallPolicy(max_attempts=2, backoff_base_s=0.05),
        )
        try:
            text, _ = _head(small_benchmark, stack, owner=1)

            async def scenario():
                errors = TestNothingOrphaned._loop_errors()
                await _outcomes(stack, text, [10, 10])
                with pytest.raises(ShardUnavailableError) as err:
                    await stack.service.expand_query(text, 10)
                gc.collect()
                await asyncio.sleep(0)
                return err.value, TestNothingOrphaned._others(), errors

            error, pending, errors = asyncio.run(scenario())
            assert error.shard_id == 1
            assert pending == set() and errors == []
            stats = stack.service.stats()
            assert (stats["queries"], stats["errors"]) == (2, 1)
        finally:
            stack.close()


def test_concurrent_cached_queries_never_re_dial(small_benchmark, sharded, tmp_path):
    """Four requests at once hold up to eight connections to one worker
    (``expand_seeds`` plus the early rank call, each).  The pool used to
    keep two and close the rest, so every burst paid connect + hello."""
    stack = _open_stack("socket", sharded, tmp_path)
    try:
        texts = [topic.keywords for topic in small_benchmark.topics[:4]]
        adapters = stack.service.adapters

        def dials():
            return sum(adapter.connects_total for adapter in adapters)

        async def scenario():
            for text in texts:
                assert (await _outcomes(stack, text, [10] * 3))[-1] == "used"
            for adapter in adapters:
                adapter.close()  # the first round below dials every call
            counts = [dials()]
            for _ in range(50):
                responses = await asyncio.gather(*(
                    stack.service.expand_query(text, 10) for text in texts
                ))
                assert all(
                    r.trace.labels["rank_ahead"] == "used" for r in responses
                )
                counts.append(dials())
            return responses, counts

        responses, (idle, first, *later) = asyncio.run(scenario())
        assert first - idle > 2 * SHARDS  # more at once than the old pool kept
        assert later == [first] * 49
        for text, response in zip(texts, responses):
            assert_same_answers(
                response, stack.reference.expand_query(text, 10), label=text
            )
        assert stack.service.stats()["worker_restarts"] == 0
    finally:
        stack.close()


def test_a_restart_costs_one_attempt_however_many_connections_idle(
    small_benchmark, sharded, tmp_path
):
    """A restarted worker strands every idle connection at once, and the
    default policy has three attempts: with more than two stale ones in
    the pool, spending an attempt on each would fail the call (a 503 or
    a silent fallback) against a healthy worker."""
    stack = _open_stack("socket", sharded, tmp_path, max_restarts=3)
    try:
        texts = [topic.keywords for topic in small_benchmark.topics[:4]]
        adapters, supervisor = stack.service.adapters, stack.supervisor

        async def scenario():
            for text in texts:
                assert (await _outcomes(stack, text, [10] * 3))[-1] == "used"
            await asyncio.gather(*(
                stack.service.expand_query(text, 10) for text in texts
            ))
            idle = [len(adapter._pool) for adapter in adapters]
            for shard in range(SHARDS):
                os.kill(supervisor.describe()[shard]["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 60.0
            while supervisor.restarts_total < SHARDS or supervisor.degraded:
                assert time.monotonic() < deadline, supervisor.describe()
                time.sleep(0.05)  # blocking: this loop sees no EOF meanwhile
            return idle, [await stack.service.expand_query(t, 10) for t in texts]

        idle, responses = asyncio.run(scenario())
        assert min(idle) >= ShardCallPolicy().max_attempts
        for text, response in zip(texts, responses):
            assert response.trace.labels["rank_ahead"] == "used"
            assert_same_answers(
                response, stack.reference.expand_query(text, 10), label=text
            )
        assert [a.fallback_calls_total for a in adapters] == [0] * SHARDS
        assert sum(a.retries_total for a in adapters) >= 1
        stats = stack.service.stats()
        assert (stats["errors"], stats["worker_restarts"]) == (0, SHARDS)
    finally:
        stack.close()
