"""The query plan without any IO: drive the generator by hand.

``ShardRouter.query_plan`` yields the shard calls a request needs and is
sent their results, so the sequence of steps it yields *is* the wire
traffic of the request — whichever driver executes it.  These tests
drive it with a recording backend (plain calls on the router's own
workers: no pool, no event loop, no socket) and pin that sequence.
"""

import pytest

from repro.obs import trace as tracing
from repro.retrieval.engine import collect_leaves
from repro.retrieval.qlang import CombineNode, PhraseNode, TermNode
from repro.service import ShardRouter, ShardedSnapshot
from repro.service.cache import LRUCache

SHARDS = 3
UNSEEN = "qzxunseen"


@pytest.fixture()
def router(snapshot):
    router = ShardRouter(ShardedSnapshot.from_snapshot(snapshot, num_shards=SHARDS))
    yield router
    router.close()


class RecordingBackend:
    """Answers plan steps from the router's workers and records them."""

    def __init__(self, router):
        self._router = router
        self.steps: list[tuple[str, list]] = []

    def run(self, plan):
        value = None
        try:
            while True:
                call, items = plan.send(value)
                self.steps.append((call, list(items)))
                value = [
                    getattr(
                        self._router if shard is None
                        else self._router.workers[shard], call,
                    )(argument)
                    for shard, argument in items
                ]
        except StopIteration as done:
            return done.value

    @property
    def calls(self) -> list[str]:
        """The call of every step, in order."""
        return [call for call, _ in self.steps]

    def shard_calls(self) -> list[tuple[str, int]]:
        """``(call, shard)`` of every item sent to a worker — the wire
        traffic; the router's own linking is left out."""
        return [
            (call, shard) for call, items in self.steps
            for shard, _ in items if shard is not None
        ]

    def items(self, call: str) -> list:
        (found,) = [items for name, items in self.steps if name == call]
        return found


def _serve(router, path, texts, top_k=5):
    backend = RecordingBackend(router)
    return backend, backend.run(router.query_plan(path, texts, top_k))


class TestSingleQuery:
    def test_cold_query_probes_every_shard_once_then_scores(
        self, small_benchmark, router
    ):
        keywords = small_benchmark.topics[0].keywords
        backend, (response,) = _serve(router, "expand_query", [keywords])
        owner = router.owner_shard(response.link.article_ids)
        assert backend.calls == [
            "link_text", "expand_seeds",
            "leaf_collection_counts", "search_with_background",
        ]
        assert backend.items("link_text") == [(None, router.normalize(keywords))]
        assert backend.items("expand_seeds") == [
            (owner, response.link.article_ids)
        ]
        root = router.build_query(response.normalized_query, response.expansion)
        # Nothing is cached yet: the probe carries every leaf, to every shard.
        assert backend.items("leaf_collection_counts") == [
            (shard, CombineNode(tuple(collect_leaves(root))))
            for shard in range(SHARDS)
        ]
        requests = backend.items("search_with_background")
        assert [shard for shard, _ in requests] == list(range(SHARDS))
        assert len({id(request) for _, request in requests}) == 1  # shared
        assert requests[0][1].root == root and requests[0][1].top_k == 5
        assert response.query == keywords and response.trace is not None
        assert not response.link_cached and not response.expansion_cached

    def test_known_leaves_cost_one_plus_n_calls_never_one_plus_2n(
        self, small_benchmark, router
    ):
        """The PR 12 gain as a count: a repeated query is ``expand_seeds``
        on the owner plus one ``search_with_background`` per shard."""
        keywords = small_benchmark.topics[0].keywords
        _, (cold,) = _serve(router, "expand_query", [keywords])
        backend, (warm,) = _serve(router, "expand_query", [keywords.upper()])
        owner = router.owner_shard(cold.link.article_ids)
        assert backend.shard_calls() == [("expand_seeds", owner)] + [
            ("search_with_background", shard) for shard in range(SHARDS)
        ]
        assert warm.link_cached and warm.expansion_cached
        assert warm.query == keywords.upper()
        assert [repr(r) for r in warm.results] == [repr(r) for r in cold.results]

    def test_probe_carries_only_the_missing_leaves(self, small_benchmark, router):
        first, other = (t.keywords for t in small_benchmark.topics[:2])
        both = f"{first} {other}"  # shares the first topic's seed titles
        _serve(router, "expand_query", [first])
        backend, (response,) = _serve(router, "expand_query", [both])
        leaves = collect_leaves(
            router.build_query(response.normalized_query, response.expansion)
        )
        _, (alone,) = _serve(router, "expand_query", [first])
        known = set(collect_leaves(
            router.build_query(alone.normalized_query, alone.expansion)
        ))
        missing = tuple(leaf for leaf in leaves if leaf not in known)
        assert 0 < len(missing) < len(leaves)
        assert backend.items("leaf_collection_counts") == [
            (shard, CombineNode(missing)) for shard in range(SHARDS)
        ]
        # ... and asking again finds nothing missing at all.
        again, _ = _serve(router, "expand_query", [both + " "])
        assert "leaf_collection_counts" not in again.calls

    def test_keyword_only_query_goes_to_shard_zero_and_ranks_the_term_bag(
        self, router
    ):
        backend, (response,) = _serve(
            router, "expand_query", [f"Completely {UNSEEN} gibberish!"]
        )
        assert not response.linked
        assert backend.items("expand_seeds") == [(0, frozenset())]
        request = backend.items("search_with_background")[0][1]
        assert request.root == CombineNode((
            TermNode("completely"), TermNode(UNSEEN), TermNode("gibberish"),
        ))
        # Nothing was mined for it, anywhere.
        assert all(
            stats["expansion_cache"]["misses"] == 0
            for stats in router.stats()["per_shard"]
        )

    def test_query_that_normalises_to_nothing_makes_one_call_and_no_rank_call(
        self, router
    ):
        backend, (response,) = _serve(router, "expand_query", ["!!! ???"])
        assert backend.shard_calls() == [("expand_seeds", 0)]
        assert response.normalized_query == "" and response.results == ()


class TestBatch:
    def test_links_each_distinct_text_once_and_expands_each_seed_set_once(
        self, small_benchmark, router
    ):
        topics = [t.keywords for t in small_benchmark.topics]
        same_seeds = f"{topics[0]} {UNSEEN}"  # links to topics[0]'s seed set
        texts = [
            topics[0], topics[1], topics[0], topics[1].upper(), same_seeds,
            topics[2], f"  {topics[2]}!", UNSEEN,
        ]
        backend, responses = _serve(router, "batch_expand", texts)
        queries = list(dict.fromkeys(router.normalize(text) for text in texts))
        assert len(queries) == 5
        assert backend.calls[:2] == ["link_text", "expand_seeds"]
        assert backend.items("link_text") == [(None, query) for query in queries]

        seeds = {r.normalized_query: r.link.article_ids for r in responses}
        assert seeds[queries[0]] == seeds[router.normalize(same_seeds)]
        distinct = list(dict.fromkeys(seeds[query] for query in queries))
        assert len(distinct) == len(queries) - 1
        assert backend.items("expand_seeds") == [
            (router.owner_shard(seed_set), seed_set) for seed_set in distinct
        ]
        first, shared = responses[0], responses[4]
        assert shared.expansion is first.expansion
        assert shared.expansion_cached is first.expansion_cached is False
        # One rank fan-out for the whole batch: a request per distinct
        # root (same_seeds ranks topics[0]'s), shared by the shards it
        # is sent to.
        requests = backend.items("search_with_background")
        assert len(requests) == len(distinct) * SHARDS
        assert len({id(request) for _, request in requests}) == len(distinct)

        # Input order kept; duplicates and variants share one response,
        # labelled with the first raw text; the batch mined every seed
        # set it expanded, so nothing reports cached.
        assert [r.normalized_query for r in responses] == \
            [router.normalize(text) for text in texts]
        assert responses[0] is responses[2] and responses[1] is responses[3]
        assert responses[3].query == topics[1]
        assert not any(r.expansion_cached or r.link_cached for r in responses)
        assert all(r.trace is None for r in responses)

        again, repeats = _serve(router, "batch_expand", texts)
        assert "leaf_collection_counts" not in again.calls
        assert all(r.expansion_cached for r in repeats if r.linked)
        assert all(r.link_cached for r in repeats)

    def test_batch_answers_equal_single_answers(self, small_benchmark, router):
        texts = [t.keywords for t in small_benchmark.topics] + [UNSEEN, "?!"]
        _, batch = _serve(router, "batch_expand", texts, top_k=3)
        fresh = ShardRouter(router.snapshot)
        try:
            for text, member in zip(texts, batch):
                _, (single,) = _serve(fresh, "expand_query", [text], top_k=3)
                assert [repr(r) for r in member.results] == \
                    [repr(r) for r in single.results]
                assert member.expansion == single.expansion
        finally:
            fresh.close()


class TestRankSteps:
    def test_an_eviction_between_probe_and_use_cannot_lose_a_leaf(self, router):
        vocabulary = sorted(router.workers[0].engine.index.terms())
        root = CombineNode((
            TermNode(vocabulary[0]), TermNode(UNSEEN),
            PhraseNode((vocabulary[1], vocabulary[2])), TermNode(vocabulary[-1]),
        ))
        engines = [worker.engine for worker in router.workers]
        expected = router.global_background(
            root, [engine.leaf_collection_counts(root) for engine in engines]
        )
        # A one-entry cache: every put of the background step evicts the
        # leaf before it, and the pre-cached leaf goes with the first.
        router._collection_stats = LRUCache(1)
        backend = RecordingBackend(router)
        backend.run(router.rank_plan([CombineNode((root.children[1],))], 1))
        backend = RecordingBackend(router)
        backend.run(router.rank_plan([root], 4))
        (probe,) = {argument for _, argument in
                    backend.items("leaf_collection_counts")}
        assert probe.children == (
            root.children[0], root.children[2], root.children[3]
        )
        background = backend.items("search_with_background")[0][1].background
        assert background == expected
        assert list(background) == list(expected) == list(collect_leaves(root))

    def test_no_roots_means_no_steps(self, router):
        backend = RecordingBackend(router)
        assert backend.run(router.rank_plan([], 5)) == []
        assert backend.steps == []


class TestFailure:
    def test_a_failed_step_closes_the_plan_and_is_observed_as_an_error(
        self, small_benchmark, router
    ):
        plan = router.query_plan(
            "expand_query", [small_benchmark.topics[0].keywords], 5
        )
        with tracing.start_trace() as trace:
            assert next(plan)[0] == "link_text"
            with pytest.raises(RuntimeError, match="shard on fire"):
                plan.throw(RuntimeError("shard on fire"))
        # The link span that was open across the failed step is closed.
        assert [span.stage for span in trace.spans] == ["link"]
        exposition = router.metrics.render()
        assert 'repro_requests_total{path="expand_query"} 1' in exposition
        assert 'repro_errors_total{path="expand_query"} 1' in exposition
