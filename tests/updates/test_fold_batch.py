"""``fold_batch`` and ``successor_linker`` against from-scratch rebuilds,
under generated deltas.

The write path patches what it used to rebuild: the successor linker is
derived from the serving one, and the delta ball reads untouched nodes
straight off the CSR rows of the compact base.  Both shortcuts must be
*exact*.  ``hypothesis`` draws small typed graphs and random valid
sequences of all five ops — titles that tokenise identically
(``"Color"`` / ``"Color!"``), removal of a key's owner and of a
shadowed non-owner, remove-then-re-add, new ids below and above the
base's, redirects set onto and away from linked articles, over-long and
empty-token titles — and after every batch requires

* the successor linker's ``vocabulary()`` and ``link()`` over a query
  pool to equal ``EntityLinker(after_view, tokenizer)`` built from
  scratch;
* the ball to equal the view-walking ball PR 14 replaced (kept below
  as the oracle), over the dict ``WikiGraph`` (the oracle form: the
  ball's view path) and over the compact base (its CSR path);
* the expansion keys that ball evicts from a cache to be the same keys.

A second property drives a real router + coordinator and a standalone
worker + ``ShardWorkerUpdater`` through the same generated log and
requires the same ``(last_seq, ball, evicted keys)`` from both.

A third states what eviction is *for* (ROADMAP item 4's soundness
property): over an archipelago of clusters, after every generated batch
each expansion-cache entry the delta ball let survive — anchor entry or
composite — equals a fresh DFS expansion on the post-delta graph.

Fixed-seed (``derandomize``): tier-1 draws the same cases every run.
"""

import random
from unittest import mock

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import NeighborhoodCycleExpander
from repro.errors import DeltaError
from repro.linking import EntityLinker
from repro.retrieval import SearchEngine
from repro.retrieval.tokenizer import Tokenizer
from repro.service import ExpansionService, ShardRouter, make_shard_worker
from repro.service.cache import LRUCache
from repro.updates import (
    INVALIDATION_RADIUS,
    Delta,
    OverlayGraphView,
    OverlayState,
    ShardWorkerUpdater,
    UpdateCoordinator,
    apply_deltas,
    changed_nodes,
    delta_ball,
    expansion_eviction_predicate,
)
from repro.updates import coordinator as coordinator_module
from repro.updates.coordinator import fold_batch, successor_linker
from repro.wiki import WikiGraphBuilder
from repro.wiki.compact import CompactGraphView

from update_helpers import cached_expansion_keys

# Titles grouped by what they tokenise to.  Within a group every title
# normalises differently (so validation admits them side by side) but
# the linker sees one key — the lowest id owns it.  The last two have no
# key at all: no tokens, and more tokens than ``max_title_tokens``.
TITLE_POOL = (
    "Color", "Color!", "color?", "(Color)",
    "Red Fox", "Red-Fox", "red, fox",
    "Fox", "fox!",
    "Grey", "Harbour Town", "Harbour",
    "!!!", "?!",
    "a b c d e f g h i j k l m", "n o p q r s t u v w x y z",
)
QUERIES = (
    "color", "the red fox", "red fox color", "fox", "harbour town grey",
    "harbour", "grey color!", "red", "a b c d e f g h i j k l m", "!!!",
    "town fox red fox",
)
# New article ids fall both below and above the base graph's (100..).
NEW_IDS = tuple(range(1, 7)) + tuple(range(900, 906))


@st.composite
def typed_graphs(draw):
    """A small graph with every edge kind and colliding base titles."""
    rng = random.Random(draw(st.integers(0, 2**20)))
    builder = WikiGraphBuilder(strict=False)
    titles = rng.sample(TITLE_POOL, draw(st.integers(3, 9)))
    articles = [
        builder.add_article(title, node_id=100 + i)
        for i, title in enumerate(titles)
    ]
    categories = [
        builder.add_category(f"cat{i}", node_id=200 + i)
        for i in range(draw(st.integers(1, 3)))
    ]
    redirects = [
        builder.add_article(f"alias {i}", is_redirect=True, node_id=300 + i)
        for i in range(draw(st.integers(0, 2)))
    ]
    for redirect in redirects:
        builder.add_redirect(redirect, rng.choice(articles))
    for article in articles:
        for category in categories:
            if rng.random() < 0.4:
                builder.add_belongs(article, category)
        for target in articles + redirects:
            if target != article and rng.random() < 0.3:
                builder.add_link(article, target)
    for child in categories:
        for parent in categories:
            if child < parent and rng.random() < 0.4:
                builder.add_inside(child, parent)
    return builder.build()


def _candidate(rng, view, seq):
    """One random delta, usually valid against ``view``."""
    articles = [a.node_id for a in view.articles()]
    mains = [a.node_id for a in view.main_articles()]
    categories = [c.node_id for c in view.categories()]
    op = rng.choice(
        ("add_article", "add_article", "remove_article", "remove_article",
         "add_edge", "add_edge", "remove_edge", "set_redirect")
    )
    if op == "add_article":
        return Delta(op=op, seq=seq, node_id=rng.choice(NEW_IDS),
                     title=rng.choice(TITLE_POOL))
    if op == "remove_article" and len(articles) > 2:  # a linker needs one
        return Delta(op=op, seq=seq, node_id=rng.choice(articles))
    if op in ("set_redirect", "remove_article"):
        return Delta(op="set_redirect", seq=seq, node_id=rng.choice(articles),
                     target=rng.choice(mains or articles))
    kind = rng.choice(("link", "link", "belongs", "inside"))
    sources = categories if kind == "inside" else (mains or articles)
    targets = articles if kind == "link" else categories
    source = rng.choice(sources)
    if op == "remove_edge":
        existing = sorted({
            "link": view.links_from, "belongs": view.categories_of,
            "inside": view.parents_of,
        }[kind](source))
        if existing:
            return Delta(op=op, seq=seq, source=source,
                         target=rng.choice(existing), kind=kind)
        op = "add_edge"
    return Delta(op=op, seq=seq, source=source, target=rng.choice(targets),
                 kind=kind)


def plan_batches(rng, base, num_batches, *, candidate=_candidate):
    """Random batches, each valid against the state the previous left."""
    state, seq, batches = OverlayState(), 0, []
    for _ in range(num_batches):
        batch = []
        for _ in range(rng.randint(1, 4)):
            for _attempt in range(12):
                delta = candidate(rng, OverlayGraphView(base, state), seq + 1)
                try:
                    state, _ = apply_deltas(base, state, [delta])
                except DeltaError:
                    continue
                batch.append(delta)
                seq += 1
                break
        if batch:
            batches.append(batch)
    return batches


def view_walking_ball(sources, before, after, radius=INVALIDATION_RADIUS):
    """The ball as the write path computed it before: every node asked
    of both views through ``undirected_neighbors``."""
    def neighbors(view, node):
        return view.undirected_neighbors(node) if node in view else ()

    ball, frontier = set(sources), set(sources)
    for _ in range(radius):
        reached = set()
        for node in frontier:
            reached.update(neighbors(before, node), neighbors(after, node))
        frontier = reached - ball
        ball |= frontier
    return frozenset(ball)


def evicted_keys(ball, keys):
    cache = LRUCache(len(keys))
    for key in keys:
        cache.put(key, object())
    cache.evict_where(expansion_eviction_predicate(ball))
    return set(keys) - set(cache.keys())


@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(graph=typed_graphs(), seed=st.integers(0, 2**20))
def test_successor_linker_and_ball_equal_the_rebuilds(graph, seed):
    rng = random.Random(seed)
    tokenizer = Tokenizer()
    bases = (graph, CompactGraphView.from_graph(graph))
    node_ids = sorted(graph.node_ids()) + list(NEW_IDS)
    keys = [frozenset(rng.sample(node_ids, rng.randint(1, 3)))
            for _ in range(12)]
    # The serving stack starts from a prebuilt vocabulary (snapshot
    # load): winners only, no record of who was shadowed.
    vocabulary = EntityLinker(graph, tokenizer).vocabulary()
    assume(vocabulary)  # no snapshot holds an empty one
    for base in bases:
        state = OverlayState()
        linker = EntityLinker(
            OverlayGraphView(base, state), tokenizer, title_index=vocabulary
        )
        for batch in plan_batches(rng, base, rng.randint(1, 5)):
            new_state, applied, ball = fold_batch(base, state, batch)
            assert applied == batch
            new_linker = successor_linker(linker, base, state, new_state, applied)
            before = OverlayGraphView(base, state)
            after = OverlayGraphView(base, new_state)

            rebuilt = EntityLinker(after, tokenizer)
            titled = any(d.op not in ("add_edge", "remove_edge") for d in batch)
            assert (new_linker is not None) == titled
            serving = new_linker or linker
            assert serving.vocabulary() == rebuilt.vocabulary(), batch
            for query in QUERIES:
                assert serving.link(query) == rebuilt.link(query), (batch, query)

            expected = view_walking_ball(changed_nodes(batch), before, after)
            assert ball == expected, batch
            assert delta_ball(
                changed_nodes(batch), before=before, after=after
            ) == expected
            assert evicted_keys(ball, keys) == evicted_keys(expected, keys)

            # Published linkers are immutable: the predecessor still
            # answers for the state it was built over.
            assert linker.vocabulary() == \
                EntityLinker(before, tokenizer).vocabulary()
            state, linker = new_state, serving


def _benchmark_candidate(new_base):
    def candidate(rng, view, seq):
        if rng.random() < 0.3:
            return Delta(op="add_article", seq=seq,
                         node_id=new_base + rng.randrange(6),
                         title=f"Fold Batch Page {rng.randrange(4)}")
        return _candidate(rng, view, seq)
    return candidate


@settings(
    max_examples=12, deadline=None, derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)
@given(seed=st.integers(0, 2**20))
def test_coordinator_and_worker_updater_agree_on_one_log(sharded2, seed):
    """Same log in, same ``(last_seq, ball, evicted keys)`` out — the
    router's coordinator and a worker process's updater run the one
    fold over the one compact base."""
    rng = random.Random(seed)
    sharded = sharded2.frozen()
    mains = [a.node_id for a in sharded.graph.main_articles()]
    keys = [frozenset(rng.sample(mains, 2)) for _ in range(6)]
    batches = plan_batches(
        rng, sharded.graph, 3, candidate=_benchmark_candidate(9_500_000)
    )

    router = ShardRouter(sharded)
    worker = make_shard_worker(sharded.shard(0))
    sides = (
        (UpdateCoordinator(router), router.workers[0]),
        (ShardWorkerUpdater(worker, sharded.graph), worker),
    )
    balls = []

    def recording(*args):
        folded = fold_batch(*args)
        balls.append(folded[2])
        return folded

    try:
        with mock.patch.object(coordinator_module, "fold_batch", recording):
            for batch in batches:
                live = [key for key in keys
                        if all(node in router.graph for node in key)]
                outcomes = []
                for updater, service in sides:
                    for key in live:
                        service.expand_seeds(key)
                    if isinstance(updater, UpdateCoordinator):
                        summary = updater.apply([d.to_payload() for d in batch])
                    else:
                        summary = updater.apply(batch)
                    outcomes.append((
                        summary["last_seq"], summary["ball_size"], balls[-1],
                        set(live) - cached_expansion_keys(service),
                    ))
                assert outcomes[0] == outcomes[1], batch
                assert outcomes[0][0] == batch[-1].seq
                assert outcomes[0][1] == len(outcomes[0][2])
    finally:
        router.close()


@st.composite
def archipelagos(draw):
    """Dense little clusters with no edge between them: a radius-5 ball
    swallows the cluster a delta touches and leaves the others alone
    (until generated edges bridge them)."""
    rng = random.Random(draw(st.integers(0, 2**20)))
    builder = WikiGraphBuilder(strict=False)
    for island in range(draw(st.integers(2, 4))):
        articles = [
            builder.add_article(f"isle{island} page{i}", node_id=1000 * island + 100 + i)
            for i in range(draw(st.integers(3, 5)))
        ]
        categories = [
            builder.add_category(f"isle{island} cat{i}", node_id=1000 * island + 200 + i)
            for i in range(2)
        ]
        for article in articles:
            for category in categories:
                if rng.random() < 0.7:
                    builder.add_belongs(article, category)
            for target in articles:
                if target != article and rng.random() < 0.5:
                    builder.add_link(article, target)
        builder.add_inside(categories[0], categories[1])
    return builder.build()


@settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(graph=archipelagos(), seed=st.integers(0, 2**20))
def test_every_surviving_expansion_equals_a_fresh_one_after_the_delta(graph, seed):
    rng = random.Random(seed)
    tokenizer = Tokenizer()
    oracle = NeighborhoodCycleExpander(engine="dfs")
    for base in (graph, CompactGraphView.from_graph(graph)):
        state = OverlayState()
        view = OverlayGraphView(base, state)
        service = ExpansionService(
            view, SearchEngine(tokenizer), None, allow_empty_index=True
        )
        for batch in plan_batches(rng, base, rng.randint(2, 5)):
            # Seed sets of 1-3 anchors: the later ones are composed from
            # the anchor entries the earlier ones left behind.
            mains = sorted(a.node_id for a in view.main_articles())
            for _ in range(10):
                service.expand_seeds(frozenset(
                    rng.sample(mains, rng.randint(1, min(3, len(mains))))
                ))
            state, _, ball = fold_batch(base, state, batch)
            view = OverlayGraphView(base, state)
            service.set_graph(view)
            service.evict_expansions(expansion_eviction_predicate(ball))

            survivors: set = set()
            service.evict_expansions(lambda key: survivors.add(key) or False)
            for key in survivors:
                assert ball.isdisjoint(key)
                cached, hit = service.expand_seeds(key)
                assert hit and cached == oracle.expand(view, key), \
                    (batch, sorted(key))
