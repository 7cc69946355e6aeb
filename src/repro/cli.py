"""Command-line interface.

Entry points (also importable as functions):

* ``repro-build-benchmark`` — generate and save the synthetic benchmark;
* ``repro-ground-truth``   — build the ground truth for every topic and
  print the per-query summary plus Table 2;
* ``repro-analyze``        — run the full pipeline and print every table
  and figure side by side with the paper's values;
* ``repro-expand``         — expand an ad-hoc query against a benchmark's
  knowledge graph using the cycle method (no ground truth required);
* ``repro-snapshot``       — build and save a service snapshot: one
  graph blob every process maps plus ``--shards N`` index segments
  served by the shard router; with ``--prefill [topics]`` the topics'
  queries are written to the recency file ``serve --http`` replays at
  startup (warm-cache cold starts);
* ``repro-serve``          — answer queries online from a saved service
  snapshot (build one with ``--build``), printing linked entities,
  expansion features and ranked documents per query.  The shard count
  is the snapshot's own, and the resolved layout is printed at
  startup.  With
  ``--http PORT`` the process instead serves the HTTP/JSON API
  (``/expand``, ``/search``, ``/batch_expand``, ``/stats``,
  ``/healthz``, ``/metrics`` — see ``docs/http_api.md`` and
  ``docs/observability.md``) from an asyncio front end over the shard
  router, logging slow requests as JSON lines on stderr (``--slow-ms``);
* ``repro-top``            — live terminal dashboard over a running
  ``--http`` process: request rates, cache hit bars, per-shard health
  and stage latency quantiles, refreshed every ``--interval`` seconds
  (``--once`` prints a single frame and exits);
* ``repro-loadgen``        — deterministic seeded traffic shapes
  (Zipf-skewed interactive, flash crowd, batch mix, adversarial flood,
  delta trickle) replayed closed-loop against a running ``--http``
  process (or a self-hosted one), emitting a per-shape SLO report into
  the ``loadgen_slo`` section of ``BENCH_service.json`` — see
  ``docs/loadgen.md``.

All commands are also reachable through ``python -m repro.cli <command>``,
which matters in environments where console scripts cannot be installed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.expansion import CycleExpander, NeighborhoodCycleExpander
from repro.linking.linker import EntityLinker

if TYPE_CHECKING:  # pragma: no cover - the generators load with their commands
    from repro.collection.benchmark import Benchmark

__all__ = [
    "build_benchmark_main",
    "ground_truth_main",
    "analyze_main",
    "expand_main",
    "report_main",
    "snapshot_main",
    "serve_main",
    "shard_worker_main",
    "top_main",
    "loadgen_main",
    "main",
]


def _synthetic_benchmark(seed: int, **wiki_options) -> Benchmark:
    from repro.collection.benchmark import Benchmark
    from repro.collection.synthetic import SyntheticCollectionConfig
    from repro.wiki.synthetic import SyntheticWikiConfig

    return Benchmark.synthetic(
        SyntheticWikiConfig(seed=seed, **wiki_options),
        SyntheticCollectionConfig(seed=seed + 6),
    )


def _benchmark_from_args(args: argparse.Namespace) -> Benchmark:
    if args.benchmark_dir and Path(args.benchmark_dir).exists():
        from repro.collection.benchmark import Benchmark

        return Benchmark.load(args.benchmark_dir)
    return _synthetic_benchmark(args.seed)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=7, help="generation seed (default 7)"
    )
    parser.add_argument(
        "--benchmark-dir",
        default=None,
        help="directory of a saved benchmark (generated when absent)",
    )


def build_benchmark_main(argv: list[str] | None = None) -> int:
    """Generate the synthetic benchmark and save it to a directory."""
    parser = argparse.ArgumentParser(
        prog="repro-build-benchmark", description=build_benchmark_main.__doc__
    )
    _add_common(parser)
    parser.add_argument(
        "--out", default="benchmark", help="output directory (default ./benchmark)"
    )
    parser.add_argument(
        "--domains", type=int, default=50, help="number of topics/domains"
    )
    args = parser.parse_args(argv)

    benchmark = _synthetic_benchmark(args.seed, num_domains=args.domains)
    benchmark.validate()
    benchmark.save(args.out)
    print(f"saved {benchmark!r} to {args.out}/")
    return 0


def ground_truth_main(argv: list[str] | None = None) -> int:
    """Build X(q) for every topic and print the Table 2 summary."""
    from repro import harness

    parser = argparse.ArgumentParser(
        prog="repro-ground-truth", description=ground_truth_main.__doc__
    )
    _add_common(parser)
    parser.add_argument("--verbose", action="store_true", help="per-query details")
    args = parser.parse_args(argv)

    benchmark = _benchmark_from_args(args)
    result = harness.run_pipeline(benchmark, harness.PipelineConfig(seed=args.seed + 90))
    for outcome in result.outcomes:
        expansion = len(outcome.ground_truth.expansion_set)
        line = (
            f"topic {outcome.topic.topic_id:>3}: O(base)={outcome.base_score.mean:.3f} "
            f"O(X(q))={outcome.best_score.mean:.3f} |A'|={expansion}"
        )
        print(line)
        if args.verbose:
            titles = [benchmark.graph.title(a) for a in
                      sorted(outcome.ground_truth.expansion_set)]
            print(f"    expansion features: {titles}")
    print()
    print(harness.format_five_point_table(
        harness.table2_ground_truth_precision(result),
        "Table 2 — ground truth precision",
        paper=harness.PAPER_TABLE2,
    ))
    return 0


def analyze_main(argv: list[str] | None = None) -> int:
    """Run the full pipeline and print every table and figure."""
    from repro import harness

    parser = argparse.ArgumentParser(
        prog="repro-analyze", description=analyze_main.__doc__
    )
    _add_common(parser)
    args = parser.parse_args(argv)

    benchmark = _benchmark_from_args(args)
    result = harness.run_pipeline(benchmark, harness.PipelineConfig(seed=args.seed + 90))

    print(harness.format_five_point_table(
        harness.table2_ground_truth_precision(result),
        "Table 2 — ground truth precision",
        paper=harness.PAPER_TABLE2,
    ))
    print()
    print(harness.format_five_point_table(
        harness.table3_largest_cc_stats(result),
        "Table 3 — largest connected component",
        paper=harness.PAPER_TABLE3,
    ))
    print()
    print(harness.format_table4(
        harness.table4_cycle_expansion_precision(result), result.config.ranks, harness.PAPER_TABLE4
    ))
    print()
    print(harness.format_series_comparison(
        harness.fig5_contribution_by_length(result), harness.PAPER_FIG5,
        "Figure 5 — average contribution (%) vs cycle length"))
    print()
    print(harness.format_series_comparison(
        harness.fig6_cycle_counts(result), harness.PAPER_FIG6,
        "Figure 6 — average number of cycles vs cycle length"))
    print()
    print(harness.format_series_comparison(
        harness.fig7a_category_ratio(result), harness.PAPER_FIG7A,
        "Figure 7a — average category ratio vs cycle length"))
    print()
    print(harness.format_series_comparison(
        harness.fig7b_density(result), harness.PAPER_FIG7B,
        "Figure 7b — average density of extra edges vs cycle length"))
    print()
    fig9 = harness.fig9_density_vs_contribution(result)
    print("Figure 9 — density of extra edges vs contribution")
    print("--------------------------------------------------")
    print(f"least-squares slope: {fig9.slope:+.2f} (paper: positive trend)")
    for center, mean in fig9.trend:
        print(f"  density~{center:.2f}: avg contribution {mean:+.1f}%")
    print()
    stats = harness.sec3_structural_stats(result)
    print("Section 3 structural statistics")
    print("-------------------------------")
    print(f"average TPR of LCC:        {stats.average_tpr:.3f} (paper ~0.3)")
    print(f"2-cycle linked-pair ratio: {stats.reciprocal_pair_ratio:.4f} (paper 0.1147)")
    print(f"avg query graph nodes:     {stats.average_query_graph_nodes:.1f} (paper 208.22)")
    print(f"avg cycle mining seconds:  {stats.average_cycle_seconds:.3f} (paper ~360)")
    print(f"avg improvement over base: {stats.average_improvement_percent:+.1f}%")
    return 0


def expand_main(argv: list[str] | None = None) -> int:
    """Expand a keyword query using cycle structure (no ground truth)."""
    parser = argparse.ArgumentParser(
        prog="repro-expand", description=expand_main.__doc__
    )
    _add_common(parser)
    parser.add_argument("keywords", help='query keywords, e.g. "gondola in venice"')
    parser.add_argument(
        "--lengths", default="2,3,4,5", help="cycle lengths to use (default 2,3,4,5)"
    )
    parser.add_argument(
        "--min-category-ratio", type=float, default=0.2,
        help="minimum per-cycle category ratio (default 0.2, ~paper's 30%% rule)",
    )
    parser.add_argument("--top-k", type=int, default=10, help="results to print")
    args = parser.parse_args(argv)

    try:
        lengths = tuple(int(part) for part in args.lengths.split(",") if part)
    except ValueError:
        parser.error(f"--lengths must be comma-separated integers, got {args.lengths!r}")

    benchmark = _benchmark_from_args(args)
    linker = EntityLinker(benchmark.graph)
    seeds = linker.link_keywords(args.keywords)
    if not seeds:
        print(f"no Wikipedia entities found in {args.keywords!r}")
        return 1
    print("linked entities:", [benchmark.graph.title(a) for a in sorted(seeds)])

    expander = NeighborhoodCycleExpander(
        CycleExpander(lengths=lengths, min_category_ratio=args.min_category_ratio)
    )
    expansion = expander.expand(benchmark.graph, seeds)
    print(f"expansion features ({expansion.num_features}):", list(expansion.titles))

    engine = benchmark.build_engine()
    results = engine.search_phrases(expansion.all_titles(benchmark.graph),
                                    top_k=args.top_k)
    print(f"top {args.top_k} documents:")
    for item in results:
        name = benchmark.documents[item.doc_id].name
        print(f"  #{item.rank:<3} {item.doc_id}  {name}  (score {item.score:.3f})")
    return 0


def report_main(argv: list[str] | None = None) -> int:
    """Run the pipeline and write the full markdown report to a file."""
    from repro import harness

    parser = argparse.ArgumentParser(
        prog="repro-report", description=report_main.__doc__
    )
    _add_common(parser)
    parser.add_argument("--out", default="report.md", help="output markdown path")
    args = parser.parse_args(argv)

    benchmark = _benchmark_from_args(args)
    result = harness.run_pipeline(benchmark, harness.PipelineConfig(seed=args.seed + 90))
    path = harness.save_report(result, args.out)
    print(f"wrote {path}")
    return 0


def _build_snapshot(benchmark: "Benchmark", num_shards: int):
    """Build the ``num_shards``-way snapshot of the benchmark."""
    from repro.service import ShardedSnapshot

    # Frozen once, here: save() and the router both want the compact form.
    return ShardedSnapshot.build(benchmark, num_shards=num_shards).frozen()


def _seed_recent_queries(directory: str, topics) -> None:
    """Write the topics' keyword strings as ``directory``'s persisted
    recency set, the file ``serve --http`` replays before it binds."""
    from repro.obs import RequestLog

    queries = list(dict.fromkeys(topic.keywords for topic in topics))
    request_log = RequestLog()
    seeded = request_log.seed_recent(queries)
    path = request_log.save_recent(directory)
    print(f"seeded {seeded} warm-start quer{'y' if seeded == 1 else 'ies'} "
          f"into {path}")
    if seeded < len(queries):
        print(f"note: {len(queries)} distinct topic queries exceed the "
              f"recency capacity of {request_log.recent_capacity}; the first "
              f"{len(queries) - seeded} were dropped")


def snapshot_main(argv: list[str] | None = None) -> int:
    """Build and save a service snapshot (optionally sharded)."""
    parser = argparse.ArgumentParser(
        prog="repro-snapshot", description=snapshot_main.__doc__
    )
    _add_common(parser)
    parser.add_argument(
        "--out", default="snapshot", help="output directory (default ./snapshot)"
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="number of physical shards: index segments and expansion "
             "caches over the one shared graph blob (default 1)",
    )
    parser.add_argument(
        "--prefill", nargs="?", const="", default=None, metavar="TOPICS_JSON",
        help="write these topics' queries (a topics.json file; with no "
             "value, the benchmark's own topics) to <out>/recent_queries.json, "
             "which `serve --http` replays before it binds, so a "
             "cold-started service answers them at cached latency",
    )
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be >= 1")

    benchmark = _benchmark_from_args(args)
    snapshot = _build_snapshot(benchmark, args.shards)
    snapshot.save(args.out)
    print(f"saved {snapshot!r} to {args.out}/")
    if args.prefill is not None:
        from repro.collection.topics import TopicSet

        topics = TopicSet.load(args.prefill) if args.prefill else benchmark.topics
        _seed_recent_queries(args.out, topics)
    return 0


def _serve_http(snapshot, snapshot_dir: Path, args: argparse.Namespace) -> int:
    """Run the asyncio HTTP front end over a ShardRouter until interrupted
    (``args``: the parsed ``serve`` options).

    Every shard count goes through the router (a one-shard router serves
    identically to the plain service), so the HTTP surface is uniform
    across layouts.  Slow requests (>= ``--slow-ms``) are logged as JSON
    lines on stderr and sampled into the reservoir ``/stats`` exposes.

    With ``--workers`` (one per shard), shard calls run in supervised
    out-of-process workers behind socket adapters: crashed workers, and
    workers whose loop misses the supervisor's liveness ping, are
    restarted with backoff, and failed shard calls are retried.  See
    ``docs/operations.md``.

    ``--queue-limit``/``--client-rate`` attach load shedding: a bounded
    admission queue plus per-client token buckets, refusing excess
    sheddable traffic with structured 429s (``docs/loadgen.md`` shows
    how to prove the behaviour under real overload).

    A recency set persisted by a previous process (``recent_queries.json``
    next to the snapshot manifest) is replayed at startup through the
    stack that serves (worker processes included) so the first client
    hits of a restarted server land at cached latency — the same replay
    every ``POST /admin/compact`` runs; the set is saved back on
    shutdown and at every compaction.
    """
    import asyncio

    from repro.obs import RequestLog
    from repro.service import (
        AdmissionPolicy,
        AsyncShardRouter,
        HttpFrontEnd,
        ShardRouter,
    )
    from repro.updates import UpdateCoordinator

    router = ShardRouter(snapshot)
    supervisor = None
    if args.workers:
        from repro.service.supervisor import ShardSupervisor

        supervisor = ShardSupervisor(
            str(snapshot_dir),
            router.num_shards,
            metrics=router.metrics,
            max_restarts=args.max_restarts,
        )
        print(f"workers: starting {router.num_shards} shard worker(s)",
              flush=True)
        supervisor.start()
        for info in supervisor.describe():
            print(f"workers: shard {info['shard']} up "
                  f"(pid={info.get('pid')}, port={info.get('port')})")
    service = AsyncShardRouter(router, supervisor=supervisor)
    request_log = RequestLog(slow_ms=args.slow_ms, sink=sys.stderr.write)
    coordinator = UpdateCoordinator(
        router,
        snapshot_dir=snapshot_dir,
        supervisor=supervisor,
        request_log=request_log,
    )
    admission = None
    if args.queue_limit is not None or args.client_rate is not None:
        admission = AdmissionPolicy(
            queue_limit=args.queue_limit,
            client_rate=args.client_rate,
            client_burst=args.client_burst,
        )
        print(f"admission: queue_limit={args.queue_limit} "
              f"client_rate={args.client_rate}/s burst={args.client_burst}",
              flush=True)
    format_version = snapshot.source_version
    front = HttpFrontEnd(
        service,
        snapshot_info=snapshot.layout_description(),
        snapshot_format="" if format_version is None else f"v{format_version}",
        coordinator=coordinator,
        request_log=request_log,
        admission=admission,
    )

    async def run() -> None:
        if request_log.load_recent(snapshot_dir):
            warmed = await front.replay_recent()
            print(f"warm start: replayed {warmed} persisted recent "
                  f"quer{'y' if warmed == 1 else 'ies'}", flush=True)
        server = await front.start(args.host, args.http)
        bound = server.sockets[0].getsockname()[1]
        print(
            f"http: serving on http://{args.host}:{bound} "
            f"(POST /expand /search /batch_expand "
            f"/admin/apply_delta /admin/compact, "
            f"GET /stats /healthz /metrics)",
            flush=True,
        )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("http: shut down")
    finally:
        try:
            request_log.save_recent(snapshot_dir)
        except OSError:
            pass  # best-effort: shutdown must not fail on a full disk
        service.close()  # pooled worker connections, the adapter executor
        if supervisor is not None:
            supervisor.stop()
        router.close()
    return 0


def serve_main(argv: list[str] | None = None) -> int:
    """Serve online query expansion from a persistent snapshot."""
    import json

    from repro.errors import SnapshotError
    from repro.service import ShardRouter, ShardedSnapshot

    parser = argparse.ArgumentParser(
        prog="repro-serve", description=serve_main.__doc__
    )
    _add_common(parser)
    parser.add_argument(
        "--snapshot", default="snapshot",
        help="snapshot directory to serve from (default ./snapshot); the "
             "shard count is the snapshot's own",
    )
    parser.add_argument(
        "--build", action="store_true",
        help="when the snapshot is missing, build it from the benchmark "
             "(--benchmark-dir or synthetic via --seed) and save it first",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="shard count used when --build creates a new snapshot "
             "(existing snapshots keep their own shard count)",
    )
    parser.add_argument(
        "--query", action="append", metavar="TEXT",
        help="query to answer (repeatable; batches when given several times); "
             "omit to read one query per line from stdin",
    )
    parser.add_argument("--top-k", type=int, default=10, help="results per query")
    parser.add_argument(
        "--stats", action="store_true", help="print service/cache stats as JSON at exit"
    )
    parser.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="serve the HTTP/JSON API on this port instead of answering "
             "--query/stdin (0 picks an ephemeral port and prints it); "
             "endpoints: POST /expand /search /batch_expand, GET /stats "
             "/healthz /metrics — see docs/http_api.md",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for --http (default 127.0.0.1)",
    )
    parser.add_argument(
        "--slow-ms", type=float, default=100.0,
        help="with --http: requests at or above this latency are logged "
             "as JSON lines on stderr and sampled into /stats "
             "slow_queries (default 100)",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="with --http: serve shards from N supervised out-of-process "
             "worker processes (one per shard; N must equal the snapshot "
             "shard count) speaking the wire protocol of "
             "docs/shard_protocol.md — crashed workers restart with "
             "backoff, see docs/operations.md",
    )
    parser.add_argument(
        "--max-restarts", type=int, default=5,
        help="with --workers: restarts each shard worker gets before the "
             "shard is marked failed and left down (default 5)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=None, metavar="N",
        help="with --http: admit at most N sheddable requests at once; "
             "excess is refused with 429 over_capacity + Retry-After "
             "(default: unbounded — shedding off)",
    )
    parser.add_argument(
        "--client-rate", type=float, default=None, metavar="RPS",
        help="with --http: per-client admission rate in requests/s "
             "(X-Client-Id header, falling back to peer address); a "
             "client past its token bucket gets 429 client_rate_limited "
             "(default: unlimited)",
    )
    parser.add_argument(
        "--client-burst", type=float, default=8.0, metavar="N",
        help="with --client-rate: token bucket depth — short bursts up "
             "to N requests are admitted before the rate applies "
             "(default 8)",
    )
    args = parser.parse_args(argv)
    if args.top_k < 1:
        parser.error("--top-k must be >= 1")
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.http is not None and not 0 <= args.http <= 65535:
        parser.error("--http PORT must be in [0, 65535]")
    if args.workers and args.http is None:
        parser.error("--workers requires --http")
    if args.workers < 0 or args.max_restarts < 0:
        parser.error("--workers and --max-restarts must be >= 0")
    if args.queue_limit is not None and args.queue_limit < 1:
        parser.error("--queue-limit must be >= 1")
    if args.client_rate is not None and args.client_rate <= 0:
        parser.error("--client-rate must be > 0")
    if args.client_burst < 1:
        parser.error("--client-burst must be >= 1")
    if (args.queue_limit is not None or args.client_rate is not None) \
            and args.http is None:
        parser.error("--queue-limit/--client-rate require --http")

    snapshot_dir = Path(args.snapshot)
    try:
        snapshot = ShardedSnapshot.load(snapshot_dir)
        print(f"loaded {snapshot!r} from {snapshot_dir}/")
    except SnapshotError as error:
        if not args.build:
            print(f"error: {error}")
            print("hint: pass --build to create the snapshot from a benchmark")
            return 2
        snapshot = _build_snapshot(_benchmark_from_args(args), args.shards)
        snapshot.save(snapshot_dir)
        print(f"built and saved {snapshot!r} to {snapshot_dir}/")

    # Operators must be able to tell which on-disk format and shard
    # layout this process resolved — print it before serving.
    print(f"snapshot layout: {snapshot.layout_description()}")

    if args.http is not None:
        if args.workers and args.workers != snapshot.num_shards:
            print(
                f"error: --workers {args.workers} must equal the snapshot "
                f"shard count ({snapshot.num_shards}) — one worker process "
                "serves exactly one shard"
            )
            return 2
        return _serve_http(snapshot, snapshot_dir, args)

    service = ShardRouter(snapshot)

    def answer(response) -> None:
        print(f"query: {response.query!r}")
        if not response.linked:
            print("  no entities linked; ranked raw keywords instead")
        else:
            titles = [service.graph.title(a) for a in sorted(response.link.article_ids)]
            print(f"  linked entities: {titles}")
            print(f"  expansion features ({response.expansion.num_features}): "
                  f"{list(response.expansion.titles)}")
        for item in response.results:
            name = service.doc_names.get(item.doc_id, "")
            print(f"  #{item.rank:<3} {item.doc_id}  {name}  (score {item.score:.3f})")
        cached = "cached" if response.expansion_cached else "cold"
        print(f"  [{cached}, {response.latency_ms:.1f} ms]")

    try:
        if args.query:
            for response in service.batch_expand(args.query, top_k=args.top_k):
                answer(response)
        else:
            print("reading queries from stdin (one per line, ^D to finish)")
            for line in sys.stdin:
                line = line.strip()
                if line:
                    answer(service.expand_query(line, top_k=args.top_k))
        if args.stats:
            print(json.dumps(service.stats(), indent=2))
    finally:
        service.close()
    return 0


def shard_worker_main(argv: list[str] | None = None) -> int:
    """Serve one shard of a sharded snapshot over the wire protocol.

    This is the process ``repro serve --workers N`` (via the shard
    supervisor) spawns once per shard; it can also be started by hand
    for debugging.  The worker loads its shard, binds, and prints a
    single ready line (``shard-worker: shard I serving on HOST:PORT
    pid=PID``) the supervisor parses.  Protocol and framing:
    ``docs/shard_protocol.md``.
    """
    from repro.errors import ReproError
    from repro.service.faults import FAULTS_ENV
    from repro.service.shard_worker import run_worker

    parser = argparse.ArgumentParser(
        prog="repro-shard-worker", description=shard_worker_main.__doc__
    )
    parser.add_argument(
        "--snapshot", required=True,
        help="sharded snapshot directory to load one shard from",
    )
    parser.add_argument(
        "--shard", type=int, required=True, help="shard id to serve"
    )
    parser.add_argument(
        "--bind", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="port to serve on (default 0 = ephemeral, printed on stdout)",
    )
    parser.add_argument(
        "--fault", default="",
        help="fault-injection spec, e.g. 'kill@2' or 'stall=1.5@1:"
             f"expand_seeds' (also read from ${FAULTS_ENV}; test-only)",
    )
    args = parser.parse_args(argv)
    if args.shard < 0:
        parser.error("--shard must be >= 0")
    if not 0 <= args.port <= 65535:
        parser.error("--port must be in [0, 65535]")
    try:
        return run_worker(
            args.snapshot, args.shard,
            host=args.bind, port=args.port, fault_spec=args.fault,
        )
    except ReproError as error:
        print(f"error: {error}")
        return 2


def loadgen_main(argv: list[str] | None = None) -> int:
    """Replay deterministic seeded traffic shapes against the HTTP API."""
    import json

    from repro.loadgen import (
        build_report,
        merge_into_bench,
        plan_workload,
        run_plans,
        stream_digest,
        topic_pool,
    )
    from repro.loadgen.shapes import SHAPE_NAMES

    parser = argparse.ArgumentParser(
        prog="repro-loadgen", description=loadgen_main.__doc__,
        epilog="Shapes: " + ", ".join(SHAPE_NAMES) + " — see docs/loadgen.md.",
    )
    _add_common(parser)
    parser.add_argument(
        "--url", default=None, metavar="URL",
        help="base URL of a running serve --http process; omitted, the "
             "command self-hosts a server over the snapshot for the run",
    )
    parser.add_argument(
        "--snapshot", default=None, metavar="DIR",
        help="snapshot directory supplying the topic pool (and the "
             "self-hosted server); omitted, a snapshot is built from "
             "the benchmark (--seed / --benchmark-dir)",
    )
    parser.add_argument(
        "--shapes", default="interactive,flood",
        help="comma-separated shapes to replay concurrently "
             f"(default interactive,flood; all: {','.join(SHAPE_NAMES)})",
    )
    parser.add_argument(
        "--requests", type=int, default=100, metavar="N",
        help="requests planned per shape (delta_trickle plans N/8; "
             "default 100)",
    )
    parser.add_argument(
        "--rate", type=float, default=25.0, metavar="RPS",
        help="target arrival rate per shape in requests/s (default 25)",
    )
    parser.add_argument(
        "--zipf-s", type=float, default=1.1,
        help="Zipf popularity exponent for topic sampling (default 1.1)",
    )
    parser.add_argument("--top-k", type=int, default=10, help="results per query")
    parser.add_argument(
        "--concurrency", type=int, default=4,
        help="closed-loop workers per shape (default 4)",
    )
    parser.add_argument(
        "--timeout-s", type=float, default=30.0,
        help="per-request client timeout (default 30)",
    )
    parser.add_argument(
        "--out", default="BENCH_service.json", metavar="PATH",
        help="merge the SLO report into this bench JSON under "
             "'loadgen_slo' (default BENCH_service.json; 'none' skips)",
    )
    parser.add_argument(
        "--dump-stream", default=None, metavar="PATH",
        help="also write the planned request stream as JSON lines "
             "('-' for stdout) — diffing two runs proves determinism",
    )
    parser.add_argument(
        "--plan-only", action="store_true",
        help="plan the workload and print its digest without sending "
             "anything (no server needed)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=32, metavar="N",
        help="self-hosted server: admission queue bound (default 32; "
             "ignored with --url)",
    )
    parser.add_argument(
        "--client-rate", type=float, default=None, metavar="RPS",
        help="self-hosted server: per-client admission rate "
             "(default: off; ignored with --url)",
    )
    args = parser.parse_args(argv)
    shapes = [s.strip() for s in args.shapes.split(",") if s.strip()]
    if not shapes:
        parser.error("--shapes must name at least one shape")
    for name in shapes:
        if name not in SHAPE_NAMES:
            parser.error(f"unknown shape {name!r} (expected one of "
                         f"{', '.join(SHAPE_NAMES)})")
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    if args.rate <= 0:
        parser.error("--rate must be > 0")
    if args.concurrency < 1:
        parser.error("--concurrency must be >= 1")

    snapshot = _loadgen_snapshot(args)
    pool = topic_pool(snapshot)
    plans = plan_workload(
        seed=args.seed, pool=pool, shapes=shapes, count=args.requests,
        zipf_s=args.zipf_s, top_k=args.top_k,
    )
    stream = [request for name in shapes for request in plans[name]]
    digest = stream_digest(stream)
    total = len(stream)
    print(f"planned {total} requests over {len(shapes)} shape(s), "
          f"stream sha256 {digest}")
    if args.dump_stream:
        lines = "".join(request.to_line() + "\n" for request in stream)
        if args.dump_stream == "-":
            sys.stdout.write(lines)
        else:
            Path(args.dump_stream).write_text(lines)
            print(f"stream written to {args.dump_stream}")
    if args.plan_only:
        return 0

    if args.url:
        import urllib.parse

        parts = urllib.parse.urlsplit(args.url)
        host = parts.hostname or "127.0.0.1"
        port = parts.port or 80
        stop = None
    else:
        host, port, stop = _self_host(
            snapshot,
            queue_limit=args.queue_limit,
            client_rate=args.client_rate,
        )
        print(f"self-hosting on http://{host}:{port} "
              f"(queue_limit={args.queue_limit})")
    try:
        result = run_plans(
            host, port, plans,
            rate=args.rate, concurrency=args.concurrency,
            timeout_s=args.timeout_s,
        )
    finally:
        if stop is not None:
            stop()

    report = build_report(
        result, seed=args.seed, rate=args.rate,
        stream_sha256=digest, zipf_s=args.zipf_s,
    )
    for name, shape in report["shapes"].items():
        print(f"{name}: {shape['requests']} requests, "
              f"p50 {shape['p50_ms']}ms p99 {shape['p99_ms']}ms "
              f"p999 {shape['p999_ms']}ms, "
              f"errors {shape['error_rate']:.2%}, shed {shape['shed_rate']:.2%}")
    server = report["server"]
    print(f"server: p50 {server['p50_ms']}ms p99 {server['p99_ms']}ms, "
          f"cache hit rate {server['cache_hit_rate']:.2%}, "
          f"shed {server['shed_total']}")
    if args.out and args.out != "none":
        merge_into_bench(args.out, report)
        print(f"loadgen_slo merged into {args.out}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _loadgen_snapshot(args: argparse.Namespace):
    """Resolve the snapshot the pool (and self-hosted server) comes from."""
    from repro.errors import SnapshotError
    from repro.service import ShardedSnapshot

    if args.snapshot:
        try:
            snapshot = ShardedSnapshot.load(args.snapshot)
        except SnapshotError as error:
            raise SystemExit(f"error: {error}")
        print(f"loaded {snapshot!r} from {args.snapshot}/")
        return snapshot
    benchmark = _benchmark_from_args(args)
    return ShardedSnapshot.build(benchmark, num_shards=1)


def _self_host(snapshot, *, queue_limit: int | None, client_rate: float | None):
    """Spin up an in-process front end on an ephemeral port.

    Returns ``(host, port, stop)`` — the same serving stack ``serve
    --http`` runs (router, coordinator for ``/admin/apply_delta``,
    admission policy), minus on-disk durability, so loadgen works out
    of the box in CI without orchestrating a subprocess.
    """
    import asyncio
    import threading

    from repro.obs import RequestLog
    from repro.service import (
        AdmissionPolicy,
        AsyncShardRouter,
        HttpFrontEnd,
        ShardRouter,
    )
    from repro.updates import UpdateCoordinator

    router = ShardRouter(snapshot.frozen())
    request_log = RequestLog(slow_ms=float("inf"))
    coordinator = UpdateCoordinator(router, request_log=request_log)
    admission = None
    if queue_limit is not None or client_rate is not None:
        admission = AdmissionPolicy(
            queue_limit=queue_limit, client_rate=client_rate
        )
    front = HttpFrontEnd(
        AsyncShardRouter(router),
        coordinator=coordinator,
        request_log=request_log,
        admission=admission,
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = asyncio.run_coroutine_threadsafe(
        front.start("127.0.0.1", 0), loop
    ).result(timeout=60)
    port = server.sockets[0].getsockname()[1]

    def stop() -> None:
        asyncio.run_coroutine_threadsafe(front.stop(), loop).result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=60)
        router.close()

    return "127.0.0.1", port, stop


def top_main(argv: list[str] | None = None) -> int:
    """Live terminal dashboard over a running ``repro serve --http``."""
    from repro.obs.dashboard import run_top

    parser = argparse.ArgumentParser(
        prog="repro-top", description=top_main.__doc__
    )
    parser.add_argument(
        "url", nargs="?", default="http://127.0.0.1:8080",
        help="base URL of the serving process (default http://127.0.0.1:8080)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between polls (default 2)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen clearing) — "
             "scriptable, and what CI smoke runs",
    )
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error("--interval must be > 0")
    try:
        return run_top(args.url, interval_s=args.interval, once=args.once)
    except KeyboardInterrupt:
        return 0


_COMMANDS = {
    "build-benchmark": build_benchmark_main,
    "ground-truth": ground_truth_main,
    "analyze": analyze_main,
    "expand": expand_main,
    "report": report_main,
    "snapshot": snapshot_main,
    "serve": serve_main,
    "shard-worker": shard_worker_main,
    "top": top_main,
    "loadgen": loadgen_main,
}


def main(argv: list[str] | None = None) -> int:
    """Dispatch ``python -m repro.cli <command> ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: python -m repro.cli {" + ",".join(_COMMANDS) + "} [options]")
        return 0 if argv else 2
    command = argv[0]
    handler = _COMMANDS.get(command)
    if handler is None:
        print(f"unknown command: {command!r} (expected one of {sorted(_COMMANDS)})")
        return 2
    return handler(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
