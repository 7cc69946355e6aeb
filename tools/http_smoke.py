#!/usr/bin/env python3
"""CI smoke test of the HTTP serving path (no dependencies).

End to end, as a real deployment would run it:

1. build a small sharded snapshot and save it to a temp directory;
2. launch ``python -m repro.cli serve --snapshot DIR --http 0`` as a
   subprocess and parse the bound port from its startup output;
3. ``GET /healthz`` and ``POST /expand`` over a real socket;
4. answer the same query with an in-process :class:`ShardRouter` over
   the same snapshot directory and diff the JSON against it — doc ids,
   scores (bit-exact after the JSON round trip), expansion sets and
   titles must all match;
5. ``GET /metrics`` and round-trip the Prometheus exposition through
   :func:`repro.obs.parse_prometheus_text`; the stage histograms and
   the HTTP request counter must be non-zero after the ``/expand``;
6. render one ``repro top --once`` dashboard frame against the live
   server (the scriptable mode operators pipe to files);
7. ``POST /batch_expand``: input order kept, duplicates share a
   payload, each member equals its ``/expand`` answer, the batch is
   observed once (``repro_requests_total{path="batch_expand"}`` +1,
   ``{path="expand_query"}`` unmoved), and the single queries around it
   add up per shard (``Σ per_shard[].queries`` moves with ``queries``);
8. exercise the live-update plane: ``POST /admin/apply_delta`` with a
   small island batch, assert ``delta_seq`` advances, the summary names
   the write's stages (``stages_ms``, ``repro_apply_stage_seconds``) and
   the new page answers ``/expand``; restart the server and assert
   ``delta_seq`` is restored from the delta log and the new page still
   answers; then ``POST /admin/compact`` and assert the
   generation hot-swaps (``snapshot_generation`` advances, ``delta_seq``
   resets) with answers unchanged across the swap;
9. assert the recency set was persisted on shutdown
   (``recent_queries.json`` next to the snapshot manifest), then
   relaunch with admission control (``--queue-limit``/``--client-rate``)
   and drive a real overload→shed→recover cycle: a greedy client is
   refused with structured ``429`` envelopes + ``Retry-After`` while a
   polite client keeps serving, ``repro_shed_total`` advances in
   ``/metrics``, and once the flood stops the greedy client serves
   again with the queue drained — and the relaunch must warm-start
   from the persisted recency set;
10. relaunch with ``--workers 2`` (out-of-process shard workers behind
   the socket adapter), diff ``/expand`` against the same in-process
   reference, repeat the batch phase, then SIGKILL one worker process mid-run and assert the
   supervisor restarts it (``/healthz`` workers back to ``up``, the
   ``repro_shard_worker_restarts_total`` counter advanced) and that
   post-restart answers are still identical — the repeat of a query
   asked before the kill is *ranked ahead* (its rank fan-out goes out
   beside ``expand_seeds``, ``repro_rank_ahead_total{outcome="used"}``
   advances) into the restarted worker;
11. repeat the live-update phase in worker mode (delta fan-out over the
    wire, a restart whose new workers replay the log, compaction driving
    a rolling worker reload), then apply a
    delta next to the query's seed — evicting its expansion but not the
    router's memoised rank step — and diff the ranked-ahead re-ask
    against a synchronous router that applied the same delta;
12. shut the servers down and fail loudly if anything differed.

Run from the repo root with ``PYTHONPATH=src`` (CI does).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 61


def build_snapshot(directory: Path):
    from repro.collection import Benchmark, SyntheticCollectionConfig
    from repro.service import ShardedSnapshot
    from repro.wiki import SyntheticWikiConfig

    benchmark = Benchmark.synthetic(
        SyntheticWikiConfig(seed=SEED, num_domains=5, background_articles=80,
                            background_categories=10),
        SyntheticCollectionConfig(seed=SEED + 1, background_docs=40),
    )
    snapshot = ShardedSnapshot.build(benchmark, num_shards=2)
    snapshot.save(directory)
    return benchmark


def launch(snap_dir: Path, *flags: str) -> subprocess.Popen:
    """``repro serve --snapshot SNAP_DIR --http 0 FLAGS`` as a subprocess."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--snapshot", str(snap_dir), "--http", "0", *flags],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )


def stop(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()


def restarter(procs: list, snap_dir: Path, *flags: str):
    """A callable that stops the last server in ``procs``, launches its
    replacement with the same flags and returns the new base URL."""
    def restart() -> str:
        stop(procs[-1])
        procs.append(launch(snap_dir, *flags))
        return f"http://127.0.0.1:{wait_for_port(procs[-1])}"
    return restart


def wait_for_port(proc: subprocess.Popen, timeout: float = 180.0) -> int:
    pattern = re.compile(r"http://[\d.]+:(\d+)")
    deadline = time.time() + timeout
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited before binding (rc={proc.poll()})"
            )
        sys.stdout.write(f"  server: {line}")
        match = pattern.search(line)
        if match:
            return int(match.group(1))
    raise SystemExit("timed out waiting for the server to print its port")


def get_json(url: str, payload: dict | None = None) -> dict:
    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode("utf-8"),
        headers={} if payload is None else {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.load(response)


def post_as_client(
    url: str, payload: dict, client: str
) -> tuple[int, dict, dict]:
    """POST with an ``X-Client-Id``; 4xx comes back as data, not a raise."""
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", "X-Client-Id": client},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.load(response), dict(response.headers)
    except urllib.error.HTTPError as error:
        body = json.loads(error.read().decode("utf-8") or "{}")
        return error.code, body, dict(error.headers)


def get_text(url: str) -> tuple[str, str]:
    """Plain GET; returns (body, content-type)."""
    with urllib.request.urlopen(url, timeout=60) as response:
        return (
            response.read().decode("utf-8"),
            response.headers.get("Content-Type", ""),
        )


def check_metrics(base: str, failures: list[str]) -> None:
    """GET /metrics must serve parseable exposition with live counters."""
    from repro.obs import parse_prometheus_text

    text, content_type = get_text(f"{base}/metrics")
    if not content_type.startswith("text/plain"):
        failures.append(f"/metrics content type is {content_type!r}, not text")
    try:
        parsed = parse_prometheus_text(text)
    except ValueError as error:
        failures.append(f"/metrics is not valid exposition text: {error}")
        return

    def sample(name: str, **labels) -> float:
        for (candidate, labelset), value in parsed["samples"].items():
            if candidate == name and dict(labelset) == labels:
                return value
        return 0.0

    if sample("repro_requests_total", path="expand_query") < 1:
        failures.append("repro_requests_total{path=expand_query} is zero")
    if sample("repro_http_requests_total", endpoint="/expand") < 1:
        failures.append("repro_http_requests_total{endpoint=/expand} is zero")
    for stage in ("link", "expand", "rank", "merge"):
        if sample("repro_stage_seconds_count", stage=stage) < 1:
            failures.append(f"stage counter {stage!r} is zero after /expand")
    # The cold /expand above mined cycles; the span's engine label must
    # show the configured engine (the bitset kernels by default).
    engine = os.environ.get("REPRO_CYCLE_ENGINE") or "kernels"
    if sample("repro_cycle_mine_total", engine=engine) < 1:
        failures.append(
            f"repro_cycle_mine_total{{engine={engine}}} is zero — the "
            "cycle_mine span lost its engine label"
        )
    if sample("repro_uptime_seconds") <= 0:
        failures.append("repro_uptime_seconds gauge was not refreshed")
    print(f"metrics: {len(parsed['samples'])} samples, "
          f"stage counters live — exposition parses back")


def check_top_once(base: str, failures: list[str]) -> None:
    """`repro top --once` must render one frame against the live server."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "top", base, "--once"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    if result.returncode != 0:
        failures.append(
            f"repro top --once exited {result.returncode}: {result.stderr}"
        )
        return
    frame = result.stdout
    for needle in ("repro top", "router", "stage"):
        if needle not in frame:
            failures.append(f"top frame is missing {needle!r}:\n{frame}")
    print("top: one-shot dashboard frame rendered")


def check_batch_expand(
    base: str, queries: list[str], failures: list[str], *, tag: str
) -> None:
    """Single queries add up per shard; a batch equals them, observed once."""
    from repro.obs import parse_prometheus_text

    def offered(path: str) -> float:
        samples = parse_prometheus_text(get_text(f"{base}/metrics")[0])["samples"]
        return samples.get(
            ("repro_requests_total", frozenset({("path", path)})), 0
        )

    def answer(payload: dict) -> tuple:
        return (
            payload["normalized_query"], payload["linked"],
            payload["expansion"]["article_ids"], payload["expansion"]["titles"],
            [(r["doc_id"], r["score"]) for r in payload["results"]],
        )

    before = get_json(f"{base}/stats")
    singles = {q: get_json(f"{base}/expand", {"query": q}) for q in queries}
    after = get_json(f"{base}/stats")
    served = after["queries"] - before["queries"]
    per_shard = sum(s["queries"] for s in after["per_shard"]) \
        - sum(s["queries"] for s in before["per_shard"])
    if not served == per_shard == len(queries):
        failures.append(
            f"{tag}: {len(queries)} single queries moved queries by {served} "
            f"and the per_shard queries by {per_shard}"
        )
    health = get_json(f"{base}/healthz")["per_shard"]
    if [s["queries"] for s in health] != \
            [s["queries"] for s in after["per_shard"]]:
        failures.append(f"{tag}: /healthz and /stats per_shard queries differ")

    batch = [*queries, queries[0], queries[-1]]
    singles_offered, batches_offered = \
        offered("expand_query"), offered("batch_expand")
    responses = get_json(
        f"{base}/batch_expand", {"queries": batch}
    )["responses"]
    if [r["query"] for r in responses] != batch:
        failures.append(f"{tag}: /batch_expand did not keep the input order")
        return
    if responses[0] != responses[-2] or responses[len(queries) - 1] != responses[-1]:
        failures.append(f"{tag}: batch duplicates do not share a payload")
    for text, member in zip(batch, responses):
        if answer(member) != answer(singles[text]):
            failures.append(
                f"{tag}: batch member {text!r} differs from its /expand answer"
            )
    if offered("batch_expand") != batches_offered + 1 or \
            offered("expand_query") != singles_offered:
        failures.append(
            f"{tag}: a batch must be observed once, as batch_expand: "
            f"batch_expand {batches_offered} -> {offered('batch_expand')}, "
            f"expand_query {singles_offered} -> {offered('expand_query')}"
        )
    print(f"{tag}: /batch_expand of {len(batch)} matches /expand member by "
          "member, observed once; per-shard queries add up")


APPLY_STAGES = (
    "validate", "log", "linker", "ball", "publish", "evict", "fanout",
)


def check_live_updates(
    base: str, query: str, ref_results: list, failures: list[str],
    *, id_base: int, tag: str, restart,
) -> str:
    """apply_delta -> re-query -> restart -> compact -> hot swap, over
    the admin API; returns the base URL of the restarted server.

    Generation-agnostic (the worker-mode relaunch serves the generation
    the first phase compacted), and the delta targets fresh node ids so
    both phases can run against the same snapshot directory.
    """
    health = get_json(f"{base}/healthz")
    gen0 = health.get("snapshot_generation")
    if not isinstance(gen0, int):
        failures.append(f"{tag}: healthz snapshot_generation not an int: {health}")
        return base
    if health.get("delta_seq") != 0:
        failures.append(f"{tag}: fresh server has nonzero delta_seq: {health}")

    payloads = [
        {"op": "add_article", "seq": 1, "node_id": id_base,
         "title": f"Smoke Live Page {id_base}"},
        {"op": "add_article", "seq": 2, "node_id": id_base + 1,
         "title": f"Smoke Live Friend {id_base}"},
        {"op": "add_edge", "seq": 3, "source": id_base, "target": id_base + 1,
         "kind": "link"},
    ]
    summary = get_json(f"{base}/admin/apply_delta",
                       {"deltas": payloads, "generation": gen0})
    if summary.get("applied") != 3:
        failures.append(f"{tag}: apply_delta did not apply 3: {summary}")
        return base
    if summary.get("stale_workers"):
        failures.append(f"{tag}: fan-out left stale workers: {summary}")
    if summary.get("invalidated", {}).get("expansion") != 0:
        failures.append(
            f"{tag}: an island delta must evict no expansions: {summary}"
        )
    # The write names its milliseconds: stages_ms in the response, and
    # one repro_apply_stage_seconds{stage} observation per stage.
    stages = summary.get("stages_ms")
    if not isinstance(stages, dict) or set(stages) != set(APPLY_STAGES):
        failures.append(f"{tag}: apply summary stages_ms wrong: {summary}")
    from repro.obs import parse_prometheus_text

    samples = parse_prometheus_text(get_text(f"{base}/metrics")[0])["samples"]
    for stage in APPLY_STAGES:
        key = ("repro_apply_stage_seconds_count", frozenset({("stage", stage)}))
        if samples.get(key, 0) < 1:
            failures.append(
                f"{tag}: repro_apply_stage_seconds{{stage={stage}}} not "
                "observed after an applied batch"
            )
    health = get_json(f"{base}/healthz")
    if health.get("delta_seq") != 3:
        failures.append(f"{tag}: delta_seq not 3 after apply: {health}")

    live_query = f"smoke live page {id_base}"
    overlay = get_json(f"{base}/expand", {"query": live_query})
    if not overlay.get("linked"):
        failures.append(f"{tag}: added article did not link: {overlay}")
    overlay_results = [(r["doc_id"], r["score"]) for r in overlay["results"]]

    topic = get_json(f"{base}/expand", {"query": query})
    if [(r["doc_id"], r["score"]) for r in topic["results"]] != ref_results:
        failures.append(f"{tag}: overlay changed an unrelated topic's answer")

    # An acknowledged batch survives a restart: the new process replays
    # the delta log before it binds.
    base = restart()
    health = get_json(f"{base}/healthz")
    if health.get("delta_seq") != 3:
        failures.append(f"{tag}: restart did not restore delta_seq 3: {health}")
    again = get_json(f"{base}/expand", {"query": live_query})
    if not again.get("linked") or \
            [(r["doc_id"], r["score"]) for r in again["results"]] != overlay_results:
        failures.append(f"{tag}: added page lost across a restart: {again}")

    compacted = get_json(f"{base}/admin/compact", {})
    if compacted.get("generation") != gen0 + 1 or \
            compacted.get("folded_seq") != 3:
        failures.append(f"{tag}: compact summary wrong: {compacted}")
        return base
    health = get_json(f"{base}/healthz")
    if health.get("snapshot_generation") != gen0 + 1 or \
            health.get("delta_seq") != 0:
        failures.append(f"{tag}: healthz generation did not advance: {health}")
    workers = health.get("workers")
    if workers is not None and any(w.get("state") != "up" for w in workers):
        failures.append(f"{tag}: workers not up after rolling reload: {health}")

    after = get_json(f"{base}/expand", {"query": live_query})
    if [(r["doc_id"], r["score"]) for r in after["results"]] != overlay_results:
        failures.append(
            f"{tag}: compacted generation answers differ from the overlay"
        )
    topic = get_json(f"{base}/expand", {"query": query})
    if [(r["doc_id"], r["score"]) for r in topic["results"]] != ref_results:
        failures.append(f"{tag}: hot swap changed an unrelated topic's answer")
    print(f"{tag}: apply_delta -> re-query -> restart -> compact -> hot "
          f"swap ok (generation {gen0} -> {gen0 + 1})")
    return base


def check_shedding(snap_dir: Path, query: str, failures: list[str]) -> None:
    """Relaunch with admission control; overload -> shed -> recover."""
    from repro.obs import parse_prometheus_text

    proc = launch(snap_dir, "--queue-limit", "16", "--client-rate", "3",
                  "--client-burst", "3")
    try:
        # Read startup lines by hand: the warm-start banner prints
        # before the bound-port line and must be observed here.
        pattern = re.compile(r"http://[\d.]+:(\d+)")
        warm_started = False
        port = None
        deadline = time.time() + 180
        while time.time() < deadline:
            line = proc.stdout.readline()
            if not line:
                raise SystemExit(
                    f"shed server exited before binding (rc={proc.poll()})"
                )
            sys.stdout.write(f"  server: {line}")
            if "warm start: replayed" in line:
                warm_started = True
            match = pattern.search(line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise SystemExit("timed out waiting for the shed server's port")
        if not warm_started:
            failures.append(
                "relaunch did not warm-start from the persisted recency set"
            )
        base = f"http://127.0.0.1:{port}"

        # Overload: one greedy client fires a burst far beyond its
        # 3 req/s budget; a polite client asks once in the middle.
        greedy: list[tuple[int, dict, dict]] = []
        for _ in range(12):
            greedy.append(post_as_client(
                f"{base}/expand", {"query": query}, "smoke-greedy"
            ))
        polite_status, polite_body, _ = post_as_client(
            f"{base}/expand", {"query": query}, "smoke-polite"
        )

        oks = [g for g in greedy if g[0] == 200]
        sheds = [g for g in greedy if g[0] == 429]
        if not oks:
            failures.append("greedy client never served within its burst")
        if not sheds:
            failures.append("greedy burst was never shed (no 429s)")
        if len(oks) + len(sheds) != len(greedy):
            failures.append(
                "greedy burst saw statuses other than 200/429: "
                f"{sorted({g[0] for g in greedy})}"
            )
        for status, body, headers in sheds:
            code = body.get("error", {}).get("code")
            if code not in ("client_rate_limited", "over_capacity"):
                failures.append(f"429 envelope has wrong code: {body}")
                break
            retry_after = headers.get("Retry-After")
            if retry_after is None or int(retry_after) < 1:
                failures.append(f"429 lacks a usable Retry-After: {headers}")
                break
        if polite_status != 200 or not polite_body.get("results"):
            failures.append(
                f"polite client was shed during the flood: {polite_status}"
            )
        print(f"shed: greedy client {len(oks)} served / {len(sheds)} refused "
              "with structured 429s; polite client untouched")

        health = get_json(f"{base}/healthz")
        admission = health.get("admission")
        if not admission:
            failures.append(f"healthz carries no admission block: {health}")
        else:
            if admission.get("shed_total", 0) < len(sheds):
                failures.append(f"admission shed_total too low: {admission}")
            if "client_rate_limited" not in admission.get("shed_by_reason", {}):
                failures.append(
                    f"shed_by_reason missing client_rate_limited: {admission}"
                )

        text, _ = get_text(f"{base}/metrics")
        shed_metric = sum(
            value
            for (name, _labels), value
            in parse_prometheus_text(text)["samples"].items()
            if name == "repro_shed_total"
        )
        if shed_metric < len(sheds):
            failures.append(
                f"repro_shed_total ({shed_metric}) did not keep up with "
                f"the {len(sheds)} refusals"
            )

        # Recover: the bucket refills at 3/s, so after ~1.5s the greedy
        # client must serve again and the queue must be drained.
        time.sleep(1.5)
        status, body, _ = post_as_client(
            f"{base}/expand", {"query": query}, "smoke-greedy"
        )
        if status != 200 or not body.get("results"):
            failures.append(f"greedy client did not recover: {status}")
        health = get_json(f"{base}/healthz")
        if health.get("admission", {}).get("queue_depth") != 0:
            failures.append(f"queue not drained after recovery: {health}")
        print("shed: greedy client recovered after backoff; queue drained")
    finally:
        stop(proc)


def rank_ahead_used(base: str) -> float:
    """``repro_rank_ahead_total{outcome="used"}`` as /metrics reads now."""
    from repro.obs import parse_prometheus_text

    samples = parse_prometheus_text(get_text(f"{base}/metrics")[0])["samples"]
    return samples.get(
        ("repro_rank_ahead_total", frozenset({("outcome", "used")})), 0
    )


def check_rank_ahead_across_eviction(
    base: str, snap_dir: Path, query: str, failures: list[str],
) -> None:
    """Re-ask a query whose rank step the router holds, right after a
    delta evicted its expansion: the rank is sent while the owner
    re-mines, and the answer must be the synchronous router's over the
    same generation with the same delta applied."""
    from repro.service import ShardRouter, ShardedSnapshot
    from repro.updates import UpdateCoordinator

    tag = "rank-ahead"
    router = ShardRouter(ShardedSnapshot.load(snap_dir))
    try:
        seeds = router.link_text(router.normalize(query))[0].article_ids
        payloads = [
            {"op": "add_article", "seq": 1, "node_id": 9_620_000,
             "title": "Smoke Near Page"},
            {"op": "add_edge", "seq": 2, "source": 9_620_000,
             "target": min(seeds), "kind": "link"},
        ]
        UpdateCoordinator(router).apply(payloads)
        reference = router.expand_query(query)
    finally:
        router.close()
    expected = [(r.doc_id, r.score) for r in reference.results]

    # The rolling reload left the workers cold; two asks warm them again.
    for _ in range(2):
        get_json(f"{base}/expand", {"query": query})
    generation = get_json(f"{base}/healthz")["snapshot_generation"]
    summary = get_json(f"{base}/admin/apply_delta",
                       {"deltas": payloads, "generation": generation})
    if summary.get("applied") != 2 or summary.get("stale_workers") or \
            summary.get("invalidated", {}).get("expansion", 0) < 1:
        failures.append(f"{tag}: delta next to a seed evicted nothing: {summary}")
        return
    used = rank_ahead_used(base)
    served = get_json(f"{base}/expand", {"query": query})
    if served.get("expansion_cached"):
        failures.append(f"{tag}: an evicted expansion was reported cached")
    if rank_ahead_used(base) != used + 1:
        failures.append(f"{tag}: the re-ask after the eviction did not rank ahead")
    if [(r["doc_id"], r["score"]) for r in served["results"]] != expected or \
            served["expansion"]["titles"] != list(reference.expansion.titles):
        failures.append(
            f"{tag}: ranked-ahead answer differs from the synchronous "
            "router after the same delta"
        )
    else:
        print(f"{tag}: predicted across a kill and across an eviction; "
              "answers match the synchronous router")


def check_worker_serving(
    snap_dir: Path, query: str, ref_results: list, failures: list[str],
    topics: list[str],
) -> None:
    """Serve with out-of-process shard workers; kill one mid-run."""
    from repro.obs import parse_prometheus_text

    procs = [launch(snap_dir, "--workers", "2")]
    try:
        port = wait_for_port(procs[0])
        base = f"http://127.0.0.1:{port}"

        health = get_json(f"{base}/healthz")
        workers = health.get("workers", [])
        if len(workers) != 2:
            failures.append(f"healthz workers list missing or wrong: {health}")
            return
        if any(w.get("state") != "up" for w in workers):
            failures.append(f"workers not all up at startup: {workers}")

        served = get_json(f"{base}/expand", {"query": query})
        if [(r["doc_id"], r["score"]) for r in served["results"]] != ref_results:
            failures.append(
                "worker-mode /expand differs from the in-process router"
            )
        else:
            print("workers: /expand over worker processes matches "
                  "the in-process router")

        # The repeat is the cheap path of protocol 3: the expansion comes
        # back `not_modified`, the rank skips its counts round, and the
        # router (not its idle in-process workers) must see the hit.
        repeat = get_json(f"{base}/expand", {"query": query})
        if [(r["doc_id"], r["score"]) for r in repeat["results"]] != ref_results:
            failures.append("worker-mode repeat /expand differs")
        if "wire" not in repeat.get("stages", {}):
            failures.append(f"no wire stage in worker mode: {repeat.get('stages')}")
        hit_rate = get_json(f"{base}/healthz")["hit_rates"]["expansion"]
        if hit_rate <= 0:
            failures.append(
                f"healthz expansion hit rate reads {hit_rate} under --workers"
            )
        samples = parse_prometheus_text(
            get_text(f"{base}/metrics")[0]
        )["samples"]
        for cache in ("expansion_wire", "collection_stats"):
            key = ("repro_cache_lookups_total",
                   frozenset({("cache", cache), ("result", "hit")}))
            if samples.get(key, 0) < 1:
                failures.append(f"no {cache} hit counted after a repeat")
        if not failures:
            print("workers: repeat served not_modified + one rank round; "
                  f"healthz expansion hit rate {hit_rate}")

        check_batch_expand(base, topics, failures, tag="batch-workers")

        victim = workers[0].get("pid")
        if not victim:
            failures.append(f"worker entry carries no pid: {workers[0]}")
            return
        os.kill(victim, signal.SIGKILL)
        print(f"workers: killed worker pid {victim}; waiting for restart")
        deadline = time.time() + 120
        recovered = False
        while time.time() < deadline:
            health = get_json(f"{base}/healthz")
            workers = health.get("workers", [])
            if sum(w.get("restarts", 0) for w in workers) >= 1 and \
                    all(w.get("state") == "up" for w in workers):
                recovered = True
                break
            time.sleep(0.2)
        if not recovered:
            failures.append(f"killed worker did not recover: {health}")
            return
        print("workers: supervisor restarted the killed worker "
              f"(healthz: {health.get('worker_restarts')} restart(s))")

        # `query` was asked before the kill, so the router holds its rank
        # step and sends it beside expand_seeds: to a worker that is new.
        used = rank_ahead_used(base)
        served = get_json(f"{base}/expand", {"query": query})
        if [(r["doc_id"], r["score"]) for r in served["results"]] != ref_results:
            failures.append(
                "post-restart /expand differs from the in-process router"
            )
        if rank_ahead_used(base) != used + 1:
            failures.append(
                "the post-restart repeat did not rank ahead: "
                f"repro_rank_ahead_total{{outcome=used}} {used} -> "
                f"{rank_ahead_used(base)}"
            )

        text, _ = get_text(f"{base}/metrics")
        restarts_metric = sum(
            value
            for (name, _labels), value
            in parse_prometheus_text(text)["samples"].items()
            if name == "repro_shard_worker_restarts_total"
        )
        if restarts_metric < 1:
            failures.append(
                "repro_shard_worker_restarts_total did not advance "
                f"after the kill (saw {restarts_metric})"
            )
        else:
            print("workers: restart counter visible in /metrics")

        base = check_live_updates(
            base, query, ref_results, failures, id_base=9_610_000,
            tag="live-workers",
            restart=restarter(procs, snap_dir, "--workers", "2"),
        )
        check_rank_ahead_across_eviction(base, snap_dir, query, failures)
    finally:
        stop(procs[-1])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failures: list[str] = []

    with tempfile.TemporaryDirectory() as tmp:
        snap_dir = Path(tmp) / "snap"
        benchmark = build_snapshot(snap_dir)
        query = benchmark.topics[0].keywords
        topics = [topic.keywords for topic in benchmark.topics[:3]] + ["qzxunseen"]
        print(f"snapshot built at {snap_dir}; query: {query!r}")

        procs = [launch(snap_dir)]
        try:
            port = wait_for_port(procs[0])
            base = f"http://127.0.0.1:{port}"

            health = get_json(f"{base}/healthz")
            print(f"healthz: {health}")
            if health.get("status") != "ok":
                failures.append(f"healthz status not ok: {health}")
            if health.get("shards") != 2:
                failures.append(f"healthz shards != 2: {health}")
            if "v3 sharded" not in health.get("snapshot", ""):
                failures.append(f"healthz does not echo the v3 layout: {health}")

            served = get_json(f"{base}/expand", {"query": query})

            # The synchronous reference over the very same on-disk snapshot.
            from repro.service import ShardRouter, ShardedSnapshot
            router = ShardRouter(ShardedSnapshot.load(snap_dir))
            reference = router.expand_query(query)

            http_results = [(r["doc_id"], r["score"]) for r in served["results"]]
            ref_results = [(r.doc_id, r.score) for r in reference.results]
            if http_results != ref_results:
                failures.append(
                    "HTTP /expand results differ from the in-process router:\n"
                    f"  http: {http_results}\n  sync: {ref_results}"
                )
            if served["expansion"]["article_ids"] != \
                    sorted(reference.expansion.article_ids):
                failures.append("HTTP expansion article set differs")
            if served["expansion"]["titles"] != list(reference.expansion.titles):
                failures.append("HTTP expansion titles differ")
            if served["linked"] != reference.linked:
                failures.append("HTTP linked flag differs")
            print(f"expand: {len(served['results'])} results, "
                  f"linked={served['linked']} — matches in-process router")

            after = get_json(f"{base}/healthz")
            if after.get("http_requests_total", 0) < 1:
                failures.append(f"http_requests_total did not advance: {after}")
            if after.get("router_requests_total", 0) < 1:
                failures.append(
                    f"router_requests_total did not advance: {after}"
                )
            if "requests_total" in after:
                failures.append(
                    f"healthz still carries the ambiguous requests_total key: "
                    f"{after}"
                )
            if not after.get("per_shard"):
                failures.append(f"healthz per_shard breakdown missing: {after}")
            check_metrics(base, failures)
            check_top_once(base, failures)
            check_batch_expand(base, topics, failures, tag="batch")
            check_live_updates(base, query, ref_results, failures,
                               id_base=9_600_000, tag="live",
                               restart=restarter(procs, snap_dir))
            router.close()
        finally:
            stop(procs[-1])

        recent_path = snap_dir / "recent_queries.json"
        if not recent_path.exists():
            failures.append(
                "shutdown did not persist recent_queries.json next to "
                "the snapshot manifest"
            )
        else:
            persisted = json.loads(recent_path.read_text(encoding="utf-8"))
            if query not in persisted.get("queries", []):
                failures.append(
                    f"persisted recency set misses the served query: "
                    f"{persisted}"
                )
            else:
                print(f"warm start: shutdown persisted "
                      f"{len(persisted['queries'])} recent quer(y/ies)")

        check_shedding(snap_dir, query, failures)
        check_worker_serving(snap_dir, query, ref_results, failures, topics)

    if failures:
        print("HTTP smoke FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("HTTP smoke ok: /healthz, /expand, /batch_expand, /metrics, "
          "repro top, live updates (apply/compact hot swap, in both modes), "
          "warm-start persistence, overload shedding (429 -> recover) and "
          "worker-mode serving (with a mid-run kill) agree with the "
          "synchronous path")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
