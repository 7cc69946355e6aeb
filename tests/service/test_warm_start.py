"""Warm starts from a persisted recency set (the cold-start follow-up).

ROADMAP's open item: a freshly launched server should not cold-start
into a stampede of expansion misses when the previous process already
knew what was hot.  The recency set now round-trips through
``recent_queries.json`` next to the snapshot manifest, and a restarted
stack that replays it serves its *first* client hit of each hot query
from the expansion cache.
"""

import json
import os
import re
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.obs import RequestLog
from repro.obs.logs import RECENT_QUERIES_FILENAME
from repro.service import ShardRouter, ShardedSnapshot
from repro.updates import UpdateCoordinator


@pytest.fixture(scope="module")
def sharded(snapshot):
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=2)


@pytest.fixture(scope="module")
def hot_queries(sharded):
    titles = sorted(" ".join(tokens) for tokens in sharded.title_index)
    return titles[:5]


class TestRoundTrip:
    def test_save_then_load_restores_the_set_in_order(
        self, tmp_path, hot_queries
    ):
        log = RequestLog(slow_ms=100.0)
        for query in hot_queries:
            log.record(endpoint="/expand", latency_ms=1.0, status=200,
                       query=query)
        path = log.save_recent(tmp_path)
        assert path == tmp_path / RECENT_QUERIES_FILENAME

        restored = RequestLog(slow_ms=100.0)
        assert restored.load_recent(tmp_path) == len(hot_queries)
        assert restored.recent_queries() == hot_queries

    def test_save_is_atomic_and_sorted_json(self, tmp_path, hot_queries):
        log = RequestLog(slow_ms=100.0)
        log.seed_recent(hot_queries)
        log.save_recent(tmp_path)
        payload = json.loads((tmp_path / RECENT_QUERIES_FILENAME).read_text())
        assert payload["version"] == 1
        assert payload["queries"] == hot_queries
        assert not list(tmp_path.glob("*.tmp")), "tmp file must be renamed"

    def test_failed_requests_never_enter_the_set(self, tmp_path):
        log = RequestLog(slow_ms=100.0)
        log.record(endpoint="/expand", latency_ms=1.0, status=400,
                   query="bad query")
        log.record(endpoint="/expand", latency_ms=1.0, status=200,
                   query="good query")
        log.save_recent(tmp_path)
        restored = RequestLog(slow_ms=100.0)
        restored.load_recent(tmp_path)
        assert restored.recent_queries() == ["good query"]

    def test_missing_and_corrupt_files_load_nothing(self, tmp_path):
        log = RequestLog(slow_ms=100.0)
        assert log.load_recent(tmp_path) == 0
        (tmp_path / RECENT_QUERIES_FILENAME).write_text("{not json")
        assert log.load_recent(tmp_path) == 0
        (tmp_path / RECENT_QUERIES_FILENAME).write_text('{"queries": 7}')
        assert log.load_recent(tmp_path) == 0
        assert log.recent_queries() == []

    def test_capacity_bounds_an_oversized_file(self, tmp_path):
        big = [f"query {i}" for i in range(40)]
        RequestLog(slow_ms=100.0, recent_capacity=40).seed_recent(big)
        log = RequestLog(slow_ms=100.0, recent_capacity=40)
        log.seed_recent(big)
        log.save_recent(tmp_path)
        bounded = RequestLog(slow_ms=100.0, recent_capacity=8)
        assert bounded.load_recent(tmp_path) == 8
        assert bounded.recent_queries() == big[-8:]

    def test_non_string_entries_are_skipped(self, tmp_path):
        (tmp_path / RECENT_QUERIES_FILENAME).write_text(json.dumps(
            {"version": 1, "queries": ["ok", 7, None, "", "also ok"]}
        ))
        log = RequestLog(slow_ms=100.0)
        assert log.load_recent(tmp_path) == 2
        assert log.recent_queries() == ["ok", "also ok"]


class TestFreshServerWarmStart:
    def test_first_hit_lands_at_cached_tier_after_restart(
        self, sharded, hot_queries, tmp_path
    ):
        # Previous process: serves traffic, persists its recency set on
        # the way down (what _serve_http does at shutdown).
        old_router = ShardRouter(sharded)
        old_log = RequestLog(slow_ms=100.0)
        try:
            for query in hot_queries:
                response = old_router.expand_query(query, top_k=10)
                assert not response.expansion_cached
                old_log.record(endpoint="/expand", latency_ms=1.0,
                               status=200, query=query)
            old_log.save_recent(tmp_path)
        finally:
            old_router.close()

        # Fresh process: cold caches, loads the set, replays it through
        # the router before taking traffic (what _serve_http does at
        # startup) — then the first *client* hit is already cached.
        new_router = ShardRouter(sharded)
        new_log = RequestLog(slow_ms=100.0)
        try:
            assert new_log.load_recent(tmp_path) == len(hot_queries)
            for query in new_log.recent_queries():
                new_router.expand_query(query, top_k=1)
            for query in hot_queries:
                response = new_router.expand_query(query, top_k=10)
                assert response.expansion_cached, (
                    f"first hit of {query!r} missed the cache after warm start"
                )
        finally:
            new_router.close()

    def test_warmed_answers_stay_bit_identical(
        self, sharded, hot_queries, tmp_path
    ):
        reference_router = ShardRouter(sharded)
        reference = [
            reference_router.expand_query(query, top_k=10)
            for query in hot_queries
        ]
        reference_router.close()

        log = RequestLog(slow_ms=100.0)
        log.seed_recent(hot_queries)
        log.save_recent(tmp_path)
        warmed_router = ShardRouter(sharded)
        warmed_log = RequestLog(slow_ms=100.0)
        warmed_log.load_recent(tmp_path)
        try:
            for query in warmed_log.recent_queries():
                warmed_router.expand_query(query, top_k=1)
            for query, expected in zip(hot_queries, reference):
                got = warmed_router.expand_query(query, top_k=10)
                assert [(r.doc_id, r.score) for r in got.results] == \
                       [(r.doc_id, r.score) for r in expected.results], query
        finally:
            warmed_router.close()


class TestCompactionPersistsRecency:
    def test_compact_writes_the_recency_set_next_to_the_snapshot(
        self, snapshot, hot_queries, tmp_path
    ):
        root = tmp_path / "serving"
        sharded = ShardedSnapshot.from_snapshot(snapshot, num_shards=2)
        sharded.save(root)
        router = ShardRouter(ShardedSnapshot.load(root))
        request_log = RequestLog(slow_ms=100.0)
        coordinator = UpdateCoordinator(
            router, snapshot_dir=root, request_log=request_log
        )
        try:
            for query in hot_queries:
                router.expand_query(query, top_k=10)
                request_log.record(endpoint="/expand", latency_ms=1.0,
                                   status=200, query=query)
            summary = coordinator.compact()
            assert summary["saved"]
            persisted = json.loads(
                (root / RECENT_QUERIES_FILENAME).read_text()
            )
            assert persisted["queries"] == hot_queries
            # The file sits at the snapshot *root*, not inside a
            # generation dir — it survives generation turnover.
            assert not (root / "gen-0002" / RECENT_QUERIES_FILENAME).exists()
        finally:
            router.close()


def _post(port: int, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as reply:
        return json.loads(reply.read())


class _Serve:
    """``repro serve --http 0 --workers 2`` over ``root`` in a subprocess;
    ``banner`` is its warm-start line, if it printed one."""

    def __init__(self, root: Path):
        src = Path(__file__).resolve().parents[2] / "src"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--snapshot",
             str(root), "--http", "0", "--workers", "2"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.banner, self.port = "", None
        for line in self.proc.stdout:
            if "warm start: replayed" in line:
                self.banner = line.strip()
            match = re.search(r"http://[\d.]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                break

    def stop(self) -> int:
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


class TestSupervisedWorkersWarmStart:
    """``serve --workers``: the replay must go through the path that
    serves — the async router over the socket adapters — or it warms
    the router's idle in-process workers and the first client hit is
    still a miss in the worker process that answers it."""

    def test_first_client_hit_is_cached_in_the_worker_processes(
        self, sharded, hot_queries, tmp_path
    ):
        root = tmp_path / "serving"
        sharded.save(root)
        log = RequestLog(slow_ms=100.0)
        log.seed_recent(hot_queries)
        log.save_recent(root)

        serve = _Serve(root)
        try:
            assert serve.port is not None, "serve exited before binding"
            assert serve.banner == (
                f"warm start: replayed {len(hot_queries)} persisted "
                "recent queries"
            )
            for query in hot_queries:
                payload = _post(serve.port, "/expand", {"query": query})
                assert payload["expansion_cached"] is True, (
                    f"first hit of {query!r} missed the worker's cache "
                    "after a warm start"
                )
            with urllib.request.urlopen(
                f"http://127.0.0.1:{serve.port}/stats", timeout=30
            ) as reply:
                stats = json.loads(reply.read())
            # The replay and the client hits were all answered by the
            # worker processes: one miss and one hit per query.
            cache = stats["expansion_cache"]
            assert (cache["misses"], cache["hits"]) == \
                (len(hot_queries), len(hot_queries))
        finally:
            returncode = serve.stop()
        assert returncode == 0

    def test_compaction_rewarms_the_restarted_worker_processes(
        self, sharded, hot_queries, tmp_path
    ):
        """``POST /admin/compact`` rolling-restarts every worker with an
        empty cache; the replay it reports must reach the new ones."""
        root = tmp_path / "serving"
        sharded.save(root)
        serve = _Serve(root)
        try:
            assert serve.port is not None, "serve exited before binding"
            for query in hot_queries:
                _post(serve.port, "/expand", {"query": query})
            summary = _post(serve.port, "/admin/compact", {})
            assert summary["generation"] == 2
            assert summary["warmed_queries"] == len(hot_queries)
            for query in hot_queries:
                payload = _post(serve.port, "/expand", {"query": query})
                assert payload["expansion_cached"] is True, (
                    f"first hit of {query!r} after compaction missed the "
                    "restarted worker's cache"
                )
        finally:
            returncode = serve.stop()
        assert returncode == 0
