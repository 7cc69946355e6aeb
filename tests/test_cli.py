"""CLI tests (driven in-process against a tiny saved benchmark)."""

import json
import os
import re
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.cli import (
    analyze_main,
    build_benchmark_main,
    expand_main,
    ground_truth_main,
    main,
    serve_main,
)
from repro.collection import Benchmark, SyntheticCollectionConfig
from repro.wiki import SyntheticWikiConfig

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench")
    benchmark = Benchmark.synthetic(
        SyntheticWikiConfig(seed=51, num_domains=5, background_articles=80,
                            background_categories=10),
        SyntheticCollectionConfig(seed=52, background_docs=40),
    )
    benchmark.save(directory)
    return str(directory)


class TestBuildBenchmark:
    def test_builds_and_saves(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = build_benchmark_main(
            ["--out", str(out), "--domains", "3", "--seed", "9"]
        )
        assert code == 0
        assert (out / "wiki.jsonl.gz").exists()
        assert (out / "images.xml").exists()
        assert (out / "topics.json").exists()
        assert "saved" in capsys.readouterr().out


class TestGroundTruth:
    def test_prints_table2(self, bench_dir, capsys):
        code = ground_truth_main(["--benchmark-dir", bench_dir, "--seed", "51"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "O(X(q))" in out

    def test_verbose_lists_features(self, bench_dir, capsys):
        code = ground_truth_main(
            ["--benchmark-dir", bench_dir, "--seed", "51", "--verbose"]
        )
        assert code == 0
        assert "expansion features" in capsys.readouterr().out


class TestAnalyze:
    def test_prints_every_artifact(self, bench_dir, capsys):
        code = analyze_main(["--benchmark-dir", bench_dir, "--seed", "51"])
        assert code == 0
        out = capsys.readouterr().out
        for marker in ("Table 2", "Table 3", "Table 4", "Figure 5", "Figure 6",
                       "Figure 7a", "Figure 7b", "Figure 9", "Section 3"):
            assert marker in out, marker


class TestExpand:
    def test_expands_known_entity(self, bench_dir, capsys):
        benchmark = Benchmark.load(bench_dir)
        keywords = benchmark.topics[0].keywords
        code = expand_main(["--benchmark-dir", bench_dir, keywords])
        assert code == 0
        out = capsys.readouterr().out
        assert "linked entities" in out
        assert "expansion features" in out
        assert "top 10 documents" in out

    def test_unknown_entities_exit_1(self, bench_dir, capsys):
        code = expand_main(["--benchmark-dir", bench_dir, "xyzzy plugh"])
        assert code == 1
        assert "no Wikipedia entities" in capsys.readouterr().out

    def test_bad_lengths_rejected(self, bench_dir):
        with pytest.raises(SystemExit):
            expand_main(["--benchmark-dir", bench_dir, "--lengths", "2,x", "anything"])


class TestDispatcher:
    def test_help(self, capsys):
        assert main([]) == 2
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().out

    def test_dispatch(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert main(["build-benchmark", "--out", str(out), "--domains", "2"]) == 0


class TestServe:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "--snapshot" in capsys.readouterr().out

    def test_build_then_serve_from_disk(self, bench_dir, tmp_path, capsys):
        snap = tmp_path / "snap"
        benchmark = Benchmark.load(bench_dir)
        keywords = benchmark.topics[0].keywords

        code = serve_main([
            "--snapshot", str(snap), "--build", "--benchmark-dir", bench_dir,
            "--query", keywords, "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "built and saved" in out
        assert "linked entities" in out
        assert "#1" in out
        assert '"expansion_cache"' in out

        # Second run cold-starts from the saved snapshot (no benchmark
        # rebuild: point --benchmark-dir at a nonexistent path on purpose).
        code = serve_main([
            "--snapshot", str(snap), "--benchmark-dir", str(tmp_path / "nope"),
            "--query", keywords, "--query", keywords,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "loaded" in out
        assert out.count("#1 ") >= 2

    def test_serve_prints_resolved_snapshot_layout(
        self, bench_dir, tmp_path, capsys
    ):
        """Operators must see which on-disk format/shard layout loaded."""
        snap = tmp_path / "snap"
        benchmark = Benchmark.load(bench_dir)
        keywords = benchmark.topics[0].keywords
        code = serve_main([
            "--snapshot", str(snap), "--build", "--shards", "2",
            "--benchmark-dir", bench_dir, "--query", keywords,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "snapshot layout:" in out
        assert "shards=2" in out

        # Reloading from disk resolves the v3 layout explicitly.
        code = serve_main([
            "--snapshot", str(snap), "--benchmark-dir", str(tmp_path / "nope"),
            "--query", keywords,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "snapshot layout: v3 sharded (compact binary blobs, mmap-loaded)" \
            in out

    def test_serve_default_snapshot_layout_names_v3(self, bench_dir, tmp_path, capsys):
        """The default ``--build`` (one shard) writes what the server
        maps: the next start loads it as v3, not as a legacy layout."""
        snap = tmp_path / "snap1"
        benchmark = Benchmark.load(bench_dir)
        keywords = benchmark.topics[0].keywords
        assert serve_main([
            "--snapshot", str(snap), "--build", "--benchmark-dir", bench_dir,
            "--query", keywords,
        ]) == 0
        capsys.readouterr()
        assert serve_main([
            "--snapshot", str(snap), "--benchmark-dir", str(tmp_path / "nope"),
            "--query", keywords,
        ]) == 0
        out = capsys.readouterr().out
        assert "snapshot layout: v3 sharded (compact binary blobs, mmap-loaded)" \
            in out
        assert "shards=1" in out

    def test_serve_closes_what_it_opened(self, bench_dir, tmp_path, capsys,
                                         monkeypatch):
        """REPL mode closes its router (an error mid-batch included);
        HTTP mode closes the async router — pooled worker connections,
        the adapter executor — before it stops the supervisor, then the
        router."""
        from repro.service import (
            AsyncShardRouter, HttpFrontEnd, ShardRouter, ShardSupervisor,
        )

        closed = []

        def noting(cls, method, label):
            inner = getattr(cls, method)

            def wrapper(self, *args, **kwargs):
                closed.append(label)
                return inner(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, wrapper)

        noting(ShardRouter, "close", "router")
        noting(AsyncShardRouter, "close", "service")
        noting(ShardSupervisor, "stop", "supervisor")
        snap = tmp_path / "snap2"
        keywords = Benchmark.load(bench_dir).topics[0].keywords
        build = ["--snapshot", str(snap), "--build", "--shards", "2",
                 "--benchmark-dir", bench_dir]
        assert serve_main([*build, "--query", keywords]) == 0
        assert closed == ["router"]

        def failing(self, texts, top_k=10):
            raise RuntimeError("mid-batch failure")

        closed.clear()
        monkeypatch.setattr(ShardRouter, "batch_expand", failing)
        with pytest.raises(RuntimeError):
            serve_main(["--snapshot", str(snap), "--query", keywords])
        assert closed == ["router"]

        async def interrupted(self, host, port):
            raise KeyboardInterrupt

        closed.clear()
        monkeypatch.setattr(HttpFrontEnd, "start", interrupted)
        assert serve_main(["--snapshot", str(snap), "--http", "0"]) == 0
        assert closed == ["service", "router"]
        closed.clear()
        assert serve_main(
            ["--snapshot", str(snap), "--http", "0", "--workers", "2"]
        ) == 0
        assert closed == ["service", "supervisor", "router"]
        assert "http: shut down" in capsys.readouterr().out

    def test_bad_http_port_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            serve_main(["--snapshot", str(tmp_path / "s"), "--http", "70000"])

    @pytest.mark.parametrize("flag", [
        ["--hedge-after-ms", "5"], ["--call-timeout-s", "1"],
    ])
    def test_deleted_resilience_flags_are_usage_errors(
        self, flag, tmp_path, capsys
    ):
        # The liveness ping bounds every shard call; neither knob exists.
        with pytest.raises(SystemExit) as excinfo:
            serve_main(["--snapshot", str(tmp_path / "s"), "--http", "0",
                        "--workers", "1", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_snapshot_without_build_fails(self, tmp_path, capsys):
        code = serve_main(["--snapshot", str(tmp_path / "absent"), "--query", "x"])
        assert code == 2
        out = capsys.readouterr().out
        assert "manifest.json" in out
        assert "--build" in out

    def test_build_and_serve_sharded(self, bench_dir, tmp_path, capsys):
        snap = tmp_path / "snap4"
        benchmark = Benchmark.load(bench_dir)
        keywords = benchmark.topics[0].keywords

        code = serve_main([
            "--snapshot", str(snap), "--build", "--shards", "4",
            "--benchmark-dir", bench_dir, "--query", keywords, "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "shards=4" in out
        assert "linked entities" in out
        assert '"per_shard"' in out
        assert (snap / "shard-0003").is_dir()

        # Second run cold-starts from the sharded snapshot on disk.
        code = serve_main([
            "--snapshot", str(snap), "--benchmark-dir", str(tmp_path / "nope"),
            "--query", keywords,
        ])
        assert code == 0
        assert "loaded ShardedSnapshot" in capsys.readouterr().out

    def test_sharded_results_match_single_shard(self, bench_dir, tmp_path, capsys):
        benchmark = Benchmark.load(bench_dir)
        keywords = benchmark.topics[0].keywords
        assert serve_main([
            "--snapshot", str(tmp_path / "s1"), "--build", "--benchmark-dir",
            bench_dir, "--query", keywords,
        ]) == 0
        single_out = capsys.readouterr().out
        assert serve_main([
            "--snapshot", str(tmp_path / "s4"), "--build", "--shards", "4",
            "--benchmark-dir", bench_dir, "--query", keywords,
        ]) == 0
        sharded_out = capsys.readouterr().out

        def result_lines(text):
            return [line for line in text.splitlines() if line.startswith("  #")]

        assert result_lines(single_out) == result_lines(sharded_out)


class TestSnapshotCommand:
    def test_writes_single_shard_snapshot(self, bench_dir, tmp_path, capsys):
        out_dir = tmp_path / "snap"
        code = main(["snapshot", "--out", str(out_dir),
                     "--benchmark-dir", bench_dir])
        assert code == 0
        assert "saved ShardedSnapshot(shards=1" in capsys.readouterr().out
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "graph.bin").exists()
        assert (out_dir / "shard-0000" / "index.bin").exists()
        assert not (out_dir / "wiki.jsonl.gz").exists()

    def test_writes_sharded_snapshot(self, bench_dir, tmp_path, capsys):
        out_dir = tmp_path / "snap"
        code = main(["snapshot", "--out", str(out_dir), "--shards", "2",
                     "--benchmark-dir", bench_dir])
        assert code == 0
        assert "saved ShardedSnapshot" in capsys.readouterr().out
        assert (out_dir / "graph.bin").exists()
        assert not (out_dir / "shard-0000" / "partition.json.gz").exists()
        assert (out_dir / "shard-0001" / "index.bin").exists()

    def test_prefill_seeds_the_recency_file(self, bench_dir, tmp_path, capsys):
        out_dir = tmp_path / "snap"
        code = main(["snapshot", "--out", str(out_dir), "--shards", "2",
                     "--prefill", "--benchmark-dir", bench_dir])
        assert code == 0
        queries = list(dict.fromkeys(
            topic.keywords for topic in Benchmark.load(bench_dir).topics
        ))
        out = capsys.readouterr().out
        assert f"seeded {len(queries)} warm-start queries into " in out
        assert "note:" not in out
        assert not list(out_dir.rglob("prefill.json.gz"))
        payload = json.loads((out_dir / "recent_queries.json").read_text())
        assert payload["queries"] == queries

    def test_prefill_says_when_topics_exceed_the_recency_capacity(
        self, bench_dir, tmp_path, capsys
    ):
        from repro.collection import Topic, TopicSet
        from repro.obs.logs import DEFAULT_RECENT_CAPACITY

        total = DEFAULT_RECENT_CAPACITY + 44
        topics = TopicSet([
            Topic(topic_id=i, keywords=f"query {i}", relevant=frozenset())
            for i in range(total)
        ])
        topics.save(tmp_path / "topics.json")
        out_dir = tmp_path / "snap"
        code = main(["snapshot", "--out", str(out_dir), "--benchmark-dir",
                     bench_dir, "--prefill", str(tmp_path / "topics.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert f"seeded {DEFAULT_RECENT_CAPACITY} warm-start queries" in out
        assert (f"note: {total} distinct topic queries exceed the recency "
                f"capacity of {DEFAULT_RECENT_CAPACITY}; the first 44 were "
                "dropped") in out
        payload = json.loads((out_dir / "recent_queries.json").read_text())
        assert payload["queries"] == [f"query {i}" for i in range(44, total)]

    def test_prefilled_topics_answer_from_cache_on_the_first_request(
        self, bench_dir, tmp_path, capsys
    ):
        """``snapshot --prefill`` then ``serve --http``: the startup
        replay answers every topic once, so each topic's first client
        request is a cache hit, bit-identical to a cold router."""
        from repro.service import ShardRouter, ShardedSnapshot

        out_dir = tmp_path / "snap"
        assert main(["snapshot", "--out", str(out_dir), "--shards", "2",
                     "--prefill", "--benchmark-dir", bench_dir]) == 0
        capsys.readouterr()
        queries = list(dict.fromkeys(
            topic.keywords for topic in Benchmark.load(bench_dir).topics
        ))
        cold = ShardRouter(ShardedSnapshot.load(out_dir))
        try:
            expected = [
                [(r.doc_id, r.score) for r in cold.expand_query(q).results]
                for q in queries
            ]
        finally:
            cold.close()

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--snapshot",
             str(out_dir), "--http", "0"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            banner, port = "", None
            for line in proc.stdout:
                if line.startswith("warm start:"):
                    banner = line.strip()
                match = re.search(r"http://[\d.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "serve exited before binding"
            assert banner.startswith(f"warm start: replayed {len(queries)} ")
            for query, results in zip(queries, expected):
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/expand",
                    data=json.dumps({"query": query}).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=60) as reply:
                    payload = json.loads(reply.read())
                assert payload["linked"], query
                assert payload["expansion_cached"] is True, query
                assert [(r["doc_id"], r["score"]) for r in payload["results"]] \
                    == results, query
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert proc.returncode == 0
        assert not list(out_dir.rglob("prefill.json.gz"))

    def test_rejects_bad_shard_count(self, bench_dir):
        with pytest.raises(SystemExit):
            main(["snapshot", "--shards", "0", "--benchmark-dir", bench_dir])


class TestReport:
    def test_writes_markdown(self, bench_dir, tmp_path, capsys):
        from repro.cli import report_main

        out = tmp_path / "run.md"
        code = report_main(["--benchmark-dir", bench_dir, "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "## Table 4" in out.read_text(encoding="utf-8")

    def test_dispatcher_knows_report(self, bench_dir, tmp_path):
        from repro.cli import main

        out = tmp_path / "run2.md"
        assert main(["report", "--benchmark-dir", bench_dir, "--out", str(out)]) == 0
