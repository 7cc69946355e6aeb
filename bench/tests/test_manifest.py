"""BENCHMARK.json against the contract, and against what a run emits.

The smoke runs drive the real entry point (`python3 -m bench`, a real
`serve` subprocess) on a corpus a fraction of the benchmark's size, so
they check plumbing and names, never numbers.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import MANIFEST, OUT_DIR, REPO_ROOT, stats
from bench.streams import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE = ["--seed", "3", "--seconds", "1", "--corpus-scale", "0.3"]


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


def _bench(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _git_status():
    done = subprocess.run(
        ["git", "status", "--porcelain"], cwd=REPO_ROOT,
        capture_output=True, text=True,
    )
    return done.stdout if done.returncode == 0 else None


def test_manifest_has_exactly_the_contract_keys(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["bench"]
    assert manifest["command"][:3] == ["python3", "-m", "bench"]
    assert isinstance(manifest["run_seconds"], int)
    assert 1 <= manifest["run_seconds"] <= 60
    assert MANIFEST.stat().st_size <= 64 * 1024


def test_workloads_match_the_planner(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_names_units_and_bounds(manifest):
    names = [w["name"] for w in manifest["workloads"]]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in manifest["end_to_end"])}]


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_emits_every_declared_metric(manifest, trace, kind):
    before = _git_status()
    done = _bench("--workload", "hot_topics", "--trace", trace, *SMOKE)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in manifest[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        # the timings are the medians of the per-slice figures, each
        # scaled by the speed factor measured next to its slice
        slices = json.loads(
            (OUT_DIR / "results.json").read_text()
        )["runs"][0]["notes"]["slices"]
        for name, scaled in (
            ("throughput_qps", [qps * f for qps, _, _, f in slices]),
            ("latency_p50_ms", [p50 / f for _, p50, _, f in slices]),
            ("latency_p95_ms", [p95 / f for _, _, p95, f in slices]),
        ):
            assert result["metrics"][name]["value"] == \
                pytest.approx(stats.median(scaled), rel=0.01)
    # everything the run wrote is git-ignored
    assert _git_status() == before


def test_plan_only_prints_digests_and_starts_nothing():
    first = _bench("--plan-only", *SMOKE)
    again = _bench("--plan-only", *SMOKE)
    assert first.returncode == 0, first.stderr[-2000:]
    assert first.stdout == again.stdout
    lines = first.stdout.strip().splitlines()
    assert len(lines) == len(WORKLOADS) + 1  # read_write_mix has two streams
    assert all(re.search(r"sha256=[0-9a-f]{64}$", line) for line in lines)


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is no
    program to measure: exit non-zero and print no result."""
    shutil.copy(MANIFEST, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        REPO_ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = _bench("--workload", "hot_topics", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
