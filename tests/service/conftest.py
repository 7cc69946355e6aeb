"""Shared fixtures for service-layer tests: one small benchmark + snapshot."""

import os
import subprocess

import pytest

from repro.collection import Benchmark, SyntheticCollectionConfig
from repro.service import ShardedSnapshot, Snapshot
from repro.wiki import SyntheticWikiConfig


@pytest.fixture(scope="module")
def small_benchmark() -> Benchmark:
    return Benchmark.synthetic(
        SyntheticWikiConfig(seed=61, num_domains=5, background_articles=80,
                            background_categories=10),
        SyntheticCollectionConfig(seed=62, background_docs=40),
    )


@pytest.fixture(scope="module")
def snapshot(small_benchmark) -> Snapshot:
    return Snapshot.build(small_benchmark)


@pytest.fixture(scope="module")
def snapshot_dir(snapshot, tmp_path_factory):
    """What ``repro snapshot`` writes by default: one shard."""
    directory = tmp_path_factory.mktemp("snapshot")
    ShardedSnapshot.from_snapshot(snapshot, num_shards=1).save(directory)
    return directory


@pytest.fixture(scope="session", autouse=True)
def no_shard_worker_outlives_the_session():
    """Fail the run if a ``repro.cli shard-worker`` child is still alive
    when the session ends.

    Under ``REPRO_SHARD_ADAPTER=socket`` every ``AsyncShardRouter``
    spawns its own workers and only ``close()`` stops them, so a suite
    that forgets to close one leaks processes past pytest's exit (CI's
    socket leg and ``tools/http_smoke.py`` users found four).
    """
    yield
    leaked = subprocess.run(
        ["pgrep", "-P", str(os.getpid()), "-f", "repro.cli shard-worker"],
        capture_output=True, text=True, check=False,
    ).stdout.split()
    assert not leaked, (
        f"shard-worker processes {leaked} outlived the test session: "
        "some fixture never closed its AsyncShardRouter"
    )
