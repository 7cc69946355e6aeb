"""A shard worker's load: every checksum, only its own shard.

``ShardedSnapshot.load(directory, shard=i)`` is what ``repro
shard-worker`` calls.  It verifies the manifest and the sha256 of every
listed artefact exactly as the serving process's load does, then
materialises only what the four shard calls read: the mapped graph,
shard ``i``'s segment and prefill, ``mu`` and the generation — no
vocabulary, no document names, no other segment.  A worker built from
it must answer every call like the in-process worker the router builds
from the whole snapshot.  The malformed-artefact cases below pin that a
bad JSON artefact is a :class:`SnapshotError` naming the file, never a
raw ``UnicodeDecodeError`` or ``AttributeError``.
"""

import dataclasses
import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import serve_main, shard_worker_main
from repro.errors import SnapshotError
from repro.retrieval.compact import CompactIndex
from repro.service import ShardRouter, ShardedSnapshot, make_shard_worker
from repro.service import artifacts
from repro.service.artifacts import SnapshotShard

SHARDS = 2
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def prefilled_dir(snapshot, small_benchmark, tmp_path_factory):
    """A two-shard snapshot with a prefill, as ``repro snapshot
    --shards 2 --prefill`` writes it."""
    directory = tmp_path_factory.mktemp("shard-load")
    ShardedSnapshot.from_snapshot(snapshot, num_shards=SHARDS).with_prefill(
        [topic.keywords for topic in small_benchmark.topics]
    ).save(directory)
    return directory


@pytest.fixture()
def copy(prefilled_dir, tmp_path):
    target = tmp_path / "snap"
    shutil.copytree(prefilled_dir, target)
    return target


def _rewrite(directory: Path, name: str, raw: bytes) -> None:
    """Replace artefact ``name`` with gzipped ``raw`` and re-checksum it
    in the manifest, so only the parser can object."""
    path = directory / name
    path.write_bytes(gzip.compress(raw))
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if "/" in name:
        shard_dir, base = name.split("/")
        (entry,) = [e for e in manifest["shard_artifacts"] if e["dir"] == shard_dir]
        entry["checksums"][base] = digest
    else:
        manifest["shared_checksums"][name] = digest
    manifest_path.write_text(json.dumps(manifest))


class TestWorkerState:
    def test_holds_one_shard_and_no_vocabulary_or_names(
        self, prefilled_dir, monkeypatch
    ):
        opened, parsed = [], []
        load_index, read_json = CompactIndex.load, artifacts._read_json_gz
        monkeypatch.setattr(CompactIndex, "load", classmethod(
            lambda cls, path: opened.append(Path(path)) or load_index(path)
        ))
        monkeypatch.setattr(
            artifacts, "_read_json_gz",
            lambda path: parsed.append(path) or read_json(path),
        )
        part = ShardedSnapshot.load(prefilled_dir, shard=1)

        assert isinstance(part, SnapshotShard)
        assert {field.name for field in dataclasses.fields(part)} == {
            "shard_id", "graph", "segment", "mu", "generation",
            "prefill", "prefill_expander",
        }
        assert opened == [prefilled_dir / "shard-0001" / "index.bin"]
        assert parsed == [prefilled_dir / "shard-0001" / "prefill.json.gz"]
        whole = ShardedSnapshot.load(prefilled_dir)
        assert part.segment.num_documents == whole.segments[1].num_documents
        assert part.prefill == whole.prefills[1] and part.prefill
        assert (part.mu, part.generation) == (whole.mu, whole.generation)
        assert make_shard_worker(part).doc_names == {}

    def test_answers_every_call_like_the_in_process_worker(
        self, prefilled_dir, small_benchmark
    ):
        """Drive the router's query plan; every shard item is answered
        by both the router's worker and the one built from a shard-only
        load, and the two answers must be equal."""
        router = ShardRouter(ShardedSnapshot.load(prefilled_dir))
        alone = [
            make_shard_worker(ShardedSnapshot.load(prefilled_dir, shard=i))
            for i in range(SHARDS)
        ]
        keywords = [topic.keywords for topic in small_benchmark.topics]
        seen = set()

        def run(plan):
            value = None
            try:
                while True:
                    call, items = plan.send(value)
                    value = []
                    for shard, argument in items:
                        if shard is None:
                            value.append(getattr(router, call)(argument))
                            continue
                        mine = getattr(alone[shard], call)(argument)
                        theirs = getattr(router.workers[shard], call)(argument)
                        assert mine == theirs, (call, shard)
                        seen.add(call)
                        value.append(theirs)
            except StopIteration as done:
                return done.value

        try:
            run(router.query_plan("batch_expand", keywords + ["zzz unseen"], 5))
            for text in keywords[:4]:
                run(router.query_plan("expand_query", [text], 5))
        finally:
            router.close()
        assert seen == {
            "expand_seeds", "prefill_expansions",
            "leaf_collection_counts", "search_with_background",
        }

    def test_out_of_range_shard_is_refused(self, prefilled_dir):
        with pytest.raises(SnapshotError, match="shard 2 out of range"):
            ShardedSnapshot.load(prefilled_dir, shard=SHARDS)

    def test_checks_the_counts_it_materialises(self, copy):
        manifest_path = copy / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shard_artifacts"][1]["counts"]["prefill_entries"] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="shard-0001 is inconsistent"):
            ShardedSnapshot.load(copy, shard=1)
        ShardedSnapshot.load(copy, shard=0)  # shard 1's count is not its own
        manifest["counts"]["edges"] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="declares .* edges"):
            ShardedSnapshot.load(copy, shard=0)


@pytest.mark.parametrize("artefact", ["linker.json.gz", "shard-0000/index.bin"])
def test_worker_cli_refuses_a_flipped_byte_it_never_materialises(copy, artefact):
    path = copy / artefact
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "shard-worker",
         "--snapshot", str(copy), "--shard", "1"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stdout.startswith("error: snapshot file ")
    assert f"{artefact} fails its manifest checksum" in done.stdout
    assert "serving on" not in done.stdout
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("defect", [b"\xff\xfe{}", b'["a", "b"]'],
                         ids=["invalid-utf8", "json-list"])
@pytest.mark.parametrize("artefact", [
    "linker.json.gz", "documents.json.gz", "shard-0000/prefill.json.gz",
])
def test_malformed_json_artefact_is_a_snapshot_error(
    copy, artefact, defect, capsys
):
    _rewrite(copy, artefact, defect)
    name = artefact.rsplit("/", 1)[-1]
    with pytest.raises(SnapshotError, match=name.replace(".", r"\.")):
        ShardedSnapshot.load(copy)

    assert serve_main(["--snapshot", str(copy), "--query", "x"]) == 2
    out = capsys.readouterr().out
    assert f"error: snapshot file {name} is" in out
    assert "hint: pass --build" in out

    if name == "prefill.json.gz":
        assert shard_worker_main(["--snapshot", str(copy), "--shard", "0"]) == 2
        assert f"error: snapshot file {name} is" in capsys.readouterr().out
    else:  # checksummed, but a worker never parses it
        assert isinstance(ShardedSnapshot.load(copy, shard=0), SnapshotShard)
