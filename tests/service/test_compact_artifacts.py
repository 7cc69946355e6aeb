"""Snapshot v3 (compact blobs): round trips, upgrades from directories
earlier builds wrote, refusals and failure modes."""

import gzip
import json
import shutil

import pytest

from repro.retrieval import CompactIndex
from repro.errors import SnapshotError
from repro.service import (
    COMPACT_SNAPSHOT_VERSION,
    MANIFEST_NAME,
    ShardRouter,
    ShardedSnapshot,
)
from repro.service import artifacts, make_shard_worker
from repro.service.artifacts import generation_dir_name, write_current_pointer
from repro.wiki import CompactGraphView
from repro.wiki.partition import shard_of_node


@pytest.fixture(scope="module")
def sharded(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=3)


@pytest.fixture(scope="module")
def v3_dir(sharded, tmp_path_factory):
    directory = tmp_path_factory.mktemp("v3_snapshot")
    sharded.save(directory)
    return directory


def _sha256_of(path):
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestV3RoundTrip:
    def test_layout_and_manifest_version(self, v3_dir):
        manifest = json.loads((v3_dir / MANIFEST_NAME).read_text())
        assert manifest["version"] == COMPACT_SNAPSHOT_VERSION
        assert (v3_dir / "graph.bin").exists()
        assert (v3_dir / "shard-0000" / "index.bin").exists()
        assert "graph.bin" in manifest["shared_checksums"]
        assert "index.bin" in manifest["shard_artifacts"][0]["checksums"]

    def test_fresh_save_holds_only_the_v3_artefacts(self, v3_dir):
        names = {path.name for path in v3_dir.rglob("*") if path.is_file()}
        assert names == {
            MANIFEST_NAME, "graph.bin", "linker.json.gz", "documents.json.gz",
            "index.bin",
        }

    def test_load_is_frozen_and_equivalent(self, sharded, v3_dir):
        loaded = ShardedSnapshot.load(v3_dir)
        assert isinstance(loaded.graph, CompactGraphView)
        assert all(isinstance(s, CompactIndex) for s in loaded.segments)
        assert loaded.num_documents == sharded.num_documents
        assert loaded.title_index == sharded.title_index
        for mine, original in zip(loaded.segments, sharded.segments):
            assert mine.num_documents == original.num_documents
            assert mine.total_tokens == original.total_tokens
            assert list(mine.terms()) == list(original.terms())
        graph = sharded.graph
        for node_id in list(graph.node_ids())[:50]:
            assert loaded.graph.undirected_neighbors(node_id) == \
                graph.undirected_neighbors(node_id)

    def test_served_answers_match_in_memory_snapshot(
        self, small_benchmark, sharded, v3_dir
    ):
        mine = ShardRouter(ShardedSnapshot.load(v3_dir))
        reference = ShardRouter(sharded)
        for topic in small_benchmark.topics:
            a = mine.expand_query(topic.keywords, top_k=10)
            b = reference.expand_query(topic.keywords, top_k=10)
            assert a.expansion.article_ids == b.expansion.article_ids
            assert [(r.doc_id, r.score) for r in a.results] == \
                   [(r.doc_id, r.score) for r in b.results]

    def test_reopened_snapshot_serves_identically(self, small_benchmark, v3_dir):
        """Two independent loads (a restart stand-in) answer the same."""
        first = ShardRouter(ShardedSnapshot.load(v3_dir))
        again = ShardRouter(ShardedSnapshot.load(v3_dir))
        keywords = small_benchmark.topics[0].keywords
        a = first.expand_query(keywords)
        b = again.expand_query(keywords)
        assert [(r.doc_id, r.score) for r in a.results] == \
               [(r.doc_id, r.score) for r in b.results]


def _as_333e913_wrote_it(directory):
    """Add what the previous build stored per shard and this one does
    not: ``partition.json.gz`` (checksummed in the manifest) and the
    ``core_*`` / ``owned_edges`` counts.  Neither is read any more, so
    the payload only has to be what its checksum says and the counts
    can be anything."""
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    for shard, entry in enumerate(manifest["shard_artifacts"]):
        path = directory / entry["dir"] / "partition.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump({"shard": shard, "num_shards": manifest["shards"]}, out)
        entry["checksums"]["partition.json.gz"] = _sha256_of(path)
        entry["counts"].update(
            core_articles=7, core_categories=3, owned_edges=11
        )
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")


def _as_the_prefill_build_wrote_it(directory, seed_sets):
    """Add what ``repro snapshot --prefill`` stored per shard before the
    recency replay replaced it: a checksummed ``prefill.json.gz`` in
    that build's schema, holding each seed set on its owner shard, and
    the per-shard and global ``prefill_entries`` counts.  Every entry
    claims an empty expansion, so an answer served from one would show."""
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    total = 0
    for shard, entry in enumerate(manifest["shard_artifacts"]):
        records = [
            {"seeds": sorted(seeds), "articles": [], "titles": [], "cycles": []}
            for seeds in sorted(seed_sets, key=sorted)
            if shard_of_node(min(seeds), manifest["shards"]) == shard
        ]
        path = directory / entry["dir"] / "prefill.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump({"expander": "NeighborhoodCycleExpander", "entries": records}, out)
        entry["checksums"]["prefill.json.gz"] = _sha256_of(path)
        entry["counts"]["prefill_entries"] = len(records)
        total += len(records)
    manifest["counts"]["prefill_entries"] = total
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")


def _answers(router, small_benchmark):
    queries = [topic.keywords for topic in small_benchmark.topics]
    queries += [a.title for a in list(small_benchmark.graph.main_articles())[:20]]
    return [
        (sorted(response.link.article_ids),
         sorted(response.expansion.article_ids),
         [(r.doc_id, repr(r.score)) for r in response.results])
        for response in (router.expand_query(q, top_k=10) for q in queries)
    ]


class TestUpgrade:
    """Old v3 loads; v1/v2 are refused at the gate (docs/architecture.md,
    "Upgrading")."""

    def test_previous_build_directory_serves_identically(
        self, small_benchmark, v3_dir, tmp_path
    ):
        old = tmp_path / "old"
        shutil.copytree(v3_dir, old)
        _as_333e913_wrote_it(old)
        before = {p: _sha256_of(p) for p in old.rglob("*") if p.is_file()}
        assert sum(p.name == "partition.json.gz" for p in before) == 3
        mine = ShardRouter(ShardedSnapshot.load(old))
        reference = ShardRouter(ShardedSnapshot.load(v3_dir))
        try:
            # Loading must not rewrite or migrate the directory in place.
            assert before == \
                {p: _sha256_of(p) for p in old.rglob("*") if p.is_file()}
            assert mine.snapshot.source_version == COMPACT_SNAPSHOT_VERSION
            assert mine.snapshot.layout_description() == \
                reference.snapshot.layout_description()
            assert _answers(mine, small_benchmark) == \
                _answers(reference, small_benchmark)
        finally:
            mine.close()
            reference.close()

    def test_previous_build_generation_serves_identically(
        self, small_benchmark, v3_dir, tmp_path
    ):
        """The same behind a ``CURRENT`` -> ``gen-0002/`` pointer, the one
        snapshot state a rebuild cannot re-derive."""
        root = tmp_path / "root"
        shutil.copytree(v3_dir, root)
        generation = root / generation_dir_name(2)
        shutil.copytree(v3_dir, generation)
        _as_333e913_wrote_it(root)
        _as_333e913_wrote_it(generation)
        manifest = json.loads((generation / MANIFEST_NAME).read_text())
        manifest["generation"] = 2
        (generation / MANIFEST_NAME).write_text(json.dumps(manifest))
        write_current_pointer(root, 2)
        loaded = ShardedSnapshot.load(root)
        assert loaded.generation == 2
        mine = ShardRouter(loaded)
        reference = ShardRouter(ShardedSnapshot.load(v3_dir))
        try:
            assert _answers(mine, small_benchmark) == \
                _answers(reference, small_benchmark)
        finally:
            mine.close()
            reference.close()

    def test_prefilled_directory_serves_identically(
        self, small_benchmark, v3_dir, tmp_path, monkeypatch
    ):
        """A directory written with ``--prefill`` loads whole and per
        shard, never parses its prefill, and serves what the same
        snapshot saved without one serves."""
        reference_snapshot = ShardedSnapshot.load(v3_dir)
        linker = reference_snapshot.make_linker()
        seed_sets = {
            linker.link_keywords(topic.keywords) for topic in small_benchmark.topics
        } - {frozenset()}
        old = tmp_path / "old"
        shutil.copytree(v3_dir, old)
        _as_the_prefill_build_wrote_it(old, seed_sets)

        parsed = []
        read_json = artifacts._read_json_gz
        monkeypatch.setattr(
            artifacts, "_read_json_gz",
            lambda path: parsed.append(path.name) or read_json(path),
        )
        loaded = ShardedSnapshot.load(old)
        assert sorted(parsed) == ["documents.json.gz", "linker.json.gz"]
        parts = [ShardedSnapshot.load(old, shard=i) for i in range(loaded.num_shards)]
        assert len(parsed) == 2  # a shard load parses no gzip file
        workers = [make_shard_worker(part) for part in parts]

        mine = ShardRouter(loaded)
        reference = ShardRouter(reference_snapshot)
        try:
            assert _answers(mine, small_benchmark) == \
                _answers(reference, small_benchmark)
            expansions = []
            for seeds in seed_sets:
                owner = reference.owner_shard(seeds)
                result, cached = workers[owner].expand_seeds(seeds)
                assert not cached
                assert result == reference.workers[owner].expand_seeds(seeds)[0]
                expansions.append(result)
            assert any(result.article_ids for result in expansions)
        finally:
            mine.close()
            reference.close()

    @pytest.mark.parametrize("version", [1, 2])
    def test_legacy_version_refused_at_the_gate(
        self, v3_dir, tmp_path, version
    ):
        """Only the manifest is left in the directory: the error must
        still be the version one, and name the way out."""
        bare = tmp_path / "bare"
        bare.mkdir()
        manifest = json.loads((v3_dir / MANIFEST_NAME).read_text())
        manifest["version"] = version
        (bare / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="repro snapshot") as raised:
            ShardedSnapshot.load(bare)
        assert f"version {version}" in str(raised.value)


class TestFailureModes:
    def _copy(self, source, tmp_path):
        import shutil

        copy = tmp_path / "snap"
        shutil.copytree(source, copy)
        return copy

    def test_truncated_index_blob_rejected(self, v3_dir, tmp_path):
        """Truncation caught even when the manifest checksum 'matches'
        the truncated file (a tampered manifest cannot sneak a torn blob
        past the parser)."""
        copy = self._copy(v3_dir, tmp_path)
        victim = copy / "shard-0001" / "index.bin"
        victim.write_bytes(victim.read_bytes()[:40])
        manifest = json.loads((copy / MANIFEST_NAME).read_text())
        manifest["shard_artifacts"][1]["checksums"]["index.bin"] = \
            _sha256_of(victim)
        (copy / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="corrupt"):
            ShardedSnapshot.load(copy)

    def test_truncated_graph_blob_rejected(self, v3_dir, tmp_path):
        copy = self._copy(v3_dir, tmp_path)
        victim = copy / "graph.bin"
        victim.write_bytes(victim.read_bytes()[:64])
        manifest = json.loads((copy / MANIFEST_NAME).read_text())
        manifest["shared_checksums"]["graph.bin"] = _sha256_of(victim)
        (copy / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="corrupt"):
            ShardedSnapshot.load(copy)

    def test_blob_checksum_mismatch_rejected(self, v3_dir, tmp_path):
        copy = self._copy(v3_dir, tmp_path)
        victim = copy / "graph.bin"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum"):
            ShardedSnapshot.load(copy)

    def test_missing_blob_rejected(self, v3_dir, tmp_path):
        copy = self._copy(v3_dir, tmp_path)
        (copy / "shard-0002" / "index.bin").unlink()
        with pytest.raises(SnapshotError, match="missing"):
            ShardedSnapshot.load(copy)

    @pytest.mark.parametrize("count", ["articles", "categories", "edges"])
    def test_graph_count_mismatch_refused(
        self, v3_dir, tmp_path, count
    ):
        """The manifest's global graph counts are checked against what
        ``graph.bin`` itself holds."""
        copy = self._copy(v3_dir, tmp_path)
        manifest = json.loads((copy / MANIFEST_NAME).read_text())
        manifest["counts"][count] += 1
        (copy / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match=f"inconsistent.*{count}"):
            ShardedSnapshot.load(copy)
