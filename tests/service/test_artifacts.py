"""Snapshot round-trip and version-gate tests (single-shard and sharded).

``snapshot_dir`` is the directory ``repro snapshot`` writes by default
(one shard); ``sharded_dir`` holds four.  One format, one loader.
"""

import json

import pytest

from repro.errors import SnapshotError
from repro.linking.linker import EntityLinker
from repro.service import (
    COMPACT_SNAPSHOT_VERSION,
    MANIFEST_NAME,
    ShardedSnapshot,
)


class TestRoundTrip:
    def test_save_load_preserves_counts(self, snapshot, snapshot_dir):
        loaded = ShardedSnapshot.load(snapshot_dir)
        (index,) = loaded.segments
        assert loaded.graph.num_articles == snapshot.graph.num_articles
        assert loaded.graph.num_edges == snapshot.graph.num_edges
        assert index.num_documents == snapshot.index.num_documents
        assert index.vocabulary_size == snapshot.index.vocabulary_size
        assert index.total_tokens == snapshot.index.total_tokens
        assert loaded.title_index == snapshot.title_index
        assert loaded.doc_names == snapshot.doc_names
        assert loaded.mu == snapshot.mu

    def test_identical_linking_after_reload(self, small_benchmark, snapshot_dir):
        loaded = ShardedSnapshot.load(snapshot_dir)
        fresh_linker = EntityLinker(small_benchmark.graph)
        reloaded_linker = loaded.make_linker()
        assert reloaded_linker.num_titles == fresh_linker.num_titles
        for topic in small_benchmark.topics:
            fresh = fresh_linker.link(topic.keywords)
            reloaded = reloaded_linker.link(topic.keywords)
            assert reloaded.article_ids == fresh.article_ids, topic.keywords
            assert reloaded.matches == fresh.matches

    def test_identical_ranking_after_reload(self, small_benchmark, snapshot_dir):
        loaded = ShardedSnapshot.load(snapshot_dir)
        fresh_engine = small_benchmark.build_engine()
        reloaded_engine = loaded.shard(0).make_engine()
        for topic in small_benchmark.topics:
            fresh = fresh_engine.search(topic.keywords, top_k=10)
            reloaded = reloaded_engine.search(topic.keywords, top_k=10)
            assert [(r.doc_id, r.rank) for r in reloaded] == \
                   [(r.doc_id, r.rank) for r in fresh]
            for a, b in zip(reloaded, fresh):
                assert a.score == pytest.approx(b.score)


class TestVersionGate:
    def _corrupt_manifest(self, snapshot_dir, tmp_path, **overrides):
        import shutil

        copy = tmp_path / "snap"
        shutil.copytree(snapshot_dir, copy)
        manifest = json.loads((copy / MANIFEST_NAME).read_text())
        manifest.update(overrides)
        (copy / MANIFEST_NAME).write_text(json.dumps(manifest))
        return copy

    def test_wrong_version_raises_clear_error(self, snapshot_dir, tmp_path):
        bad = self._corrupt_manifest(snapshot_dir, tmp_path,
                                     version=COMPACT_SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotError, match="version"):
            ShardedSnapshot.load(bad)
        try:
            ShardedSnapshot.load(bad)
        except SnapshotError as error:
            message = str(error)
            assert str(COMPACT_SNAPSHOT_VERSION + 1) in message  # found version
            assert str(COMPACT_SNAPSHOT_VERSION) in message      # supported version

    def test_foreign_format_rejected(self, snapshot_dir, tmp_path):
        bad = self._corrupt_manifest(snapshot_dir, tmp_path, format="not-a-snapshot")
        with pytest.raises(SnapshotError, match="format"):
            ShardedSnapshot.load(bad)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match=MANIFEST_NAME):
            ShardedSnapshot.load(tmp_path)

    def test_missing_artifact_file_rejected(self, snapshot_dir, tmp_path):
        import shutil

        copy = tmp_path / "snap"
        shutil.copytree(snapshot_dir, copy)
        (copy / "shard-0000" / "index.bin").unlink()
        with pytest.raises(SnapshotError, match="index.bin"):
            ShardedSnapshot.load(copy)

    @pytest.mark.parametrize("victim", ["graph.bin", "shard-0000/index.bin",
                                        "linker.json.gz", "documents.json.gz"])
    def test_truncated_artifact_rejected(self, snapshot_dir, tmp_path, victim):
        import shutil

        copy = tmp_path / "snap"
        shutil.copytree(snapshot_dir, copy)
        # Keep a valid header but cut the stream short.
        (copy / victim).write_bytes((snapshot_dir / victim).read_bytes()[:60])
        with pytest.raises(SnapshotError, match="corrupt"):
            ShardedSnapshot.load(copy)

    def test_count_mismatch_rejected(self, snapshot_dir, tmp_path):
        import shutil

        copy = tmp_path / "snap"
        shutil.copytree(snapshot_dir, copy)
        manifest = json.loads((copy / MANIFEST_NAME).read_text())
        manifest["counts"]["documents"] += 1
        (copy / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="inconsistent"):
            ShardedSnapshot.load(copy)


@pytest.fixture(scope="module")
def sharded(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=4)


@pytest.fixture(scope="module")
def sharded_dir(sharded, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sharded_snapshot")
    sharded.save(directory)
    return directory


class TestShardedRoundTrip:
    def test_save_load_preserves_shards_and_counts(self, sharded, sharded_dir):
        loaded = ShardedSnapshot.load(sharded_dir)
        assert loaded.num_shards == sharded.num_shards
        assert loaded.num_documents == sharded.num_documents
        assert loaded.title_index == sharded.title_index
        assert loaded.doc_names == sharded.doc_names
        assert loaded.mu == sharded.mu
        assert loaded.graph.num_articles == sharded.graph.num_articles
        assert loaded.graph.num_categories == sharded.graph.num_categories
        assert loaded.graph.num_edges == sharded.graph.num_edges
        for mine, original in zip(loaded.segments, sharded.segments):
            assert mine.num_documents == original.num_documents
            assert mine.total_tokens == original.total_tokens
            assert mine.vocabulary_size == original.vocabulary_size

    def test_view_equals_original_graph(self, snapshot, sharded_dir):
        view = ShardedSnapshot.load(sharded_dir).graph
        graph = snapshot.graph
        assert view.num_articles == graph.num_articles
        assert view.num_edges == graph.num_edges
        for node_id in graph.node_ids():
            assert view.undirected_neighbors(node_id) == \
                graph.undirected_neighbors(node_id)

    def test_segments_partition_the_collection(self, snapshot, sharded):
        seen: set[str] = set()
        for segment in sharded.segments:
            ids = set(segment.doc_ids())
            assert not (ids & seen)
            seen |= ids
        assert seen == set(snapshot.index.doc_ids())
        assert sum(s.total_tokens for s in sharded.segments) == \
            snapshot.index.total_tokens

    def test_single_shard_is_the_monolithic_snapshot(self, snapshot):
        """One shard reuses the graph and the index as they are: nothing
        is copied or split posting by posting."""
        single = ShardedSnapshot.from_snapshot(snapshot, num_shards=1)
        assert single.graph is snapshot.graph
        assert single.segments == (snapshot.index,)
        assert single.segments[0] is snapshot.index

    def test_mu_round_trips(self, small_benchmark, tmp_path):
        built = ShardedSnapshot.build(small_benchmark, num_shards=2, mu=123.0)
        built.save(tmp_path / "snap")
        assert ShardedSnapshot.load(tmp_path / "snap").mu == 123.0


class TestShardedGate:
    def _copy(self, sharded_dir, tmp_path):
        import shutil

        copy = tmp_path / "snap"
        shutil.copytree(sharded_dir, copy)
        return copy

    def test_checksum_mismatch_rejected(self, sharded_dir, tmp_path):
        copy = self._copy(sharded_dir, tmp_path)
        victim = copy / "shard-0001" / "index.bin"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF  # flip bits deep in the postings payload
        victim.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum"):
            ShardedSnapshot.load(copy)

    def test_stripped_checksum_entries_rejected(self, sharded_dir, tmp_path):
        """Deleting checksum entries must not silently disable the check."""
        copy = self._copy(sharded_dir, tmp_path)
        manifest = json.loads((copy / MANIFEST_NAME).read_text())
        manifest["shard_artifacts"][0]["checksums"] = {}
        (copy / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="no checksum"):
            ShardedSnapshot.load(copy)

    def test_missing_shard_dir_rejected(self, sharded_dir, tmp_path):
        import shutil

        copy = self._copy(sharded_dir, tmp_path)
        shutil.rmtree(copy / "shard-0002")
        with pytest.raises(SnapshotError, match="missing"):
            ShardedSnapshot.load(copy)

    def test_shard_count_mismatch_rejected(self, sharded_dir, tmp_path):
        copy = self._copy(sharded_dir, tmp_path)
        manifest = json.loads((copy / MANIFEST_NAME).read_text())
        manifest["shards"] = 5
        (copy / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="shard"):
            ShardedSnapshot.load(copy)

    def test_unknown_version_rejected(self, sharded_dir, tmp_path):
        copy = self._copy(sharded_dir, tmp_path)
        manifest = json.loads((copy / MANIFEST_NAME).read_text())
        manifest["version"] = 99
        (copy / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="version"):
            ShardedSnapshot.load(copy)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match=MANIFEST_NAME):
            ShardedSnapshot.load(tmp_path)

    def test_incomplete_shard_set_rejected(self, sharded):
        """No shard at all, or prefills for fewer shards than exist."""
        from dataclasses import replace

        with pytest.raises(SnapshotError, match=">= 1 shard"):
            replace(sharded, segments=())
        with pytest.raises(SnapshotError, match="shard mismatch"):
            replace(sharded, prefills=((),) * (sharded.num_shards - 1))

    def test_invalid_shard_count_for_build(self, snapshot):
        with pytest.raises(SnapshotError):
            ShardedSnapshot.from_snapshot(snapshot, num_shards=0)
