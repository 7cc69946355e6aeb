"""Snapshot v3 (compact blobs + prefill): round trips, upgrades from
directories earlier builds wrote, refusals and failure modes."""

import gzip
import json
import shutil

import pytest

from repro.retrieval import CompactIndex
from repro.errors import SnapshotError
from repro.service import (
    COMPACT_SNAPSHOT_VERSION,
    MANIFEST_NAME,
    ExpansionService,
    ShardRouter,
    ShardedSnapshot,
)
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


class TestPrefill:
    @pytest.fixture(scope="class")
    def prefilled(self, sharded, small_benchmark) -> ShardedSnapshot:
        return sharded.with_prefill(
            [topic.keywords for topic in small_benchmark.topics]
        )

    def test_prefill_counts_and_owner_locality(self, prefilled):
        assert prefilled.num_prefilled > 0
        for shard, entries in enumerate(prefilled.prefills):
            for seeds, result in entries:
                assert result.seed_articles == seeds
                # Every entry sits on the shard the router would pick.
                assert shard_of_node(min(seeds), prefilled.num_shards) == shard

    def test_prefill_round_trips_through_disk(self, prefilled, tmp_path):
        directory = tmp_path / "snap"
        prefilled.save(directory)
        assert (directory / "shard-0000" / "prefill.json.gz").exists()
        loaded = ShardedSnapshot.load(directory)
        assert loaded.num_prefilled == prefilled.num_prefilled
        for mine, original in zip(loaded.prefills, prefilled.prefills):
            assert len(mine) == len(original)
            for (my_seeds, my_result), (seeds, result) in zip(mine, original):
                assert my_seeds == seeds
                assert my_result.article_ids == result.article_ids
                assert my_result.titles == result.titles
                assert my_result.cycles == result.cycles

    def test_cold_router_serves_prefilled_topics_from_cache(
        self, prefilled, sharded, small_benchmark, tmp_path
    ):
        directory = tmp_path / "snap"
        prefilled.save(directory)
        router = ShardRouter(ShardedSnapshot.load(directory))
        # A non-prefilled router over the same data computes everything
        # cold; the prefilled answers must match it exactly.
        reference = ShardRouter(sharded)
        for topic in small_benchmark.topics:
            response = router.expand_query(topic.keywords)
            if response.linked:
                assert response.expansion_cached, topic.keywords
            cold = reference.expand_query(topic.keywords)
            assert [(r.doc_id, r.score) for r in response.results] == \
                   [(r.doc_id, r.score) for r in cold.results]

    def test_prefill_records_the_expander_fingerprint_and_round_trips_it(
        self, prefilled, tmp_path
    ):
        from repro.core.expansion import (
            NeighborhoodCycleExpander,
            expander_fingerprint,
        )

        expected = expander_fingerprint(NeighborhoodCycleExpander())
        assert prefilled.prefill_expander == expected
        assert "radius=" in expected  # configuration, not just the class
        directory = tmp_path / "snap"
        prefilled.save(directory)
        assert ShardedSnapshot.load(directory).prefill_expander == expected

    def test_router_with_different_expander_skips_warmup(
        self, prefilled, small_benchmark
    ):
        """A custom expander must never serve another strategy's cached
        prefill results; those queries simply run cold."""
        from repro.core.expansion import NeighborhoodCycleExpander

        class CustomExpander(NeighborhoodCycleExpander):
            pass

        router = ShardRouter(prefilled, expander=CustomExpander())
        response = router.expand_query(small_benchmark.topics[0].keywords)
        assert response.linked
        assert not response.expansion_cached

    def test_router_with_reconfigured_expander_skips_warmup(
        self, prefilled, small_benchmark
    ):
        """Same class, different parameters: the fingerprint guard must
        still refuse the warm-up (a radius-3 router serving radius-2
        prefill results would be silently wrong)."""
        from repro.core.expansion import NeighborhoodCycleExpander

        router = ShardRouter(
            prefilled, expander=NeighborhoodCycleExpander(radius=3)
        )
        response = router.expand_query(small_benchmark.topics[0].keywords)
        assert response.linked
        assert not response.expansion_cached

    def test_router_with_equal_default_expander_warms(
        self, prefilled, small_benchmark
    ):
        from repro.core.expansion import NeighborhoodCycleExpander

        router = ShardRouter(prefilled, expander=NeighborhoodCycleExpander())
        response = router.expand_query(small_benchmark.topics[0].keywords)
        assert response.linked
        assert response.expansion_cached

    def test_single_shard_service_warms_from_prefill(
        self, snapshot, small_benchmark
    ):
        single = ShardedSnapshot.from_snapshot(snapshot, num_shards=1) \
            .with_prefill([t.keywords for t in small_benchmark.topics])
        service = ExpansionService(
            single.graph,
            single.shard(0).make_engine(),
            single.make_linker(),
            doc_names=single.doc_names,
        )
        service.warm_expansions(single.prefills[0])
        response = service.expand_query(small_benchmark.topics[0].keywords)
        assert response.linked
        assert response.expansion_cached
