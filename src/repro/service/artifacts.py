"""Persistent service artifacts: the versioned on-disk snapshot.

A :class:`Snapshot` is the in-memory build product: everything the
online service needs to answer queries — the knowledge graph, the
positional index, the entity-linker vocabulary, and the document display
names — derived from a benchmark.  It is what the dict-path oracles and
the bench serve from directly; it is never written to disk.

:class:`ShardedSnapshot` is what is stored and served: one logical
snapshot as N physical shards behind one manifest.  A shard is an index
segment plus an expansion cache; the graph is held and stored *once*,
as the compact blob every process maps.
Layout::

    snapshot/
      manifest.json       # version 3: shards, global counts, checksums
      linker.json.gz      # shared entity-linker vocabulary
      documents.json.gz   # shared doc_id -> display name
      graph.bin           # CompactGraphView blob (CSR typed adjacency)
      shard-0000/
        index.bin         # CompactIndex blob (interned CSR postings)
      shard-0001/ ...

The manifest is read first and gates everything else: a missing
manifest, an unknown format name, or a version other than
:data:`COMPACT_SNAPSHOT_VERSION` raises
:class:`~repro.errors.SnapshotError` with a message naming the problem,
*before* any artefact is opened.  It records a sha256 checksum for every
shard artefact and shared file; load verifies them before parsing, so a
bit-rotted shard can never serve silently wrong results, and cross-checks
its counts against what the artefacts hold.  The manifest is written
last.  Directories written by earlier builds of this version may carry
a ``partition.json.gz`` or a ``prefill.json.gz`` per shard; both are
ignored.

The layout, the blob container and the upgrade rules are documented in
``docs/architecture.md`` ("On-disk snapshot format").
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ReproError, SnapshotError
from repro.linking.linker import EntityLinker
from repro.retrieval.compact import CompactIndex
from repro.retrieval.engine import SearchEngine
from repro.retrieval.index import PositionalIndex
from repro.retrieval.scoring import DirichletSmoothing, Smoothing
from repro.wiki.compact import CompactGraphView
from repro.wiki.graph import WikiGraph
from repro.wiki.partition import shard_of_document

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.collection.benchmark import Benchmark

__all__ = [
    "Snapshot",
    "ShardedSnapshot",
    "SnapshotShard",
    "SNAPSHOT_FORMAT",
    "COMPACT_SNAPSHOT_VERSION",
    "MANIFEST_NAME",
    "CURRENT_POINTER_NAME",
    "generation_dir_name",
    "resolve_snapshot_dir",
    "write_current_pointer",
]

SNAPSHOT_FORMAT = "repro-expansion-snapshot"
COMPACT_SNAPSHOT_VERSION = 3
MANIFEST_NAME = "manifest.json"

_LINKER_NAME = "linker.json.gz"
_DOCUMENTS_NAME = "documents.json.gz"
_INDEX_BLOB_NAME = "index.bin"
_GRAPH_BLOB_NAME = "graph.bin"


def _write_json_gz(path: Path, payload: dict) -> None:
    # One C-encoded string and one write at zlib's default level, not
    # json.dump's pure-Python encoder streaming tokens into level 9.
    text = json.dumps(payload, ensure_ascii=False)
    path.write_bytes(gzip.compress(text.encode("utf-8"), compresslevel=6))


def _read_json_gz(path: Path) -> dict:
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise SnapshotError(f"snapshot is missing {path.name}") from None
    # EOFError: gzip stream truncated (not an OSError subclass);
    # ValueError: invalid JSON or invalid UTF-8.
    except (OSError, EOFError, ValueError) as exc:
        raise SnapshotError(f"snapshot file {path.name} is corrupt: {exc}") from exc
    if not isinstance(payload, dict):
        raise SnapshotError(f"snapshot file {path.name} is malformed: not a JSON object")
    return payload


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _linker_payload(title_index: dict[tuple[str, ...], int]) -> dict:
    return {"entries": [[list(tokens), article_id]
                        for tokens, article_id in sorted(title_index.items())]}


def _parse_linker_payload(payload: dict) -> dict[tuple[str, ...], int]:
    # The parser makes one str per token occurrence; the vocabulary holds
    # each distinct token once (≈ 200 of them for ≈ 15k occurrences).
    try:
        return {
            tuple(sys.intern(str(t)) for t in tokens): int(article_id)
            for tokens, article_id in payload["entries"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot file {_LINKER_NAME} is malformed: {exc}") from exc


@dataclass(slots=True)
class Snapshot:
    """All artefacts of one servable expansion system, in memory.

    The build product :class:`ShardedSnapshot` shards and persists, and
    what the dict-path oracles serve from directly.  ``mu`` records the
    Dirichlet prior the index was intended to be served with, so every
    engine made from it ranks identically.
    """

    graph: WikiGraph
    index: PositionalIndex
    title_index: dict[tuple[str, ...], int]
    doc_names: dict[str, str]
    mu: float

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, benchmark: "Benchmark", *, mu: float | None = None) -> "Snapshot":
        """Derive a snapshot from a benchmark (index + linker vocabulary)."""
        from repro.collection.benchmark import DEFAULT_ENGINE_MU

        resolved_mu = DEFAULT_ENGINE_MU if mu is None else mu
        engine = benchmark.build_engine(smoothing=DirichletSmoothing(mu=resolved_mu))
        linker = EntityLinker(benchmark.graph)
        return cls(
            graph=benchmark.graph,
            index=engine.index,
            title_index=linker.vocabulary(),
            doc_names={
                doc_id: benchmark.documents[doc_id].name
                for doc_id in sorted(benchmark.documents)
            },
            mu=resolved_mu,
        )

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------

    def make_engine(self, smoothing: Smoothing | None = None) -> SearchEngine:
        """A ready engine over the stored index (no re-indexing)."""
        return SearchEngine(
            smoothing=smoothing or DirichletSmoothing(mu=self.mu),
            index=self.index,
        )

    def make_linker(self, **kwargs) -> EntityLinker:
        """A ready linker from the stored vocabulary (no title rescan)."""
        return EntityLinker(self.graph, title_index=self.title_index, **kwargs)

    def __repr__(self) -> str:
        return (
            f"Snapshot(graph={self.graph!r}, docs={self.index.num_documents}, "
            f"titles={len(self.title_index)}, mu={self.mu})"
        )


def _shard_dir_name(shard_id: int) -> str:
    return f"shard-{shard_id:04d}"


# ----------------------------------------------------------------------
# Snapshot generations (live updates / hot swap, docs/live_updates.md)
# ----------------------------------------------------------------------
#
# Compaction folds an applied delta overlay into a *new generation* of
# the same logical snapshot: ``<dir>/gen-0002/`` written in full, then
# the one-line ``CURRENT`` pointer file swapped atomically.  A snapshot
# directory without a pointer serves its own top-level manifest (the
# layout every earlier release wrote), so generations are strictly
# opt-in and appear only after the first compaction.

CURRENT_POINTER_NAME = "CURRENT"


def generation_dir_name(generation: int) -> str:
    return f"gen-{generation:04d}"


def resolve_snapshot_dir(directory: str | Path) -> Path:
    """Follow the ``CURRENT`` generation pointer, if one exists.

    Returns the directory whose manifest should be loaded: the pointed-at
    generation subdirectory when ``CURRENT`` is present and sane, the
    directory itself otherwise.  Workers, the supervisor and the delta
    log all resolve through here so every process agrees on which
    generation "the snapshot" currently means.
    """
    directory = Path(directory)
    pointer = directory / CURRENT_POINTER_NAME
    if not pointer.is_file():
        return directory
    name = pointer.read_text(encoding="utf-8").strip()
    if not name or "/" in name or "\\" in name or name.startswith("."):
        raise SnapshotError(
            f"snapshot generation pointer {pointer} is malformed: {name!r}"
        )
    resolved = directory / name
    if not (resolved / MANIFEST_NAME).exists():
        raise SnapshotError(
            f"snapshot generation pointer names {name!r}, but "
            f"{resolved / MANIFEST_NAME} does not exist"
        )
    return resolved


def write_current_pointer(directory: str | Path, generation: int) -> Path:
    """Atomically point ``directory`` at ``gen-<generation>`` (the hot swap)."""
    directory = Path(directory)
    name = generation_dir_name(generation)
    if not (directory / name / MANIFEST_NAME).exists():
        raise SnapshotError(
            f"refusing to point {directory} at {name}: no manifest there"
        )
    pointer = directory / CURRENT_POINTER_NAME
    tmp = directory / (CURRENT_POINTER_NAME + ".tmp")
    tmp.write_text(name + "\n", encoding="utf-8")
    os.replace(tmp, pointer)
    return pointer


def _check_counts(declared: dict, actual: dict[str, int], where: str) -> None:
    """Refuse artefacts that hold something other than the manifest
    declares (a silently truncated or swapped file).  Counts this build
    does not know — earlier builds wrote per-partition and prefill ones
    — are ignored."""
    for key, expected in declared.items():
        if key in actual and actual[key] != expected:
            raise SnapshotError(
                f"{where} is inconsistent: manifest declares "
                f"{expected} {key}, artefacts contain {actual[key]}"
            )


@dataclass(frozen=True, slots=True)
class SnapshotShard:
    """What one shard's worker serves from: the graph, this shard's
    segment, ``mu`` and the generation — no vocabulary, no document
    names (the router links and names), no other segment."""

    shard_id: int
    graph: CompactGraphView
    segment: CompactIndex
    mu: float
    generation: int

    def make_engine(self) -> SearchEngine:
        """A ready engine over this shard's index segment."""
        return SearchEngine(smoothing=DirichletSmoothing(mu=self.mu), index=self.segment)


@dataclass(slots=True)
class ShardedSnapshot:
    """One logical snapshot stored and served as N physical shards.

    A shard is the index segment of the documents hashed to it — a
    :class:`PositionalIndex` on the build path, a :class:`CompactIndex`
    once frozen (``frozen()``, or any load).  The graph is held once for
    all shards: the :class:`WikiGraph` the snapshot was built from until
    ``frozen()``, its :class:`CompactGraphView` after a freeze or a
    load; both answer the same read API with the same sets.  The linker
    vocabulary and document names are shared across shards as well.  The
    router in :mod:`repro.service.router` serves queries over the shards
    without ever materialising the monolithic index.
    """

    graph: WikiGraph | CompactGraphView
    segments: tuple[PositionalIndex | CompactIndex, ...]
    title_index: dict[tuple[str, ...], int]
    doc_names: dict[str, str]
    mu: float
    # On-disk format this snapshot came from, set by load() and save();
    # None = built in memory and never persisted.  Serving layers
    # surface it (`serve` startup line, /healthz) so operators can tell
    # what a live process actually loaded.
    source_version: int | None = field(default=None, compare=False)
    # Live-update generation (docs/live_updates.md): 1 for a freshly
    # built snapshot, incremented each time a delta overlay is compacted
    # into a new on-disk generation.  Deltas are validated against it,
    # /healthz and /metrics surface it, and the hot swap advances it.
    generation: int = field(default=1, compare=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise SnapshotError("a sharded snapshot needs >= 1 shard")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.segments)

    @property
    def num_documents(self) -> int:
        return sum(segment.num_documents for segment in self.segments)

    @classmethod
    def build(
        cls, benchmark: "Benchmark", *, num_shards: int, mu: float | None = None
    ) -> "ShardedSnapshot":
        """Shard a benchmark into ``num_shards`` servable shards."""
        return cls.from_snapshot(Snapshot.build(benchmark, mu=mu), num_shards)

    @classmethod
    def from_snapshot(cls, snapshot: Snapshot, num_shards: int) -> "ShardedSnapshot":
        """Shard an in-memory snapshot: split the index, share the rest."""
        if num_shards < 1:
            raise SnapshotError("num_shards must be >= 1")
        # Single shard IS the monolithic snapshot: the index is reused.
        return cls(
            graph=snapshot.graph,
            segments=(snapshot.index,) if num_shards == 1 else tuple(
                snapshot.index.split(
                    lambda doc_id: shard_of_document(doc_id, num_shards), num_shards
                )
            ),
            title_index=dict(snapshot.title_index),
            doc_names=dict(snapshot.doc_names),
            mu=snapshot.mu,
        )

    # ------------------------------------------------------------------
    # Compact read path
    # ------------------------------------------------------------------

    def frozen(self) -> "ShardedSnapshot":
        """This snapshot with every read-path artefact in compact form.

        Index segments are interned into :class:`CompactIndex` and the
        graph's adjacency into one :class:`CompactGraphView`.
        Idempotent and cheap when already frozen (loads are).
        """
        segments_frozen = all(
            isinstance(segment, CompactIndex) for segment in self.segments
        )
        if segments_frozen and isinstance(self.graph, CompactGraphView):
            return self
        return replace(
            self,
            segments=tuple(
                CompactIndex.from_index(segment) for segment in self.segments
            ),
            graph=CompactGraphView.from_graph(self.graph),
        )

    def shard(self, shard_id: int) -> SnapshotShard:
        """The parts ``shard_id``'s worker serves from, in compact form."""
        s = self.frozen()
        return SnapshotShard(shard_id, s.graph, s.segments[shard_id], s.mu, s.generation)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, directory: str | Path) -> Path:
        """Write all shards; the checksummed manifest is written last.

        Index segments and the graph adjacency are stored as compact
        binary blobs that load via ``mmap``.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        # Invalidate any existing snapshot before touching its artefacts:
        # combined with writing the manifest last, a crash mid-save always
        # leaves a directory load() rejects as "missing manifest" instead
        # of a torn mix of old and new artefacts that parses.
        (directory / MANIFEST_NAME).unlink(missing_ok=True)

        source = self.frozen()
        shard_entries = []
        for shard_id, segment in enumerate(source.segments):
            shard_dir = directory / _shard_dir_name(shard_id)
            shard_dir.mkdir(exist_ok=True)
            (shard_dir / _INDEX_BLOB_NAME).write_bytes(segment.to_blob())
            shard_entries.append({
                "dir": shard_dir.name,
                "checksums": {_INDEX_BLOB_NAME: _sha256(shard_dir / _INDEX_BLOB_NAME)},
                "counts": {"documents": segment.num_documents},
            })
        _write_json_gz(directory / _LINKER_NAME, _linker_payload(self.title_index))
        _write_json_gz(directory / _DOCUMENTS_NAME, dict(sorted(self.doc_names.items())))
        (directory / _GRAPH_BLOB_NAME).write_bytes(source.graph.to_blob())
        shared_checksums = {
            name: _sha256(directory / name)
            for name in (_LINKER_NAME, _DOCUMENTS_NAME, _GRAPH_BLOB_NAME)
        }

        manifest = {
            "format": SNAPSHOT_FORMAT,
            "version": COMPACT_SNAPSHOT_VERSION,
            "mu": self.mu,
            "generation": self.generation,
            "shards": self.num_shards,
            "counts": source._global_counts(),
            "shard_artifacts": shard_entries,
            "shared_checksums": shared_checksums,
        }
        (directory / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
        self.source_version = COMPACT_SNAPSHOT_VERSION
        return directory

    def _global_counts(self) -> dict[str, int]:
        """What the manifest declares and load() checks the artefacts for."""
        return {
            "articles": self.graph.num_articles,
            "categories": self.graph.num_categories,
            "edges": self.graph.num_edges,
            "documents": self.num_documents,
            "titles": len(self.title_index),
        }

    @classmethod
    def load(
        cls, directory: str | Path, *, shard: int | None = None
    ) -> "ShardedSnapshot | SnapshotShard":
        """Load a snapshot directory (following its ``CURRENT`` pointer).

        Every artefact's sha256 is verified against the manifest before
        parsing; the compact blobs are mapped with ``mmap``, so callers
        always receive the compact read path.  Raises
        :class:`SnapshotError` on a version this build does not read, on
        checksum mismatches, missing shards, or count inconsistencies.
        With ``shard`` (a worker's load) every checksum is still
        verified, but only the graph and that shard's parts are
        materialised and count-checked, as a :class:`SnapshotShard`.
        """
        directory = resolve_snapshot_dir(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise SnapshotError(
                f"{directory} is not a snapshot directory (missing {MANIFEST_NAME})"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"snapshot manifest is not valid JSON: {exc}") from exc
        if manifest.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"unknown snapshot format {manifest.get('format')!r} "
                f"(expected {SNAPSHOT_FORMAT!r})"
            )
        version = manifest.get("version")
        if version != COMPACT_SNAPSHOT_VERSION:
            # Versions 1 and 2 (JSON graph / JSON index segments) hold
            # nothing a rebuild from their benchmark does not reproduce.
            raise SnapshotError(
                f"snapshot at {directory} has version {version!r}; this build "
                f"reads version {COMPACT_SNAPSHOT_VERSION} — rebuild the "
                f"snapshot with `repro snapshot`"
            )
        mu = float(manifest.get("mu", 0.0))
        if mu <= 0:
            raise SnapshotError(f"snapshot manifest has invalid mu: {manifest.get('mu')!r}")
        declared_shards = manifest.get("shards")
        shard_entries = manifest.get("shard_artifacts", [])
        if not isinstance(declared_shards, int) or declared_shards < 1 \
                or len(shard_entries) != declared_shards:
            raise SnapshotError(
                f"snapshot manifest declares {declared_shards!r} shards but lists "
                f"{len(shard_entries)} shard artefact entries"
            )
        if shard is not None and not 0 <= shard < declared_shards:
            raise SnapshotError(
                f"shard {shard} out of range: snapshot has {declared_shards} shard(s)"
            )

        def verified(path: Path, expected: str | None) -> Path:
            if not path.exists():
                raise SnapshotError(f"snapshot is missing {path.name}")
            # The manifest must checksum every artefact that is read —
            # a deleted checksum entry would otherwise disable integrity
            # checking exactly when tampering is most likely.
            if expected is None:
                raise SnapshotError(
                    f"snapshot manifest lists no checksum for "
                    f"{path.parent.name}/{path.name} (tampered manifest?)"
                )
            if _sha256(path) != expected:
                raise SnapshotError(
                    f"snapshot file {path.parent.name}/{path.name} fails its "
                    f"manifest checksum (corrupt or tampered)"
                )
            return path

        def load_blob(loader, path: Path):
            try:
                return loader(path)
            except ReproError as exc:
                if isinstance(exc, SnapshotError):
                    raise
                raise SnapshotError(
                    f"snapshot file {path.parent.name}/{path.name} is corrupt: {exc}"
                ) from exc

        shared = manifest.get("shared_checksums", {})
        linker_path, documents_path, graph_path = [
            verified(directory / name, shared.get(name))
            for name in (_LINKER_NAME, _DOCUMENTS_NAME, _GRAPH_BLOB_NAME)
        ]
        graph = load_blob(CompactGraphView.load, graph_path)

        segments: list[CompactIndex] = []
        for shard_id, entry in enumerate(shard_entries):
            shard_dir = directory / str(entry.get("dir", ""))
            checksums = entry.get("checksums", {})
            index_path = verified(
                shard_dir / _INDEX_BLOB_NAME, checksums.get(_INDEX_BLOB_NAME)
            )
            if shard not in (None, shard_id):
                continue  # verified, never materialised
            segments.append(load_blob(CompactIndex.load, index_path))
            _check_counts(
                entry.get("counts", {}), {"documents": segments[-1].num_documents},
                f"snapshot shard {shard_dir.name}",
            )

        generation = int(manifest.get("generation", 1))
        if shard is not None:
            _check_counts(manifest.get("counts", {}), {
                key: getattr(graph, f"num_{key}") for key in ("articles", "categories", "edges")
            }, f"snapshot at {directory}")
            return SnapshotShard(shard, graph, segments[0], mu, generation)
        snapshot = cls(
            graph=graph, segments=tuple(segments),
            title_index=_parse_linker_payload(_read_json_gz(linker_path)),
            doc_names={
                str(doc_id): str(name)
                for doc_id, name in _read_json_gz(documents_path).items()
            },
            mu=mu, source_version=version, generation=generation,
        )
        _check_counts(
            manifest.get("counts", {}), snapshot._global_counts(),
            f"snapshot at {directory}",
        )
        return snapshot

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------

    def layout_description(self) -> str:
        """One operator-readable line naming the resolved on-disk layout.

        Printed by ``repro serve`` at startup and echoed by ``/healthz``
        so a running process can always be matched to the snapshot
        it loaded (see ``docs/architecture.md`` for the format).
        """
        layout = (
            "in-memory build (not loaded from disk)" if self.source_version is None
            else "v3 sharded (compact binary blobs, mmap-loaded)"
        )
        return (
            f"{layout}; shards={self.num_shards}, "
            f"documents={self.num_documents}, titles={len(self.title_index)}"
        )

    def make_linker(self, **kwargs) -> EntityLinker:
        """A ready linker from the shared vocabulary (no title rescan)."""
        return EntityLinker(self.graph, title_index=self.title_index, **kwargs)

    def __repr__(self) -> str:
        return (
            f"ShardedSnapshot(shards={self.num_shards}, "
            f"docs={self.num_documents}, titles={len(self.title_index)}, "
            f"mu={self.mu})"
        )
