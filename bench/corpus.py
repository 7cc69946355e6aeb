"""The benchmark's one corpus: a generated fixture, the same every run.

The corpus is :data:`CORPUS_SCALE` times the repo's default synthetic
benchmark, generated in-process from :data:`CORPUS_SEED`.  It does *not*
follow ``--seed``: runs with different seeds are compared with each
other, and corpora of different seeds differ by +-30 % in cycles mined
per query and +-18 % in phrases ranked per query, which would read as
noise.  ``--seed`` drives every request stream drawn over the corpus.
The popularity order of the heads is part of the fixture for the same
reason: which heads are hot decides how much ranking a hot request does.

``Benchmark.synthetic`` and the reference :class:`~repro.service.Snapshot`
built here are load generation — they feed stream planning and the
oracle — and are never part of a timed interval; the timed set-up
rebuilds its own snapshot from the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collection import Benchmark, SyntheticCollectionConfig
from repro.loadgen import seeded_rng, topic_pool
from repro.service import Snapshot
from repro.wiki import SyntheticWikiConfig

__all__ = ["CORPUS_SCALE", "CORPUS_SEED", "NUM_SHARDS", "Corpus", "build_corpus"]

CORPUS_SEED = 7
# 2x the default corpus: 100 topics, ~5.2k graph nodes, ~4k documents.
# ISSUE 11 sized the corpus at 4x; one run there spends ~8-10 s per
# set-up, and three set-ups plus a 10 s window do not fit the driver's
# ~37 s-per-run budget (see bench/README.md, "Sizing").
CORPUS_SCALE = 2.0
# Shard count is fixed at 2, the core count of the box the bounds were
# measured on, and what `serve --workers 2` needs.
NUM_SHARDS = 2


@dataclass(frozen=True)
class Corpus:
    """Everything the streams and the oracle are generated from."""

    benchmark: Benchmark
    snapshot: Snapshot  # reference build: planning + oracle only
    # Topic keyword strings, the paper's query type, most popular first.
    heads: tuple[str, ...]
    tails: tuple[str, ...]  # every linkable title, the long tail
    tail_article: dict[str, int]  # tail phrase -> article id


def build_corpus(scale: float = CORPUS_SCALE) -> Corpus:
    seed = CORPUS_SEED
    benchmark = Benchmark.synthetic(
        SyntheticWikiConfig(
            seed=seed,
            num_domains=max(2, round(50 * scale)),
            background_articles=round(800 * scale),
            background_categories=max(1, round(60 * scale)),
        ),
        SyntheticCollectionConfig(
            seed=seed + 6, background_docs=round(400 * scale)
        ),
    )
    snapshot = Snapshot.build(benchmark)
    heads = [topic.keywords for topic in benchmark.topics]
    seeded_rng(seed, "popularity").shuffle(heads)
    return Corpus(
        benchmark=benchmark,
        snapshot=snapshot,
        heads=tuple(heads),
        tails=tuple(topic_pool(snapshot)),
        tail_article={
            " ".join(tokens): article_id
            for tokens, article_id in snapshot.title_index.items()
        },
    )
