"""The correctness gate: an independent in-process oracle.

The oracle answers through the code path the server does *not* use: the
dict-backed graph and index (``compact=False``) with the DFS cycle
enumerator.  A served answer is correct when its expansion article ids
and its ``(doc_id, score)`` list equal the oracle's — Python's JSON
floats round-trip exactly, so scores are compared bit for bit.

Read-only workloads are checked against the original graph.  After a
write workload the server is re-asked and compared against a
from-scratch rebuild over ``apply_deltas_to_graph`` of every
acknowledged delta (the pattern of ``tests/updates/update_helpers.py``).
"""

from __future__ import annotations

import json
import random

from repro.core import NeighborhoodCycleExpander
from repro.linking.linker import EntityLinker
from repro.service import ExpansionService
from repro.updates import apply_deltas_to_graph, decode_deltas

from bench.client import Sample
from bench.corpus import Corpus
from bench.streams import TOP_K

__all__ = [
    "mismatches_after_writes",
    "mismatches_in_window",
    "parse_read",
    "read_oracle",
]


def read_oracle(corpus: Corpus) -> ExpansionService:
    return ExpansionService.from_snapshot(
        corpus.snapshot, NeighborhoodCycleExpander(engine="dfs"), compact=False
    )


def _rebuild_oracle(corpus: Corpus, deltas) -> ExpansionService:
    graph = apply_deltas_to_graph(corpus.snapshot.graph, deltas)
    return ExpansionService(
        graph,
        corpus.snapshot.make_engine(),
        EntityLinker(graph),
        NeighborhoodCycleExpander(engine="dfs"),
        doc_names=corpus.snapshot.doc_names,
    )


def parse_read(sample: Sample) -> dict | None:
    """The cheap check every read gets: 200 with a ``results`` list.
    Returns the decoded payload, or None when the answer is malformed."""
    if sample.status != 200:
        return None
    try:
        payload = json.loads(sample.body)
    except ValueError:
        return None
    if not isinstance(payload, dict) or not isinstance(payload.get("results"), list):
        return None
    return payload


def _differs(oracle: ExpansionService, query: str, payload: dict) -> bool:
    reference = oracle.expand_query(query, top_k=TOP_K)
    return (
        payload["expansion"]["article_ids"]
        != sorted(reference.expansion.article_ids)
        or [(r["doc_id"], r["score"]) for r in payload["results"]]
        != [(r.doc_id, r.score) for r in reference.results]
    )


def mismatches_in_window(
    oracle: ExpansionService,
    answers: dict[str, dict],
    rng: random.Random,
    limit: int,
) -> tuple[int, int]:
    """Re-answer up to ``limit`` of the distinct queries in ``answers``
    (query text -> served payload); returns ``(checked, mismatched)``."""
    queries = sorted(answers)
    rng.shuffle(queries)
    chosen = queries[:limit]
    wrong = sum(_differs(oracle, query, answers[query]) for query in chosen)
    return len(chosen), wrong


def mismatches_after_writes(
    corpus: Corpus,
    acked_writes: list[Sample],
    answers: dict[str, dict],
) -> int:
    """Compare ``answers`` (query text -> payload served *after* the last
    write) against the rebuild over every acknowledged delta."""
    deltas = decode_deltas([
        delta
        for sample in sorted(acked_writes, key=lambda s: s.request.index)
        for delta in sample.request.body["deltas"]
    ])
    oracle = _rebuild_oracle(corpus, deltas)
    return sum(
        _differs(oracle, query, payload) for query, payload in answers.items()
    )
