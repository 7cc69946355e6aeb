"""Shard placement: the two hashes that decide where work and data go.

A shard is an index segment, an expansion cache and these two routing
hashes over one shared graph: every process maps the same ``graph.bin``
and mines the whole graph, because the expansion features are functions
of a bounded neighbourhood of the query's articles (the semijoin-style
locality argument of Leinders et al., PAPERS.md) that no cut of the
graph has to respect.

* :func:`shard_of_node` places a seed set's expansion — its cache entry
  — on the shard of its smallest seed id;
* :func:`shard_of_document` places a document in an index segment.

Both are pure functions of the id and the shard count (``hash()`` is
salted per process and never used), so the router and every worker
process agree on them, and neither may drift: index segments written by
earlier builds are only found again on the shard
:func:`shard_of_document` names.
"""

from __future__ import annotations

import hashlib

__all__ = ["shard_of_node", "shard_of_document"]

_MASK64 = (1 << 64) - 1


def shard_of_node(node_id: int, num_shards: int) -> int:
    """Deterministic shard assignment of a node id (splitmix64 finaliser)."""
    x = (node_id + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x % num_shards


def shard_of_document(doc_id: str, num_shards: int) -> int:
    """Deterministic shard assignment of a document id."""
    digest = hashlib.blake2b(doc_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards
