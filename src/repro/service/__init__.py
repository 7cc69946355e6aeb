"""Online serving layer: snapshots, sharding, caching, and the services.

The batch harness (:mod:`repro.harness`) proves the paper's method on a
benchmark; this package turns the same components into a system that
answers ad-hoc queries online:

* :mod:`repro.service.artifacts` — the versioned on-disk snapshot of the
  graph, index and linker vocabulary (cold-start from disk); one logical
  snapshot is stored as N physical shards (:class:`ShardedSnapshot`: one
  shared graph blob + per-shard index segments + checksummed manifest);
* :mod:`repro.service.cache` — bounded LRU caching with hit/miss counters;
* :mod:`repro.service.server` — the thread-safe :class:`ExpansionService`
  with single-query and deduplicating batch APIs;
* :mod:`repro.service.router` — :class:`ShardRouter`, the shard-transparent
  facade that fans expansion out to shard workers and merges per-segment
  ranked lists score-preservingly;
* :mod:`repro.service.async_router` — :class:`AsyncShardRouter`, the
  asyncio counterpart (executor-backed shard adapters, scatter-gather,
  one table of in-flight shard calls that concurrent requests share);
* :mod:`repro.service.http` — :class:`HttpFrontEnd`, the hand-rolled
  HTTP/1.1 + JSON network surface (``docs/http_api.md``);
* :mod:`repro.service.wire` / :mod:`repro.service.shard_worker` /
  :mod:`repro.service.socket_adapter` / :mod:`repro.service.supervisor` —
  out-of-process shard serving: a length-prefixed JSON frame protocol
  (``docs/shard_protocol.md``), the worker process that serves one shard
  over it, the router-side socket adapter (retries, rank fallback), and
  the supervisor that spawns, health-checks and restarts workers — its
  liveness ping is the one bound on a worker call;
* :mod:`repro.service.faults` — env/flag-driven fault injection for the
  worker frame layer (kill / stall / garbage / short write).

CLI entry points: ``python -m repro.cli serve`` (``--http PORT`` for the
network front end) and ``python -m repro.cli snapshot`` (see
:func:`repro.cli.serve_main`, :func:`repro.cli.snapshot_main`).
"""

from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.artifacts import (
    COMPACT_SNAPSHOT_VERSION,
    MANIFEST_NAME,
    SNAPSHOT_FORMAT,
    ShardedSnapshot,
    Snapshot,
)
from repro.service.async_router import (
    SHARD_ADAPTER_ENV,
    AsyncShardRouter,
    ExecutorShardAdapter,
)
from repro.service.cache import CacheStats, LRUCache
from repro.service.faults import FaultPlan
from repro.service.http import HttpFrontEnd
from repro.service.router import ShardRouter
from repro.service.server import ExpansionService, ServiceResponse, ServiceStats
from repro.service.shard_worker import ShardWorkerServer, make_shard_worker
from repro.service.socket_adapter import ShardCallPolicy, SocketShardAdapter
from repro.service.supervisor import ShardSupervisor
from repro.service.wire import SHARD_PROTOCOL_VERSION

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "Snapshot",
    "ShardedSnapshot",
    "SNAPSHOT_FORMAT",
    "COMPACT_SNAPSHOT_VERSION",
    "MANIFEST_NAME",
    "CacheStats",
    "LRUCache",
    "ExpansionService",
    "ServiceResponse",
    "ServiceStats",
    "ShardRouter",
    "AsyncShardRouter",
    "ExecutorShardAdapter",
    "HttpFrontEnd",
    "SHARD_PROTOCOL_VERSION",
    "SHARD_ADAPTER_ENV",
    "FaultPlan",
    "ShardWorkerServer",
    "make_shard_worker",
    "ShardCallPolicy",
    "SocketShardAdapter",
    "ShardSupervisor",
]
