"""The serving stack's metric families, aggregated from traces.

Instrumentation is split in two cheap halves: request code records
*spans* into its request-scoped :class:`~repro.obs.trace.Trace` (no
shared state touched on the hot path beyond one list append), and the
router folds each finished trace into the process-wide families here —
one :meth:`ServingMetrics.observe_request` call per request.

Families (all prefixed ``repro_``):

* ``repro_requests_total{path}`` / ``repro_errors_total{path}`` —
  monotonic, per entry point (``expand_query`` / ``batch_expand``);
* ``repro_queries_total{outcome}`` — query texts through the router
  (each batch member counts): ``offered`` on entry, then ``served`` or
  ``failed`` on exit; ``unlinked`` counts the served ones that linked
  no entity (so the outcomes overlap and are not summed);
* ``repro_shard_queries_total{shard,result}`` — ``expand_seeds``
  answers per owner shard: ``hit`` / ``miss`` by the answer's
  ``cached`` flag, ``unlinked`` for the empty seed set (no cache
  lookup), counted by the router's query plan for both drivers;
* ``repro_request_seconds{path}`` — end-to-end latency histogram;
* ``repro_stage_seconds{stage}`` — per-stage busy-time histogram
  (``link``, ``expand``, ``cycle_mine``, ``rank``, ``merge``);
* ``repro_shard_stage_seconds{shard,stage}`` — the same, split by the
  shard that did the work (fan-out stages record one span per shard);
* ``repro_cache_lookups_total{cache,result}`` — cache outcomes
  (``hit`` / ``miss``) derived from span labels: ``link`` and
  ``expansion`` (the result caches), ``collection_stats`` (one lookup
  per rank: hit = every leaf's global count was held, no probe round)
  and ``expansion_wire`` (one per ``expand_seeds`` over a socket: hit =
  the worker answered ``not_modified``);
* ``repro_cycle_mine_total{engine}`` — cycle-mining runs by engine
  (``kernels`` bitset hot path / ``dfs`` oracle), derived from the
  ``engine`` label on ``cycle_mine`` spans — the switch that proves
  which enumerator served a cold request;
* ``repro_rank_ahead_total{outcome}`` — rank fan-outs started beside
  ``expand_seeds`` (``used`` / ``discarded``), from the trace label;
* ``repro_delta_invalidations_total{cache}`` — cache entries evicted by
  applied graph deltas (live updates, ``docs/live_updates.md``),
  incremented by the :class:`~repro.updates.UpdateCoordinator`;
* ``repro_apply_stage_seconds{stage}`` — time one applied delta batch
  spent per write stage (``validate``, ``log``, ``linker``, ``ball``,
  ``publish``, ``evict``, ``fanout``), from the coordinator's spans;
* ``repro_snapshot_generation`` / ``repro_delta_seq`` — gauges the
  router sets where they change (construction, an applied delta batch,
  a compaction swap);
* ``repro_inflight_requests`` / ``repro_uptime_seconds`` — gauges
  :meth:`ServingMetrics.render` sets at scrape time: offered − served −
  failed texts from ``repro_queries_total``, and seconds since
  construction; ``repro_shard_inflight{shard}`` is set from the
  workers' state by :meth:`~repro.service.router.ShardRouter.render_metrics`.

``/stats`` and ``/healthz`` render their counts from these families
too, so an event is counted once, here.

Metric names and label sets are part of the operator contract —
documented in ``docs/observability.md``; change the two together.
"""

from __future__ import annotations

import time

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace

__all__ = ["ServingMetrics"]

# Span labels that map onto the cache-lookup counter: stage -> (cache
# name, the boolean label that says whether the cache answered).  Only
# the background phase of ``merge`` and the ``expand_seeds`` calls of
# ``wire`` carry their label.
_CACHE_STAGES = {
    "link": ("link", "cached"),
    "expand": ("expansion", "cached"),
    "merge": ("collection_stats", "cached"),
    "wire": ("expansion_wire", "not_modified"),
}


class ServingMetrics:
    """One router's metric families over one (typically private) registry."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry or MetricsRegistry()
        self.requests = self.registry.counter(
            "repro_requests_total",
            "Requests offered to the router, by entry point.",
            ("path",),
        )
        self.errors = self.registry.counter(
            "repro_errors_total",
            "Requests that raised, by entry point.",
            ("path",),
        )
        self.queries = self.registry.counter(
            "repro_queries_total",
            "Query texts offered to the router, then served (unlinked: "
            "served with no entity linked) or failed.",
            ("outcome",),
        )
        for outcome in ("offered", "served", "unlinked", "failed"):
            self.queries.inc(0, outcome=outcome)
        self.shard_queries = self.registry.counter(
            "repro_shard_queries_total",
            "expand_seeds answers per owner shard, by cache outcome.",
            ("shard", "result"),
        )
        self.request_latency = self.registry.histogram(
            "repro_request_seconds",
            "End-to-end request latency in seconds.",
            ("path",),
        )
        self.stage_latency = self.registry.histogram(
            "repro_stage_seconds",
            "Per-stage busy time in seconds (fan-out stages sum shards).",
            ("stage",),
        )
        self.shard_stage_latency = self.registry.histogram(
            "repro_shard_stage_seconds",
            "Per-shard, per-stage busy time in seconds.",
            ("shard", "stage"),
        )
        self.cache_lookups = self.registry.counter(
            "repro_cache_lookups_total",
            "Cache lookups by cache tier and outcome.",
            ("cache", "result"),
        )
        self.cycle_mine = self.registry.counter(
            "repro_cycle_mine_total",
            "Cycle-mining runs by enumeration engine.",
            ("engine",),
        )
        self.rank_ahead = self.registry.counter(
            "repro_rank_ahead_total",
            "Rank fan-outs started beside expand_seeds, by outcome.",
            ("outcome",),
        )
        self.delta_invalidations = self.registry.counter(
            "repro_delta_invalidations_total",
            "Cache entries evicted by applied graph deltas, by cache tier.",
            ("cache",),
        )
        self.apply_stage_latency = self.registry.histogram(
            "repro_apply_stage_seconds",
            "Time of one applied delta batch per write stage, in seconds.",
            ("stage",),
        )
        self.snapshot_generation = self.registry.gauge(
            "repro_snapshot_generation",
            "Generation of the serving snapshot (advanced by compaction).",
        )
        self.delta_seq = self.registry.gauge(
            "repro_delta_seq",
            "Sequence number of the last applied delta (0 = pristine).",
        )
        self.inflight = self.registry.gauge(
            "repro_inflight_requests",
            "Requests currently inside the router.",
        )
        self.shard_inflight = self.registry.gauge(
            "repro_shard_inflight",
            "Expansions currently executing or queued on each shard worker.",
            ("shard",),
        )
        self.uptime = self.registry.gauge(
            "repro_uptime_seconds",
            "Seconds since the router was constructed.",
        )
        self._started = time.monotonic()

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    def observe_request(
        self, path: str, trace: Trace | None, latency_s: float,
        *, error: bool = False,
    ) -> None:
        """Fold one finished request (and its trace, if any) in."""
        self.requests.inc(path=path)
        if error:
            self.errors.inc(path=path)
        self.request_latency.observe(latency_s, path=path)
        if trace is None:
            return
        if "rank_ahead" in trace.labels:
            self.rank_ahead.inc(outcome=trace.labels["rank_ahead"])
        for span in trace.spans:
            seconds = span.duration_ms / 1000.0
            self.stage_latency.observe(seconds, stage=span.stage)
            if span.shard is not None:
                self.shard_stage_latency.observe(
                    seconds, shard=span.shard, stage=span.stage
                )
            cache, label = _CACHE_STAGES.get(span.stage, (None, None))
            if label in span.labels:
                self.cache_lookups.inc(
                    cache=cache,
                    result="hit" if span.labels[label] else "miss",
                )
            if span.stage == "cycle_mine":
                engine = span.labels.get("engine")
                if engine is not None:
                    self.cycle_mine.inc(engine=engine)

    def render(self) -> str:
        """The exposition, after setting the scrape-time gauges: uptime,
        and the texts offered but neither served nor failed (offered is
        read last, so a request racing the reads cannot make it negative)."""
        queries = self.queries
        done = queries.value(outcome="served") + queries.value(outcome="failed")
        self.inflight.set(max(0, queries.value(outcome="offered") - done))
        self.uptime.set(round(self.uptime_s, 3))
        return self.registry.render()
