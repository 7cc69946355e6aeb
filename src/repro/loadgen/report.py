"""The SLO report: per-shape quantiles, error/shed/cache rates, cross-check.

Client-side timings alone can lie (they include connection setup and
client-side scheduling jitter); server histograms alone can lie too
(they only see admitted requests).  The report therefore carries both:
per-shape p50/p99/p999 from the client's own stopwatch *and* the
server's ``repro_request_seconds`` quantiles computed from ``/metrics``
bucket *deltas* (after minus before), so the numbers describe exactly
this run even on a long-lived server.

``merge_into_bench`` writes the report under the ``loadgen_slo`` key of
``BENCH_service.json`` while preserving every key owned by other bench
modules — the same courtesy ``benchmarks/test_service_latency.py``
extends back.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.obs.metrics import histogram_quantile, parse_prometheus_text

__all__ = ["build_report", "merge_into_bench", "percentile", "server_quantiles"]

_QUANTILES = (("p50_ms", 0.50), ("p99_ms", 0.99), ("p999_ms", 0.999))


def percentile(values, quantile: float) -> float:
    """Linear-interpolation percentile of ``values`` (0 for empty input)."""
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    rank = quantile * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)


def _histogram_delta(before: dict, after: dict, name: str) -> list[tuple[float, float]]:
    """Cumulative ``(upper_bound, count_delta)`` pairs for one histogram,
    summed across all label sets (server paths) of ``name``."""
    bounds: dict[float, float] = {}
    for (sample, labels), value in after["samples"].items():
        if sample != f"{name}_bucket":
            continue
        le = dict(labels).get("le")
        if le is None:
            continue
        bound = math.inf if le == "+Inf" else float(le)
        previous = before["samples"].get((sample, labels), 0.0)
        # Exposed bucket counts are already cumulative, and subtracting
        # two cumulative readings stays cumulative — sum across label
        # sets per bound, but never re-accumulate across bounds.
        bounds[bound] = bounds.get(bound, 0.0) + (value - previous)
    return sorted(bounds.items())


def _counter_delta(before: dict, after: dict, name: str) -> dict[frozenset, float]:
    deltas: dict[frozenset, float] = {}
    for (sample, labels), value in after["samples"].items():
        if sample != name:
            continue
        delta = value - before["samples"].get((sample, labels), 0.0)
        if delta:
            deltas[labels] = delta
    return deltas


def server_quantiles(metrics_before: str, metrics_after: str) -> dict:
    """Server-side view of the run from ``/metrics`` bucket deltas.

    Quantiles of ``repro_request_seconds`` (all router paths folded
    together — the client report carries the per-shape split), plus the
    run's cache hit rate and shed counts by reason.
    """
    before = parse_prometheus_text(metrics_before)
    after = parse_prometheus_text(metrics_after)
    buckets = _histogram_delta(before, after, "repro_request_seconds")
    out: dict = {}
    for key, quantile in _QUANTILES:
        out[key] = round(histogram_quantile(buckets, quantile) * 1000.0, 3)
    # The two result caches only: the router-side collection_stats and
    # expansion_wire lookups would dilute what this rate has always meant.
    lookups = {
        labels: v for labels, v in _counter_delta(
            before, after, "repro_cache_lookups_total"
        ).items() if dict(labels).get("cache") in ("link", "expansion")
    }
    hits = sum(v for labels, v in lookups.items()
               if dict(labels).get("result") == "hit")
    total = sum(lookups.values())
    out["cache_hit_rate"] = round(hits / total, 4) if total else 0.0
    shed = _counter_delta(before, after, "repro_shed_total")
    out["shed_by_reason"] = {
        dict(labels)["reason"]: int(v) for labels, v in sorted(
            shed.items(), key=lambda item: dict(item[0])["reason"]
        )
    }
    out["shed_total"] = int(sum(shed.values()))
    return out


def _summarize_shape(outcomes) -> dict:
    latencies_ok = [o.latency_ms for o in outcomes if o.ok]
    errors = sum(1 for o in outcomes if not o.ok and not o.shed)
    shed = sum(1 for o in outcomes if o.shed)
    total = len(outcomes)
    summary = {
        "requests": total,
        "completed": len(latencies_ok),
        "errors": errors,
        "error_rate": round(errors / total, 4) if total else 0.0,
        "shed": shed,
        "shed_rate": round(shed / total, 4) if total else 0.0,
    }
    for key, quantile in _QUANTILES:
        summary[key] = round(percentile(latencies_ok, quantile), 3)
    return summary


def build_report(
    result,
    *,
    seed: int,
    rate: float,
    stream_sha256: str,
    zipf_s: float,
) -> dict:
    """Assemble the ``loadgen_slo`` section from one replay."""
    shapes = {
        name: _summarize_shape(outcomes)
        for name, outcomes in sorted(result.outcomes.items())
    }
    return {
        "seed": seed,
        "zipf_s": zipf_s,
        "target_rate_per_shape": rate,
        "achieved_rate_total": round(result.achieved_rate, 2),
        "wall_s": round(result.wall_s, 3),
        "stream_sha256": stream_sha256,
        "shapes": shapes,
        "server": server_quantiles(result.metrics_before, result.metrics_after),
    }


def merge_into_bench(path, report: dict) -> dict:
    """Write ``report`` under ``loadgen_slo`` in ``BENCH_service.json``,
    preserving whatever other bench modules have already written."""
    path = Path(path)
    payload: dict = {}
    if path.exists():
        payload = json.loads(path.read_text())
    payload["loadgen_slo"] = report
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload
