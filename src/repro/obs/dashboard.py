"""``repro top`` — a terminal dashboard over ``/stats`` + ``/metrics``.

Polls a running ``repro serve --http`` endpoint and renders one frame
per interval: request totals and interval QPS, error counters, cache
hit rates, a per-shard table (queries, inflight, hit rate), stage
latency quantiles reconstructed from the Prometheus histograms, and the
slowest sampled queries.  ``--once`` renders a single frame without
clearing the screen — the mode CI smoke uses.

Rendering is a pure function of the fetched payloads
(:func:`render_dashboard`), so tests feed canned ``/stats`` JSON and
``/metrics`` text and assert on the frame; only :func:`run_top` touches
the network (stdlib ``urllib`` — the no-new-dependencies rule holds
here too).
"""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.request

from repro.obs.metrics import histogram_quantile, parse_prometheus_text

__all__ = ["render_dashboard", "run_top", "fetch_frame"]

_STAGE_ORDER = ("link", "expand", "cycle_mine", "rank", "merge")


def fetch_frame(base_url: str, timeout: float = 10.0) -> tuple[dict, str]:
    """One poll: (``/stats`` JSON, ``/metrics`` text)."""
    base = base_url.rstrip("/")
    with urllib.request.urlopen(f"{base}/stats", timeout=timeout) as response:
        stats = json.load(response)
    with urllib.request.urlopen(f"{base}/metrics", timeout=timeout) as response:
        metrics_text = response.read().decode("utf-8")
    return stats, metrics_text


def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:8.2f}"


def _engine_counts(metrics_text: str) -> list[tuple[str, int]]:
    """(engine, runs) pairs from ``repro_cycle_mine_total``, sorted."""
    parsed = parse_prometheus_text(metrics_text)
    counts: dict[str, int] = {}
    for (name, labelset), value in parsed["samples"].items():
        if name == "repro_cycle_mine_total":
            engine = dict(labelset).get("engine", "?")
            counts[engine] = counts.get(engine, 0) + int(value)
    return sorted(counts.items())


def _stage_rows(metrics_text: str) -> list[tuple[str, int, float, float, float]]:
    """(stage, count, p50_s, p95_s, p99_s) rows from the exposition text."""
    parsed = parse_prometheus_text(metrics_text)
    samples = parsed["samples"]
    by_stage: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, int] = {}
    for (name, labelset), value in samples.items():
        labels = dict(labelset)
        if name == "repro_stage_seconds_bucket":
            bound = labels.get("le", "")
            upper = math.inf if bound == "+Inf" else float(bound)
            by_stage.setdefault(labels["stage"], []).append((upper, value))
        elif name == "repro_stage_seconds_count":
            counts[labels["stage"]] = int(value)
    known = [stage for stage in _STAGE_ORDER if stage in by_stage]
    known += sorted(set(by_stage) - set(_STAGE_ORDER))
    return [
        (
            stage,
            counts.get(stage, 0),
            histogram_quantile(by_stage[stage], 0.50),
            histogram_quantile(by_stage[stage], 0.95),
            histogram_quantile(by_stage[stage], 0.99),
        )
        for stage in known
    ]


def render_dashboard(
    stats: dict,
    metrics_text: str = "",
    *,
    previous: dict | None = None,
    interval_s: float | None = None,
    now: float | None = None,
) -> str:
    """One dashboard frame as plain text.

    ``previous``/``interval_s`` (the prior poll's ``/stats`` and the
    seconds between polls) turn monotonic totals into interval rates;
    without them the rate column reads ``-``.
    """
    lines: list[str] = []
    http = stats.get("http", {})
    uptime = stats.get("uptime_s")
    header = f"repro top — shards={stats.get('shards', '?')}"
    generation = stats.get("generation")
    if generation is not None:
        header += f"  gen:{generation}"
        delta_seq = stats.get("delta_seq", 0)
        if delta_seq:
            header += f"+{delta_seq}"
    if uptime is not None:
        header += f"  uptime={uptime:.0f}s"
    if now is not None:
        header += f"  at={now:.0f}"
    lines.append(header)
    lines.append("=" * len(header))

    total = stats.get("requests_total", 0)
    errors = stats.get("errors", 0)
    qps = "-"
    if previous is not None and interval_s:
        delta = total - previous.get("requests_total", 0)
        qps = f"{delta / interval_s:.1f}"
    lines.append(
        f"router  requests={total}  queries={stats.get('queries', 0)}  "
        f"batches={stats.get('batches', 0)}  errors={errors}  qps={qps}"
    )
    retries = stats.get("retries_total", 0)
    restarts = stats.get("worker_restarts", 0)
    if retries or restarts:
        lines.append(f"resil.  retries={retries}  worker_restarts={restarts}")
    if http:
        by_status = http.get("errors_by_status", {})
        status_text = " ".join(
            f"{status}:{count}" for status, count in sorted(by_status.items())
        ) or "none"
        lines.append(
            f"http    requests={http.get('requests_total', 0)}  "
            f"errors={http.get('errors', 0)} ({status_text})"
        )
        admission = http.get("admission")
        if admission:
            by_reason = admission.get("shed_by_reason", {})
            reason_text = " ".join(
                f"{reason}:{count}"
                for reason, count in sorted(by_reason.items())
            ) or "none"
            limit = admission.get("queue_limit")
            lines.append(
                f"shed.   queue={admission.get('queue_depth', 0)}"
                f"/{'∞' if limit is None else limit} "
                f"(peak={admission.get('peak_queue_depth', 0)})  "
                f"shed={admission.get('shed_total', 0)} ({reason_text})  "
                f"clients={admission.get('clients_tracked', 0)}"
            )

    for cache in ("link_cache", "expansion_cache"):
        payload = stats.get(cache)
        if not payload:
            continue
        rate = payload.get("hit_rate", 0.0)
        lines.append(
            f"{cache:<16} [{_bar(rate)}] {rate * 100:5.1f}% hit  "
            f"{payload.get('size', 0)}/{payload.get('capacity', payload.get('max_size', 0))} entries"
        )

    per_shard = stats.get("per_shard", [])
    if per_shard:
        hit_rates = stats.get("per_shard_hit_rates", [0.0] * len(per_shard))
        inflight = stats.get("per_shard_inflight", [0] * len(per_shard))
        lines.append("")
        lines.append("shard  queries  inflight  hit_rate")
        for shard_id, shard in enumerate(per_shard):
            rate = hit_rates[shard_id] if shard_id < len(hit_rates) else 0.0
            lines.append(
                f"{shard_id:>5}  {shard.get('queries', 0):>7}  "
                f"{(inflight[shard_id] if shard_id < len(inflight) else 0):>8}  "
                f"[{_bar(rate, 12)}] {rate * 100:5.1f}%"
            )

    if metrics_text:
        rows = _stage_rows(metrics_text)
        if rows:
            lines.append("")
            lines.append("stage        count   p50_ms   p95_ms   p99_ms")
            for stage, count, p50, p95, p99 in rows:
                lines.append(
                    f"{stage:<11} {count:>6} {_fmt_ms(p50)} {_fmt_ms(p95)} "
                    f"{_fmt_ms(p99)}"
                )
        engines = _engine_counts(metrics_text)
        if engines:
            lines.append(
                "cycle_mine engines: "
                + "  ".join(f"{engine}={count}" for engine, count in engines)
            )

    slow = http.get("slow_queries") or stats.get("slow_queries")
    if slow:
        entries = slow.get("entries", [])
        lines.append("")
        lines.append(
            f"slow queries (>= {slow.get('threshold_ms', 0):.0f} ms): "
            f"{slow.get('slow', 0)}/{slow.get('requests', 0)} sampled"
        )
        for entry in entries[:5]:
            query = entry.get("query", "")
            lines.append(
                f"  {entry.get('latency_ms', 0):8.1f} ms  "
                f"{entry.get('endpoint', '?'):<14} {query[:48]!r}"
            )
    return "\n".join(lines) + "\n"


def run_top(
    url: str,
    *,
    interval_s: float = 2.0,
    once: bool = False,
    iterations: int | None = None,
    out=None,
) -> int:
    """Poll-and-render loop behind ``repro top``; returns an exit code."""
    import sys

    write = (out or sys.stdout).write
    previous: dict | None = None
    rounds = 0
    while True:
        try:
            stats, metrics_text = fetch_frame(url)
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as error:
            write(f"repro top: cannot reach {url}: {error}\n")
            return 1
        frame = render_dashboard(
            stats,
            metrics_text,
            previous=previous,
            interval_s=interval_s if previous is not None else None,
            now=time.time() if not once else None,
        )
        if not once:
            write("\x1b[2J\x1b[H")  # clear screen, home cursor
        write(frame)
        if hasattr(out or sys.stdout, "flush"):
            (out or sys.stdout).flush()
        rounds += 1
        if once or (iterations is not None and rounds >= iterations):
            return 0
        previous = stats
        time.sleep(interval_s)
