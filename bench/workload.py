"""One workload end to end: set up, timed window, checks, metrics.

With tracing off the set-up is repeated :data:`SETUP_REPS` times (fresh
directory, fresh server each) and its median reported.  The *first*
server is the one measured; the other set-ups run between groups of
slices of the timed window, while that server idles.  They have to
happen anyway, and putting them there spreads the window's
:data:`SLICES` slices over about twice the wall time for free.

Every timing is scaled by the speed of the box at the moment it was
taken (:mod:`bench.calibration`): each slice by the probes just before
and after it, the set-up by the median probe of the run.  Throughput and
latency are then the medians of the per-slice figures.

With tracing on there is one set-up and the slices are contiguous; every
call the benchmark makes is recorded as a span and the per-workload
layer counters — unscaled, as the clients saw them — are reported
instead of the end-to-end metrics.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.loadgen import seeded_rng
from repro.service import ShardedSnapshot, Snapshot

from bench import oracle, stats, witness
from bench.calibration import REFERENCE_S
from bench.client import ClosedLoop, Slice, send
from bench.corpus import NUM_SHARDS, Corpus
from bench.server import ServerProcess, attributed_ms
from bench.spans import SpanRecorder
from bench.streams import Plan, expand_request, uses_workers

__all__ = ["Outcome", "SETUP_REPS", "SLICES", "loadavg_1m", "run_workload"]

# Set-up is repeated and its median reported, so one slow spawn or one
# slow disk flush does not read as a set-up regression.
SETUP_REPS = 3
# The window is cut into this many slices (1 s each at the run_seconds of
# BENCHMARK.json); throughput and latency are the medians of the
# per-slice figures.
SLICES = 12
# A run whose probes differ by more than this share of their median saw
# the box change speed under it; it is flagged `noisy`, not rejected.
_NOISY_PROBE_RANGE = 0.25
# Distinct requests re-answered by the oracle per measured second (the
# DFS/dict oracle costs ~25-60 ms a query), and the most it ever checks.
_ORACLE_PER_SECOND = 5
_ORACLE_MAX = 200


@dataclass
class Outcome:
    """What one run of one workload measured."""

    workload: str
    attempted: int
    failed: int
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def loadavg_1m() -> float:
    return float(Path("/proc/loadavg").read_text().split()[0])


def _set_up(
    corpus: Corpus, workload: str, snapshot_dir: Path,
    recorder: SpanRecorder, label: str,
) -> tuple[ServerProcess, float]:
    """Everything a deploy pays before the timed window: snapshot build,
    shard, save, ``serve`` spawn to the first 200 from ``/healthz``, and
    the head warm-up replay.  Returns the running server and the seconds
    it all took."""
    start = time.perf_counter()
    with recorder.span("service.artifacts.build", request=label):
        snapshot = Snapshot.build(corpus.benchmark)
    with recorder.span("wiki.partition", request=label):
        sharded = ShardedSnapshot.from_snapshot(snapshot, NUM_SHARDS)
    with recorder.span("service.artifacts.save", request=label):
        sharded.save(snapshot_dir)
    server = ServerProcess(snapshot_dir, workers=uses_workers(workload))
    with recorder.span("serve.spawn", request=label):
        server.start()
    try:
        with recorder.span("serve.warmup", request=label):
            conn = server.connect()
            try:
                for index, head in enumerate(corpus.heads):
                    sample = send(conn, expand_request("warmup", index, head))
                    if oracle.parse_read(sample) is None:
                        raise RuntimeError(
                            f"warm-up of {head!r} answered {sample.status}"
                        )
            finally:
                conn.close()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def _slices_per_phase(phases: int) -> list[int]:
    """:data:`SLICES` split as evenly as possible, the remainder last."""
    counts = [SLICES // phases] * phases
    counts[-1] += SLICES - sum(counts)
    return counts


def run_workload(
    corpus: Corpus,
    plan: Plan,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    recorder: SpanRecorder,
) -> Outcome:
    workload = plan.workload
    reps = 1 if trace else SETUP_REPS
    setup_s: list[float] = []
    slices: list[Slice] = []

    def snapshot_dir(rep: int) -> Path:
        return work_dir / f"{workload}-snapshot-{rep}"

    server, took = _set_up(corpus, workload, snapshot_dir(0), recorder, "setup-0")
    setup_s.append(took)
    try:
        clients = ClosedLoop(server, plan)
        metrics_before = server.metrics()
        for rep, count in enumerate(_slices_per_phase(reps)):
            if rep:
                spare, took = _set_up(
                    corpus, workload, snapshot_dir(rep), recorder, f"setup-{rep}"
                )
                spare.stop()
                setup_s.append(took)
            for _ in range(count):
                slices.append(clients.run_slice(seconds / SLICES))
        metrics_after = server.metrics()
        outcome = _check_and_measure(
            corpus, plan, server, slices, seconds, recorder,
            {k: v - metrics_before.get(k, 0.0) for k, v in metrics_after.items()},
            seeded_rng(seed, workload, "oracle"),
        )
    finally:
        server.stop()
        for rep in range(reps):
            shutil.rmtree(snapshot_dir(rep), ignore_errors=True)
    probes = [piece.probe_s for piece in slices]
    probe_s = stats.median(probes)
    outcome.end_to_end["setup_s"] = stats.median(setup_s) * REFERENCE_S / probe_s
    outcome.per_layer["env.spin_ms"] = probe_s * 1000.0
    outcome.per_layer["env.speed_factor"] = probe_s / REFERENCE_S
    outcome.notes.update(
        setup_s=setup_s,
        spin_ms=[round(probe * 1000.0, 2) for probe in probes],
        noisy=max(probes) - min(probes) > _NOISY_PROBE_RANGE * probe_s,
        nproc=os.cpu_count(),
    )
    outcome.digests = plan.digests
    return outcome


def _check_and_measure(
    corpus: Corpus,
    plan: Plan,
    server: ServerProcess,
    slices: list[Slice],
    seconds: float,
    recorder: SpanRecorder,
    counters: dict,
    rng: random.Random,
) -> Outcome:
    workload = plan.workload
    health = server.healthz()
    rss_mb = server.peak_rss_mb()

    samples = [s for piece in slices for s in piece.samples]
    for sample in samples:
        recorder.add(
            "client.write" if sample.is_write else "client.read",
            request=f"{sample.request.shape}-{sample.request.index}",
            start=sample.start, end=sample.end,
        )
    reads = [s for s in samples if not s.is_write]
    writes = [s for s in samples if s.is_write]
    payloads = [oracle.parse_read(sample) for sample in reads]
    good = [p for p in payloads if p is not None]
    acked_writes = [w for w in writes if w.ok]
    failed = (len(payloads) - len(good)) + (len(writes) - len(acked_writes))
    attempted = len(samples)
    if not good:
        raise RuntimeError(f"{workload}: no read was answered correctly")

    # -- correctness gate -------------------------------------------------
    limit = min(_ORACLE_MAX, max(4, math.ceil(_ORACLE_PER_SECOND * seconds)))
    if plan.writes:
        # Quiesced: both clients are done.  Every acknowledged delta must
        # be visible, and answers must equal a from-scratch rebuild.
        expected_seq = max(
            (d["seq"] for w in acked_writes for d in w.request.body["deltas"]),
            default=0,
        )
        if health["delta_seq"] != expected_seq:
            failed += 1
        heads = list(corpus.heads)
        rng.shuffle(heads)
        conn = server.connect()
        try:
            asked = [
                send(conn, expand_request("recheck", i, head))
                for i, head in enumerate(heads[:limit])
            ]
        finally:
            conn.close()
        attempted += len(asked)
        answers = {}
        for sample in asked:
            payload = oracle.parse_read(sample)
            if payload is None:
                failed += 1
            else:
                answers[sample.request.body["query"]] = payload
        checked = len(answers)
        failed += oracle.mismatches_after_writes(corpus, acked_writes, answers)
    else:
        answers = {}
        for sample, payload in zip(reads, payloads):
            if payload is not None:
                answers.setdefault(sample.request.body["query"], payload)
        checked, wrong = oracle.mismatches_in_window(
            oracle.read_oracle(corpus), answers, rng, limit
        )
        failed += wrong

    # -- regime witnesses -------------------------------------------------
    expansion_hit_share = sum(p["expansion_cached"] for p in good) / len(good)
    link_hit_share = sum(p["link_cached"] for p in good) / len(good)
    errors_5xx = sum(
        count for status, count in health["errors_by_status"].items()
        if status.startswith("5")
    )
    broken = witness.violations(
        workload,
        expansion_hit_share=expansion_hit_share,
        worker_restarts=int(health.get("worker_restarts", 0)),
        server_errors_5xx=errors_5xx,
    )
    if broken:
        raise witness.RegimeError("; ".join(broken))

    # -- metrics ----------------------------------------------------------
    # One (throughput, p50, p95) per slice, as the clients saw it; a slice
    # without a single good read only happens on a run that is failing
    # anyway.  The end-to-end figures are the same scaled to a box at
    # reference speed: a slice that ran while the probe took 1.4x its
    # reference time counts 1.4x the throughput and 1/1.4 the latency.
    per_slice_ms = [[s.latency_ms for s in piece.reads if s.ok] for piece in slices]
    raw = [
        (
            sum(s.ok for s in piece.samples) / piece.wall_s,
            stats.median(ms),
            stats.percentile(ms, 95.0),
            piece.probe_s / REFERENCE_S,
        )
        for piece, ms in zip(slices, per_slice_ms) if ms
    ]
    end_to_end = {
        "throughput_qps": stats.median([qps * f for qps, _, _, f in raw]),
        "latency_p50_ms": stats.median([p50 / f for _, p50, _, f in raw]),
        "latency_p95_ms": stats.median([p95 / f for _, _, p95, f in raw]),
        "server_rss_mb": rss_mb,
    }

    read_ms = [ms for piece in per_slice_ms for ms in piece]
    write_ms = [s.latency_ms for s in acked_writes]
    read_summary = stats.summarize(read_ms)

    def counter(family: str, **labels) -> float:
        """What ``/metrics`` counted over the window (0 if never seen)."""
        return counters.get((family, frozenset(labels.items())), 0.0)

    stage_ms = {
        stage: counter("repro_stage_seconds_sum", stage=stage) * 1000.0 / len(reads)
        for stage in ("link", "expand", "cycle_mine", "rank", "merge")
    }
    request_ms = counter(
        "repro_request_seconds_sum", path="expand_query"
    ) * 1000.0 / len(reads)
    mean_read_ms = sum(read_ms) / len(read_ms)
    evictions = counter("repro_delta_invalidations_total", cache="expansion")
    per_layer = {
        "linking.busy_ms_per_req": stage_ms["link"],
        "core.cycle_mine_busy_ms_per_req": stage_ms["cycle_mine"],
        "retrieval.rank_busy_ms_per_req": stage_ms["rank"],
        "service.router.merge_busy_ms_per_req": stage_ms["merge"],
        "service.server.request_ms_per_req": request_ms,
        "service.server.expansion_hit_share": expansion_hit_share,
        "service.server.link_hit_share": link_hit_share,
        "service.http.transport_ms_per_req": mean_read_ms - request_ms,
        "service.http.unattributed_ms_per_req":
            mean_read_ms - attributed_ms(stage_ms),
        "updates.evictions_per_write":
            evictions / len(acked_writes) if acked_writes else 0.0,
        "client.samples": len(read_ms),
        "client.raw_throughput_qps": stats.median([qps for qps, _, _, _ in raw]),
        "client.raw_latency_p50_ms": stats.median([p50 for _, p50, _, _ in raw]),
        "client.raw_latency_p95_ms": stats.median([p95 for _, _, p95, _ in raw]),
        "client.tail_percentile": read_summary.tail_percentile,
        "client.latency_tail_ms": read_summary.tail,
        "client.writes": len(write_ms),
        "client.write_p50_ms": stats.median(write_ms) if write_ms else 0.0,
        "env.loadavg_1m": loadavg_1m(),
    }
    notes = {
        "window_s": sum(piece.wall_s for piece in slices),
        "reads": len(reads),
        "writes": len(writes),
        "oracle_checked": checked,
        "expansion_hit_share": round(expansion_hit_share, 4),
        # per slice: raw throughput, p50, p95, and the speed factor
        "slices": [[round(v, 3) for v in figure] for figure in raw],
    }
    return Outcome(workload, attempted, failed, end_to_end, per_layer, notes=notes)
