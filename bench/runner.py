"""Orchestration: which runs an invocation makes, and what it exits with."""

from __future__ import annotations

import sys
from functools import cached_property
from pathlib import Path

from bench import OUT_DIR, report, witness
from bench.corpus import CORPUS_SCALE, Corpus, build_corpus
from bench.ladder import run_ladder
from bench.spans import SpanRecorder
from bench.streams import Plan, plan_workload
from bench.workload import run_workload

__all__ = ["Session", "run_all", "run_one"]


class Session:
    """One invocation: its manifest, seed, corpus and plans."""

    def __init__(
        self, manifest: dict, *, seed: int, seconds: float, work_dir: Path,
        corpus_scale: float | None = None,
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.corpus_scale = CORPUS_SCALE if corpus_scale is None else corpus_scale
        self.workloads = [w["name"] for w in manifest["workloads"]]
        self.units = {
            kind: {m["name"]: m["unit"] for m in manifest[kind]}
            for kind in ("end_to_end", "per_layer")
        }
        self.recorder = SpanRecorder(enabled=False)
        self._ladder: dict[str, float] | None = None
        self._plans: dict[str, Plan] = {}

    @cached_property
    def corpus(self) -> Corpus:
        return build_corpus(self.corpus_scale)

    def plan(self, workload: str) -> Plan:
        if workload not in self._plans:
            self._plans[workload] = plan_workload(workload, self.corpus, self.seed)
        return self._plans[workload]

    def ladder(self) -> dict[str, float]:
        """The layer ladder, run once per invocation: it does not depend
        on the workload, only on the corpus."""
        if self._ladder is None:
            # 3 heads per measured second, 36 at the run_seconds of
            # BENCHMARK.json: each head costs ~80 ms across the six cold rungs.
            queries = max(4, min(len(self.corpus.heads), round(3 * self.seconds)))
            self._ladder = run_ladder(
                self.corpus, self.plan("read_write_mix"), queries=queries,
                work_dir=self.work_dir, recorder=self.recorder,
            )
        return self._ladder

    def run(self, workload: str, trace: bool) -> dict:
        """One run; returns its record (raises RegimeError if invalid)."""
        self.recorder.enabled = trace
        outcome = run_workload(
            self.corpus, self.plan(workload), seed=self.seed,
            seconds=self.seconds, trace=trace, work_dir=self.work_dir,
            recorder=self.recorder,
        )
        kind = "per_layer" if trace else "end_to_end"
        values = dict(outcome.per_layer if trace else outcome.end_to_end)
        if trace:
            values.update(self.ladder())
        declared = self.units[kind]
        if set(values) != set(declared):
            raise RuntimeError(
                f"{kind} metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(declared) - set(values))}, "
                f"undeclared {sorted(set(values) - set(declared))}"
            )
        return {
            "workload": workload,
            "trace": int(trace),
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "digests": outcome.digests,
            "notes": outcome.notes,
            "metrics": report.metrics_object(values, declared),
        }

    def finish(self, runs: list[dict]) -> None:
        """Write the invocation's artefacts under bench/out/."""
        report.write_results({
            "seed": self.seed, "seconds": self.seconds,
            "corpus_scale": self.corpus_scale, "runs": runs,
        })
        report.append_history(self, runs)
        if self.recorder.spans:
            self.recorder.write(OUT_DIR / "trace.jsonl")


def _show(run: dict) -> None:
    notes = {
        k: run["notes"][k]
        for k in ("reads", "writes", "oracle_checked", "expansion_hit_share", "noisy")
    }
    notes.update(attempted=run["attempted"], failed=run["failed"])
    for stream, digest in run["digests"].items():
        notes[f"{stream}_sha256"] = digest[:16]
    report.print_metrics(
        f"{run['workload']} (trace {run['trace']})", run["metrics"], notes
    )


def run_one(session: Session, workload: str, trace: bool) -> int:
    """The driver form: one run, its JSON object last on stdout."""
    try:
        run = session.run(workload, trace)
    except witness.RegimeError as error:
        print(f"bench: invalid run of {workload}: {error}", file=sys.stderr)
        return witness.EXIT_INVALID
    session.finish([run])
    _show(run)
    print(report.driver_line(run))
    return 0 if run["correct"] else witness.EXIT_INCORRECT


def run_all(session: Session, trace: int | None) -> int:
    """Every workload, tracing off then on (or only the one asked for)."""
    modes = (False, True) if trace is None else (bool(trace),)
    runs: list[dict] = []
    status = 0
    for workload in session.workloads:
        for mode in modes:
            try:
                run = session.run(workload, mode)
            except witness.RegimeError as error:
                print(f"bench: invalid run of {workload}: {error}", file=sys.stderr)
                status = witness.EXIT_INVALID
                continue
            if not run["correct"]:
                status = status or witness.EXIT_INCORRECT
            _show(run)
            runs.append(run)
    session.finish(runs)
    return status
