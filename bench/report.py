"""What a run prints and what it leaves under ``bench/out/``.

* ``results.json`` — the last invocation, every metric of every run;
* ``history.jsonl`` — append-only, one line per invocation, keyed by
  git sha, with the seed, stream digests and an environment fingerprint;
* ``trace.jsonl`` — the spans of the invocation's traced runs.

Nothing tracked by git is written.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

from bench import OUT_DIR, REPO_ROOT
from bench.workload import loadavg_1m

__all__ = [
    "append_history",
    "driver_line",
    "metrics_object",
    "print_metrics",
    "print_plan",
    "write_results",
]


def metrics_object(values: dict[str, float], units: dict[str, str]) -> dict:
    """``{name: {"value": v, "unit": u}}`` in the manifest's order."""
    return {
        name: {"value": values[name], "unit": units[name]}
        for name in units if name in values
    }


def driver_line(run: dict) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    return json.dumps(
        {key: run[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def print_metrics(title: str, metrics: dict, notes: dict | None = None) -> None:
    print(f"== {title}")
    if notes:
        print("   " + "  ".join(f"{k}={v}" for k, v in notes.items()))
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"   {name:<{width}}  {entry['value']:>14.4f} {entry['unit']}")


def print_plan(session) -> int:
    for workload in session.workloads:
        plan = session.plan(workload)
        for stream, digest in plan.digests.items():
            count = len(plan.reads if stream == "reads" else plan.writes)
            print(f"{workload}.{stream}  n={count}  sha256={digest}")
    return 0


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, timeout=10,
            capture_output=True, text=True, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def write_results(document: dict) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / "results.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def append_history(session, runs: list[dict]) -> None:
    """One line per invocation; never rewritten."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    line = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        "seed": session.seed,
        "seconds": session.seconds,
        "corpus_scale": session.corpus_scale,
        "digests": {run["workload"]: run["digests"] for run in runs},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": loadavg_1m(),
        "env.spin_ms": [run["notes"]["spin_ms"] for run in runs],
        "runs": [
            {
                "workload": run["workload"],
                "trace": run["trace"],
                "correct": run["correct"],
                "metrics": {k: v["value"] for k, v in run["metrics"].items()},
            }
            for run in runs
        ],
    }
    with (OUT_DIR / "history.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
