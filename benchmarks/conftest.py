"""Shared fixtures for the benchmark suite.

Every table/figure bench consumes the same full pipeline run (like the
paper derives all analysis from one ground truth).  The run is cached at
session scope; the first bench that needs it pays the ~seconds of cost.

Three bench modules publish sections of ``BENCH_service.json``.  They
all go through :func:`emit_bench`, which touches the tracked file only
when ``REPRO_BENCH_WRITE=1`` — a plain ``pytest`` run (tier-1 included)
measures, validates the schema on a scratch copy and leaves ``git
status`` clean.
"""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.harness import PipelineResult, default_benchmark, default_pipeline_result


@pytest.fixture(scope="session")
def pipeline_result() -> PipelineResult:
    return default_pipeline_result(seed=7)


@pytest.fixture(scope="session")
def bench_benchmark():
    return default_benchmark(seed=7)


BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


@pytest.fixture(scope="session")
def emit_bench(tmp_path_factory):
    """``emit_bench(sections)``: merge top-level sections into the bench
    file, keeping every section other modules wrote, and return the file
    as read back.  The file is the tracked ``BENCH_service.json`` under
    ``REPRO_BENCH_WRITE=1`` and a per-session scratch copy of it
    otherwise."""
    if os.environ.get("REPRO_BENCH_WRITE", "") not in ("", "0"):
        path = BENCH_PATH
    else:
        path = tmp_path_factory.mktemp("bench") / BENCH_PATH.name
        if BENCH_PATH.exists():
            shutil.copyfile(BENCH_PATH, path)

    def emit(sections: dict) -> dict:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            payload = {}
        payload.update(sections)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return json.loads(path.read_text(encoding="utf-8"))

    return emit
