"""The repo's benchmark: seeded HTTP workloads, end-to-end and per-layer.

One entry point, seed in, artefacts out::

    python3 -m bench --seed 7                       # every workload + ladder
    python3 -m bench --workload cold_tail --seed 7 --seconds 10 --trace 0
    python3 -m bench --plan-only --seed 7           # stream digests only

The benchmark measures the program from outside only: it times calls
into public functions and reads the public HTTP surface of a real
``python -m repro.cli serve --http 0`` subprocess.  Metric names, units
and regression bounds live in ``BENCHMARK.json`` at the repo root;
``bench/README.md`` is the glossary.  Everything a run writes goes under
``bench/out/`` (git-ignored).
"""

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
MANIFEST = REPO_ROOT / "BENCHMARK.json"
