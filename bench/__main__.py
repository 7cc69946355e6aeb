"""``python3 -m bench``: the benchmark's one entry point.

Driver form (one workload, one JSON object as the last line of stdout)::

    python3 -m bench --workload hot_topics --seed 7 --seconds 10 --trace 0

Without ``--workload`` every workload runs with tracing off and then on,
and the full report is printed and written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from bench import MANIFEST, OUT_DIR, SRC_DIR

EXIT_USAGE = 2


def _parse(argv):
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="run this one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="drives the corpus and every stream (default 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one timed window "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off; 1: per-layer "
                             "metrics from the traced run (default: both)")
    parser.add_argument("--plan-only", action="store_true",
                        help="print the stream digests and exit; starts no server")
    parser.add_argument("--corpus-scale", type=float, default=None,
                        help="multiple of the default synthetic corpus; only "
                             "for smoke tests — numbers at another scale are "
                             "not comparable")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC_DIR / "repro").is_dir() or not MANIFEST.is_file():
        print(f"bench: need {SRC_DIR}/repro and {MANIFEST}; "
              "run from a checkout of the repository", file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(SRC_DIR))
    # A shell that started us in the background left SIGINT ignored, and
    # the servers we spawn would inherit that: SIGINT is how they are
    # asked to shut down cleanly.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from bench import report, runner

    manifest = json.loads(MANIFEST.read_text())
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    if seconds <= 0:
        print("bench: --seconds must be > 0", file=sys.stderr)
        return EXIT_USAGE
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"bench: unknown workload {args.workload!r} "
              f"(expected one of {names})", file=sys.stderr)
        return EXIT_USAGE

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        session = runner.Session(
            manifest, seed=args.seed, seconds=seconds, work_dir=work_dir,
            corpus_scale=args.corpus_scale,
        )
        if args.plan_only:
            return report.print_plan(session)
        if args.workload is not None:
            return runner.run_one(session, args.workload, bool(args.trace))
        return runner.run_all(session, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
