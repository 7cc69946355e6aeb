"""One real ``python -m repro.cli serve --http 0`` subprocess.

The server is started with default flags only (plus ``--workers`` on the
worker workload) from a pristine snapshot directory, in its own session
so that a forced stop reaches its shard workers too.  Everything read
from it comes over its public HTTP surface or from ``/proc``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from bench import SRC_DIR
from bench.corpus import NUM_SHARDS
from bench.witness import RegimeError

__all__ = ["ServerProcess", "assert_pristine", "attributed_ms"]

_PORT_RE = re.compile(r"http: serving on http://[\d.]+:(\d+)")
_START_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 10.0
# Files `serve` leaves in the directory it serves from; a directory that
# already holds one would warm-start the run.
_SERVE_LEFTOVERS = ("recent_queries.json", "updates")


# The stages whose busy time adds up to a request's attributed time;
# cycle_mine nests inside expand and would be counted twice.
_TOP_LEVEL_STAGES = ("link", "expand", "rank", "merge")


def attributed_ms(stage_ms: dict) -> float:
    """Busy milliseconds the server attributes to a named stage, from a
    ``stage -> ms`` mapping (a response's ``stages``, a trace's totals)."""
    return sum(stage_ms.get(stage, 0.0) for stage in _TOP_LEVEL_STAGES)


def assert_pristine(snapshot_dir: Path) -> None:
    leftovers = [n for n in _SERVE_LEFTOVERS if (snapshot_dir / n).exists()]
    if leftovers:
        raise RegimeError(
            f"snapshot directory {snapshot_dir} is not pristine: {leftovers}"
        )


class ServerProcess:
    """Spawn, query and stop one serving process."""

    def __init__(self, snapshot_dir: Path, *, workers: bool) -> None:
        self.snapshot_dir = snapshot_dir
        self.workers = workers
        self.port = 0
        self._proc: subprocess.Popen | None = None
        self._stdout_path = snapshot_dir.parent / f"{snapshot_dir.name}.stdout"
        self._stderr_path = snapshot_dir.parent / f"{snapshot_dir.name}.stderr"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn and return once ``/healthz`` answers 200."""
        assert_pristine(self.snapshot_dir)
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--snapshot", str(self.snapshot_dir), "--http", "0",
        ]
        if self.workers:
            cmd += ["--workers", str(NUM_SHARDS)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        # An inherited socket-adapter override would silently turn the
        # in-process workloads into worker workloads.
        env.pop("REPRO_SHARD_ADAPTER", None)
        with self._stdout_path.open("wb") as out, \
                self._stderr_path.open("wb") as err:
            self._proc = subprocess.Popen(
                cmd, stdout=out, stderr=err, env=env, start_new_session=True,
            )
        deadline = time.monotonic() + _START_TIMEOUT_S
        while not self.port:
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self._proc.returncode} before "
                    f"binding:\n{self._stdout_path.read_text()}"
                    f"{self._stderr_path.read_text()}"
                )
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("timed out waiting for the server's port")
            match = _PORT_RE.search(self._stdout_path.read_text())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.01)
        self.healthz()

    def stop(self) -> None:
        """Stop the server and wait until it and its workers are gone."""
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        if proc.poll() is None:
            # SIGINT is the server's clean path: it persists the recency
            # set and stops its supervisor, which reaps the workers.
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        # Whatever is left of the session (a wedged server, orphaned
        # workers) is killed outright; the group id equals the pid.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()

    def __enter__(self) -> "ServerProcess":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Public HTTP surface
    # ------------------------------------------------------------------

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def get(self, path: str) -> bytes:
        conn = self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return body

    def healthz(self) -> dict:
        return json.loads(self.get("/healthz"))

    def metrics(self) -> dict:
        """``/metrics`` parsed to ``{(family, frozenset(labels)): value}``."""
        from repro.obs import parse_prometheus_text

        return parse_prometheus_text(self.get("/metrics").decode())["samples"]

    # ------------------------------------------------------------------
    # /proc
    # ------------------------------------------------------------------

    def pids(self) -> list[int]:
        """The serving process and, with ``--workers``, its shard workers."""
        assert self._proc is not None
        pids = [self._proc.pid]
        for worker in self.healthz().get("workers", ()):
            if worker.get("pid"):
                pids.append(int(worker["pid"]))
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` (peak resident set) over :meth:`pids`, in MB."""
        total_kb = 0
        for pid in self.pids():
            status = Path(f"/proc/{pid}/status").read_text()
            match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
            if match is None:
                raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
            total_kb += int(match.group(1))
        return total_kb / 1024.0
