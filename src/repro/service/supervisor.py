"""Local shard-worker supervision: spawn, health-check, restart.

:class:`ShardSupervisor` turns ``repro serve --workers N`` into a small
process tree: one worker process per shard (``repro shard-worker``,
:mod:`repro.service.shard_worker`), each announcing its ephemeral port
on stdout, plus a monitor thread that

* detects worker death (``proc.poll()``) and *liveness-check failure*
  (a periodic synchronous ``hello`` ping over the wire protocol — a
  wedged worker that still holds its socket is killed and treated like
  a crash),
* restarts dead workers with exponential backoff, up to
  ``max_restarts`` per shard — beyond that the shard is marked
  ``failed`` and stays down (a crash-looping worker should page a
  human, not burn CPU),
* exposes per-shard state for ``/healthz`` (:meth:`describe`) and the
  ``repro_shard_worker_restarts_total{shard}`` counter for
  ``/metrics``.

The supervisor is deliberately thread-based (plain ``subprocess.Popen``
+ reader threads), not asyncio: it must keep supervising while the
serving event loop is saturated, and it is also used from synchronous
tests and tools.  :meth:`endpoint` is the bridge to the async side —
:class:`~repro.service.socket_adapter.SocketShardAdapter` resolves it
per connection attempt, so a worker that moved ports across a restart
is picked up by the very next retry.

Fault injection: per-shard specs (``fault_specs={1: "kill@2"}``) are
passed to workers via ``--fault``; a restarted worker re-parses its
spec fresh, so ``kill@1`` with ``max_restarts=0`` models a permanently
dead shard while ``kill@1`` with budget left models a crash the stack
heals around.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time

from repro.errors import ServiceError, ShardUnavailableError
from repro.service import wire

__all__ = ["ShardSupervisor", "WorkerInfo"]

# The liveness bound (docs/shard_protocol.md "Execution model"): every
# HEALTH_INTERVAL_S the monitor pings each worker with a hello frame and
# kills one that does not answer within PING_TIMEOUT_S.  A worker's one
# loop reads the ping behind the call it is running, so a call holding
# the loop past WEDGED_KILL_S (next ping, then its timeout) is killed.
HEALTH_INTERVAL_S = 0.5
PING_TIMEOUT_S = 2.0
POLL_INTERVAL_S = 0.05
RESTART_BACKOFF_BASE_S = 0.1
RESTART_BACKOFF_MAX_S = 2.0
WEDGED_KILL_S = HEALTH_INTERVAL_S + POLL_INTERVAL_S + PING_TIMEOUT_S
# One wire call's deadline.  Pings run one worker after another, so it
# allows two: a supervised worker is always ended by its ping first,
# and the deadline only bounds a peer that no supervisor watches.
CALL_DEADLINE_S = 2 * WEDGED_KILL_S

_READY_RE = re.compile(
    r"shard-worker: shard (?P<shard>\d+) serving on "
    r"(?P<host>[\d.]+):(?P<port>\d+) pid=(?P<pid>\d+)"
)


class WorkerInfo:
    """Mutable per-shard worker state; guarded by the supervisor lock."""

    __slots__ = (
        "shard_id", "proc", "host", "port", "pid", "state",
        "restarts", "next_restart_at", "last_exit_code", "ready",
    )

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.proc: subprocess.Popen | None = None
        self.host: str | None = None
        self.port: int | None = None
        self.pid: int | None = None
        self.state = "starting"  # starting | up | restarting | failed
        self.restarts = 0
        self.next_restart_at = 0.0
        self.last_exit_code: int | None = None
        self.ready = threading.Event()

    def as_dict(self) -> dict:
        payload = {
            "shard": self.shard_id,
            "state": self.state,
            "restarts": self.restarts,
        }
        if self.pid is not None:
            payload["pid"] = self.pid
        if self.port is not None:
            payload["port"] = self.port
        if self.last_exit_code is not None:
            payload["last_exit_code"] = self.last_exit_code
        return payload


class ShardSupervisor:
    """Spawn and babysit one ``repro shard-worker`` process per shard."""

    def __init__(
        self,
        snapshot_dir: str,
        num_shards: int,
        *,
        host: str = "127.0.0.1",
        max_restarts: int = 5,
        fault_specs: dict[int, str] | None = None,
        metrics=None,
        python: str = sys.executable,
    ) -> None:
        if num_shards < 1:
            raise ServiceError("a supervisor needs at least one shard")
        self._snapshot_dir = snapshot_dir
        self._host = host
        self._max_restarts = max_restarts
        self._fault_specs = dict(fault_specs or {})
        self._python = python
        self._lock = threading.Lock()
        self._workers = [WorkerInfo(shard) for shard in range(num_shards)]
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._restart_counter = None
        if metrics is not None:
            self._restart_counter = metrics.registry.counter(
                "repro_shard_worker_restarts_total",
                "Shard worker processes restarted by the supervisor.",
                ("shard",),
            )
            for shard in range(num_shards):
                self._restart_counter.inc(0, shard=shard)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, *, timeout_s: float = 60.0) -> None:
        """Spawn every worker, wait until all are serving, start the
        monitor.  Raises (and cleans up) if any worker misses the
        readiness deadline."""
        with self._lock:
            for info in self._workers:
                self._spawn_locked(info)
        deadline = time.monotonic() + timeout_s
        for info in self._workers:
            if not info.ready.wait(max(0.0, deadline - time.monotonic())):
                self.stop()
                raise ServiceError(
                    f"shard {info.shard_id} worker did not become ready "
                    f"within {timeout_s:.0f}s"
                )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-supervisor", daemon=True
        )
        self._monitor.start()

    def stop(self, *, timeout_s: float = 5.0) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=timeout_s)
            self._monitor = None
        with self._lock:
            procs = [info.proc for info in self._workers if info.proc]
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + timeout_s
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()

    def reload(self, *, timeout_s: float = 60.0) -> None:
        """Rolling restart: every shard gets a fresh worker process.

        Used by compaction (``docs/live_updates.md``): a freshly exec'd
        worker re-resolves the snapshot root's ``CURRENT`` pointer and
        replays the delta log, so after ``reload()`` every process
        serves the new generation.  Each replacement is spawned and
        waited ready *before* the old process is terminated — at most a
        connection-retry blip per shard, never an unavailable window —
        and the restart budget is not consumed (this is an orchestrated
        swap, not a crash)."""
        for shard_id in range(len(self._workers)):
            self._reload_one(shard_id, timeout_s)

    def _reload_one(self, shard_id: int, timeout_s: float) -> None:
        fresh = WorkerInfo(shard_id)
        with self._lock:
            self._spawn_locked(fresh)
        if not fresh.ready.wait(timeout_s):
            if fresh.proc is not None and fresh.proc.poll() is None:
                fresh.proc.kill()
                fresh.proc.wait()
            raise ServiceError(
                f"shard {shard_id} replacement worker did not become ready "
                f"within {timeout_s:.0f}s; the old worker keeps serving"
            )
        with self._lock:
            info = self._workers[shard_id]
            old_proc = info.proc
            info.proc = fresh.proc
            info.host, info.port, info.pid = fresh.host, fresh.port, fresh.pid
            info.state = "up"
            info.ready = fresh.ready
        if old_proc is not None and old_proc.poll() is None:
            old_proc.terminate()
            try:
                old_proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                old_proc.kill()
                old_proc.wait()

    # ------------------------------------------------------------------
    # The async side's view
    # ------------------------------------------------------------------

    def endpoint(self, shard_id: int) -> tuple[str, int]:
        """The worker's current (host, port); raises while it has none."""
        with self._lock:
            info = self._workers[shard_id]
            if info.state == "up" and info.host and info.port:
                return info.host, info.port
            if info.state == "failed":
                retry_after = 30.0  # out of restart budget: page a human
            else:
                retry_after = max(
                    0.1, info.next_restart_at - time.monotonic()
                ) + RESTART_BACKOFF_BASE_S
            raise ShardUnavailableError(
                shard_id,
                f"shard {shard_id} worker is {info.state} "
                f"(restarts={info.restarts})",
                state=info.state,
                retry_after_s=round(retry_after, 3),
            )

    def describe(self) -> list[dict]:
        """Per-shard worker state for ``/healthz``."""
        with self._lock:
            return [info.as_dict() for info in self._workers]

    @property
    def num_shards(self) -> int:
        return len(self._workers)

    @property
    def restarts_total(self) -> int:
        with self._lock:
            return sum(info.restarts for info in self._workers)

    @property
    def degraded(self) -> bool:
        """True while any shard worker is not serving."""
        with self._lock:
            return any(info.state != "up" for info in self._workers)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _spawn_locked(self, info: WorkerInfo) -> None:
        cmd = [
            self._python, "-m", "repro.cli", "shard-worker",
            "--snapshot", self._snapshot_dir,
            "--shard", str(info.shard_id),
            "--bind", self._host,
            "--port", "0",
        ]
        fault = self._fault_specs.get(info.shard_id)
        if fault:
            cmd += ["--fault", fault]
        env = dict(os.environ)
        # The worker must import `repro` exactly as this process does,
        # even when running from a source tree that is not installed.
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        info.proc = proc
        info.state = "starting"
        info.host = info.port = info.pid = None
        info.ready = threading.Event()
        reader = threading.Thread(
            target=self._read_stdout,
            args=(info, proc),
            name=f"shard-worker-{info.shard_id}-stdout",
            daemon=True,
        )
        reader.start()

    def _read_stdout(self, info: WorkerInfo, proc: subprocess.Popen) -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            match = _READY_RE.search(line)
            if match is None:
                continue
            with self._lock:
                if info.proc is proc:  # not superseded by a restart
                    info.host = match.group("host")
                    info.port = int(match.group("port"))
                    info.pid = int(match.group("pid"))
                    info.state = "up"
            info.ready.set()
        # EOF: the process is gone; the monitor handles scheduling.

    def _monitor_loop(self) -> None:
        last_health = time.monotonic()
        while not self._stop.wait(POLL_INTERVAL_S):
            now = time.monotonic()
            with self._lock:
                for info in self._workers:
                    if info.state == "failed":
                        continue
                    exited = (
                        info.proc is not None and info.proc.poll() is not None
                    )
                    if exited and info.state in ("starting", "up"):
                        info.last_exit_code = info.proc.returncode
                        if info.restarts >= self._max_restarts:
                            info.state = "failed"
                        else:
                            info.state = "restarting"
                            info.next_restart_at = now + min(
                                RESTART_BACKOFF_BASE_S * 2 ** info.restarts,
                                RESTART_BACKOFF_MAX_S,
                            )
                    elif info.state == "restarting" and (
                        now >= info.next_restart_at
                    ):
                        info.restarts += 1
                        if self._restart_counter is not None:
                            self._restart_counter.inc(shard=info.shard_id)
                        self._spawn_locked(info)
            if now - last_health >= HEALTH_INTERVAL_S:
                last_health = now
                self._health_check()

    def _health_check(self) -> None:
        with self._lock:
            candidates = [
                (info.proc, info.host, info.port)
                for info in self._workers
                if info.state == "up" and info.host and info.port
            ]
        for proc, host, port in candidates:
            try:
                wire.blocking_call((host, port), timeout=PING_TIMEOUT_S)
            except (OSError, ServiceError):
                # Alive-but-unresponsive: kill it so the exit path (and
                # its restart budget) applies uniformly.
                if proc is not None and proc.poll() is None:
                    proc.kill()

    def __repr__(self) -> str:
        states = ",".join(info.state for info in self._workers)
        return f"ShardSupervisor(shards={len(self._workers)}, states=[{states}])"
