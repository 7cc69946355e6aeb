"""The closed-loop load model: one or two clients, back to back, no pacing.

Each client thread owns one keep-alive ``http.client`` connection and
sends its next planned request as soon as the previous answer's last
byte arrived.  A request is timed from ``conn.request`` to that last
byte; bodies are kept as bytes and parsed after the window, so
client-side JSON decoding is never measured.

The timed window is cut into *slices*.  The clients stop at the end of a
slice and pick the stream up where they left it at the start of the
next, so the benchmark can put other work between slices: the speed
probe of :mod:`bench.calibration` runs before and after every slice,
while the server idles, and the set-up repeats run between groups of
slices, which spreads the window over more of this box's slow drift.
"""

from __future__ import annotations

import gc
import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.loadgen import WorkloadRequest

from bench.calibration import speed_probe
from bench.server import ServerProcess
from bench.streams import READS_PER_WRITE, Plan, clients_of

__all__ = ["ClosedLoop", "Sample", "Slice", "send"]

_HEADERS = {"Content-Type": "application/json"}


@dataclass(slots=True)
class Sample:
    """One request as the client saw it (``status`` 0 = transport error)."""

    request: WorkloadRequest
    start: float
    end: float
    status: int
    body: bytes

    @property
    def is_write(self) -> bool:
        return self.request.path == "/admin/apply_delta"

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass(frozen=True)
class Slice:
    """One uninterrupted stretch of the timed window."""

    samples: tuple[Sample, ...]
    wall_s: float  # first request sent -> last byte received
    probe_s: float  # mean of the speed probes just before and just after

    @property
    def reads(self) -> list[Sample]:
        return [s for s in self.samples if not s.is_write]


def _encode(request: WorkloadRequest) -> bytes:
    return json.dumps(request.body).encode("utf-8")


def send(conn: http.client.HTTPConnection, request: WorkloadRequest,
         payload: bytes | None = None) -> Sample:
    """One timed exchange on ``conn``; transport failures become status 0
    (the caller's connection is closed and reopens on its next request)."""
    if payload is None:
        payload = _encode(request)
    start = time.perf_counter()
    try:
        conn.request(request.method, request.path, body=payload, headers=_HEADERS)
        response = conn.getresponse()
        body = response.read()
        status = response.status
    except (OSError, http.client.HTTPException):
        conn.close()
        body, status = b"", 0
    return Sample(request, start, time.perf_counter(), status, body)


class ClosedLoop:
    """The clients of one workload, resumable from slice to slice."""

    def __init__(self, server: ServerProcess, plan: Plan) -> None:
        self._server = server
        self._clients = clients_of(plan.workload)
        self._reads = [
            [(r, _encode(r)) for r in plan.reads_of(client)]
            for client in range(self._clients)
        ]
        # Only client 0 writes, one batch at a time, so the sequence
        # numbers reach the server in order.
        self._writes = [(w, _encode(w)) for w in plan.writes]
        self._next_read = [0] * self._clients
        self._next_write = 0

    def _client(
        self, client: int, seconds: float, barrier: threading.Barrier
    ) -> list[Sample]:
        samples: list[Sample] = []
        reads = self._reads[client]
        writes = self._writes if client == 0 else []
        conn = self._server.connect()
        try:
            conn.connect()
            barrier.wait(timeout=30.0)
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                position = self._next_read[client]
                if position >= len(reads):
                    break  # the planned stream is drained
                samples.append(send(conn, *reads[position]))
                self._next_read[client] = position + 1
                if (position + 1) % READS_PER_WRITE == 0 \
                        and self._next_write < len(writes):
                    samples.append(send(conn, *writes[self._next_write]))
                    self._next_write += 1
        finally:
            conn.close()
        return samples

    def run_slice(self, seconds: float) -> Slice:
        """Drive the stream for ``seconds`` from where the last slice stopped."""
        barrier = threading.Barrier(self._clients)
        # The collector pausing a client thread mid-request would be
        # charged to the server, and pausing a probe to the box; nothing
        # allocated here forms cycles.
        gc.collect()
        gc.disable()
        try:
            probe_before = speed_probe()
            with ThreadPoolExecutor(
                max_workers=self._clients, thread_name_prefix="bench-client"
            ) as pool:
                futures = [
                    pool.submit(self._client, client, seconds, barrier)
                    for client in range(self._clients)
                ]
                samples = tuple(s for f in futures for s in f.result())
            probe_after = speed_probe()
        finally:
            gc.enable()
        if not samples:
            raise RuntimeError("a slice of the window completed no request")
        wall_s = max(s.end for s in samples) - min(s.start for s in samples)
        return Slice(
            samples=samples, wall_s=wall_s,
            probe_s=(probe_before + probe_after) / 2.0,
        )
