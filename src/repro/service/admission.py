"""Load shedding and per-client admission control for the HTTP front end.

Two independent gates protect the serving stack once real overload
arrives (the loadgen harness in :mod:`repro.loadgen` is what generates
it; ``docs/loadgen.md`` shows the two proven working together):

* **bounded admission queue** — at most ``queue_limit`` sheddable
  requests (``POST /expand`` / ``/search`` / ``/batch_expand``) may be
  in flight at once.  Request ``queue_limit + 1`` is refused *before*
  any router work happens with a structured ``429 over_capacity`` and a
  ``Retry-After`` header, so an overloaded server degrades into cheap
  refusals instead of unbounded queueing;
* **per-client token buckets** — each client (the ``X-Client-Id``
  request header, falling back to the peer address) earns
  ``client_rate`` admissions per second up to a burst of
  ``client_burst``.  A flooding client exhausts *its own* bucket and is
  refused with ``429 client_rate_limited`` while polite clients keep
  being admitted — one greedy client cannot starve the rest or eat the
  whole queue.

The client gate runs first (a flood is attributed to its sender), the
queue second (the global backstop).  The controller keeps admission
*state* only — queue depth, its peak, the buckets — and counts nothing:
the front end counts each refusal once, by ``decision.reason``, in
``repro_shed_total{reason}``, and ``/healthz``, ``/stats`` and the
``shed.`` line of ``repro top`` render that family beside
:meth:`AdmissionController.snapshot`.

Everything here is deterministic given a ``clock``: tests inject a fake
monotonic clock and assert exact admit/refuse sequences.  The default
(``AdmissionPolicy()``, both knobs ``None``) disables both gates, which
is also what :class:`~repro.service.http.HttpFrontEnd` does when no
policy is attached.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import ServiceError

__all__ = ["AdmissionPolicy", "AdmissionDecision", "AdmissionController",
           "SHED_OVER_CAPACITY", "SHED_CLIENT_RATE"]

SHED_OVER_CAPACITY = "over_capacity"
SHED_CLIENT_RATE = "client_rate_limited"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Tuning knobs (``docs/operations.md`` has sizing guidance).

    ``queue_limit`` bounds concurrently admitted sheddable requests;
    ``client_rate``/``client_burst`` parameterise the per-client token
    buckets.  A ``None`` limit/rate disables that gate; both ``None``
    (the default) disables admission control entirely.
    """

    queue_limit: int | None = None
    client_rate: float | None = None
    client_burst: float = 8.0
    # Retry-After for queue refusals; bucket refusals compute their own
    # (time until the client's next token accrues).
    retry_after_s: float = 1.0
    # Bound on the bucket table so arbitrary client ids cannot grow
    # memory without limit; the least-recently-seen client is evicted.
    max_tracked_clients: int = 4096

    def __post_init__(self) -> None:
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ServiceError("queue_limit must be >= 1 (or None to disable)")
        if self.client_rate is not None and self.client_rate <= 0:
            raise ServiceError("client_rate must be > 0 (or None to disable)")
        if self.client_burst < 1:
            raise ServiceError("client_burst must be >= 1")
        if self.retry_after_s <= 0:
            raise ServiceError("retry_after_s must be > 0")
        if self.max_tracked_clients < 1:
            raise ServiceError("max_tracked_clients must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.queue_limit is not None or self.client_rate is not None


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission attempt.

    On refusal, ``reason`` is the machine-readable error code served in
    the 429 envelope and ``retry_after_s`` the wait the client is told.
    """

    admitted: bool
    reason: str | None = None
    retry_after_s: float = 0.0


class _TokenBucket:
    __slots__ = ("tokens", "updated")

    def __init__(self, tokens: float, updated: float) -> None:
        self.tokens = tokens
        self.updated = updated


class AdmissionController:
    """Admission state: the in-flight count plus per-client buckets.

    ``admit()`` either takes one queue slot (caller MUST pair it with
    ``release()``) or refuses with a reason; nothing else mutates the
    queue depth.  Thread-safe — the HTTP front end calls it from the
    event loop, but ``/stats`` snapshots and tests may come from other
    threads.
    """

    def __init__(
        self, policy: AdmissionPolicy, *, clock=time.monotonic
    ) -> None:
        self.policy = policy
        self._clock = clock
        self._lock = threading.Lock()
        self._inflight = 0
        self._peak_inflight = 0
        # client id -> bucket, ordered by last admission attempt so the
        # table can evict the least-recently-seen client when full.
        self._buckets: dict[str, _TokenBucket] = {}

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------

    def admit(self, client: str) -> AdmissionDecision:
        """One sheddable request asks in; refusals never take a slot."""
        policy = self.policy
        with self._lock:
            if policy.client_rate is not None:
                wait = self._take_token(client or "-", policy)
                if wait is not None:
                    return AdmissionDecision(
                        False, SHED_CLIENT_RATE, retry_after_s=wait
                    )
            if policy.queue_limit is not None \
                    and self._inflight >= policy.queue_limit:
                return AdmissionDecision(
                    False, SHED_OVER_CAPACITY,
                    retry_after_s=policy.retry_after_s,
                )
            self._inflight += 1
            self._peak_inflight = max(self._peak_inflight, self._inflight)
            return AdmissionDecision(True)

    def release(self) -> None:
        """Return the slot of one previously admitted request."""
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1

    def _take_token(self, client: str, policy: AdmissionPolicy) -> float | None:
        """Refill-then-spend on the client's bucket; returns the wait in
        seconds until the next token when the bucket is empty, None when
        a token was spent.  Caller holds the lock."""
        now = self._clock()
        bucket = self._buckets.pop(client, None)
        if bucket is None:
            bucket = _TokenBucket(float(policy.client_burst), now)
        else:
            bucket.tokens = min(
                float(policy.client_burst),
                bucket.tokens + (now - bucket.updated) * policy.client_rate,
            )
            bucket.updated = now
        # Re-insertion keeps the table ordered by last attempt (LRU).
        self._buckets[client] = bucket
        while len(self._buckets) > policy.max_tracked_clients:
            del self._buckets[next(iter(self._buckets))]
        if bucket.tokens >= 1.0:
            bucket.tokens -= 1.0
            return None
        return max(
            (1.0 - bucket.tokens) / policy.client_rate, 0.001
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._inflight

    def snapshot(self) -> dict:
        """JSON-ready state for ``/healthz``, ``/stats`` and the
        dashboard's ``shed.`` line (the front end adds the refusals)."""
        policy = self.policy
        with self._lock:
            return {
                "queue_depth": self._inflight,
                "queue_limit": policy.queue_limit,
                "peak_queue_depth": self._peak_inflight,
                "client_rate": policy.client_rate,
                "client_burst": policy.client_burst,
                "clients_tracked": len(self._buckets),
            }

    def __repr__(self) -> str:
        return (
            f"AdmissionController(queue={self.queue_depth}/"
            f"{self.policy.queue_limit})"
        )
