"""Request-scoped tracing for the serving stack.

A :class:`Trace` is a per-request recorder of *spans*: named, timed
stages of the serving pipeline (``link`` → ``expand`` → ``cycle_mine``
→ ``rank`` → ``merge``), each optionally labelled with the shard that
did the work and whether a cache answered it.  The active trace rides a
:mod:`contextvars` context variable, so instrumentation sites never
take a trace parameter — they call :func:`span` and record into
whatever trace the current request activated (or into nothing, cheaply,
when no trace is active).

Concurrency model:

* **asyncio** — tasks copy the ambient context at creation, so a trace
  activated before ``ensure_future`` is visible inside the task, and
  two concurrent requests each see only their own trace.
* **threads** — a callable handed to a thread pool (directly or through
  the event loop's executor hop) does *not* carry context into the
  worker thread.  Wrap the callable with :func:`carry_context` at the
  submission site; :class:`~repro.service.async_router.ExecutorShardAdapter`
  does exactly that, which is what makes per-shard spans land in the
  right request's trace.
* **span recording** is lock-guarded, because shard threads append
  concurrently into one request's trace.

Span semantics: serial stages (``link``, ``merge``) appear once per
request and sum to wall time; fan-out stages (``rank``, and ``expand``
under batching) may record one span *per shard*, so a stage total can
legitimately exceed request wall time — it is busy time, like CPU
seconds.  ``docs/observability.md`` documents the model.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Trace",
    "current_trace",
    "start_trace",
    "span",
    "annotate",
    "add_counts",
    "carry_context",
]

_current_trace: ContextVar["Trace | None"] = ContextVar(
    "repro_current_trace", default=None
)
# Label dict of the innermost span open in this context (add_counts).
_open_span: ContextVar["dict | None"] = ContextVar(
    "repro_open_span", default=None
)
_trace_ids = itertools.count(1)


@dataclass(slots=True)
class Span:
    """One completed stage timing inside a trace.

    ``start_ms`` is the offset from the trace's own start, so a span
    list reads as a timeline without absolute clocks leaking into
    payloads.
    """

    stage: str
    start_ms: float
    duration_ms: float
    shard: int | None = None
    labels: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        payload = {
            "stage": self.stage,
            "start_ms": round(self.start_ms, 3),
            "duration_ms": round(self.duration_ms, 3),
        }
        if self.shard is not None:
            payload["shard"] = self.shard
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload


class Trace:
    """Span recorder for one request.

    Traces are cheap (one lock, one list) because one is created for
    *every* request — instrumentation is always-on, never sampled.
    """

    __slots__ = ("trace_id", "_origin", "_lock", "_spans", "labels")

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or f"t{next(_trace_ids):08d}"
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self.labels: dict = {}

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, stage: str, *, shard: int | None = None, **labels):
        """Time a stage; yields a mutable label dict the body may extend
        (e.g. set ``cached`` once the cache answered).  A ``shard`` key
        placed in that dict overrides the ``shard`` argument."""
        started = time.perf_counter()
        mutable: dict = dict(labels)
        token = _open_span.set(mutable)
        try:
            yield mutable
        finally:
            _open_span.reset(token)
            ended = time.perf_counter()
            self.add(
                stage,
                duration_ms=(ended - started) * 1000.0,
                start_ms=(started - self._origin) * 1000.0,
                shard=mutable.pop("shard", shard),
                **mutable,
            )

    def add(
        self,
        stage: str,
        duration_ms: float,
        *,
        start_ms: float | None = None,
        shard: int | None = None,
        **labels,
    ) -> None:
        """Record an externally timed span."""
        if start_ms is None:
            start_ms = (time.perf_counter() - self._origin) * 1000.0 - duration_ms
        entry = Span(
            stage=stage,
            start_ms=max(0.0, start_ms),
            duration_ms=duration_ms,
            shard=shard,
            labels=labels,
        )
        with self._lock:
            self._spans.append(entry)

    def annotate(self, **labels) -> None:
        """Attach request-level labels (endpoint, rank_ahead, ...)."""
        with self._lock:
            self.labels.update(labels)

    # -- reading -------------------------------------------------------

    @property
    def spans(self) -> tuple[Span, ...]:
        with self._lock:
            return tuple(self._spans)

    def stage_totals_ms(self) -> dict[str, float]:
        """Busy milliseconds per stage (fan-out stages sum over shards)."""
        totals: dict[str, float] = {}
        for entry in self.spans:
            totals[entry.stage] = totals.get(entry.stage, 0.0) + entry.duration_ms
        return {stage: round(ms, 3) for stage, ms in totals.items()}

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "labels": dict(self.labels),
            "spans": [entry.as_dict() for entry in self.spans],
            "stage_totals_ms": self.stage_totals_ms(),
        }

    def __repr__(self) -> str:
        return f"Trace({self.trace_id}, spans={len(self.spans)})"


def current_trace() -> Trace | None:
    """The trace of the request running in this context, if any."""
    return _current_trace.get()


@contextmanager
def start_trace(trace: Trace | None = None):
    """Activate a trace for the duration of the block and yield it.

    Nested activations stack: the inner trace wins inside the block and
    the outer one is restored afterwards (contextvar token semantics).
    """
    active = trace or Trace()
    token = _current_trace.set(active)
    try:
        yield active
    finally:
        _current_trace.reset(token)


@contextmanager
def span(stage: str, *, shard: int | None = None, **labels):
    """Record a span into the current trace; a no-op without one.

    Always yields a mutable dict so call sites can set labels
    unconditionally — when no trace is active the dict is discarded.
    """
    trace = _current_trace.get()
    if trace is None:
        yield dict(labels)
        return
    with trace.span(stage, shard=shard, **labels) as mutable:
        yield mutable


def annotate(**labels) -> None:
    """Label the current trace; a no-op without one."""
    trace = _current_trace.get()
    if trace is not None:
        trace.annotate(**labels)


def add_counts(**counts) -> None:
    """Add ``counts`` onto the labels of the innermost span open in this
    context; a no-op without one.

    This is how code *below* an instrumentation site reports how much
    work it did (``cycle_mine``: ``roots``, ``emitted``, ``kept``)
    without taking a span parameter.  Values accumulate, so a span over
    several mining calls carries their totals.
    """
    labels = _open_span.get()
    if labels is not None:
        for name, value in counts.items():
            labels[name] = labels.get(name, 0) + value


def carry_context(fn):
    """Bind the *current* context (active trace included) to ``fn``.

    A thread pool runs callables in whatever context the worker thread
    happens to have — i.e. none.
    ``pool.submit(carry_context(fn), *args)`` runs ``fn`` inside a copy
    of the submitting request's context instead, so spans recorded on
    the worker thread reach the right trace.  The captured context is
    re-copied per invocation (``Context.run`` is not re-entrant), so one
    wrapped callable is safe to fan out across a whole ``pool.map``.
    """
    ctx = copy_context()

    def bound(*args, **kwargs):
        return ctx.copy().run(fn, *args, **kwargs)

    return bound
