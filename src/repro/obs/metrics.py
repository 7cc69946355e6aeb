"""Dependency-free Prometheus-style metrics.

Three instrument kinds — :class:`Counter` (monotonic), :class:`Gauge`
(set to the current value at observation or scrape time) and
:class:`Histogram` (fixed cumulative buckets plus ``_sum``/``_count``)
— grouped in a :class:`MetricsRegistry` that renders the standard text
exposition format (``text/plain; version=0.0.4``) for ``GET /metrics``.

Labels are declared per family and passed by keyword per observation::

    registry = MetricsRegistry()
    stage = registry.histogram(
        "repro_stage_seconds", "Per-stage latency", labelnames=("stage",)
    )
    stage.observe(0.0123, stage="link")

Everything is lock-guarded per family: shard threads observe
concurrently while the event loop renders a scrape.  There is no global
default registry — each router owns one, so tests and multiple servers
in one process never share counters.

:func:`parse_prometheus_text` is the matching round-trip parser.  It is
used by the test suite and ``tools/http_smoke.py`` to validate that the
renderer emits well-formed exposition, and by the ``repro top``
dashboard to read histograms back; it rejects malformed lines rather
than skipping them, so drift fails loudly.
"""

from __future__ import annotations

import math
import re
import threading

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
    "histogram_quantile",
]

# Seconds; spans the cached tier (~1 ms) through slow cold requests.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    """Canonical sample value: integers stay integral, floats use repr."""
    if value == math.inf:
        return "+Inf"
    if isinstance(value, bool):  # guard: True would render as "1" silently
        raise TypeError("metric values must be numbers, not bool")
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Family:
    """Shared machinery: label validation and the per-labelset table."""

    kind = "untyped"

    def __init__(
        self, name: str, help_text: str, labelnames: tuple[str, ...] = ()
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], object] = {}

    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _render_labels(self, key: tuple[str, ...], extra: str = "") -> str:
        pairs = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def _header(self) -> list[str]:
        help_text = self.help_text.replace("\\", "\\\\").replace("\n", "\\n")
        return [
            f"# HELP {self.name} {help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Family):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(self._key(labels), 0)

    def samples(self) -> dict[tuple[str, ...], float]:
        """Every series' value, keyed by its label values in
        ``labelnames`` order and sorted."""
        with self._lock:
            return dict(sorted(self._series.items()))

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            for key in sorted(self._series):
                lines.append(
                    f"{self.name}{self._render_labels(key)} "
                    f"{_format_value(self._series[key])}"
                )
        return lines


class Gauge(_Family):
    """A value that can go up and down; ``set`` at observation time."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(self._key(labels), 0)

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            for key in sorted(self._series):
                lines.append(
                    f"{self.name}{self._render_labels(key)} "
                    f"{_format_value(self._series[key])}"
                )
        return lines


class _HistogramSeries:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * num_buckets  # per-bucket, not cumulative
        self.total = 0.0
        self.count = 0


class Histogram(_Family):
    """Fixed-bucket latency histogram (cumulative buckets on render).

    Observations land in the first bucket whose upper bound is >= the
    value; values above the last bound land only in ``+Inf``.  Bounds
    are validated strictly increasing at construction so bucket math
    can binary-search.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or bounds[-1] == math.inf:
            raise ValueError("buckets must be strictly increasing and finite")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        # binary search for the first bound >= value
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.buckets[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets) + 1  # + the +Inf bucket
                )
            series.bucket_counts[min(lo, len(self.buckets))] += 1
            series.total += value
            series.count += 1

    def snapshot(self, **labels) -> tuple[list[int], float, int]:
        """(cumulative bucket counts incl. +Inf, sum, count) for one series."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return [0] * (len(self.buckets) + 1), 0.0, 0
            cumulative, running = [], 0
            for count in series.bucket_counts:
                running += count
                cumulative.append(running)
            return cumulative, series.total, series.count

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            for key in sorted(self._series):
                series = self._series[key]
                running = 0
                for bound, count in zip(
                    (*self.buckets, math.inf), series.bucket_counts
                ):
                    running += count
                    le = "+Inf" if bound == math.inf else _format_value(bound)
                    labels = self._render_labels(key, f'le="{le}"')
                    lines.append(f"{self.name}_bucket{labels} {running}")
                suffix = self._render_labels(key)
                lines.append(
                    f"{self.name}_sum{suffix} {_format_value(series.total)}"
                )
                lines.append(f"{self.name}_count{suffix} {running}")
        return lines


class MetricsRegistry:
    """A named collection of metric families with one text renderer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if type(existing) is not type(family) or \
                        existing.labelnames != family.labelnames:
                    raise ValueError(
                        f"metric {family.name!r} re-registered with a "
                        "different type or label set"
                    )
                return existing
            self._families[family.name] = family
            return family

    def counter(
        self, name: str, help_text: str, labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._register(Counter(name, help_text, labelnames))

    def gauge(
        self, name: str, help_text: str, labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames))

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help_text, labelnames, buckets))

    def render(self) -> str:
        """The full exposition document, families in name order."""
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
        lines: list[str] = []
        for family in families:
            lines.extend(family.render())
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Round-trip parsing (tests, smoke tool, dashboard)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def _unescape(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def parse_prometheus_text(text: str) -> dict:
    """Parse an exposition document back into structured samples.

    Returns ``{"samples": {(name, labels_frozenset): value}, "types":
    {name: kind}, "helps": {name: text}}``.  Raises ``ValueError`` on
    any line that is neither a comment, blank, nor a well-formed
    sample — the point is validation, not tolerance.
    """
    samples: dict[tuple[str, frozenset], float] = {}
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: unknown metric type {kind!r}")
            types[name] = kind
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line {line!r}")
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw):
                labels[pair.group("name")] = _unescape(pair.group("value"))
                consumed = pair.end()
            if consumed != len(raw):
                raise ValueError(f"line {lineno}: malformed labels {raw!r}")
        raw_value = match.group("value")
        value = math.inf if raw_value == "+Inf" else float(raw_value)
        samples[(match.group("name"), frozenset(labels.items()))] = value
    return {"samples": samples, "types": types, "helps": helps}


def histogram_quantile(
    buckets: list[tuple[float, float]], quantile: float
) -> float:
    """Estimate a quantile from cumulative ``(upper_bound, count)`` pairs.

    Linear interpolation inside the bucket holding the target rank —
    the same estimate ``histogram_quantile()`` makes in PromQL.  The
    +Inf bucket clamps to the highest finite bound.  Returns 0.0 for an
    empty histogram.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    ordered = sorted(buckets, key=lambda pair: pair[0])
    if not ordered or ordered[-1][1] <= 0:
        return 0.0
    total = ordered[-1][1]
    rank = quantile * total
    previous_bound, previous_count = 0.0, 0.0
    for bound, count in ordered:
        if count >= rank:
            if bound == math.inf:
                return previous_bound
            span = count - previous_count
            if span <= 0:
                return bound
            fraction = (rank - previous_count) / span
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = (
            bound if bound != math.inf else previous_bound, count
        )
    return previous_bound
