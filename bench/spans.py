"""In-memory span recording around the benchmark's own calls into layers.

Spans are recorded from the benchmark's files, not from inside the
program: one span per call into a layer, with its name, start, end, the
span that caused it and a request identifier shared by the spans of one
request.  They are kept in memory and written out once, when the run
ends; a disabled recorder records nothing, which is how the tracing
overhead is measured.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Append-only span list; ``span()`` is the only way to add one."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, *, request: str, parent: int | None = None):
        """Time the block as one span; yields the span's id (or None)."""
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "request": request,
            "parent": parent,
            "start": time.perf_counter(),
            "end": None,
        }
        # list.append is atomic under the GIL, so client threads may share
        # one recorder; the id is only a hint then, never used as a parent.
        self.spans.append(record)
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()

    def add(self, name: str, *, request: str, start: float, end: float) -> None:
        """Record an already-timed interval (the client loop's requests)."""
        if self.enabled:
            self.spans.append({
                "id": len(self.spans), "name": name, "request": request,
                "parent": None, "start": start, "end": end,
            })

    def write(self, path: Path) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(self.spans)
