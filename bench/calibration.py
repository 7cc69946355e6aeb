"""How fast is this box right now?  The probe the timings are scaled by.

The boxes this benchmark runs on are a few cores of a shared host, and
their speed is not constant: a core runs at full speed or about 1.4x
slower (a busy neighbour on the host), and flips between the two at
anything from half a second to several minutes.  A run that falls into a
slow stretch reads 30-40 % worse on every timing, which is more than any
bound in ``BENCHMARK.json`` — and no statistic *inside* the run can see
it, because the whole run is slow.

So the benchmark measures the box next to the program.
:func:`speed_probe` times a fixed piece of pure-Python work that shares
nothing with the program under test (interpreter arithmetic, dict and
sort traffic, a JSON round trip — the instruction mix of the server, not
its code).  It runs immediately before and after every slice of the
timed window, while the server idles, and the slice's figures are scaled
by ``probe time / REFERENCE_S``: a slice measured on a core running 1.4x
slow is reported as what it would have read on a quiet one.  A change to
the program cannot move the probe, so a real gain or regression passes
through unscaled.

Measured on 10 runs per workload with another seed each, inter-quartile
spread / median of the per-run figures, raw -> scaled: throughput
0.18-0.26 -> 0.05-0.10, p50 0.18-0.27 -> 0.04-0.10, p95 0.16-0.28 ->
0.05-0.11 (bench/README.md, "Steadiness").
"""

from __future__ import annotations

import json
import time

__all__ = ["REFERENCE_S", "speed_probe"]

# What the probe takes on a quiet core of the box the bounds were
# measured on.  Only ratios matter — both sides of a comparison are
# scaled by the same constant — so on another box this merely sets the
# unit: "milliseconds on a core where the probe takes REFERENCE_S".
REFERENCE_S = 0.062

_WORDS = tuple(f"w{i * 7919 % 10007}" for i in range(4000))


def speed_probe() -> float:
    """Seconds the fixed work takes now (about :data:`REFERENCE_S`)."""
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    for _ in range(8):
        counts: dict[str, int] = {}
        for word in _WORDS:
            counts[word] = counts.get(word, 0) + len(word)
        ranked = sorted(counts.items(), key=lambda item: (item[1], item[0]))
        echoed = json.loads(json.dumps(ranked[:1500]))
        " ".join(word for word, _ in echoed).split()
    return time.perf_counter() - start
