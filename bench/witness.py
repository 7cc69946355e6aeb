"""Regime witnesses: is the run measuring what its workload claims?

A workload's numbers only mean something while it sits in its regime —
``hot_topics`` served from the expansion caches, ``cold_tail`` missing
them.  A run outside its regime is *invalid*, not slow: the command
exits with :data:`EXIT_INVALID` and prints no metrics for it.
"""

from __future__ import annotations

__all__ = [
    "EXIT_INCORRECT",
    "EXIT_INVALID",
    "HIT_SHARE_BANDS",
    "RegimeError",
    "violations",
]

EXIT_INCORRECT = 1  # an answer differed from the oracle, or a request failed
EXIT_INVALID = 3  # a regime witness failed



class RegimeError(RuntimeError):
    """The run left its workload's regime; its numbers must not be used."""


# Allowed share of reads answered with `expansion_cached: true`.
HIT_SHARE_BANDS = {
    "hot_topics": (0.95, 1.0),
    "hot_topics_workers": (0.95, 1.0),
    "cold_tail": (0.0, 0.02),
    # Each write evicts every cached expansion, and the next ~64 reads
    # draw ~26 distinct heads from Zipf(1.1) over 100: ~0.58 by design.
    "read_write_mix": (0.40, 0.75),
}


def violations(
    workload: str,
    *,
    expansion_hit_share: float,
    worker_restarts: int,
    server_errors_5xx: int,
) -> list[str]:
    """Human-readable reasons this run is invalid (empty = valid)."""
    found = []
    low, high = HIT_SHARE_BANDS[workload]
    if not low <= expansion_hit_share <= high:
        found.append(
            f"expansion hit share {expansion_hit_share:.4f} outside "
            f"[{low}, {high}] for {workload}"
        )
    if worker_restarts > 0:
        found.append(f"{worker_restarts} shard worker restart(s) during the run")
    if server_errors_5xx > 0:
        found.append(f"the server answered {server_errors_5xx} request(s) with 5xx")
    return found
