"""The one percentile rule: a tail is reported only when supported."""

import pytest

from bench import stats


def test_nearest_rank_on_known_arrays():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.median([4.0]) == 4.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize(
    "count, expected",
    [
        (1, 50.0),       # nothing is supported: fall back to the median
        (19, 50.0),      # 9 beyond the median
        (21, 50.0),      # exactly 10 beyond the median
        (40, 75.0),      # 10 beyond p75
        (100, 90.0),     # 10 beyond p90, 5 beyond p95
        (199, 90.0),
        (200, 95.0),     # 10 beyond p95
        (999, 95.0),
        (1000, 99.0),    # 10 beyond p99
        (10_000, 99.9),
        (100_000, 99.99),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.supported_tail(count) == expected


def test_summary_carries_the_sample_count():
    summary = stats.summarize([float(v) for v in range(1, 201)])
    assert summary.count == 200
    assert summary.p50 == 100.0
    assert summary.tail_percentile == 95.0
    assert summary.tail == 190.0
    # ten samples really do lie beyond the reported tail
    assert sum(v > summary.tail for v in range(1, 201)) == stats.MIN_BEYOND
