"""Regime witnesses: the thresholds that make a run invalid."""

import pytest

from bench import witness
from bench.server import assert_pristine
from bench.streams import WORKLOADS

CLEAN = {"worker_restarts": 0, "server_errors_5xx": 0}


def test_every_workload_has_a_band():
    assert set(witness.HIT_SHARE_BANDS) == set(WORKLOADS)


@pytest.mark.parametrize(
    "workload, share, valid",
    [
        ("hot_topics", 1.0, True),
        ("hot_topics", 0.95, True),
        ("hot_topics", 0.949, False),
        ("hot_topics_workers", 0.94, False),
        ("cold_tail", 0.0, True),
        ("cold_tail", 0.02, True),
        ("cold_tail", 0.021, False),
        ("read_write_mix", 0.39, False),
        ("read_write_mix", 0.58, True),
        ("read_write_mix", 0.76, False),
    ],
)
def test_hit_share_bands(workload, share, valid):
    found = witness.violations(workload, expansion_hit_share=share, **CLEAN)
    assert (found == []) is valid


def test_worker_restarts_and_5xx_invalidate_a_run():
    assert witness.violations(
        "hot_topics", expansion_hit_share=1.0,
        worker_restarts=1, server_errors_5xx=0,
    )
    assert witness.violations(
        "hot_topics", expansion_hit_share=1.0,
        worker_restarts=0, server_errors_5xx=2,
    )


def test_a_served_from_directory_is_not_pristine(tmp_path):
    assert_pristine(tmp_path)
    (tmp_path / "recent_queries.json").write_text("{}")
    with pytest.raises(witness.RegimeError):
        assert_pristine(tmp_path)
    (tmp_path / "recent_queries.json").unlink()
    (tmp_path / "updates").mkdir()
    with pytest.raises(witness.RegimeError):
        assert_pristine(tmp_path)


def test_exit_codes_are_distinct_and_non_zero():
    assert len({0, witness.EXIT_INCORRECT, witness.EXIT_INVALID}) == 3
