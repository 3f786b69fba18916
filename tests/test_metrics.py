import dataclasses
import math

import numpy as np
import pytest

from ncsmode.cli import load_config
from ncsmode.metrics import aggregate, histogram_edges, mde_percent, rmse
from ncsmode.sim import run_monte_carlo


def test_mde_percent_examples():
    assert mde_percent([1, 2, 3], [1, 2, 3]) == 0.0
    assert mde_percent([1, 2, 3], [2, 3, 4]) == 100.0
    assert mde_percent([1, 1, 1, 1], [1, 1, 1, 2]) == 25.0


def test_mde_percent_length_mismatch():
    with pytest.raises(ValueError):
        mde_percent([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        mde_percent([], [])


def test_rmse_examples():
    perfect = np.ones((5, 2))
    assert rmse(perfect, perfect, 0) == 0.0
    shifted = perfect + np.array([2.0, 0.0])
    assert rmse(shifted, perfect, 0) == pytest.approx(2.0)
    true = np.array([[3.0], [4.0]])
    est = np.zeros((2, 1))
    assert rmse(true, est, 0) == pytest.approx(math.sqrt(12.5))


def test_rmse_validation():
    with pytest.raises(ValueError):
        rmse(np.ones((3, 2)), np.ones((4, 2)), 0)
    with pytest.raises(ValueError):
        rmse(np.ones((3, 2)), np.ones((3, 2)), 2)


def test_histogram_edges_partition():
    edges = histogram_edges(2.0)
    assert edges[0] == 0.0 and edges[-1] == 100.0
    assert len(edges) == 51
    edges = histogram_edges(3.0)  # 100 not divisible by 3: last bin is partial
    assert edges[-2] == 99.0 and edges[-1] == 100.0
    for k in range(1, 401):  # 100 / k: exactly k bins, none of zero width
        edges = histogram_edges(100 / k)
        assert len(edges) == k + 1 and edges[0] == 0.0 and edges[-1] == 100.0, k
        assert np.all(np.diff(edges) > 0.0), k
        assert np.diff(edges).min() > 0.5 * (100 / k), k
    with pytest.raises(ValueError):
        histogram_edges(0.0)


@pytest.fixture(scope="module")
def small_records():
    cfg = dataclasses.replace(load_config("cstr5").trial, steps=30)
    return list(run_monte_carlo(cfg, 8, 13, ("alg1", "imm")))


def test_aggregate_single_trial(small_records):
    rec = small_records[0]
    summary = aggregate([rec])
    stats = summary.estimators["alg1"]
    assert stats.mean_mde == pytest.approx(
        mde_percent(rec.true_modes, rec.est_modes["alg1"])
    )
    assert stats.mean_rmse[0] == pytest.approx(
        rmse(rec.true_states[1:], rec.est_states["alg1"], 0)
    )


def test_aggregate_histogram_covers_all_trials(small_records):
    summary = aggregate(small_records, bin_width=2.0)
    for stats in summary.estimators.values():
        assert stats.hist_counts.sum() == summary.n_trials - summary.n_failures
        assert np.all(stats.mde_per_trial >= 0.0)
        assert np.all(stats.mde_per_trial <= 100.0)


def test_aggregate_order_within_tolerance(small_records):
    fwd = aggregate(small_records)
    rev = aggregate(list(reversed(small_records)))
    again = aggregate(small_records)
    for name in fwd.estimators:
        assert fwd.estimators[name].mean_mde == again.estimators[name].mean_mde
        assert abs(fwd.estimators[name].mean_mde - rev.estimators[name].mean_mde) < 1e-12
        assert np.array_equal(
            fwd.estimators[name].mean_rmse, again.estimators[name].mean_rmse
        )


def test_aggregate_excludes_failed_trials(small_records):
    broken = dataclasses.replace(small_records[0])
    broken.failed = True
    broken.fail_step = 3
    summary = aggregate([broken] + small_records[1:])
    assert summary.n_failures == 1
    assert summary.n_trials == len(small_records)
    with pytest.raises(ValueError):
        aggregate([broken])


def test_summary_serialization(small_records):
    summary = aggregate(small_records)
    data = summary.to_dict()
    assert data["trials"] == len(small_records)
    assert set(data["estimators"]) == {"alg1", "imm"}
    table = summary.format_table()
    assert "mean %MDE" in table and "alg1" in table


def test_mean_of_extreme_trials():
    summary = aggregate([_make_record(0), _make_record(100)])
    assert summary.estimators["alg1"].mean_mde == pytest.approx(50.0)


def _make_record(mde_target):
    """Tiny synthetic record with the requested detection error percent."""
    from ncsmode.sim import TrialRecord

    steps = 10
    wrong = int(round(steps * mde_target / 100.0))
    true_modes = np.ones(steps, dtype=int)
    est = np.ones(steps, dtype=int)
    est[:wrong] = 2
    zeros = np.zeros((steps + 1, 1))
    return TrialRecord(
        steps=steps, estimators=("alg1",), true_modes=true_modes,
        est_modes={"alg1": est}, true_states=zeros,
        est_states={"alg1": np.zeros((steps, 1))}, y=zeros,
        u=np.zeros((steps + 1, 1)), u_applied=np.zeros((steps, 1)),
        fallbacks={"alg1": np.zeros(steps, dtype=bool)},
    )
