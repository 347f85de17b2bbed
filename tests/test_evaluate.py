import math

import numpy as np
import pytest

from feeder_nilm.evaluate import (
    evaluate,
    mae,
    median_count,
    report_from_predictions,
)
from feeder_nilm.featurize import FeatureDataset, FeatureSpec, NormStats, apply_normalization
from feeder_nilm.model import count_from_output, forward_batch, init_params


def dataset_with(X, y, features):
    n = X.shape[0]
    return FeatureDataset(
        X,
        y,
        np.arange(n, dtype=float),
        np.ones(n, dtype=bool),
        5.0,
        5.0,
        FeatureSpec(features),
    )


def identity_stats(features, width):
    return NormStats(features, tuple(range(width)), np.zeros(width), np.ones(width))


class TestMae:
    def test_perfect(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_off_by_one(self):
        assert mae([1, 2, 3], [2, 3, 4]) == 1.0

    def test_mixed(self):
        assert mae([1.0, 2.0], [2.0, 4.0]) == 1.5

    def test_rejects_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            mae([1], [1, 2])
        with pytest.raises(ValueError):
            mae([], [])

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        p = rng.normal(0, 2, 50)
        t = rng.normal(0, 2, 50)
        assert mae(p + 3.7, t + 3.7) == pytest.approx(mae(p, t), rel=1e-12)
        assert mae(t, p) == pytest.approx(mae(p, t), rel=1e-12)


class TestReports:
    def test_perfect_predictions_all_zero_report(self):
        y = np.array([0, 1, 2, 2, 3])
        report = report_from_predictions(y.astype(float), y)
        assert report.mae_continuous == 0.0
        assert report.mae_rounded == 0.0
        assert report.exact_count_accuracy == 1.0
        assert all(err == 0.0 for _, _, err in report.per_count)

    def test_zero_weight_model_on_zero_counts(self):
        # Softplus(0) = ln 2 rounds to 1, so the rounded MAE on all-zero targets is 1.
        params = init_params((2, 3, 1), seed=0)
        for w in params.weights:
            w[:] = 0.0
        features = ("i_rms", "thd")
        rng = np.random.default_rng(1)
        data = dataset_with(rng.normal(0, 1, (8, 2)), np.zeros(8, dtype=int), features)
        report = evaluate(params, identity_stats(features, 2), data)
        assert report.mae_rounded == 1.0
        assert report.mae_continuous == pytest.approx(math.log(2.0), abs=1e-12)
        assert report.exact_count_accuracy == 0.0

    def test_rounded_mae_is_definitionally_consistent(self):
        params = init_params((2, 4, 1), seed=3)
        features = ("i_rms", "thd")
        stats = identity_stats(features, 2)
        rng = np.random.default_rng(2)
        data = dataset_with(rng.normal(0, 1, (16, 2)), rng.integers(0, 4, 16), features)
        report = evaluate(params, stats, data)
        rounded = count_from_output(forward_batch(params, apply_normalization(data.X, stats)))
        assert np.array_equal(report.rounded, rounded)
        assert report.mae_rounded == mae(rounded, data.y)
        assert report.exact_count_accuracy == np.mean(rounded == data.y)

    def test_spec_mismatch_rejected(self):
        params = init_params((2, 3, 1), seed=0)
        data = dataset_with(np.zeros((4, 2)), np.zeros(4, dtype=int), ("i_rms", "h3"))
        with pytest.raises(ValueError):
            evaluate(params, identity_stats(("i_rms", "thd"), 2), data)

    def test_accuracy_equals_fraction_of_zero_rounded_residuals(self):
        y = np.array([0, 1, 2, 3, 3])
        rounded = np.array([0, 2, 2, 2, 3])
        report = report_from_predictions(rounded.astype(float), y)
        assert report.exact_count_accuracy == pytest.approx(3 / 5)
        assert report.n_test_windows == 5


def baseline(train_y, test_y):
    """The training median predicted for every test window, reported as eval reports it."""
    return report_from_predictions(np.full(len(test_y), median_count(train_y), dtype=float), test_y)


class TestBaseline:
    def test_constant_targets(self):
        report = baseline([2, 2, 2], [2, 2, 2, 2])
        assert report.mae_rounded == 0.0
        assert report.exact_count_accuracy == 1.0

    def test_median_two_on_spread_targets(self):
        report = baseline([2, 2, 2, 0, 4], [0, 4])
        assert report.mae_rounded == 2.0

    def test_median_minimizes_mae_brute_force(self):
        # Exhaustive oracle: no integer constant beats the median on the train targets.
        train_y = np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
        chosen = median_count(train_y)
        chosen_mae = mae(np.full(train_y.size, chosen), train_y)
        brute = min(mae(np.full(train_y.size, c), train_y) for c in range(0, 5))
        assert chosen_mae == pytest.approx(brute)

    def test_lower_median_on_even_length(self):
        assert median_count([0, 1, 2, 3]) == 1
        assert median_count([5]) == 5
