"""MAE-centered metrics and reports for trained count regressors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .featurize import FeatureDataset, apply_normalization
from .model import RegressorParams, count_from_output, forward_batch

__all__ = [
    "EvalReport",
    "mae",
    "report_from_predictions",
    "evaluate",
    "median_count",
]


@dataclass(frozen=True)
class EvalReport:
    """Continuous and rounded MAE plus a per-true-count error breakdown.

    ``continuous`` and ``rounded`` are the per-window predictions the
    metrics were computed from, in the order of the evaluated windows.
    """

    n_test_windows: int
    mae_continuous: float
    mae_rounded: float
    exact_count_accuracy: float
    per_count: tuple[tuple[int, int, float], ...]  # (true count, n windows, rounded MAE)
    continuous: np.ndarray = field(compare=False, repr=False)
    rounded: np.ndarray = field(compare=False, repr=False)


def mae(predictions, targets) -> float:
    """Mean absolute error between equal-length, non-empty sequences."""
    p = np.asarray(predictions, dtype=np.float64).reshape(-1)
    t = np.asarray(targets, dtype=np.float64).reshape(-1)
    if p.size == 0 or p.size != t.size:
        raise ValueError("predictions and targets must be non-empty and equal-length")
    return float(np.mean(np.abs(p - t)))


def report_from_predictions(continuous, targets) -> EvalReport:
    """Assemble an EvalReport from continuous predictions, rounded by ``count_from_output``."""
    cont = np.asarray(continuous, dtype=np.float64).reshape(-1)
    rnd = count_from_output(cont)
    y = np.asarray(targets, dtype=np.int64).reshape(-1)
    if cont.size != y.size or y.size == 0:
        raise ValueError("predictions and targets must be non-empty and equal-length")
    rounded_err = np.abs(rnd - y)
    per_count = tuple(
        (int(c), int(np.sum(y == c)), float(np.mean(rounded_err[y == c])))
        for c in np.unique(y)
    )
    return EvalReport(
        n_test_windows=int(y.size),
        mae_continuous=mae(cont, y),
        mae_rounded=float(np.mean(rounded_err)),
        exact_count_accuracy=float(np.mean(rounded_err == 0)),
        per_count=per_count,
        continuous=cont,
        rounded=rnd,
    )


def evaluate(params: RegressorParams, test_dataset: FeatureDataset) -> EvalReport:
    """Evaluate a trained model on a raw (unnormalized) feature dataset.

    The dataset must carry the same feature layout the model's
    normalization statistics were fit on; invalid windows are excluded.
    """
    if params.norm_stats is None:
        raise ValueError("model carries no normalization statistics")
    if test_dataset.feature_spec.features != params.norm_stats.input_feature_ids:
        raise ValueError("dataset feature layout does not match the model's feature spec")
    subset = test_dataset.rows(test_dataset.valid)
    if subset.n_windows == 0:
        raise ValueError("no valid windows to evaluate")
    X = apply_normalization(subset.X, params.norm_stats)
    return report_from_predictions(forward_batch(params, X), subset.y)


def median_count(train_y) -> int:
    """Integer median of the training counts (lower middle on even length).

    The median minimizes MAE among constant predictors, so predicting it
    everywhere is the baseline any trained model must beat.
    """
    y = np.sort(np.asarray(train_y, dtype=np.int64).reshape(-1))
    if y.size == 0:
        raise ValueError("train_y must be non-empty")
    return int(y[(y.size - 1) // 2])
