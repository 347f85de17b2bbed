"""Rolling-window feature extraction, feature ranking, and normalization.

Turns an aligned feeder (voltage, current) pair into a rectangular
dataset: one row of window features x_t next to the integer target y_t
(number of medical devices running within the window). Feature columns
follow the order given in the FeatureSpec and that order is frozen into
dataset files.

Windows start on the stride grid, so the trace is cut into blocks of
gcd(window, stride) samples; every per-sample quantity a feature needs is
reduced once per block, and each window is built from its blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import signals
from .signals import Waveform, wrap_phase
from .simulate import window_targets

__all__ = [
    "FEATURE_IDS",
    "FeatureSpec",
    "FeatureDataset",
    "NormStats",
    "evaluate_window",
    "featurize",
    "rank_features",
    "fit_normalization",
    "apply_normalization",
]

# Windows are evaluated in chunks: the samples of a chunk's blocks, and the
# block series its windows gather, stay near this size, so elementwise
# temporaries never span the trace.
CHUNK_BYTES = 4 << 20

# Harmonic-magnitude features cover orders 2..7 of the grid frequency.
FEATURE_IDS = (
    "i_rms",
    "i_form_factor",
    "i_crest_factor",
    "phase_shift",
    "active_power",
    "reactive_power",
    "thd",
    "h2",
    "h3",
    "h4",
    "h5",
    "h6",
    "h7",
)

@dataclass(frozen=True)
class FeatureSpec:
    """Ordered feature identifiers plus the grid frequency they refer to."""

    features: tuple[str, ...] = FEATURE_IDS
    f0_hz: float = 60.0
    max_harmonic: int = 7

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise ValueError("feature list must be non-empty")
        if len(set(self.features)) != len(self.features):
            raise ValueError("feature identifiers must be unique")
        if not self.f0_hz > 0.0:
            raise ValueError("f0_hz must be positive")
        if self.max_harmonic < 2:
            raise ValueError("max_harmonic must be at least 2")
        for name in self.features:
            if name not in FEATURE_IDS:
                raise ValueError(f"unknown feature identifier {name!r}")
            if name.startswith("h") and name[1:].isdigit() and int(name[1:]) > self.max_harmonic:
                raise ValueError(f"feature {name!r} exceeds max_harmonic={self.max_harmonic}")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def harmonic_orders(self) -> tuple[int, ...]:
        """The orders of ``f0_hz`` the features project the current on, ascending.

        ``h<n>`` needs order n and ``thd`` orders 1 to ``max_harmonic``;
        the fundamental also serves ``phase_shift`` and ``reactive_power``.
        """
        names = set(self.features)
        orders = {int(name[1:]) for name in names if name[1:].isdigit()}
        if "thd" in names:
            orders.update(range(2, self.max_harmonic + 1))
        if orders or names & {"phase_shift", "reactive_power"}:
            orders.add(1)  # its projection also rejects windows shorter than one grid period
        return tuple(sorted(orders))


def evaluate_window(
    v_blocks: np.ndarray,
    i_blocks: np.ndarray,
    spec: FeatureSpec,
    sample_rate_hz: float,
    k: int = 1,
    s: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows for windows made of consecutive blocks of aligned (voltage, current) samples.

    Rows of the equal ``(n_blocks, B)`` stacks are consecutive blocks of B
    samples, and window j covers blocks ``j*s ... j*s + k - 1``; with
    ``k = s = 1`` each row is one window. Sums of squares, of ``|i|`` and
    of ``v*i``, the peak ``|i|`` and the single-bin projections are taken
    once per block and combined per window, so windows that overlap share
    the work. Windows are evaluated in chunks of one contiguous block
    range each, so a gapped grid (s > k) reduces its gap blocks too. The
    projections take whole-hertz ``spec.f0_hz`` and ``sample_rate_hz``.

    Returns an ``(n_windows, n_features)`` matrix and ``n_windows``
    validity flags. Undefined features (all-zero current, say) are
    reported as 0.0 and flip the window's flag to False; the row stays
    rectangular.
    """
    v = np.asarray(v_blocks, dtype=np.float64)
    i = np.asarray(i_blocks, dtype=np.float64)
    if v.shape != i.shape or v.ndim != 2 or v.size == 0:
        raise ValueError("voltage and current blocks must be equal-shape (n_blocks, B) stacks")
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive")
    n_blocks, width = v.shape
    if n_blocks < k:
        raise ValueError("the stacks hold fewer blocks than one window covers")
    n = (n_blocks - k) // s + 1
    X, valid = np.empty((n, len(spec.features))), np.empty(n, dtype=bool)
    # A window steps s blocks of samples and gathers 2k block sums per frequency.
    per_chunk = min(n, max(1, CHUNK_BYTES // (8 * (s * width + 2 * k))))
    # The buffer is reused: filling fresh memory for every chunk costs more than the work.
    work = np.empty(((per_chunk - 1) * s + k, width))
    for lo in range(0, n, per_chunk):
        m = min(per_chunk, n - lo)
        rows = slice(lo * s, (lo + m - 1) * s + k)
        v_rows, i_rows = (np.ascontiguousarray(x[rows]) for x in (v, i))
        X[lo : lo + m], valid[lo : lo + m] = _evaluate_chunk(
            v_rows, i_rows, work[: len(i_rows)], spec, sample_rate_hz, k, s
        )
    return X, valid


def _evaluate_chunk(v, i, work, spec: FeatureSpec, fs: float, k: int, s: int):
    width = k * v.shape[1]

    def per_window(block_values, reduce=np.add.reduce):
        # Window j combines blocks j*s ... j*s + k - 1; a one-block window is its block.
        if k == 1:
            return block_values[::s]
        return reduce(np.lib.stride_tricks.sliding_window_view(block_values, k)[::s], axis=1)

    # Block sums are pairwise row reductions along the contiguous axis, as the
    # scalar signals functions take them, so one-block windows match those bit for bit.
    i_rms = np.sqrt(per_window(np.sum(np.multiply(i, i, out=work), axis=1)) / width)
    never = np.zeros(len(i_rms), dtype=bool)
    # Project the current only on the harmonic orders the spec needs.
    names = set(spec.features)
    orders = spec.harmonic_orders
    i_phasors = {}
    if orders:
        magnitudes, phases = signals.fundamental_phasor(i, [h * spec.f0_hz for h in orders], fs, k, s)
        i_phasors = {h: (magnitudes[row], phases[row]) for row, h in enumerate(orders)}
    # feature -> (column, undefined mask)
    table = {f"h{h}": (magnitude, never) for h, (magnitude, _) in i_phasors.items()}
    table["i_rms"] = (i_rms, never)
    table["active_power"] = (per_window(np.sum(np.multiply(v, i, out=work), axis=1)) / width, never)
    abs_i = np.abs(i, out=work)
    table["i_form_factor"] = _ratio(i_rms, per_window(np.sum(abs_i, axis=1)) / width)
    table["i_crest_factor"] = _ratio(per_window(np.max(abs_i, axis=1), np.maximum.reduce), i_rms)
    if "thd" in names:
        energy = sum(i_phasors[h][0] ** 2 for h in range(2, spec.max_harmonic + 1))
        table["thd"] = _ratio(np.sqrt(energy), i_phasors[1][0])
    if names & {"phase_shift", "reactive_power"}:
        v_mag, v_phase = signals.fundamental_phasor(v, spec.f0_hz, fs, k, s)
        i_mag, i_phase = i_phasors[1]
        no_shift = (v_mag == 0.0) | (i_mag == 0.0)
        shift = np.where(no_shift, 0.0, wrap_phase(v_phase - i_phase))
        table["phase_shift"] = (shift, no_shift)
        table["reactive_power"] = (v_mag * i_mag * np.sin(shift), no_shift)
    values, undefined = zip(*(table[name] for name in spec.features))
    return np.column_stack(values), ~np.any(undefined, axis=0)


def _ratio(numerator: np.ndarray, denominator: np.ndarray):
    """(numerator / denominator, undefined mask): 0.0 where the denominator is zero."""
    undefined = denominator == 0.0
    return np.divide(numerator, denominator, out=np.zeros_like(numerator), where=~undefined), undefined


@dataclass(frozen=True, eq=False)
class FeatureDataset:
    """Window features X, integer targets y, and per-window bookkeeping."""

    X: np.ndarray
    y: np.ndarray
    t_start_s: np.ndarray
    valid: np.ndarray
    window_s: float
    stride_s: float
    feature_spec: FeatureSpec

    def __post_init__(self) -> None:
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.int64)
        t_start = np.ascontiguousarray(self.t_start_s, dtype=np.float64)
        valid = np.ascontiguousarray(self.valid, dtype=bool)
        if X.ndim != 2 or X.shape[1] != len(self.feature_spec.features):
            raise ValueError("X must be (n_windows, n_features)")
        if not (X.shape[0] == y.size == t_start.size == valid.size):
            raise ValueError("X, y, t_start_s and valid must agree on the window count")
        if not np.isfinite(X).all():
            raise ValueError("feature matrix contains non-finite values")
        if y.size and y.min() < 0:
            raise ValueError("targets must be non-negative")
        for arr, name in ((X, "X"), (y, "y"), (t_start, "t_start_s"), (valid, "valid")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_windows(self) -> int:
        return int(self.X.shape[0])

    def rows(self, index) -> "FeatureDataset":
        """Dataset restricted to the given row index (slice or boolean mask)."""
        return FeatureDataset(
            self.X[index],
            self.y[index],
            self.t_start_s[index],
            self.valid[index],
            self.window_s,
            self.stride_s,
            self.feature_spec,
        )


def featurize(
    voltage: Waveform,
    current: Waveform,
    truth: np.ndarray,
    window_s: float,
    stride_s: float,
    spec: FeatureSpec,
) -> FeatureDataset:
    """Window the aligned trace and evaluate the feature spec per window.

    Windows are ``round(window_s * fs)`` samples long, one every
    ``round(stride_s * fs)`` samples, as many as fit in the trace. The
    trace is viewed, without a copy, as blocks of the greatest common
    divisor of the two, which ``evaluate_window`` combines into windows.
    Targets come from ``window_targets`` of the per-second ``truth`` counts
    over that same sample grid, and the dataset records that grid's window
    and stride in seconds.
    """
    if voltage.n_samples != current.n_samples or voltage.sample_rate_hz != current.sample_rate_hz:
        raise ValueError("voltage and current waveforms must be aligned")
    fs = voltage.sample_rate_hz
    window_len = int(round(window_s * fs))
    stride_len = int(round(stride_s * fs))
    if window_len < 1 or stride_len < 1:
        raise ValueError("window_s and stride_s must cover at least one sample")
    if window_len > voltage.n_samples:
        raise ValueError("window_s exceeds the trace duration")
    # Every window starts on the stride grid, so both are whole numbers of
    # B = gcd(window, stride) samples: window j covers blocks j*s ... j*s + k - 1.
    block_len = math.gcd(window_len, stride_len)
    k, s = window_len // block_len, stride_len // block_len
    n_windows = (voltage.n_samples - window_len) // stride_len + 1
    n_blocks = (n_windows - 1) * s + k
    blocks = [w.samples[: n_blocks * block_len].reshape(n_blocks, block_len) for w in (voltage, current)]
    y = window_targets(truth, window_len / fs, stride_len / fs, n_windows)
    X, valid = evaluate_window(*blocks, spec, fs, k, s)
    t_start = np.arange(n_windows) * stride_len / fs
    return FeatureDataset(X, y, t_start, valid, window_len / fs, stride_len / fs, spec)


def rank_features(
    per_class_signatures: dict[str, list[np.ndarray]], feature_ids: tuple[str, ...]
) -> list[tuple[str, float]]:
    """Fisher score per feature, sorted descending; ties keep spec order.

    score_j = Var_c(mean of class c) / Mean_c(within-class variance).
    A feature with zero within-class variance scores +inf when the class
    means separate and 0.0 when they do not (constant feature).
    """
    if len(per_class_signatures) < 2:
        raise ValueError("feature ranking needs at least two device classes")
    n_features = len(feature_ids)
    class_means = []
    class_vars = []
    for class_name, vectors in per_class_signatures.items():
        matrix = np.asarray(vectors, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] < 2:
            raise ValueError(f"class {class_name!r} needs at least two signature vectors")
        if matrix.shape[1] != n_features:
            raise ValueError(f"class {class_name!r} vectors disagree with the feature list")
        class_means.append(matrix.mean(axis=0))
        class_vars.append(matrix.var(axis=0, ddof=1))
    means = np.asarray(class_means)
    between = means.var(axis=0)  # population variance of the class means
    within = np.asarray(class_vars).mean(axis=0)
    scores = np.empty(n_features, dtype=np.float64)
    for j in range(n_features):
        if within[j] == 0.0:
            scores[j] = math.inf if between[j] > 0.0 else 0.0
        else:
            scores[j] = between[j] / within[j]
    order = sorted(range(n_features), key=lambda j: (-scores[j], j))
    return [(feature_ids[j], float(scores[j])) for j in order]


@dataclass(frozen=True)
class NormStats:
    """Per-feature z-score statistics fit on the training split.

    Zero-variance features are dropped at fit time and recorded;
    ``kept_indices`` refer to columns of the original feature layout.
    """

    input_feature_ids: tuple[str, ...]
    kept_indices: tuple[int, ...]
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_feature_ids", tuple(self.input_feature_ids))
        object.__setattr__(self, "kept_indices", tuple(int(i) for i in self.kept_indices))
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        std = np.ascontiguousarray(self.std, dtype=np.float64)
        if mean.shape != (len(self.kept_indices),) or std.shape != mean.shape:
            raise ValueError("mean/std must match the kept feature count")
        if len(self.kept_indices) and std.min() <= 0.0:
            raise ValueError("retained features must have positive std")
        mean.flags.writeable = False
        std.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def fit_normalization(train_X: np.ndarray, feature_ids: tuple[str, ...]) -> NormStats:
    """Fit per-feature z-score statistics; drop (and warn about) constant features."""
    X = np.asarray(train_X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("train_X must be a non-empty 2-D matrix")
    if X.shape[1] != len(feature_ids):
        raise ValueError("train_X width must match feature_ids")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    kept = [j for j in range(X.shape[1]) if std[j] > 1e-12 * (1.0 + abs(mean[j]))]
    dropped = [feature_ids[j] for j in range(X.shape[1]) if j not in kept]
    if dropped:
        warnings.warn(f"dropping zero-variance features: {', '.join(dropped)}", stacklevel=2)
    return NormStats(tuple(feature_ids), tuple(kept), mean[kept], std[kept])


def apply_normalization(X: np.ndarray, stats: NormStats) -> np.ndarray:
    """Z-score the kept feature columns using training statistics only."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(stats.input_feature_ids):
        raise ValueError("X width must match the layout the stats were fit on")
    kept = list(stats.kept_indices)
    return (arr[:, kept] - stats.mean) / stats.std
