"""Rolling-window feature extraction, feature ranking, and normalization.

Turns an aligned feeder (voltage, current) pair into a rectangular
dataset: one row of window features x_t next to the integer target y_t
(number of medical devices running within the window). Feature columns
follow the order given in the FeatureSpec and that order is frozen into
dataset files.

Windows start on the stride grid, so the trace is cut into blocks of
gcd(window, stride) samples; every per-sample quantity a feature needs is
reduced once per block, and each window is built from its blocks. The
blocks are read from the waveforms one chunk of windows at a time, so
memory does not grow with the trace. ``featurize`` alone sizes that
chunk: ``evaluate_window`` evaluates the stack it is given in one pass.
The projections take their sinusoids from ``signals._period_table``,
the table the feeder synthesis is built from too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import signals
from .signals import CHUNK_BYTES, Waveform, wrap_phase

__all__ = [
    "FEATURIZE_VERSION",
    "FEATURE_IDS",
    "THD_ORDERS",
    "FeatureSpec",
    "FeatureDataset",
    "NormStats",
    "evaluate_window",
    "window_targets",
    "featurize",
    "rank_features",
    "fit_normalization",
    "apply_normalization",
]


# Bumped whenever featurize or select-features writes different values for
# the same inputs; part of the dataset fingerprint, so older datasets,
# rankings and everything trained on them re-run.
# 2: every block is folded onto one period of a sin/cos table and projected without BLAS.
# 3: select-features draws each mode's current from the synthesis kernel, not from float-time sines.
FEATURIZE_VERSION = 3

# The harmonic-magnitude features h2..h7 cover orders 2..7 of the grid frequency; thd sums the same orders.
THD_ORDERS = range(2, 8)
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
    """Ordered feature identifiers; the grid frequency they refer to is the scenario's ``f0_hz``."""

    features: tuple[str, ...] = FEATURE_IDS

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise ValueError("feature list must be non-empty")
        if len(set(self.features)) != len(self.features):
            raise ValueError("feature identifiers must be unique")
        for name in self.features:
            if name not in FEATURE_IDS:
                raise ValueError(f"unknown feature identifier {name!r}")

    @property
    def harmonic_orders(self) -> tuple[int, ...]:
        """The orders of the grid frequency the features project the current on, ascending.

        ``h<n>`` needs order n and ``thd`` orders 1 and ``THD_ORDERS``;
        the fundamental also serves ``phase_shift`` and ``reactive_power``.
        """
        names = set(self.features)
        orders = {int(name[1:]) for name in names if name[1:].isdigit()}
        if "thd" in names:
            orders.update(THD_ORDERS)
        if orders or names & {"phase_shift", "reactive_power"}:
            orders.add(1)  # its projection also rejects windows shorter than one grid period
        return tuple(sorted(orders))


def evaluate_window(
    v_blocks: np.ndarray,
    i_blocks: np.ndarray,
    spec: FeatureSpec,
    sample_rate_hz: float,
    f0_hz: float,
    k: int = 1,
    s: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows for windows made of consecutive blocks of aligned (voltage, current) samples.

    Rows of the equal ``(n_blocks, B)`` stacks are consecutive blocks of B
    samples, and window j covers blocks ``j*s ... j*s + k - 1``; with
    ``k = s = 1`` each row is one window. Sums of squares, of ``|i|`` and
    of ``v*i``, the peak ``|i|`` and the single-bin projections are taken
    once per block and combined per window, so windows that overlap share
    the work. The whole stack is evaluated in one pass, gap blocks of a
    gapped grid (s > k) included, so the caller decides how much of a
    trace is in memory: ``featurize`` passes one chunk of windows at a
    time. The projections take the whole-hertz grid frequency ``f0_hz``
    and ``sample_rate_hz``.

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
    if len(v) < k:
        raise ValueError("the stacks hold fewer blocks than one window covers")
    width = k * v.shape[1]
    work = np.empty(i.shape)

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
        magnitudes, phases = signals.fundamental_phasor(i, [h * f0_hz for h in orders], sample_rate_hz, k, s)
        i_phasors = {h: (magnitudes[row], phases[row]) for row, h in enumerate(orders)}
    # feature -> (column, undefined mask)
    table = {f"h{h}": (magnitude, never) for h, (magnitude, _) in i_phasors.items()}
    table["i_rms"] = (i_rms, never)
    table["active_power"] = (per_window(np.sum(np.multiply(v, i, out=work), axis=1)) / width, never)
    abs_i = np.abs(i, out=work)
    table["i_form_factor"] = _ratio(i_rms, per_window(np.sum(abs_i, axis=1)) / width)
    table["i_crest_factor"] = _ratio(per_window(np.max(abs_i, axis=1), np.maximum.reduce), i_rms)
    if "thd" in names:
        energy = sum(i_phasors[h][0] ** 2 for h in THD_ORDERS)
        table["thd"] = _ratio(np.sqrt(energy), i_phasors[1][0])
    if names & {"phase_shift", "reactive_power"}:
        v_mag, v_phase = signals.fundamental_phasor(v, f0_hz, sample_rate_hz, k, s)
        i_mag, i_phase = i_phasors[1]
        no_shift = (v_mag == 0.0) | (i_mag == 0.0)
        shift = np.where(no_shift, 0.0, wrap_phase(v_phase - i_phase))
        table["phase_shift"] = (shift, no_shift)
        table["reactive_power"] = (v_mag * i_mag * np.sin(shift), no_shift)
    values, undefined = zip(*(table[name] for name in spec.features))
    return np.column_stack(values), ~np.any(undefined, axis=0)


def _windows_per_chunk(n_windows: int, k: int, s: int, width: int) -> int:
    """Windows ``featurize`` reads and evaluates together: the samples of their
    blocks, and the block series they gather, stay near ``CHUNK_BYTES``, so
    elementwise temporaries never span the trace."""
    # A window steps s blocks of samples and gathers 2k block sums per frequency.
    return min(n_windows, max(1, CHUNK_BYTES // (8 * (s * width + 2 * k))))


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


def window_targets(counts: np.ndarray, window_s: float, stride_s: float, n_windows: int) -> np.ndarray:
    """Per-window target y: the maximum per-second count inside each of ``n_windows`` windows.

    Window k covers [k * stride_s, k * stride_s + window_s) on the
    scenario clock, and ``counts[t]`` is the count at second t. A device
    running at any point inside the window counts as running within it,
    hence the maximum.
    """
    if window_s < 1.0:
        raise ValueError("window_s must be at least 1 second")
    if stride_s <= 0.0:
        raise ValueError("stride_s must be positive")
    start = np.arange(n_windows) * stride_s
    # ground_truth_counts' rule for an interval end, applied to every window at once.
    lo = np.maximum(np.ceil(start - 1e-9), 0.0).astype(np.int64)
    hi = np.maximum(np.ceil(start + window_s - 1e-9), 0.0).astype(np.int64)
    if (hi > counts.size).any() or (lo >= hi).any():
        raise ValueError("window extends past the end of the ground-truth series")
    # reduceat over the interleaved bounds (lo0, hi0, lo1, hi1, ...): entry
    # 2k is the maximum over [lo_k, hi_k); one trailing pad lets hi reach
    # the end of the series.
    padded = np.append(counts, 0).astype(np.int64, copy=False)
    return np.maximum.reduceat(padded, np.stack([lo, hi], axis=1).reshape(-1))[::2]


def featurize(
    voltage: Waveform,
    current: Waveform,
    truth: np.ndarray,
    window_s: float,
    stride_s: float,
    spec: FeatureSpec,
    f0_hz: float,
) -> FeatureDataset:
    """Window the aligned trace and evaluate the feature spec per window, on the grid frequency ``f0_hz``.

    Windows are ``round(window_s * fs)`` samples long, one every
    ``round(stride_s * fs)`` samples, as many as fit in the trace. The
    trace is cut into blocks of the greatest common divisor of the two,
    which ``evaluate_window`` combines into windows. Both waveforms are
    read once, front to back, into block buffers of one chunk of windows
    (see ``_windows_per_chunk``): the blocks the next chunk shares with
    this one are carried over, the blocks between two chunks of gapped
    windows are read past, and so are the samples after the last window,
    so every sample passes its source's checks. Targets come from
    ``window_targets`` of the per-second ``truth`` counts over that same
    sample grid, and the dataset records that grid's window and stride in
    seconds.
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
    y = window_targets(truth, window_len / fs, stride_len / fs, n_windows)

    per_chunk = _windows_per_chunk(n_windows, k, s, block_len)
    blocks = [np.empty(((per_chunk - 1) * s + k, block_len)) for _ in range(2)]
    X, valid = np.empty((n_windows, len(spec.features))), np.empty(n_windows, dtype=bool)
    carried = 0  # leading blocks of the buffers the previous chunk already read
    for lo in range(0, n_windows, per_chunk):
        m = min(per_chunk, n_windows - lo)
        used = (m - 1) * s + k
        for waveform, buffer in zip((voltage, current), blocks):
            waveform.readinto(buffer[carried:used].reshape(-1))
        X[lo : lo + m], valid[lo : lo + m] = evaluate_window(*(b[:used] for b in blocks), spec, fs, f0_hz, k, s)
        # The next chunk starts per_chunk * s blocks into this one.
        carried = max(0, used - per_chunk * s)
        for waveform, buffer in zip((voltage, current), blocks):
            buffer[:carried] = buffer[used - carried : used]
            if lo + per_chunk < n_windows:
                waveform.skip((per_chunk * s - used + carried) * block_len)
    read = ((n_windows - 1) * s + k) * block_len
    for waveform in (voltage, current):
        waveform.skip(waveform.n_samples - read)
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
        bounds = (-1, *self.kept_indices, len(self.input_feature_ids))
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("kept_indices must be strictly increasing columns of input_feature_ids")
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
    """Fit per-feature z-score statistics; drop constant features (the stats' ``kept_indices`` name the rest)."""
    X = np.asarray(train_X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("train_X must be a non-empty 2-D matrix")
    if X.shape[1] != len(feature_ids):
        raise ValueError("train_X width must match feature_ids")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    kept = [j for j in range(X.shape[1]) if std[j] > 1e-12 * (1.0 + abs(mean[j]))]
    return NormStats(tuple(feature_ids), tuple(kept), mean[kept], std[kept])


def apply_normalization(X: np.ndarray, stats: NormStats) -> np.ndarray:
    """Z-score the kept feature columns using training statistics only."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(stats.input_feature_ids):
        raise ValueError("X width must match the layout the stats were fit on")
    kept = list(stats.kept_indices)
    return (arr[:, kept] - stats.mean) / stats.std
