"""Waveform container and the windowed high-frequency feature primitives.

Harmonic content is measured with a single-bin Fourier projection at the
exact target frequency (correlation with sin/cos over the window), so
windows of any length work and there is no FFT bin ambiguity. Windows
covering a non-integer number of periods carry a small spectral-leakage
bias (below 0.1 percent for multi-second windows at grid frequency).

``fundamental_phasor`` also projects many windows at once: given a stack
of consecutive blocks, it projects each block once, phased from the block
start, and builds each window's projection from its blocks' by rotating
them to the window start. The rotations are reduced exactly in integers,
so a stack is projected at whole-hertz frequencies and rates only, as
every scenario samples. The scalar functions here work on one window at
any rate and are the reference the featurizer is tested against.

All arithmetic is float64. Every function here is a pure function of its
inputs; waveforms are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "UndefinedFeatureError",
    "Waveform",
    "wrap_phase",
    "rms",
    "form_factor",
    "crest_factor",
    "fundamental_phasor",
    "harmonic_magnitude",
    "phase_shift",
    "active_reactive_power",
    "thd",
]


class UndefinedFeatureError(ValueError):
    """A feature has no defined value on this window (for example an all-zero signal)."""


def wrap_phase(angle_rad):
    """Wrap an angle to the interval (-pi, pi]: an array elementwise, a scalar to a float."""
    # fmod is exact, and the one-period correction is exact too (Sterbenz),
    # so every angle wraps to the same bits as the exact IEEE remainder.
    wrapped = np.fmod(angle_rad, 2.0 * math.pi)
    wrapped = np.where(wrapped > math.pi, wrapped - 2.0 * math.pi, wrapped)
    wrapped = np.where(wrapped <= -math.pi, wrapped + 2.0 * math.pi, wrapped)
    return wrapped if np.ndim(angle_rad) else float(wrapped)


@dataclass(frozen=True, eq=False)
class Waveform:
    """Uniformly sampled real-valued signal on the scenario clock.

    ``samples`` are coerced to a read-only float64 array; the first one is
    taken at scenario second 0.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if samples.size == 0:
            raise ValueError("samples must be non-empty")
        if not np.isfinite(samples).all():
            raise ValueError("samples must all be finite")
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0.0):
            raise ValueError("sample_rate_hz must be positive and finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)


def _as_window(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("window must be a non-empty 1-D sample array")
    return arr


@lru_cache(maxsize=256)
def _projection_basis(n: int, freq_hz: float, sample_rate_hz: float) -> np.ndarray:
    # Cached per (length, frequency, rate); every block of a trace shares one shape.
    # Rows are sin and cos, so a stack of blocks projects on both in one product.
    t = np.arange(n, dtype=np.float64) / sample_rate_hz
    omega = 2.0 * math.pi * freq_hz
    basis = np.stack([np.sin(omega * t), np.cos(omega * t)])
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=16)
def _block_rotation(k: int, block_len: int, freqs_hz: tuple, sample_rate_hz: float) -> np.ndarray:
    # Takes the (sin, cos) sums of k consecutive blocks, each phased from its
    # own start, to their window's sums, phased from the window start: block
    # d starts 2*pi*f*d*B/fs into the window, reduced exactly in integers as
    # (f*d*B mod fs)/fs turns, as devices.add_harmonics does.
    d = np.arange(k, dtype=np.int64)
    fs = int(sample_rate_hz)
    turns = np.array([(int(freq) * block_len % fs) * d % fs for freq in freqs_hz]) / fs
    theta = np.multiply(turns, 2.0 * math.pi, out=turns)
    cos, sin = np.cos(theta), np.sin(theta, out=theta)
    # sin(wt + phi) = sin(wt)cos(phi) + cos(wt)sin(phi); cos(wt + phi) = cos(wt)cos(phi) - sin(wt)sin(phi).
    # Per frequency, row 2d + c takes block d's sum c (sin, cos) to the window's (sin, cos).
    rotation = np.stack([np.stack([cos, -sin], axis=-1), np.stack([sin, cos], axis=-1)], axis=-2)
    rotation = rotation.reshape(len(freqs_hz), 2 * k, 2)
    rotation.flags.writeable = False
    return rotation


def _gather(series: np.ndarray, width: int, step: int) -> np.ndarray:
    """Contiguous rows ``series[j*step : j*step + width]``, one per window."""
    return np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(series, width)[::step])


def rms(window) -> float:
    """Root mean square of the window samples."""
    arr = _as_window(window)
    return float(np.sqrt(np.mean(arr * arr)))


def form_factor(window) -> float:
    """RMS divided by the mean absolute value; 1.0 for constants, ~1.11 for sinusoids.

    Raises:
        UndefinedFeatureError: if the window is all zero.
    """
    arr = _as_window(window)
    mean_abs = float(np.mean(np.abs(arr)))
    if mean_abs == 0.0:
        raise UndefinedFeatureError("form factor undefined on an all-zero window")
    return rms(arr) / mean_abs


def crest_factor(window) -> float:
    """Peak absolute value divided by RMS; sqrt(2) for sinusoids.

    Raises:
        UndefinedFeatureError: if the window is all zero.
    """
    arr = _as_window(window)
    r = rms(arr)
    if r == 0.0:
        raise UndefinedFeatureError("crest factor undefined on an all-zero window")
    return float(np.max(np.abs(arr))) / r


def fundamental_phasor(blocks, freq_hz, sample_rate_hz: float, k: int = 1, s: int = 1):
    """Single-bin Fourier projection of each window at ``freq_hz``.

    Returns ``(magnitude_rms, phase_rad)`` in the sine convention
    ``x(t) = sqrt(2) * magnitude_rms * sin(2*pi*freq_hz*t + phase)`` with
    the phase referenced to the window start and wrapped to (-pi, pi].
    A zero signal yields magnitude 0.0 and phase 0.0.

    A 1-D array is one window and yields two floats. The rows of an
    ``(n_blocks, B)`` stack are consecutive blocks of B samples, and
    window j covers blocks ``j*s ... j*s + k - 1`` (k*B samples); the
    result holds one array entry per window. Each block is projected
    once, with its phase measured from the block start, and a window's
    sums are its k block sums rotated to the window start, so windows
    that share blocks share their projection. With ``k = s = 1`` every
    row is one window. A stack may be projected on a sequence of
    frequencies at once; the result then has one row per frequency.

    Raises:
        ValueError: if a window covers less than one period of a
            frequency, a frequency is not below Nyquist, the stack holds
            fewer than k blocks, or a stack's frequencies or rate are not
            whole numbers of hertz.
    """
    arr = np.asarray(blocks, dtype=np.float64)
    one_freq = np.ndim(freq_hz) == 0
    freqs = tuple(float(f) for f in np.atleast_1d(freq_hz))
    if arr.ndim not in (1, 2) or arr.size == 0 or not freqs:
        raise ValueError("need a non-empty 1-D window or 2-D stack of blocks, and a frequency")
    if k < 1 or s < 1 or (arr.ndim == 1 and (k, s, one_freq) != (1, 1, True)):
        raise ValueError("k and s must be positive; a single window takes one frequency and k = s = 1")
    block_len = arr.shape[-1]
    n = k * block_len
    if not (min(freqs) > 0.0 and sample_rate_hz > 0.0):
        raise ValueError("freq_hz and sample_rate_hz must be positive")
    if max(freqs) >= 0.5 * sample_rate_hz:
        raise ValueError("freq_hz must lie below the Nyquist frequency")
    if n * min(freqs) < sample_rate_hz * (1.0 - 1e-12):
        raise ValueError("window shorter than one period of freq_hz")
    if arr.ndim == 2 and not all(float(x).is_integer() for x in (*freqs, sample_rate_hz)):
        raise ValueError("a stack is projected at whole-hertz frequencies and sample rates only")
    bases = [_projection_basis(block_len, freq, sample_rate_hz) for freq in freqs]
    if arr.ndim == 1:
        sin_basis, cos_basis = bases[0]
        in_phase = 2.0 * float(arr @ sin_basis) / n
        quadrature = 2.0 * float(arr @ cos_basis) / n
        magnitude_rms = math.hypot(in_phase, quadrature) / math.sqrt(2.0)
        phase = wrap_phase(math.atan2(quadrature, in_phase))
        return magnitude_rms, phase
    if len(arr) < k:
        raise ValueError("the stack holds fewer blocks than one window covers")
    n_windows = (len(arr) - k) // s + 1
    used = arr[: (n_windows - 1) * s + k]
    rotation = _block_rotation(k, block_len, freqs, sample_rate_hz)
    # sums[f, j] = (sin, cos) sums of window j at frequency f; per frequency,
    # window j's row holds its k blocks' interleaved (sin, cos) sums.
    sums = np.stack([_gather((used @ basis.T).reshape(-1), 2 * k, 2 * s) @ r for basis, r in zip(bases, rotation)])
    in_phase, quadrature = np.moveaxis(2.0 * sums / n, -1, 0)
    magnitude = np.hypot(in_phase, quadrature) / math.sqrt(2.0)
    phase = wrap_phase(np.arctan2(quadrature, in_phase))
    return (magnitude[0], phase[0]) if one_freq else (magnitude, phase)


def harmonic_magnitude(window, harmonic: int, base_freq_hz: float, sample_rate_hz: float) -> float:
    """RMS magnitude of the ``harmonic``-th multiple of ``base_freq_hz``."""
    if harmonic < 1:
        raise ValueError("harmonic must be a positive integer")
    arr = _as_window(window)
    if arr.size * base_freq_hz < sample_rate_hz * (1.0 - 1e-12):
        raise ValueError("window shorter than one period of the base frequency")
    magnitude, _ = fundamental_phasor(arr, harmonic * base_freq_hz, sample_rate_hz)
    return magnitude


def _fundamentals(v_window, i_window, freq_hz: float, sample_rate_hz: float):
    """Aligned windows, both fundamental magnitudes and their phase shift, each fundamental projected once."""
    v = _as_window(v_window)
    i = _as_window(i_window)
    if v.size != i.size:
        raise ValueError("voltage and current windows must have equal length")
    v_mag, v_phase = fundamental_phasor(v, freq_hz, sample_rate_hz)
    i_mag, i_phase = fundamental_phasor(i, freq_hz, sample_rate_hz)
    if v_mag == 0.0 or i_mag == 0.0:
        raise UndefinedFeatureError("phase shift undefined: zero fundamental component")
    return v, i, v_mag, i_mag, wrap_phase(v_phase - i_phase)


def phase_shift(v_window, i_window, freq_hz: float, sample_rate_hz: float) -> float:
    """Fundamental phase of the voltage minus that of the current, in (-pi, pi].

    Positive values mean the current lags the voltage (inductive load).

    Raises:
        UndefinedFeatureError: if either signal has a zero fundamental.
        ValueError: if the windows are not aligned (different lengths).
    """
    return _fundamentals(v_window, i_window, freq_hz, sample_rate_hz)[-1]


def active_reactive_power(v_window, i_window, freq_hz: float, sample_rate_hz: float) -> tuple[float, float]:
    """Active power P = mean(v*i) and fundamental reactive power Q.

    Q is computed from the fundamental phasors as
    ``Vrms_1 * Irms_1 * sin(phase_shift)``; positive Q is inductive.

    Raises:
        UndefinedFeatureError: if either fundamental is zero (Q undefined).
    """
    v, i, v_mag, i_mag, shift = _fundamentals(v_window, i_window, freq_hz, sample_rate_hz)
    return float(np.mean(v * i)), v_mag * i_mag * math.sin(shift)


def thd(window, freq_hz: float, sample_rate_hz: float, max_harmonic: int) -> float:
    """Total harmonic distortion: RMS of harmonics 2..max_harmonic over the fundamental.

    Raises:
        UndefinedFeatureError: if the fundamental magnitude is zero.
        ValueError: if ``max_harmonic * freq_hz`` is not below Nyquist.
    """
    if max_harmonic < 2:
        raise ValueError("max_harmonic must be at least 2")
    arr = _as_window(window)
    if max_harmonic * freq_hz >= 0.5 * sample_rate_hz:
        raise ValueError("max_harmonic * freq_hz must lie below the Nyquist frequency")
    fundamental, _ = fundamental_phasor(arr, freq_hz, sample_rate_hz)
    if fundamental == 0.0:
        raise UndefinedFeatureError("THD undefined: zero fundamental component")
    harmonic_energy = 0.0
    for order in range(2, max_harmonic + 1):
        magnitude, _ = fundamental_phasor(arr, order * freq_hz, sample_rate_hz)
        harmonic_energy += magnitude * magnitude
    return math.sqrt(harmonic_energy) / fundamental
