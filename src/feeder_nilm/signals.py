"""Waveform container and the windowed high-frequency feature primitives.

Harmonic content is measured with a single-bin Fourier projection at the
exact target frequency (correlation with sin/cos over the window), so
windows of any length work and there is no FFT bin ambiguity. Windows
covering a non-integer number of periods carry a small spectral-leakage
bias (below 0.1 percent for multi-second windows at grid frequency).

``fundamental_phasor`` also projects many windows at once: given a stack
of consecutive blocks, it projects each block once, phased from the block
start, and builds each window's projection from its blocks' by rotating
them to the window start. A stack is projected at whole-hertz frequencies
and rates only, as every scenario samples, so every sin and cos it needs
repeats every ``P = fs / gcd(fs, *freqs)`` samples (500 at 10 kHz and
60 Hz). One table, ``_period_table``, holds them over one period, for all
the frequencies at once, with each phase reduced exactly in integers; the
block rotations are read from its columns, and the feeder synthesis
and the characterization currents (``devices.add_harmonics``) are built
from it too, so it is the one place a whole-hertz sinusoid is evaluated
and the kernel's guard against a rate or frequency that is not whole
hertz or not below Nyquist (a config that has one is refused at load).
Each block is folded onto that period (its whole periods summed
column by column, its tail added to the first columns) and contracted
with the table by ``einsum``, without BLAS: a window's projection is
the same bits in a stack of any height and under any BLAS thread count.
The scalar functions here work on one window at any rate and are the
reference the featurizer is tested against, to rounding.

A ``Waveform`` is a trace that is read once, front to back, a bounded
piece at a time: it never holds the whole trace, so memory does not grow
with the scenario. A file or the feeder synthesizer supplies its
samples.

All arithmetic is float64. Every function here is a pure function of its
inputs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "CHUNK_BYTES",
    "SKIP_BYTES",
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


# Waveforms move between producer and consumer in chunks of at most this many bytes
# (a drain, which keeps nothing, in pieces of SKIP_BYTES), and device characterization
# draws its repetitions in groups of about this size.
# Each stage holds two or three chunks, so the chunk sets its peak memory; but each
# chunk of windows pays a fixed evaluate_window cost and re-evaluates the blocks it
# shares with the chunk before it. Measured on desk_scale (2 vCPUs, 2 MiB L2 per core,
# numpy 2.4), with evaluate_window's per-sample temporary bounded by SKIP_BYTES: pipeline
# peak RSS 43.6 / 40.5 MB at 2 MiB / 1 MiB (44.4 MB at 2 MiB with a temporary the size
# of the stack); in-process CPU medians of 10 interleaved rounds, featurize at stride
# 0.25 s 0.13 / 0.16 / 0.23 s at 2 MiB / 1 MiB / 512 KiB (0.17 s at 2 MiB and 0.20 s at
# 1 MiB with the stack-sized temporary), characterization 0.08 / 0.10 / 0.10 s.
CHUNK_BYTES = 1 << 20

# Waveform.skip reads the samples it passes over through one piece of at most this many
# bytes, and evaluate_window runs its per-sample passes through a temporary of at most
# this size. A drain keeps no sample, so a piece larger than the per-piece cost (an
# fstat and a stat of the open file, a seek) needs buys only resident memory; a piece
# well inside a core's L2 cache is still cached when its samples are checked. Measured on
# the desk_scale rerun check of simulate's two 48 MB traces (2 vCPUs, 2 MiB L2 per core,
# numpy 2.4), medians of 12 interleaved rounds in two runs, when each piece reopened the
# file: 19-22 ms at 2 MiB, 19-21 ms at 256 KiB and 31-33 ms at 64 KiB; desk_noop peaks
# about 2 MB lower at 256 KiB than at 2 MiB.
SKIP_BYTES = 256 << 10


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


class Waveform:
    """``n_samples`` float64 samples at ``sample_rate_hz``, the first at scenario second 0, read once in order.

    ``readinto(out)`` fills ``out`` with the next ``out.size`` samples, so a
    consumer holds only the piece it is working on. The samples come from
    ``fill(out, start)``, which writes samples ``start ... start +
    out.size - 1`` into ``out``; each call starts where the previous one
    stopped, so a source may carry state, such as a noise stream. A file
    reads its samples and checks them as they arrive (``storage``), and
    the feeder synthesizer generates them (``simulate``).
    """

    __slots__ = ("n_samples", "sample_rate_hz", "_fill", "_next", "__weakref__")

    def __init__(self, n_samples: int, sample_rate_hz: float, fill: Callable[[np.ndarray, int], None]) -> None:
        if n_samples < 1:
            raise ValueError("samples must be non-empty")
        if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0.0):
            raise ValueError("sample_rate_hz must be positive and finite")
        self.n_samples = int(n_samples)
        self.sample_rate_hz = sample_rate_hz
        self._fill = fill
        self._next = 0

    def readinto(self, out: np.ndarray) -> None:
        """Fill the contiguous float64 ``out`` with the next ``out.size`` samples."""
        if out.dtype != np.float64 or out.ndim != 1 or not out.flags.c_contiguous:
            raise ValueError("out must be a contiguous 1-D float64 array")
        if out.size > self.n_samples - self._next:
            raise ValueError(f"read past the end of a waveform of {self.n_samples} samples")
        self._fill(out, self._next)
        self._next += out.size

    def chunks(self, n_samples: int) -> Iterator[np.ndarray]:
        """The next ``n_samples`` in order, as successive views of one buffer of at most ``CHUNK_BYTES``."""
        return self._pieces(n_samples, CHUNK_BYTES)

    def skip(self, n_samples: int) -> None:
        """Read past the next ``n_samples`` in pieces of at most ``SKIP_BYTES``; the source still checks every one."""
        for _ in self._pieces(n_samples, SKIP_BYTES):
            pass

    def _pieces(self, n_samples: int, piece_bytes: int) -> Iterator[np.ndarray]:
        buffer = np.empty(max(1, min(n_samples, piece_bytes // 8)))
        for start in range(0, n_samples, buffer.size):
            part = buffer[: min(buffer.size, n_samples - start)]
            self.readinto(part)
            yield part


def _as_window(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("window must be a non-empty 1-D sample array")
    return arr


@lru_cache(maxsize=256)
def _projection_basis(n: int, freq_hz: float, sample_rate_hz: float) -> np.ndarray:
    # The sin and cos rows one window of n samples is projected on, cached per (length, frequency, rate).
    t = np.arange(n, dtype=np.float64) / sample_rate_hz
    omega = 2.0 * math.pi * freq_hz
    basis = np.stack([np.sin(omega * t), np.cos(omega * t)])
    basis.flags.writeable = False
    return basis


def _period_table(freqs_hz: tuple, sample_rate_hz: float) -> np.ndarray:
    # Every whole-hertz frequency repeats its sin and cos every P = fs / gcd(fs, *freqs)
    # samples. Rows 2f and 2f + 1 are sin and cos of frequency f at t = p/fs for
    # p = 0 ... P - 1, the phase reduced exactly in integers as (f*p mod fs)/fs turns.
    # Synthesis, block projection and block rotation all take their sinusoids from here.
    if not all(float(x).is_integer() for x in (*freqs_hz, sample_rate_hz)):
        raise ValueError("phases are reduced in integers: frequencies and sample rates must be whole hertz")
    if 2 * max(freqs_hz) >= sample_rate_hz:
        raise ValueError(f"{max(freqs_hz):g} Hz aliases at {sample_rate_hz:g} Hz sampling: not below Nyquist")
    fs = int(sample_rate_hz)
    freqs = [int(freq) for freq in freqs_hz]
    p = np.arange(fs // math.gcd(fs, *freqs), dtype=np.int64)
    theta = np.array([freq * p % fs for freq in freqs]) / fs * (2.0 * math.pi)
    return np.stack([np.sin(theta), np.cos(theta)], axis=1).reshape(2 * len(freqs), -1)


def _block_rotation(k: int, block_len: int, table: np.ndarray) -> np.ndarray:
    # Takes the (sin, cos) sums of k consecutive blocks, each phased from its
    # own start, to their window's sums, phased from the window start: block
    # d starts d*B samples into the window, at column d*B mod P of the period table.
    phases = table[:, np.arange(k, dtype=np.int64) * block_len % table.shape[1]]
    sin, cos = phases[0::2], phases[1::2]
    # sin(wt + phi) = sin(wt)cos(phi) + cos(wt)sin(phi); cos(wt + phi) = cos(wt)cos(phi) - sin(wt)sin(phi).
    # Per frequency, row c (sin, cos) weighs block d's (sin, cos) sums in columns 2d and 2d + 1.
    rotation = np.stack([np.stack([cos, sin], axis=-1), np.stack([-sin, cos], axis=-1)], axis=1)
    return rotation.reshape(len(sin), 2, 2 * k)


def _block_sums(blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``(n_blocks, 2F)`` sin and cos sums of each block against the period table's rows.

    A block of B = qP + r samples is folded onto one period first: its q
    whole periods are summed column by column, and its r tail samples
    are added to the first r columns. A block shorter than a period meets
    the table's first B columns. Each block's sums are then taken on its
    own, without BLAS, so they are the same bits in any stack and under
    any thread count.
    """
    n_blocks, block_len = blocks.shape
    period = table.shape[1]
    whole, tail = divmod(block_len, period)
    if whole:
        folded = np.add.reduce(blocks[:, : whole * period].reshape(n_blocks, whole, period), axis=1)
        folded[:, :tail] += blocks[:, whole * period :]
    else:
        folded, table = blocks, table[:, :block_len]
    return np.einsum("bp,kp->bk", folded, table)


def _gather(series: np.ndarray, width: int, step: int) -> np.ndarray:
    """Contiguous rows ``series[..., j*step : j*step + width]``, one per window, along the last axis."""
    return np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(series, width, axis=-1)[..., ::step, :])


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
    that share blocks share their projection, and each window's result
    depends on its own blocks only. With ``k = s = 1`` every row is one
    window. A stack may be projected on a sequence of frequencies at
    once; the result then has one row per frequency.

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
    if arr.ndim == 1:
        sin_basis, cos_basis = _projection_basis(n, freqs[0], sample_rate_hz)
        in_phase = 2.0 * float(arr @ sin_basis) / n
        quadrature = 2.0 * float(arr @ cos_basis) / n
        magnitude_rms = math.hypot(in_phase, quadrature) / math.sqrt(2.0)
        phase = wrap_phase(math.atan2(quadrature, in_phase))
        return magnitude_rms, phase
    if len(arr) < k:
        raise ValueError("the stack holds fewer blocks than one window covers")
    n_windows = (len(arr) - k) // s + 1
    used = arr[: (n_windows - 1) * s + k]
    table = _period_table(freqs, sample_rate_hz)
    block_sums = _block_sums(used, table)
    # Per frequency, the blocks' interleaved (sin, cos) sums in block order; window j's
    # row gathers its k blocks' sums, which the rotation takes to the window start.
    series = block_sums.reshape(len(used), len(freqs), 2).transpose(1, 0, 2).reshape(len(freqs), -1)
    sums = np.einsum("fwj,fcj->fwc", _gather(series, 2 * k, 2 * s), _block_rotation(k, block_len, table))
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
        ValueError: if ``max_harmonic * freq_hz`` is not below Nyquist, refused by its projection.
    """
    if max_harmonic < 2:
        raise ValueError("max_harmonic must be at least 2")
    arr = _as_window(window)
    fundamental, _ = fundamental_phasor(arr, freq_hz, sample_rate_hz)
    if fundamental == 0.0:
        raise UndefinedFeatureError("THD undefined: zero fundamental component")
    harmonic_energy = 0.0
    for order in range(2, max_harmonic + 1):
        magnitude, _ = fundamental_phasor(arr, order * freq_hz, sample_rate_hz)
        harmonic_energy += magnitude * magnitude
    return math.sqrt(harmonic_energy) / fundamental
