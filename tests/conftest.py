import numpy as np
import pytest

from feeder_nilm.signals import Waveform


def sine(freq_hz: float, sample_rate_hz: float, n_cycles: float, amplitude: float = 1.0, phase: float = 0.0):
    """Sampled amplitude*sin(2*pi*freq*t + phase) over n_cycles periods."""
    n = int(round(n_cycles * sample_rate_hz / freq_hz))
    t = np.arange(n) / sample_rate_hz
    return amplitude * np.sin(2.0 * np.pi * freq_hz * t + phase)


@pytest.fixture
def grid():
    """Default 60 Hz grid sampled at 10 kHz."""
    return 60.0, 10_000.0


def samples_of(waveform) -> np.ndarray:
    """Every sample of an unread waveform, gathered into one array."""
    out = np.empty(waveform.n_samples)
    waveform.readinto(out)
    return out


def waveform_of(samples, sample_rate_hz: float) -> Waveform:
    """A waveform that copies its samples out of a private copy of ``samples``."""
    samples = np.array(samples, dtype=np.float64)
    return Waveform(samples.size, sample_rate_hz, lambda out, start: np.copyto(out, samples[start : start + out.size]))
