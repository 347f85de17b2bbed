import re
import zlib

import numpy as np
import pytest

from feeder_nilm.devices import LIBRARY_FORMAT_VERSION
from feeder_nilm.signals import Waveform


def reference_current(mode, t_s, f0_hz: float) -> np.ndarray:
    """Noiseless current of ``mode`` at absolute times ``t_s``, with each sine evaluated on its float phase.

    i(t) = sum_h sqrt(2) * M_h * sin(2*pi*h*f0*t + phi_h): the independent
    reference the harmonic kernel ``devices.add_harmonics`` is tested against.
    """
    out = np.zeros_like(t_s, dtype=np.float64)
    for h in mode.harmonics:
        out += np.sqrt(2.0) * h.magnitude_rms_amps * np.sin(2.0 * np.pi * h.harmonic_order * f0_hz * t_s + h.phase_rad)
    return out


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


def save_device_library(library, path) -> None:
    """Write ``library`` (class name -> ``DeviceModel``) as a device library file.

    The schema is the one ``devices.load_device_library`` documents: a
    ``[library]`` section with the format version, then one
    ``[device.<class>.mode.<mode>]`` section per mode, floats written with
    17 significant digits so the file reads back to the same bits.
    """
    lines = ["[library]", f"format_version = {LIBRARY_FORMAT_VERSION}", ""]
    for class_name, model in library.items():
        for mode in model.modes:
            lines.append(f"[device.{class_name}.mode.{mode.name}]")
            lines.append(f"noise_rms_amps = {mode.noise_rms_amps:.17g}")
            for h in mode.harmonics:
                lines.append(f"h{h.harmonic_order} = {h.magnitude_rms_amps:.17g} {h.phase_rad:.17g}")
            lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def report_values(path) -> dict[str, str]:
    """The ``key = value`` lines of a report file, as strings."""
    with open(path, encoding="utf-8") as fh:
        return dict(line.split(" = ", 1) for line in fh.read().splitlines() if " = " in line)


def reseal(path) -> None:
    """Set the ``body=`` seal of a hand-edited text artifact to its edited body, so its reader parses the edit."""
    with open(path, "rb") as fh:
        head, seal, body = fh.read().split(b"\n", 2)
    seal = re.sub(rb"body=[0-9a-f]{8}$", b"body=%08x" % zlib.crc32(body), seal)
    with open(path, "wb") as fh:
        fh.write(b"\n".join((head, seal, body)))
