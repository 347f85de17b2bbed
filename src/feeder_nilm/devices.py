"""Parametric steady-state appliance signatures and the harmonic synthesis kernel.

``add_harmonics`` turns summed mode phasors (``mode_phasors``) into
samples at a whole-hertz rate and grid frequency, from the one-period
sin/cos table of ``signals._period_table`` that the featurizer's block
projection and window rotation read too; the feeder synthesis in
``simulate`` and the characterization current (``mode_current_samples``)
both use it, and ``supply_phasors`` gives the feeder voltage.
``characterization_vectors`` gives the repeated per-mode feature
vectors that ``select-features`` ranks, on a scenario's own supply.

A device class is described by named operational modes, each mode by a
set of harmonic phasors (RMS amperes, radians, sine convention) plus a
wideband current-noise level. A mode is a state in which the device
draws current; a device is off whenever no schedule interval covers the
time, so there is no off mode. The shipped signatures are synthetic
stand-ins with distinct harmonic and phase profiles per class; they are
not lab measurements and every one of them can be overridden through a
device library file (see ``load_device_library`` for the schema). A
class says nothing about being medical: a scenario's medical devices are
the instances of its ``medical_class``, whichever class that names.
"""

from __future__ import annotations

import cmath
import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass

import numpy as np

from .featurize import evaluate_window
from .signals import CHUNK_BYTES, _period_table, wrap_phase

# sha256 for fingerprints and noise seeds, from the interpreter's own module, as the
# standard library's random takes sha512: hashlib maps OpenSSL's libcrypto, which took
# 3.5 MB off the desk_scale no-op rerun's peak RSS and 3-4.5 ms to import (the
# built-in module: about 0.3 ms, no measurable RSS; Python 3.11, x86-64 Linux).
try:
    from _sha256 import sha256  # Python 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256

__all__ = [
    "LibraryFormatError",
    "HarmonicSpec",
    "DeviceMode",
    "DeviceModel",
    "mode_current_samples",
    "mode_phasors",
    "add_harmonics",
    "supply_phasors",
    "characterization_vectors",
    "default_library",
    "load_device_library",
]

# Bumped whenever a library file's schema changes; a file of another version is refused.
# 2: a class is declared by its mode sections alone; format 1's [device.<class>] section and
#    its medical flag are gone, since the scenario's medical_class names the medical devices.
LIBRARY_FORMAT_VERSION = 2

REPETITIONS = 8  # windows per mode in ``characterization_vectors``


class LibraryFormatError(ValueError):
    """A device library file is malformed or has an unsupported version."""


@dataclass(frozen=True)
class HarmonicSpec:
    """One harmonic component of a mode's current: order, RMS amperes, phase."""

    harmonic_order: int
    magnitude_rms_amps: float
    phase_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.harmonic_order < 1:
            raise ValueError("harmonic_order must be a positive integer")
        if not (math.isfinite(self.magnitude_rms_amps) and self.magnitude_rms_amps >= 0.0):
            raise ValueError("magnitude_rms_amps must be finite and non-negative")
        if not math.isfinite(self.phase_rad):
            raise ValueError("phase_rad must be finite")
        object.__setattr__(self, "phase_rad", wrap_phase(self.phase_rad))


@dataclass(frozen=True)
class DeviceMode:
    """A named steady state of a device with its harmonic signature."""

    name: str
    harmonics: tuple[HarmonicSpec, ...] = ()
    noise_rms_amps: float = 0.0

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError("mode name must be non-empty and contain no whitespace")
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        orders = [h.harmonic_order for h in self.harmonics]
        if len(set(orders)) != len(orders):
            raise ValueError(f"mode {self.name!r} repeats a harmonic order")
        if not (math.isfinite(self.noise_rms_amps) and self.noise_rms_amps >= 0.0):
            raise ValueError("noise_rms_amps must be finite and non-negative")
        if not any(h.magnitude_rms_amps > 0.0 for h in self.harmonics):
            raise ValueError(f"mode {self.name!r} must have at least one non-zero harmonic")

    @property
    def max_order(self) -> int:
        return max((h.harmonic_order for h in self.harmonics), default=0)


@dataclass(frozen=True)
class DeviceModel:
    """An appliance class: the modes it draws current in. A scenario's ``medical_class`` says which class is medical."""

    class_name: str
    modes: tuple[DeviceMode, ...]

    def __post_init__(self) -> None:
        if not self.class_name or any(ch.isspace() for ch in self.class_name) or "#" in self.class_name:
            raise ValueError("class_name must be non-empty, without whitespace or '#'")
        object.__setattr__(self, "modes", tuple(self.modes))
        names = [m.name for m in self.modes]
        if len(set(names)) != len(names):
            raise ValueError(f"device {self.class_name!r} repeats a mode name")
        if not self.modes:
            raise ValueError(f"device {self.class_name!r} has no modes")

    def mode(self, name: str) -> DeviceMode:
        for m in self.modes:
            if m.name == name:
                return m
        raise KeyError(f"device {self.class_name!r} has no mode {name!r}")


def mode_phasors(mode: DeviceMode, max_order: int) -> np.ndarray:
    """Complex amplitudes of ``mode``'s current indexed by harmonic order (0..max_order).

    Entry h is sqrt(2) * M_h * exp(j * phi_h), so the current is
    sum_h Im(entry_h * exp(j*2*pi*h*f0*t)) = sum_h sqrt(2) * M_h * sin(2*pi*h*f0*t + phi_h).
    Phasors of concurrent modes add.
    """
    out = np.zeros(max_order + 1, dtype=np.complex128)
    for h in mode.harmonics:
        out[h.harmonic_order] = math.sqrt(2.0) * h.magnitude_rms_amps * cmath.exp(1j * h.phase_rad)
    return out


def add_harmonics(out: np.ndarray, start: int, phasors: np.ndarray, sample_rate_hz: float, f0_hz: float) -> None:
    """Add the harmonic sum of ``phasors`` (see ``mode_phasors``) into ``out`` in place.

    ``out[k]`` gains sum_h Im(phasors[h] * exp(j*2*pi*h*f0*(start + k)/fs)):
    ``out`` holds the contiguous samples from absolute index ``start`` on,
    so the result is phase-locked to the scenario clock. With a whole-hertz
    rate and harmonics the sum repeats every P = fs / gcd(fs, h*f0, ...)
    samples (500 at 10 kHz and 60 Hz): one period is weighed from the sin
    and cos rows of ``signals._period_table``, rolled to ``start mod P``
    and tiled over ``out``.

    Raises:
        ValueError: if ``sample_rate_hz`` or the frequency of a non-zero
            harmonic is not a whole number of hertz, or that frequency is
            not below the Nyquist frequency.
    """
    orders = np.flatnonzero(phasors)
    n = out.size
    if orders.size == 0 or n == 0:
        return
    if not out.flags.c_contiguous:
        raise ValueError("out must be contiguous")
    table = _period_table(tuple(float(h * f0_hz) for h in orders), sample_rate_hz)
    a = phasors[orders]
    # sum_h Im(A_h * exp(j*theta_h)) over one period, then rolled to begin at sample index start.
    wave = (a.real[:, None] * table[0::2] + a.imag[:, None] * table[1::2]).sum(axis=0)
    period = wave.size
    wave = np.roll(wave, -(start % period))
    full, rest = divmod(n, period)
    if full:
        tiles = out[: full * period].reshape(full, period)
        tiles += wave
    out[full * period :] += wave[:rest]


def mode_current_samples(mode: DeviceMode, n_samples: int, sample_rate_hz: float, f0_hz: float) -> np.ndarray:
    """Noiseless current of ``mode`` running alone over samples 0 ... ``n_samples`` - 1, from ``add_harmonics``.

    The characterization current, made by the kernel the feeder synthesis
    uses. Its one caller is ``characterization_vectors``; it stays a
    function of its own because ``perfbench`` traces it by name.
    """
    out = np.zeros(n_samples)
    add_harmonics(out, 0, mode_phasors(mode, mode.max_order), sample_rate_hz, f0_hz)
    return out


def supply_phasors(scenario) -> np.ndarray:
    """Phasors (as ``mode_phasors``) of the feeder voltage: ``voltage_rms``, plus ``voltage_thd`` of it at order 3."""
    amplitude = math.sqrt(2.0) * scenario.voltage_rms
    return np.array([0.0, amplitude, 0.0, amplitude * scenario.voltage_thd])


def characterization_vectors(model: DeviceModel, feature_spec, window_s: float, scenario) -> list[np.ndarray]:
    """Noisy signature vectors across all modes of ``model``, measured on ``scenario``'s supply.

    Emulates repeated lab measurements: per mode, ``REPETITIONS`` windows of
    the first ``window_s`` of the scenario's feeder voltage, with the mode's
    own noise seeded from the scenario's ``rng_seed``. The repetitions are
    drawn and evaluated in groups of at most ``CHUNK_BYTES`` of samples (one
    at a time once two windows do not fit), so memory does not grow with
    ``REPETITIONS`` times the window. The vectors are the same bits for any
    group size: the noise stream fills the groups' rows in the order of one
    whole draw, and a window's features depend on that window alone.
    """
    fs, f0 = scenario.sample_rate_hz, scenario.f0_hz
    n = int(round(window_s * fs))
    if n < 1:
        raise ValueError("window_s too short for one sample")
    voltage = np.zeros(n)
    add_harmonics(voltage, 0, supply_phasors(scenario), fs, f0)
    group = max(1, CHUNK_BYTES // (8 * n))
    vectors: list[np.ndarray] = []
    for mode in model.modes:
        rng = np.random.default_rng(_stable_seed(scenario.rng_seed, model.class_name, mode.name, "characterize"))
        clean = mode_current_samples(mode, n, fs, f0)
        for first in range(0, REPETITIONS, group):
            current = rng.normal(0.0, mode.noise_rms_amps, (min(group, REPETITIONS - first), n))
            current += clean
            rows, _ = evaluate_window(np.broadcast_to(voltage, current.shape), current, feature_spec, fs, f0)
            vectors.extend(rows)
    return vectors


def _stable_seed(*parts) -> int:
    # Process-independent integer seed from string parts (hash() is salted, sha256 is not).
    digest = sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _phasor_sum(*components: tuple[float, float]) -> tuple[float, float]:
    total = sum(m * cmath.exp(1j * p) for m, p in components)
    return abs(total), cmath.phase(total)


def default_library() -> dict[str, DeviceModel]:
    """Built-in device library: the ventilator plus five background classes."""
    hum_mag, hum_phase = _phasor_sum((0.55, -0.52), (0.80, 0.0))
    ventilator = DeviceModel(
        "ventilator",
        modes=(
            DeviceMode("standby", (HarmonicSpec(1, 0.10, -0.35),), noise_rms_amps=0.003),
            DeviceMode(
                "run",
                (
                    HarmonicSpec(1, 0.55, -0.52),
                    HarmonicSpec(3, 0.18, 2.80),
                    HarmonicSpec(5, 0.09, -1.90),
                ),
                noise_rms_amps=0.006,
            ),
            DeviceMode(
                "humidifier-run",
                (
                    HarmonicSpec(1, hum_mag, hum_phase),
                    HarmonicSpec(3, 0.18, 2.80),
                    HarmonicSpec(5, 0.09, -1.90),
                ),
                noise_rms_amps=0.006,
            ),
        ),
    )
    background = [
        DeviceModel(
            "resistive_heater",
            modes=(DeviceMode("on", (HarmonicSpec(1, 8.0, 0.0),), noise_rms_amps=0.010),),
        ),
        DeviceModel(
            "induction_motor",
            modes=(
                DeviceMode(
                    "on",
                    (HarmonicSpec(1, 5.0, -0.65), HarmonicSpec(5, 0.05, 1.40)),
                    noise_rms_amps=0.020,
                ),
            ),
        ),
        DeviceModel(
            "smps",
            modes=(
                DeviceMode(
                    "on",
                    (
                        HarmonicSpec(1, 1.10, -0.12),
                        HarmonicSpec(3, 0.85, -2.50),
                        HarmonicSpec(5, 0.55, -0.40),
                        HarmonicSpec(7, 0.30, 2.20),
                    ),
                    noise_rms_amps=0.010,
                ),
            ),
        ),
        DeviceModel(
            "lighting",
            modes=(
                DeviceMode(
                    "on",
                    (
                        HarmonicSpec(1, 0.45, -0.30),
                        HarmonicSpec(3, 0.20, 2.60),
                        HarmonicSpec(5, 0.10, -0.80),
                        HarmonicSpec(7, 0.05, 1.10),
                    ),
                    noise_rms_amps=0.004,
                ),
            ),
        ),
        DeviceModel(
            "refrigerator",
            modes=(
                DeviceMode(
                    "compressor",
                    (HarmonicSpec(1, 1.60, -0.50), HarmonicSpec(3, 0.08, 1.90), HarmonicSpec(5, 0.04, -2.30)),
                    noise_rms_amps=0.008,
                ),
            ),
        ),
    ]
    library = {ventilator.class_name: ventilator}
    for model in background:
        library[model.class_name] = model
    return library


def load_device_library(path) -> dict[str, DeviceModel]:
    """Read a device library file.

    Schema (format 2; key = value lines under nested section headers):

        [library]
        format_version = 2

        [device.<class>.mode.<mode>]
        noise_rms_amps = <float>
        h<order> = <magnitude_rms_amps> <phase_rad>

    A class is declared by its mode sections; there is no section for the
    class itself. Every mode has at least one non-zero harmonic, and
    ``noise_rms_amps`` defaults to 0.
    """
    parser = ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (ConfigParserError, UnicodeDecodeError) as exc:
        raise LibraryFormatError(f"device library {path}: {exc}") from None
    if not parser.has_section("library"):
        raise LibraryFormatError(f"device library {path}: missing [library] section")
    version = parser.get("library", "format_version", fallback=None)
    if version is None or version.strip() != str(LIBRARY_FORMAT_VERSION):
        raise LibraryFormatError(
            f"device library {path}: unsupported format_version {version!r}; format {LIBRARY_FORMAT_VERSION} "
            f"declares a class by its [device.<class>.mode.<mode>] sections alone: delete the [device.<class>] "
            f"sections and set format_version = {LIBRARY_FORMAT_VERSION}"
        )

    classes: dict[str, list[DeviceMode]] = {}  # class name -> its modes, in file order
    for section in parser.sections():
        if section == "library":
            continue
        parts = section.split(".")
        if len(parts) == 4 and parts[0] == "device" and parts[2] == "mode":
            class_name, mode_name = parts[1], parts[3]
            harmonics = []  # (order, magnitude, phase), checked by HarmonicSpec below
            noise = 0.0
            for key, value in parser.items(section):
                if key == "noise_rms_amps":
                    noise = _parse_float(path, section, key, value)
                elif key.startswith("h") and key[1:].isdigit():
                    fields = value.split()
                    if len(fields) != 2:
                        raise LibraryFormatError(
                            f"device library {path}: [{section}] {key} needs '<magnitude> <phase>'"
                        )
                    magnitude, phase = (_parse_float(path, section, key, field) for field in fields)
                    harmonics.append((int(key[1:]), magnitude, phase))
                else:
                    raise LibraryFormatError(f"device library {path}: unknown key {key!r} in [{section}]")
            try:
                specs = tuple(HarmonicSpec(*harmonic) for harmonic in harmonics)
                classes.setdefault(class_name, []).append(DeviceMode(mode_name, specs, noise))
            except ValueError as exc:
                raise LibraryFormatError(f"device library {path}: {exc}") from None
        else:
            raise LibraryFormatError(f"device library {path}: unexpected section [{section}]")

    library: dict[str, DeviceModel] = {}
    for class_name, modes in classes.items():
        try:
            library[class_name] = DeviceModel(class_name, modes)
        except ValueError as exc:
            raise LibraryFormatError(f"device library {path}: {exc}") from None
    if not library:
        raise LibraryFormatError(f"device library {path}: no device classes defined")
    return library


def _parse_float(path, section: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise LibraryFormatError(f"device library {path}: [{section}] {key} is not a number") from None
