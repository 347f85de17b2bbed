"""Scenario generation and feeder-level waveform synthesis.

A scenario is a fixed population of device instances behind one
single-phase feeder. Each instance follows an alternating-renewal
schedule (exponential on and off durations, stationary initial state)
and the feeder current is the sum of the scheduled per-device currents
plus wideband noise: each mode's own noise level and the optional feeder
noise. The feeder voltage is stiff: ``devices.supply_phasors``, a fixed
sinusoid with an optional third-harmonic term, unaffected by load. Both
waveforms come from the same harmonic kernel, ``devices.add_harmonics``.

Determinism: schedules are drawn with ``random.Random`` seeded per
(scenario seed, class name, instance index), so merging scenarios with
disjoint populations preserves each device's schedule and the noiseless
current adds up. Noise is one numpy stream per scenario, seeded from
(scenario seed, "feeder", "noise"), whose level follows the set of
running modes; merged populations therefore do not keep each device's
own noise samples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .devices import DeviceMode, DeviceModel, _stable_seed, add_harmonics, mode_phasors, supply_phasors
from .signals import Waveform

__all__ = [
    "ScenarioConfig",
    "DeviceSchedule",
    "Schedule",
    "generate_schedule",
    "synthesize_feeder",
    "ground_truth_counts",
    "SYNTHESIS_VERSION",
]

# Bumped whenever synthesize_feeder produces different waveforms for the same
# inputs; part of the scenario fingerprint, so older waveforms re-simulate.
# 2: one merged phasor table and one feeder noise stream per schedule segment.
SYNTHESIS_VERSION = 2


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to synthesize one feeder scenario deterministically.

    The medical devices are the ``n_medical_devices`` instances of
    ``medical_class``, any class of the library; the ground truth counts
    those and nothing else. ``schedule_params`` maps a device class to
    (mean_on_s, mean_off_s). ``medical_modes`` restricts which modes the
    medical class picks at each on-interval; empty means all modes, chosen
    uniformly, as every other class always picks.
    ``sample_rate_hz`` and ``f0_hz`` are whole numbers of hertz: synthesis
    and the featurizer reduce every phase exactly in integers.
    """

    duration_s: float
    sample_rate_hz: float = 10_000.0
    f0_hz: float = 60.0
    voltage_rms: float = 120.0
    voltage_thd: float = 0.0
    n_medical_devices: int = 0
    medical_class: str = "ventilator"
    background_population: tuple[tuple[str, int], ...] = ()
    schedule_params: dict[str, tuple[float, float]] = field(default_factory=dict)
    medical_modes: tuple[str, ...] = ()
    feeder_noise_rms_amps: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "background_population", tuple((str(c), int(n)) for c, n in self.background_population))
        object.__setattr__(self, "schedule_params", dict(self.schedule_params))
        object.__setattr__(self, "medical_modes", tuple(self.medical_modes))
        floats = ("duration_s", "sample_rate_hz", "f0_hz", "voltage_rms", "voltage_thd", "feeder_noise_rms_amps")
        for key in floats:
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")
        if not self.duration_s > 0.0:
            raise ValueError("duration_s must be positive")
        if not (self.sample_rate_hz > 0.0 and self.f0_hz > 0.0):
            raise ValueError("sample_rate_hz and f0_hz must be positive")
        for key in ("sample_rate_hz", "f0_hz"):
            if not float(getattr(self, key)).is_integer():
                raise ValueError(f"{key} must be a whole number of hertz, got {getattr(self, key)!r}")
        if self.voltage_rms <= 0.0:
            raise ValueError("voltage_rms must be positive")
        if self.voltage_thd < 0.0:
            raise ValueError("voltage_thd must be non-negative")
        if self.n_medical_devices < 0:
            raise ValueError("n_medical_devices must be non-negative")
        if any(n < 0 for _, n in self.background_population):
            raise ValueError("background device counts must be non-negative")
        for cls, (mean_on, mean_off) in self.schedule_params.items():
            if not (0.0 < mean_on < math.inf and 0.0 < mean_off < math.inf):
                raise ValueError(f"schedule_{cls}: means must be positive and finite, got {mean_on!r} {mean_off!r}")
        if self.feeder_noise_rms_amps < 0.0:
            raise ValueError("feeder_noise_rms_amps must be non-negative")
        if any(cls == self.medical_class for cls, _ in self.background_population):
            raise ValueError("medical_class must not also appear in background_population")

    def populations(self) -> tuple[tuple[str, int], ...]:
        """Device classes with counts, medical class first."""
        out: list[tuple[str, int]] = []
        if self.n_medical_devices > 0:
            out.append((self.medical_class, self.n_medical_devices))
        out.extend(self.background_population)
        return tuple(out)


@dataclass(frozen=True)
class DeviceSchedule:
    """On-intervals of device ``<class>#<k>``, its class's k-th; it is off wherever none covers the time."""

    device_id: str
    intervals: tuple[tuple[float, float, str], ...]  # (start_s, end_s, mode_name)

    @property
    def class_name(self) -> str:
        return self.device_id.split("#", 1)[0]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", tuple((float(s), float(e), str(m)) for s, e, m in self.intervals))
        previous_end = -math.inf
        for start, end, _mode in self.intervals:
            if not start < end:
                raise ValueError(f"{self.device_id}: interval start must precede end")
            if start < previous_end:
                raise ValueError(f"{self.device_id}: intervals overlap or are out of order")
            previous_end = end


@dataclass(frozen=True)
class Schedule:
    """All device schedules of one scenario, in deterministic device order."""

    devices: tuple[DeviceSchedule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", tuple(self.devices))
        ids = [d.device_id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ValueError("device ids must be unique")


def _mode_pool(config: ScenarioConfig, model: DeviceModel) -> list[str]:
    if model.class_name == config.medical_class and config.medical_modes:
        return [model.mode(name).name for name in config.medical_modes]
    return [m.name for m in model.modes]


def generate_schedule(config: ScenarioConfig, library: dict[str, DeviceModel]) -> Schedule:
    """Draw the alternating-renewal on/off schedule for every device instance.

    Each instance starts in the stationary state (on with probability
    mean_on / (mean_on + mean_off)) and alternates exponentially
    distributed on and off durations, truncated at the scenario end. At
    each on-interval the device picks a mode uniformly from its pool.
    Deterministic given ``config.rng_seed``.
    """
    devices: list[DeviceSchedule] = []
    for class_name, count in config.populations():
        if class_name not in library:
            raise ValueError(f"device class {class_name!r} is not in the device library")
        model = library[class_name]
        if class_name not in config.schedule_params:
            raise ValueError(f"no schedule_params for device class {class_name!r}")
        mean_on, mean_off = config.schedule_params[class_name]
        pool = _mode_pool(config, model)
        for k in range(count):
            rng = random.Random(f"{config.rng_seed}/{class_name}/{k}/schedule")
            is_on = rng.random() < mean_on / (mean_on + mean_off)
            t = 0.0
            intervals: list[tuple[float, float, str]] = []
            while t < config.duration_s:
                mean = mean_on if is_on else mean_off
                end = min(t + rng.expovariate(1.0 / mean), config.duration_s)
                if is_on and end > t:
                    mode_name = pool[rng.randrange(len(pool))]
                    intervals.append((t, end, mode_name))
                t = end
                is_on = not is_on
            devices.append(DeviceSchedule(f"{class_name}#{k}", tuple(intervals)))
    return Schedule(tuple(devices))


def _sample_index(time_s: float, sample_rate_hz: float, n: int) -> int:
    return min(max(int(round(time_s * sample_rate_hz)), 0), n)


def synthesize_feeder(
    config: ScenarioConfig, schedule: Schedule, library: dict[str, DeviceModel]
) -> tuple[Waveform, Waveform]:
    """Aggregate feeder (voltage, current) waveforms for a scheduled scenario.

    The schedule is checked and reduced to segments here; the samples are
    generated as each waveform is read, one buffer at a time, so no trace
    is ever whole in memory. The segments lie between the schedule's change
    points (the sample indices where any interval starts or ends). Within
    one the active modes are fixed, so the noiseless current is their
    merged phasors, counted with multiplicity and evaluated by
    ``add_harmonics`` phase-locked to the scenario clock. Noise is one
    stream for the whole feeder: each segment draws standard normals
    scaled by sqrt(feeder sigma^2 + sum of the active modes' sigma^2),
    which has the distribution of independent per-device noise plus feeder
    noise. Deterministic given the config and schedule, whatever the
    buffer sizes the samples are read in.
    """
    fs, f0 = config.sample_rate_hz, config.f0_hz
    n = int(round(config.duration_s * fs))
    if n < 1:
        raise ValueError("scenario too short for one sample")

    modes: list[DeviceMode] = []  # the distinct scheduled modes, one column each
    columns: dict[tuple[str, str], int] = {}  # (class, mode name) -> column
    events: list[tuple[int, int, int]] = []  # (sample index, column, +1 on / -1 off)
    for device in schedule.devices:
        if device.class_name not in library:
            raise ValueError(f"schedule references unknown device class {device.class_name!r}")
        model = library[device.class_name]
        for start, end, mode_name in device.intervals:
            if start < -1e-9 or end > config.duration_s + 1e-9:
                raise ValueError(f"{device.device_id}: interval outside the scenario duration")
            key = (device.class_name, mode_name)
            if key not in columns:
                try:
                    mode = model.mode(mode_name)
                except KeyError as exc:
                    raise ValueError(str(exc)) from None
                columns[key] = len(modes)
                modes.append(mode)
            i0 = _sample_index(start, fs, n)
            i1 = _sample_index(end, fs, n)
            if i1 > i0:
                events += [(i0, columns[key], 1), (i1, columns[key], -1)]

    max_order = max((mode.max_order for mode in modes), default=0)
    phasors = np.array([mode_phasors(mode, max_order) for mode in modes]).reshape(len(modes), max_order + 1)
    variances = np.array([mode.noise_rms_amps**2 for mode in modes])

    index, column, step = np.array(events, dtype=np.int64).reshape(-1, 3).T
    bounds = np.unique(np.concatenate(([0, n], index)))
    delta = np.zeros((bounds.size, len(modes)), dtype=np.int64)
    np.add.at(delta, (np.searchsorted(bounds, index), column), step)
    counts = np.cumsum(delta, axis=0)[:-1]  # active count of each mode in segment [bounds[s], bounds[s + 1])
    segment_phasors = (counts[:, :, None] * phasors[None]).sum(axis=1)
    segment_sigma = np.sqrt(config.feeder_noise_rms_amps**2 + (counts * variances).sum(axis=1))

    noise_rng = np.random.default_rng(_stable_seed(config.rng_seed, "feeder", "noise"))

    def fill_current(out: np.ndarray, start: int) -> None:
        # The segments that meet [start, start + out.size), each cut at the
        # buffer's edges: the noise stream runs on from the previous buffer,
        # and add_harmonics is phase-locked to the absolute sample index.
        stop = start + out.size
        for s in range(np.searchsorted(bounds, start, side="right") - 1, len(bounds) - 1):
            a, b = max(int(bounds[s]), start), min(int(bounds[s + 1]), stop)
            if a >= b:
                break
            piece = out[a - start : b - start]
            if segment_sigma[s] > 0.0:
                noise_rng.standard_normal(out=piece)
                piece *= segment_sigma[s]
            else:
                piece.fill(0.0)
            add_harmonics(piece, a, segment_phasors[s], fs, f0)

    supply = supply_phasors(config)

    def fill_voltage(out: np.ndarray, start: int) -> None:
        out.fill(0.0)
        add_harmonics(out, start, supply, fs, f0)

    return Waveform(n, fs, fill_voltage), Waveform(n, fs, fill_current)


def _ceil_index(time_s: float) -> int:
    # Tolerates 1-ulp float error on interval endpoints that land on integers.
    return max(0, math.ceil(time_s - 1e-9))


def ground_truth_counts(schedule: Schedule, config: ScenarioConfig) -> np.ndarray:
    """Count of medical devices (``config.medical_class``) running at each integer second, as ``int64``.

    Entry t is second t of the scenario, covered by an interval
    [start, end) when start <= t < end.
    """
    n = math.ceil(config.duration_s)
    counts = np.zeros(n, dtype=np.int64)
    for device in schedule.devices:
        if device.class_name != config.medical_class:
            continue
        for start, end, _mode in device.intervals:
            lo = _ceil_index(start)
            hi = min(_ceil_index(end), n)
            if hi > lo:
                counts[lo:hi] += 1
    return counts
