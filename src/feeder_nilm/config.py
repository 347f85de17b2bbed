"""Run configuration: line-oriented key = value files with [section] headers.

Example:

    [scenario]
    duration_s = 600
    sample_rate_hz = 10000
    n_medical_devices = 5
    medical_class = ventilator
    medical_modes = run humidifier-run
    background_population = resistive_heater:8 induction_motor:5 smps:1
    schedule_ventilator = 150 75
    schedule_resistive_heater = 180 120
    schedule_induction_motor = 150 150
    schedule_smps = 240 60
    feeder_noise_rms_amps = 0.05
    rng_seed = 7

    [featurize]
    window_s = 5
    stride_s = 5

    [model]
    hidden_layers = 32 16
    learning_rate = 0.02
    epochs = 400

    [split]
    train_fraction = 0.6
    val_fraction = 0.2
    test_fraction = 0.2

Unknown keys are rejected so typos fail loudly. A section's keys and
defaults are the fields of its dataclass (``ModelSection`` with its
``TrainConfig`` fields inline), each value converted by the field's type;
every rule on a value, such as that a float is finite, lives in the
dataclass. Besides those, [scenario] takes ``device_library``
and per-class means ``schedule_<class> = <mean_on_s> <mean_off_s>``,
[output] takes ``dir``, and ``stride_s`` (at least one sample) defaults
to ``window_s``. Stage artifacts carry a 128-bit fingerprint (the first
32 hex digits of a sha256) of every field, chained over (scenario +
library + ``simulate.SYNTHESIS_VERSION``), then (featurize +
``featurize.FEATURIZE_VERSION``), then (model + split +
``model.MODEL_VERSION``); stages reject
artifacts whose fingerprint is not equal to the current configuration's.
"""

from __future__ import annotations

import json
import math
import os
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from typing import get_type_hints

from .devices import DeviceModel, default_library, load_device_library, sha256, supply_phasors
from .featurize import FEATURE_IDS, FeatureSpec
from .model import TrainConfig
from . import featurize, model, simulate
from .simulate import ScenarioConfig

__all__ = [
    "ConfigError",
    "FeaturizeSection",
    "ModelSection",
    "SplitSection",
    "RunConfig",
    "load_run_config",
    "load_library_for",
    "scenario_fingerprint",
    "dataset_fingerprint",
    "model_fingerprint",
]


class ConfigError(ValueError):
    """A run configuration file is missing, malformed, or inconsistent."""


def _require_finite(section, *keys: str) -> None:
    for key in keys:
        if not math.isfinite(getattr(section, key)):
            raise ConfigError(f"{key} must be finite, got {getattr(section, key)!r}")


@dataclass(frozen=True)
class FeaturizeSection:
    window_s: float = 5.0
    stride_s: float = 5.0
    features: tuple[str, ...] = FEATURE_IDS
    top_k: int = 0  # 0 = keep all features; >0 = truncate via the Fisher ranking

    def __post_init__(self) -> None:
        _require_finite(self, "window_s", "stride_s")
        if not (self.window_s >= 1.0 and self.stride_s > 0.0):
            raise ConfigError("window_s must be >= 1 and stride_s positive")
        if self.top_k < 0:
            raise ConfigError("top_k must be non-negative")
        FeatureSpec(self.features)  # known, unique feature ids


@dataclass(frozen=True)
class ModelSection:
    hidden_layers: tuple[int, ...] = (32, 16)
    init_seed: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        if any(h < 1 for h in self.hidden_layers):
            raise ConfigError("hidden layer sizes must be positive")
        if self.init_seed < 0:
            raise ConfigError("init_seed must be non-negative")


@dataclass(frozen=True)
class SplitSection:
    train_fraction: float = 0.6
    val_fraction: float = 0.2
    test_fraction: float = 0.2

    def __post_init__(self) -> None:
        _require_finite(self, "train_fraction", "val_fraction", "test_fraction")
        fractions = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(f <= 0.0 for f in fractions):
            raise ConfigError("split fractions must be positive")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    featurize: FeaturizeSection = field(default_factory=FeaturizeSection)
    model: ModelSection = field(default_factory=ModelSection)
    split: SplitSection = field(default_factory=SplitSection)
    device_library_path: str | None = None
    output_dir: str | None = None

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, scenario=replace(self.scenario, rng_seed=seed))


def _parse_population(value: str) -> tuple[tuple[str, int], ...]:
    pairs = (token.rsplit(":", 1) for token in value.replace(",", " ").split())
    return tuple((name, int(count)) for name, count in pairs)


# A section field's value string is converted by the field's type.
_CONVERTERS = {
    float: float,
    int: int,
    str: str,
    tuple[str, ...]: lambda value: tuple(value.split()),
    tuple[int, ...]: lambda value: tuple(int(x) for x in value.split()),
    tuple[tuple[str, int], ...]: _parse_population,
}


def _typed_fields(cls):
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def _keys(cls) -> set[str]:
    """The keys of a section: its field names, a dataclass-typed field's keys inline."""
    return set().union(*(_keys(kind) if is_dataclass(kind) else {f.name} for f, kind in _typed_fields(cls)))


def _build(path, section: str, cls, raw: dict[str, str], **given):
    """``cls`` from ``[section]`` value strings: each field not ``given`` reads its key or keeps its default."""
    kwargs = dict(given)
    for f, kind in _typed_fields(cls):
        if f.name in given:
            continue
        if is_dataclass(kind):
            kwargs[f.name] = _build(path, section, kind, raw)
        elif f.name in raw:
            try:
                kwargs[f.name] = _CONVERTERS[kind](raw[f.name])
            except ValueError:
                raise ConfigError(f"{path}: bad value for [{section}] {f.name}: {raw[f.name]!r}") from None
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}: [{section}] {f.name} is required")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _reject_unknown(path, section: str, unknown) -> None:
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")


def _section(path, section: str, cls, raw: dict[str, str], **given):
    _reject_unknown(path, section, set(raw) - _keys(cls))
    return _build(path, section, cls, raw, **given)


def _refuse_aliasing(scenario: ScenarioConfig, order: int, source: str) -> None:
    """Refuse harmonic ``order`` of the grid at or above the Nyquist frequency, naming the ``source`` of the order."""
    if 2 * order * scenario.f0_hz >= scenario.sample_rate_hz:
        raise ConfigError(
            f"{source} harmonic order {order} ({order * scenario.f0_hz:g} Hz), which aliases at "
            f"{scenario.sample_rate_hz:g} Hz sampling: not below the Nyquist frequency"
        )


def load_run_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    parser = ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (ConfigParserError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None

    raw = {name: dict(parser.items(name)) for name in parser.sections()}
    for name in raw:
        if name not in ("scenario", "featurize", "model", "split", "output"):
            raise ConfigError(f"{path}: unknown section [{name}]")
    if "scenario" not in raw:
        raise ConfigError(f"{path}: missing [scenario] section")

    scenario_raw = raw["scenario"]
    schedules: dict[str, tuple[float, float]] = {}
    for key in [key for key in scenario_raw if key.startswith("schedule_")]:
        try:
            mean_on, mean_off = map(float, scenario_raw.pop(key).split())
        except ValueError:
            raise ConfigError(f"{path}: {key} needs two numbers '<mean_on_s> <mean_off_s>'") from None
        schedules[key[len("schedule_") :]] = (mean_on, mean_off)
    library_path = scenario_raw.pop("device_library", None)
    if library_path is not None and not os.path.isabs(library_path):
        library_path = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(path)), library_path))
    scenario = _section(path, "scenario", ScenarioConfig, scenario_raw, schedule_params=schedules)

    featurize_raw = raw.get("featurize", {})
    featurize_section = _section(path, "featurize", FeaturizeSection, featurize_raw)
    if "stride_s" not in featurize_raw:  # the stride defaults to the window
        featurize_section = replace(featurize_section, stride_s=featurize_section.window_s)
    if round(featurize_section.stride_s * scenario.sample_rate_hz) < 1:
        raise ConfigError(f"{path}: [featurize] stride_s is shorter than one sample")
    for order in FeatureSpec(featurize_section.features).harmonic_orders:
        _refuse_aliasing(scenario, order, f"{path}: [featurize] the features project")
    for order, amplitude in enumerate(supply_phasors(scenario).tolist()):
        if amplitude:
            _refuse_aliasing(scenario, order, f"{path}: [scenario] the supply")
    if featurize_section.window_s > scenario.duration_s:
        raise ConfigError(f"{path}: [featurize] window_s exceeds the scenario duration_s")

    output_raw = raw.get("output", {})
    output_dir = output_raw.pop("dir", None)
    _reject_unknown(path, "output", output_raw)

    return RunConfig(
        scenario=scenario,
        featurize=featurize_section,
        model=_section(path, "model", ModelSection, raw.get("model", {})),
        split=_section(path, "split", SplitSection, raw.get("split", {})),
        device_library_path=library_path,
        output_dir=output_dir,
    )


def load_library_for(config: RunConfig) -> dict[str, DeviceModel]:
    """The device library named by the config, or the built-in default.

    Also checks the scenario against it, so that simulate cannot fail on the config.
    """
    scenario = config.scenario
    library = load_device_library(config.device_library_path) if config.device_library_path else default_library()
    listed = [class_name for class_name, _ in scenario.populations()]
    for class_name, count in scenario.populations():
        if class_name not in library:
            raise ConfigError(f"device class {class_name!r} is not in the device library")
        if listed.count(class_name) > 1:
            raise ConfigError(f"device class {class_name!r} is listed more than once")
        if class_name not in scenario.schedule_params:
            raise ConfigError(f"device class {class_name!r} needs schedule_{class_name} = <mean_on_s> <mean_off_s>")
        if count > 0:
            highest = max(library[class_name].modes, key=lambda mode: mode.max_order)
            _refuse_aliasing(scenario, highest.max_order, f"device class {class_name!r} mode {highest.name!r}")
    medical = scenario.medical_class
    for mode_name in scenario.medical_modes:  # checked whatever n_medical_devices is
        if medical not in library:
            raise ConfigError(f"medical_modes: device class {medical!r} is not in the device library")
        if mode_name not in [mode.name for mode in library[medical].modes]:
            raise ConfigError(f"medical_modes: device {medical!r} has no mode {mode_name!r}")
    return library


def _digest(*parts) -> str:
    """sha256 of a canonical JSON dump of ``parts`` (dataclass fields, floats by repr), cut to 128 bits."""
    text = json.dumps(parts, sort_keys=True, default=asdict)
    return sha256(text.encode("utf-8")).digest()[:16].hex()


def scenario_fingerprint(config: RunConfig, library: dict[str, DeviceModel]) -> str:
    # The synthesis version is read at call time: waveforms made by another synthesizer are stale.
    return _digest(config.scenario, library, simulate.SYNTHESIS_VERSION)


def dataset_fingerprint(config: RunConfig, library: dict[str, DeviceModel]) -> str:
    # Read at call time, as the synthesis version is: a dataset or ranking made by another featurizer is stale.
    return _digest(scenario_fingerprint(config, library), config.featurize, featurize.FEATURIZE_VERSION)


def model_fingerprint(config: RunConfig, library: dict[str, DeviceModel]) -> str:
    # Read at call time too: a model or report made by another trainer or evaluator is stale.
    return _digest(dataset_fingerprint(config, library), config.model, config.split, model.MODEL_VERSION)
