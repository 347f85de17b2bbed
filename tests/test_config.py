"""Config schema: every section key, its default, its parsing and its fingerprint."""

import dataclasses
import os
import textwrap
from functools import reduce

import pytest

from feeder_nilm import config as config_module
from feeder_nilm import featurize as featurize_module
from feeder_nilm import model as model_module
from feeder_nilm.config import (
    ConfigError,
    FeaturizeSection,
    ModelSection,
    RunConfig,
    SplitSection,
    dataset_fingerprint,
    load_library_for,
    load_run_config,
    model_fingerprint,
    scenario_fingerprint,
)
from feeder_nilm.devices import default_library, load_device_library
from feeder_nilm.featurize import FEATURE_IDS, FeatureSpec
from feeder_nilm.model import TrainConfig
from feeder_nilm.simulate import ScenarioConfig

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
LIBRARY = os.path.normpath(os.path.join(CONFIGS, "separable_library.cfg"))

# Every key accepted before the sections were declared once, minus the
# removed [split] seed: (section, key) -> (RunConfig attribute, default,
# a non-default setting, its parsed value). duration_s has no default;
# its row holds the 10 s of the minimal config below.
KEYS = {
    ("scenario", "duration_s"): ("scenario.duration_s", 10.0, "61", 61.0),
    ("scenario", "sample_rate_hz"): ("scenario.sample_rate_hz", 10_000.0, "2500", 2500.0),
    ("scenario", "f0_hz"): ("scenario.f0_hz", 60.0, "50", 50.0),
    ("scenario", "voltage_rms"): ("scenario.voltage_rms", 120.0, "230", 230.0),
    ("scenario", "voltage_thd"): ("scenario.voltage_thd", 0.0, "0.01", 0.01),
    ("scenario", "n_medical_devices"): ("scenario.n_medical_devices", 0, "3", 3),
    ("scenario", "medical_class"): ("scenario.medical_class", "ventilator", "smps", "smps"),
    ("scenario", "medical_modes"): ("scenario.medical_modes", (), "run", ("run",)),
    ("scenario", "background_population"): (
        "scenario.background_population", (), "resistive_heater:3 lighting:1",
        (("resistive_heater", 3), ("lighting", 1)),
    ),
    ("scenario", "schedule_lighting"): ("scenario.schedule_params", {}, "20 10", {"lighting": (20.0, 10.0)}),
    ("scenario", "feeder_noise_rms_amps"): ("scenario.feeder_noise_rms_amps", 0.0, "0.05", 0.05),
    ("scenario", "rng_seed"): ("scenario.rng_seed", 0, "12", 12),
    ("scenario", "device_library"): ("device_library_path", None, LIBRARY, LIBRARY),
    ("featurize", "window_s"): ("featurize.window_s", 5.0, "4", 4.0),
    ("featurize", "stride_s"): ("featurize.stride_s", 5.0, "2.5", 2.5),
    ("featurize", "features"): ("featurize.features", FEATURE_IDS, "i_rms thd", ("i_rms", "thd")),
    ("featurize", "top_k"): ("featurize.top_k", 0, "3", 3),
    ("model", "hidden_layers"): ("model.hidden_layers", (32, 16), "8 4", (8, 4)),
    ("model", "init_seed"): ("model.init_seed", 1, "2", 2),
    ("model", "learning_rate"): ("model.train.learning_rate", 0.02, "0.05", 0.05),
    ("model", "batch_size"): ("model.train.batch_size", 16, "8", 8),
    ("model", "epochs"): ("model.train.epochs", 400, "50", 50),
    ("model", "l2_penalty"): ("model.train.l2_penalty", 0.0, "0.001", 0.001),
    ("model", "shuffle_seed"): ("model.train.shuffle_seed", 0, "4", 4),
    ("model", "patience"): ("model.train.patience", 60, "9", 9),
    # Off by far less than the 1e-9 sum tolerance, so each fraction can move alone.
    ("split", "train_fraction"): ("split.train_fraction", 0.6, "0.6000000000000001", 0.6000000000000001),
    ("split", "val_fraction"): ("split.val_fraction", 0.2, "0.20000000000000004", 0.20000000000000004),
    ("split", "test_fraction"): ("split.test_fraction", 0.2, "0.20000000000000004", 0.20000000000000004),
    ("output", "dir"): ("output_dir", None, "results", "results"),
}

# Which fingerprints a section's keys feed: scenario, dataset, model.
STAGE_OF_SECTION = {"scenario": 0, "featurize": 1, "model": 2, "split": 2, "output": 3}


def load(tmp_path, *settings):
    """The minimal config plus ``((section, key), value)`` settings."""
    sections = {"scenario": {"duration_s": "10"}}
    for (section, key), value in settings:
        sections.setdefault(section, {})[key] = value
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
        for name, body in sections.items()
    )
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return load_run_config(path)


def attribute(config, dotted):
    return reduce(getattr, dotted.split("."), config)


def fingerprints(config):
    path = config.device_library_path
    library = load_device_library(path) if path else default_library()
    return (
        scenario_fingerprint(config, library),
        dataset_fingerprint(config, library),
        model_fingerprint(config, library),
    )


def section_keys(cls):
    keys = set()
    for f in dataclasses.fields(cls):
        keys |= section_keys(TrainConfig) if f.name == "train" else {f.name}
    return keys


class TestSchema:
    def test_table_covers_every_section_field(self):
        # A field added to a section needs a row here, so it is parsed,
        # defaulted and fingerprinted under test.
        tabled = {section: set() for section in STAGE_OF_SECTION}
        for section, key in KEYS:
            tabled[section].add("schedule_params" if key.startswith("schedule_") else key)
        assert section_keys(ScenarioConfig) == tabled["scenario"] - {"device_library"}
        assert section_keys(FeaturizeSection) == tabled["featurize"]
        assert section_keys(ModelSection) == tabled["model"]
        assert section_keys(SplitSection) == tabled["split"]

    def test_minimal_config_is_the_dataclass_defaults(self, tmp_path):
        assert load(tmp_path) == RunConfig(ScenarioConfig(duration_s=10.0))

    @pytest.mark.parametrize("key", sorted(KEYS), ids="-".join)
    def test_default(self, tmp_path, key):
        dotted, default, _, _ = KEYS[key]
        assert attribute(load(tmp_path), dotted) == default

    @pytest.mark.parametrize("key", sorted(KEYS), ids="-".join)
    def test_key_accepted(self, tmp_path, key):
        dotted, default, setting, parsed = KEYS[key]
        value = attribute(load(tmp_path, (key, setting)), dotted)
        assert value == parsed and value != default

    def test_stride_defaults_to_window(self, tmp_path):
        config = load(tmp_path, (("featurize", "window_s"), "8"))
        assert config.featurize.stride_s == 8.0

    def test_relative_device_library_resolves_against_config_dir(self, tmp_path):
        config = load(tmp_path, (("scenario", "device_library"), "lib.cfg"))
        assert config.device_library_path == str(tmp_path / "lib.cfg")

    @pytest.mark.parametrize("section", sorted(STAGE_OF_SECTION))
    def test_unknown_key_rejected_in_every_section(self, tmp_path, section):
        with pytest.raises(ConfigError, match=rf"\[{section}\].*bogus_knob"):
            load(tmp_path, ((section, "bogus_knob"), "1"))

    @pytest.mark.parametrize("key, value", [("init_seed", "-1"), ("shuffle_seed", "-3")], ids=["init", "shuffle"])
    def test_negative_model_seed_refused_naming_its_key(self, tmp_path, key, value):
        # numpy refuses a negative seed only once train runs, after three stages have written their outputs.
        assert attribute(load(tmp_path, (("model", key), "0")), KEYS[("model", key)][0]) == 0
        with pytest.raises(ConfigError, match=f"{key} must be non-negative"):
            load(tmp_path, (("model", key), value))
        section = ModelSection if key == "init_seed" else TrainConfig
        with pytest.raises(ValueError, match=key):
            section(**{key: int(value)})

    def test_split_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load(tmp_path, (("split", "seed"), "0"))

    @pytest.mark.parametrize(
        "key",
        [key for key, row in sorted(KEYS.items()) if isinstance(row[1], (int, float))]
        + [("scenario", "background_population"), ("scenario", "schedule_lighting"), ("model", "hidden_layers")],
        ids="-".join,
    )
    def test_bad_value_names_its_key(self, tmp_path, key):
        with pytest.raises(ConfigError, match=key[1]):
            load(tmp_path, (key, "x1"))

    @pytest.mark.parametrize(
        "key, value",
        [(("scenario", "duration_s"), "-5"), (("featurize", "top_k"), "-1"), (("model", "batch_size"), "0")],
        ids=lambda v: v[1] if isinstance(v, tuple) else v,
    )
    def test_invalid_value_names_its_key(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key[1]):
            load(tmp_path, (key, value))


class TestFiniteValues:
    """A value that is not finite, or a stride below one sample, is a config error naming its key."""

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize(
        "key",
        [key for key, row in sorted(KEYS.items()) if isinstance(row[1], float)] + [("scenario", "schedule_lighting")],
        ids="-".join,
    )
    def test_non_finite_value_names_its_key(self, tmp_path, key, value):
        setting = f"20 {value}" if key[1].startswith("schedule_") else value
        with pytest.raises(ConfigError, match=key[1]):
            load(tmp_path, (key, setting))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=str)
    @pytest.mark.parametrize(
        "cls, key",
        [(ScenarioConfig, name) for name in ("duration_s", "sample_rate_hz", "f0_hz", "voltage_rms", "voltage_thd",
                                             "feeder_noise_rms_amps")]
        + [(TrainConfig, "learning_rate"), (TrainConfig, "l2_penalty")]
        + [(FeaturizeSection, "window_s"), (FeaturizeSection, "stride_s")]
        + [(SplitSection, name) for name in ("train_fraction", "val_fraction", "test_fraction")],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_dataclass_refuses_non_finite_value_naming_its_field(self, cls, key, value):
        # The rule lives in the dataclass, so a library caller meets it as the parser does.
        given = {"duration_s": 1.0} if cls is ScenarioConfig else {}
        with pytest.raises(ValueError, match=key):
            cls(**{**given, key: value})

    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=str)
    def test_scenario_refuses_non_finite_schedule_mean(self, value):
        with pytest.raises(ValueError, match="lighting"):
            ScenarioConfig(duration_s=1.0, schedule_params={"lighting": (20.0, value)})

    def test_stride_shorter_than_one_sample_refused(self, tmp_path):
        # One sample at the default 10 kHz is 0.0001 s.
        assert load(tmp_path, (("featurize", "stride_s"), "0.0001")).featurize.stride_s == 0.0001
        with pytest.raises(ConfigError, match="stride_s.*one sample"):
            load(tmp_path, (("featurize", "stride_s"), "0.00001"))


class TestNyquist:
    """Every harmonic order the features project must lie below the Nyquist frequency."""

    def test_thd_projects_up_to_max_harmonic(self, tmp_path):
        # thd spans orders 2..7, the orders of h2..h7: 7 * 60 Hz is the Nyquist frequency of 840 Hz sampling.
        with pytest.raises(ConfigError, match="order 7 .*Nyquist"):
            load(tmp_path, (("scenario", "sample_rate_hz"), "840"), (("featurize", "features"), "thd"))
        config = load(tmp_path, (("scenario", "sample_rate_hz"), "841"), (("featurize", "features"), "thd"))
        assert FeatureSpec(config.featurize.features).harmonic_orders == tuple(range(1, 8))
        # The highest order is no longer a setting.
        with pytest.raises(ConfigError, match="max_harmonic"):
            load(tmp_path, (("featurize", "max_harmonic"), "9"))

    def test_order_exactly_at_nyquist_refused(self, tmp_path):
        # h7 of 60 Hz is 420 Hz, the Nyquist frequency of 840 Hz sampling.
        settings = [(("scenario", "sample_rate_hz"), "840"), (("featurize", "features"), "i_rms h7")]
        with pytest.raises(ConfigError, match="order 7 .*Nyquist"):
            load(tmp_path, *settings)
        settings[0] = (("scenario", "sample_rate_hz"), "841")
        assert load(tmp_path, *settings).scenario.sample_rate_hz == 841.0

    @pytest.mark.parametrize("rate, order", [("300", 3), ("120", 1)])
    def test_supply_harmonic_at_or_above_nyquist_refused(self, tmp_path, rate, order):
        # The supply draws order 1, and order 3 when voltage_thd > 0; no feature here projects either.
        settings = [(("scenario", "sample_rate_hz"), rate), (("featurize", "features"), "i_rms active_power i_crest_factor")]
        thd = (("scenario", "voltage_thd"), "0.02")
        if order == 3:
            assert load(tmp_path, *settings).scenario.sample_rate_hz == 300.0  # no third harmonic to alias
        with pytest.raises(ConfigError, match=rf"supply harmonic order {order} \({order * 60} Hz\).*Nyquist"):
            load(tmp_path, *settings, thd)


class TestFingerprints:
    @pytest.mark.parametrize("key", sorted(KEYS), ids="-".join)
    def test_key_changes_own_and_later_stages_only(self, tmp_path, key):
        base = fingerprints(load(tmp_path))
        altered = fingerprints(load(tmp_path, (key, KEYS[key][2])))
        stage = STAGE_OF_SECTION[key[0]]
        assert altered[:stage] == base[:stage]
        assert all(a != b for a, b in zip(altered[stage:], base[stage:]))

    def test_library_content_changes_every_stage(self, tmp_path):
        config = load(tmp_path)
        library = default_library()
        tweaked = dict(library)
        tweaked.pop("lighting")
        assert scenario_fingerprint(config, library) != scenario_fingerprint(config, tweaked)
        assert model_fingerprint(config, library) != model_fingerprint(config, tweaked)


    def test_synthesis_version_changes_every_stage(self, tmp_path, monkeypatch):
        # Waveforms from another synthesizer must not pass as current.
        from feeder_nilm import simulate

        config = load(tmp_path)
        base = fingerprints(config)
        monkeypatch.setattr(simulate, "SYNTHESIS_VERSION", simulate.SYNTHESIS_VERSION + 1)
        assert all(a != b for a, b in zip(fingerprints(config), base))

    def test_featurize_version_changes_dataset_and_model_only(self, tmp_path, monkeypatch):
        # A dataset or ranking from another featurizer must not pass as current; the waveforms still do.
        config = load(tmp_path)
        base = fingerprints(config)
        monkeypatch.setattr(featurize_module, "FEATURIZE_VERSION", featurize_module.FEATURIZE_VERSION + 1)
        altered = fingerprints(config)
        assert altered[0] == base[0]
        assert altered[1] != base[1] and altered[2] != base[2]


    def test_model_version_changes_model_only(self, tmp_path, monkeypatch):
        # A model or report from another trainer or evaluator must not pass as current; the dataset still does.
        config = load(tmp_path)
        base = fingerprints(config)
        monkeypatch.setattr(model_module, "MODEL_VERSION", model_module.MODEL_VERSION + 1)
        altered = fingerprints(config)
        assert altered[:2] == base[:2]
        assert altered[2] != base[2]


class TestDocstringExample:
    def test_example_loads_and_checks_against_library(self, tmp_path):
        doc = config_module.__doc__
        block = doc[doc.index("Example:") + len("Example:") : doc.index("Unknown keys")]
        path = tmp_path / "example.cfg"
        path.write_text(textwrap.dedent(block))
        load_library_for(load_run_config(path))  # raises on a class without a schedule
