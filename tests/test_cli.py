import argparse
import os
import struct

import numpy as np
import pytest
from conftest import samples_of

from feeder_nilm import cli
from feeder_nilm.config import (
    ConfigError,
    dataset_fingerprint,
    load_library_for,
    load_run_config,
    scenario_fingerprint,
)
from feeder_nilm.config import model_fingerprint
from feeder_nilm.devices import default_library, save_device_library
from feeder_nilm.featurize import window_targets
from feeder_nilm import featurize as featurize_module
from feeder_nilm.storage import read_dataset, read_ground_truth, read_report_lines, read_residuals, read_waveform

SMALL_CONFIG = """
[scenario]
duration_s = 60
sample_rate_hz = 2000
n_medical_devices = 2
medical_modes = run humidifier-run
background_population = resistive_heater:2 lighting:1
schedule_ventilator = 25 10
schedule_resistive_heater = 30 15
schedule_lighting = 20 20
feeder_noise_rms_amps = 0.02
rng_seed = 11

[featurize]
window_s = 5
stride_s = 5

[model]
hidden_layers = 8 4
learning_rate = 0.05
batch_size = 4
epochs = 60
patience = 20

[split]
train_fraction = 0.6
val_fraction = 0.2
test_fraction = 0.2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def run(*argv):
    return cli.main(list(argv))


class TestConfigParsing:
    def test_load_small_config(self, config_path):
        config = load_run_config(config_path)
        assert config.scenario.duration_s == 60.0
        assert config.scenario.populations() == (
            ("ventilator", 2),
            ("resistive_heater", 2),
            ("lighting", 1),
        )
        assert config.featurize.stride_s == 5.0
        assert config.model.hidden_layers == (8, 4)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nduration_s = 10\nturbo_mode = yes\n")
        with pytest.raises(ConfigError, match="turbo_mode"):
            load_run_config(path)

    def test_missing_duration_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nrng_seed = 1\n")
        with pytest.raises(ConfigError, match="duration_s"):
            load_run_config(path)

    def test_bad_fractions_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nduration_s = 10\n\n[split]\ntrain_fraction = 0.9\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_unknown_device_class_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "[scenario]\nduration_s = 10\nbackground_population = toaster:1\nschedule_toaster = 5 5\n"
        )
        with pytest.raises(ConfigError, match="toaster"):
            load_library_for(load_run_config(path))

    def test_seed_override_changes_fingerprints(self, config_path):
        config = load_run_config(config_path)
        library = load_library_for(config)
        reseeded = config.with_seed(999)
        assert scenario_fingerprint(config, library) != scenario_fingerprint(reseeded, library)
        assert dataset_fingerprint(config, library) != dataset_fingerprint(reseeded, library)


class TestStages:
    def test_simulate_outputs(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("simulate", "--config", config_path, "--out", out) == 0
        current, _ = read_waveform(os.path.join(out, "current.fnwv"), "CURR", 2000.0)
        assert current.n_samples == 120_000  # 60 s at 2 kHz
        assert os.path.exists(os.path.join(out, "voltage.fnwv"))
        assert os.path.exists(os.path.join(out, "schedule.txt"))
        assert os.path.exists(os.path.join(out, "ground_truth.txt"))
        assert "simulate:" in capsys.readouterr().out

    def test_always_on_params_give_constant_truth(self, tmp_path):
        # Schedule oracle: with a huge mean-on and a tiny mean-off every
        # instance stays on for the whole scenario, so the truth file is
        # a constant count.
        path = tmp_path / "alwayson.cfg"
        path.write_text(
            "[scenario]\nduration_s = 60\nsample_rate_hz = 2000\n"
            "n_medical_devices = 2\nmedical_modes = run\n"
            "schedule_ventilator = 1000000000 0.000001\nrng_seed = 11\n"
        )
        out = str(tmp_path / "out")
        assert run("simulate", "--config", str(path), "--out", out, "--quiet") == 0
        from feeder_nilm.storage import read_ground_truth

        counts, _ = read_ground_truth(os.path.join(out, "ground_truth.txt"), 60)
        assert counts.size == 60
        assert (counts == 2).all()

    def test_simulate_rerun_byte_identical(self, config_path, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert run("simulate", "--config", config_path, "--out", out_a, "--quiet") == 0
        assert run("simulate", "--config", config_path, "--out", out_b, "--quiet") == 0
        for name in ("voltage.fnwv", "current.fnwv", "schedule.txt", "ground_truth.txt"):
            with open(os.path.join(out_a, name), "rb") as fa, open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_featurize_row_count(self, config_path, tmp_path):
        out = str(tmp_path / "out")
        assert run("simulate", "--config", config_path, "--out", out, "--quiet") == 0
        assert run("featurize", "--config", config_path, "--out", out, "--quiet") == 0
        dataset, _ = read_dataset(os.path.join(out, "dataset.csv"))
        assert dataset.n_windows == 12
        assert len(dataset.feature_spec.features) == 13

    def test_full_chain_and_report(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        for command in ("simulate", "featurize", "select-features", "train", "eval"):
            assert run(command, "--config", config_path, "--out", out) == 0, command
        entries, _ = read_report_lines(os.path.join(out, "report.txt"))
        values = dict(entries)
        assert float(values["mae_rounded"]) >= 0.0
        assert np.isfinite(float(values["mae_continuous"]))
        assert os.path.exists(os.path.join(out, "ranking.txt"))
        assert os.path.exists(os.path.join(out, "residuals.csv"))

    def test_missing_upstream_is_io_error(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "fresh")
        assert run("featurize", "--config", config_path, "--out", out) == 3
        assert "error" in capsys.readouterr().err

    def test_corrupt_intermediate_names_file(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("simulate", "--config", config_path, "--out", out, "--quiet") == 0
        target = os.path.join(out, "current.fnwv")
        with open(target, "r+b") as fh:
            fh.write(b"CORRUPTED!")
        assert run("featurize", "--config", config_path, "--out", out) == 3
        assert "current.fnwv" in capsys.readouterr().err

    def test_swapped_waveforms_are_refused(self, config_path, tmp_path, capsys):
        # Both files carry the scenario fingerprint; only the channel tells voltage from current.
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path, "--out", str(out), "--quiet") == 0
        voltage, current = out / "voltage.fnwv", out / "current.fnwv"
        voltage_bytes = voltage.read_bytes()
        voltage.write_bytes(current.read_bytes())
        current.write_bytes(voltage_bytes)
        assert run("featurize", "--config", config_path, "--out", str(out)) == 3
        assert "voltage.fnwv" in capsys.readouterr().err
        assert run("pipeline", "--config", config_path, "--out", str(out)) == 0
        assert "simulate: up to date" not in capsys.readouterr().out
        assert voltage.read_bytes() == voltage_bytes

    def test_nonzero_start_time_is_file_error(self, config_path, tmp_path, capsys):
        # Both headers claim a start of 3 s and keep their fingerprint: the windows would be
        # stamped 3, 8, ... while their features and labels are those of 0, 5, ...
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path, "--out", str(out), "--quiet") == 0
        for name in ("voltage.fnwv", "current.fnwv"):
            raw = bytearray((out / name).read_bytes())
            raw[16:24] = struct.pack("<d", 3.0)
            (out / name).write_bytes(bytes(raw))
        assert run("featurize", "--config", config_path, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("file error:") and "voltage.fnwv" in err

    @staticmethod
    def recount_ground_truth(out, seconds):
        """Rewrite ``out``'s ground truth with ``seconds`` zero counts under its own header, fingerprint kept."""
        truth = out / "ground_truth.txt"
        header = [line for line in truth.read_text().splitlines() if line.startswith("#")]
        truth.write_text("\n".join(header + [f"{second} 0" for second in range(seconds)]) + "\n")

    @pytest.mark.parametrize("seconds", [50, 61], ids=["truncated", "extended"])
    def test_ground_truth_of_another_duration_is_file_error(self, config_path, tmp_path, capsys, seconds):
        # The counts keep their fingerprint but cover 50 or 61 of the scenario's 60 seconds.
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path, "--out", str(out), "--quiet") == 0
        self.recount_ground_truth(out, seconds)
        assert run("featurize", "--config", config_path, "--out", str(out), "--quiet") == 3
        err = capsys.readouterr().err
        assert err.startswith("file error:") and "ground_truth.txt" in err

    @pytest.mark.parametrize("seconds", [50, 61], ids=["truncated", "extended"])
    def test_pipeline_resimulates_ground_truth_of_another_duration(self, config_path, tmp_path, capsys, seconds):
        # The freshness check reads the counts as featurize does, so the rerun regenerates them.
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path, "--out", str(out), "--quiet") == 0
        truth = out / "ground_truth.txt"
        original = truth.read_bytes()
        self.recount_ground_truth(out, seconds)
        capsys.readouterr()
        assert run("pipeline", "--config", config_path, "--out", str(out)) == 0
        assert "simulate: up to date" not in capsys.readouterr().out
        assert read_ground_truth(truth, 60)[0].size == 60
        assert truth.read_bytes() == original

    @pytest.mark.parametrize("edit", ["unknown", "repeated", "outside-the-config", "truncated"])
    def test_ranking_not_of_the_configured_features_is_file_error(self, tmp_path, capsys, edit):
        # Edited ids keep the fingerprint: unknown ones, or known ones the config does not
        # list, would leave top_k = 3 with no feature, a repeated or cut list with one.
        path = tmp_path / "topk.cfg"
        path.write_text(SMALL_CONFIG.replace("stride_s = 5", "stride_s = 5\ntop_k = 3\nfeatures = i_rms thd h3 h5"))
        out = tmp_path / "out"
        for command in ("simulate", "select-features"):
            assert run(command, "--config", str(path), "--out", str(out), "--quiet") == 0
        ranking = out / "ranking.txt"
        lines = ranking.read_text().splitlines()
        body = [k for k, line in enumerate(lines) if not line.startswith("#")]
        first = lines[body[0]].split()[0]
        for n, k in enumerate(body[:3]):
            score = lines[k].split()[1]
            renamed = {"unknown": f"bogus{n}", "repeated": first, "outside-the-config": f"h{2 * n + 2}"}
            lines[k] = f"{renamed.get(edit, lines[k].split()[0])} {score}"
        if edit == "truncated":
            lines = lines[: body[0] + 1]
        ranking.write_text("\n".join(lines) + "\n")
        assert run("featurize", "--config", str(path), "--out", str(out), "--quiet") == 3
        err = capsys.readouterr().err
        assert err.startswith("file error:") and "ranking.txt" in err

    @pytest.mark.parametrize("edit", ["index-out-of-range", "index-dropped"])
    def test_model_kept_indices_disagreeing_with_layout_is_file_error(self, config_path, tmp_path, capsys, edit):
        out = tmp_path / "out"
        for command in ("simulate", "featurize", "train"):
            assert run(command, "--config", config_path, "--out", str(out), "--quiet") == 0, command
        model = out / "model.txt"
        lines = model.read_text().splitlines()
        for k, line in enumerate(lines):
            key, _, values = line.partition(" = ")
            if edit == "index-out-of-range" and key == "kept_indices":
                lines[k] = f"{key} = 99 {' '.join(values.split()[1:])}"
            elif edit == "index-dropped" and key in ("kept_indices", "norm_mean", "norm_std"):
                lines[k] = f"{key} = {' '.join(values.split()[:-1])}"
        model.write_text("\n".join(lines) + "\n")
        assert run("eval", "--config", config_path, "--out", str(out), "--quiet") == 3
        err = capsys.readouterr().err
        assert err.startswith("file error:") and "model.txt" in err

    def test_header_rate_other_than_the_scenario_is_file_error(self, tmp_path, capsys):
        # Both smoke headers claim 20 kHz and keep their fingerprint: windowed at that rate,
        # the 120 s trace would read as 60 s and featurize into 23 windows instead of 47.
        smoke = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "smoke.cfg")
        out = tmp_path / "out"
        assert run("simulate", "--config", smoke, "--out", str(out), "--quiet") == 0
        for name in ("voltage.fnwv", "current.fnwv"):
            raw = bytearray((out / name).read_bytes())
            raw[8:16] = struct.pack("<d", 20_000.0)
            (out / name).write_bytes(bytes(raw))
        assert run("featurize", "--config", smoke, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("file error:") and "voltage.fnwv" in err and "20000" in err
        assert run("pipeline", "--config", smoke, "--out", str(out)) == 0
        assert "simulate: up to date" not in capsys.readouterr().out
        dataset, _ = read_dataset(out / "dataset.csv")
        assert dataset.n_windows == 47

    def test_stale_fingerprint_is_contract_error(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("simulate", "--config", config_path, "--out", out, "--quiet") == 0
        # Waveforms now stem from seed 11; re-running featurize under another
        # seed must refuse to mix artifacts.
        assert run("featurize", "--config", config_path, "--out", out, "--seed", "999") == 4
        err = capsys.readouterr().err
        assert "different configuration" in err

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nduration_s = -5\n")
        assert run("simulate", "--config", str(path), "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize(
        "edit, key",
        [
            (("schedule_ventilator = 25 10", "schedule_ventilator = 25 inf"), "schedule_ventilator"),
            (("feeder_noise_rms_amps = 0.02", "feeder_noise_rms_amps = inf"), "feeder_noise_rms_amps"),
            (("rng_seed = 11", "rng_seed = 11\nvoltage_thd = nan"), "voltage_thd"),
            (("stride_s = 5", "stride_s = inf"), "stride_s"),
            (("learning_rate = 0.05", "learning_rate = inf"), "learning_rate"),
            (("stride_s = 5", "stride_s = 0.0001"), "stride_s"),  # a fifth of a sample at 2 kHz
        ],
        ids=["infinite-schedule-mean", "infinite-noise", "nan-thd", "infinite-stride", "infinite-rate", "sub-sample-stride"],
    )
    def test_non_finite_or_sub_sample_setting_exits_2(self, tmp_path, capsys, edit, key):
        path = tmp_path / "bad.cfg"
        assert edit[0] in SMALL_CONFIG
        path.write_text(SMALL_CONFIG.replace(*edit))
        assert run("pipeline", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not os.path.exists(tmp_path / "o" / "voltage.fnwv")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (("schedule_lighting = 20 20\n", ""), "lighting"),
            (("lighting:1", "lighting:1 resistive_heater:1"), "resistive_heater"),
            (("medical_modes = run humidifier-run", "medical_modes = off"), "off"),
            (("sample_rate_hz = 2000", "sample_rate_hz = 500"), "aliases"),
        ],
        ids=["missing-schedule", "class-listed-twice", "off-medical-mode", "aliasing-rate"],
    )
    def test_scenario_inconsistent_with_library_exits_2(self, tmp_path, capsys, edit, message):
        path = tmp_path / "bad.cfg"
        assert edit[0] in SMALL_CONFIG
        path.write_text(SMALL_CONFIG.replace(*edit))
        for command in ("simulate", "pipeline"):
            assert run(command, "--config", str(path), "--out", str(tmp_path / "o")) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err

    def test_library_class_without_modes_exits_2(self, tmp_path, capsys):
        # A class with a [device.<class>] section and no mode has nothing to draw when scheduled.
        library = tmp_path / "library.cfg"
        save_device_library(default_library(), library)
        with open(library, "a", encoding="utf-8") as fh:
            fh.write("\n[device.widget]\nis_medical = false\n")
        path = tmp_path / "widget.cfg"
        text = SMALL_CONFIG.replace("lighting:1", "lighting:1 widget:1")
        path.write_text(text.replace("rng_seed = 11", "rng_seed = 11\nschedule_widget = 10 10\ndevice_library = library.cfg"))
        for command in ("simulate", "pipeline"):
            assert run(command, "--config", str(path), "--out", str(tmp_path / "o")) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "'widget'" in err

    @pytest.mark.parametrize(
        "section",
        ["[device.widget.mode.on]\nh1 = -1 0\n", "[device.widget.mode.on]\nh0 = 1 0\n"],
        ids=["negative-magnitude", "order-zero"],
    )
    def test_library_bad_harmonic_exits_2(self, tmp_path, capsys, section):
        # The bad line sits in a class the scenario does not use: the whole library is refused.
        library = tmp_path / "library.cfg"
        save_device_library(default_library(), library)
        with open(library, "a", encoding="utf-8") as fh:
            fh.write("\n" + section)
        smoke = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "smoke.cfg")
        with open(smoke, encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "smoke.cfg"
        path.write_text(text.replace("rng_seed = 5\n", "rng_seed = 5\ndevice_library = library.cfg\n"))
        for command in ("simulate", "pipeline"):
            assert run(command, "--config", str(path), "--out", str(tmp_path / "o")) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: device library") and "library.cfg" in err

    @pytest.mark.parametrize(
        "edit, key",
        [
            (("sample_rate_hz = 2000", "sample_rate_hz = 9999.5"), "sample_rate_hz"),
            (("rng_seed = 11", "rng_seed = 11\nf0_hz = 59.94"), "f0_hz"),
        ],
        ids=["fractional-rate", "fractional-f0"],
    )
    def test_fractional_hertz_exits_2(self, tmp_path, capsys, edit, key):
        # Synthesis and the featurizer's block rotations reduce phases in whole hertz.
        path = tmp_path / "fractional.cfg"
        assert edit[0] in SMALL_CONFIG
        path.write_text(SMALL_CONFIG.replace(*edit))
        for command in ("simulate", "pipeline"):
            assert run(command, "--config", str(path), "--out", str(tmp_path / "o")) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and key in err and "whole" in err

    def test_harmonic_order_at_nyquist_exits_2(self, tmp_path, capsys):
        # thd projects orders 2..7: 7 * 60 Hz is the Nyquist frequency of 840 Hz sampling.
        path = tmp_path / "nyquist.cfg"
        assert "sample_rate_hz = 2000" in SMALL_CONFIG
        path.write_text(SMALL_CONFIG.replace("sample_rate_hz = 2000", "sample_rate_hz = 840"))
        with pytest.raises(ConfigError, match="order 7"):
            load_run_config(path)
        for command in ("simulate", "pipeline"):
            assert run(command, "--config", str(path), "--out", str(tmp_path / "o")) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "Nyquist" in err

    def test_library_harmonic_aliasing_exits_2(self, tmp_path, capsys):
        # Features that project no harmonic pass at 500 Hz; the ventilator's 5th harmonic (300 Hz) does not.
        path = tmp_path / "aliasing.cfg"
        text = SMALL_CONFIG.replace("sample_rate_hz = 2000", "sample_rate_hz = 500")
        path.write_text(text.replace("stride_s = 5\n", "stride_s = 5\nfeatures = i_rms active_power\n"))
        load_run_config(path)
        assert run("simulate", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: device class 'ventilator'") and "aliases" in err

    def test_window_longer_than_scenario_exits_2(self, tmp_path, capsys):
        # A 61 s window cannot be cut from a 60 s trace: refused when the config loads.
        path = tmp_path / "long_window.cfg"
        path.write_text(SMALL_CONFIG.replace("\nwindow_s = 5\n", "\nwindow_s = 61\n"))
        with pytest.raises(ConfigError, match="duration_s"):
            load_run_config(path)
        assert run("pipeline", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "window_s" in err
        path.write_text(SMALL_CONFIG.replace("\nwindow_s = 5\n", "\nwindow_s = 60\n"))
        assert load_run_config(path).featurize.window_s == 60.0

    def test_env_var_out_dir(self, config_path, tmp_path, monkeypatch):
        out = str(tmp_path / "envout")
        monkeypatch.setenv("FEEDER_NILM_OUT", out)
        assert run("simulate", "--config", config_path, "--quiet") == 0
        assert os.path.exists(os.path.join(out, "current.fnwv"))


class TestPipeline:
    def test_pipeline_end_to_end(self, config_path, tmp_path):
        out = str(tmp_path / "out")
        assert run("pipeline", "--config", config_path, "--out", out, "--quiet") == 0
        assert os.path.exists(os.path.join(out, "report.txt"))

    def test_window_labels_use_the_feature_sample_grid(self, tmp_path):
        # At 10 kHz a 5.00004 s window rounds to the 50 000 samples of a 5 s one: same windows, same labels.
        smoke = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "smoke.cfg")
        with open(smoke, encoding="utf-8") as fh:
            text = fh.read()
        assert "\nwindow_s = 5\nstride_s = 2.5\n" in text
        path = tmp_path / "odd_window.cfg"
        path.write_text(text.replace("\nwindow_s = 5\n", "\nwindow_s = 5.00004\n"))
        out = tmp_path / "out"
        assert run("pipeline", "--config", str(path), "--out", str(out), "--quiet") == 0
        dataset, _ = read_dataset(out / "dataset.csv")
        counts, _ = read_ground_truth(out / "ground_truth.txt", 120)
        assert np.array_equal(dataset.y, window_targets(counts, 5.0, 2.5, dataset.n_windows))

    def test_pipeline_idempotent_when_current(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("pipeline", "--config", config_path, "--out", out, "--quiet") == 0
        before = {}
        for name in os.listdir(out):
            with open(os.path.join(out, name), "rb") as fh:
                before[name] = fh.read()
        assert run("pipeline", "--config", config_path, "--out", out) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("up to date") == 5
        for name, blob in before.items():
            with open(os.path.join(out, name), "rb") as fh:
                assert fh.read() == blob, name

    def test_featurize_version_reruns_every_stage_after_simulate(self, tmp_path, capsys, monkeypatch):
        # Outputs of another featurizer are stale: the waveforms are kept, everything derived re-runs.
        smoke = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "smoke.cfg")
        out = str(tmp_path / "out")
        assert run("pipeline", "--config", smoke, "--out", out, "--quiet") == 0
        monkeypatch.setattr(featurize_module, "FEATURIZE_VERSION", featurize_module.FEATURIZE_VERSION + 1)
        capsys.readouterr()
        assert run("pipeline", "--config", smoke, "--out", out) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "up to date" in line] == ["simulate: up to date"]
        for stage in ("select-features", "featurize", "train", "eval"):
            assert any(line.startswith(f"{stage}: ") for line in lines), stage
        config = load_run_config(smoke)
        assert read_dataset(os.path.join(out, "dataset.csv"))[1] == dataset_fingerprint(config, load_library_for(config))

    @pytest.mark.parametrize(
        "name, stage",
        [("schedule.txt", "simulate"), ("ranking.txt", "select-features"), ("dataset.csv", "featurize"),
         ("model.txt", "train"), ("report.txt", "eval"), ("residuals.csv", "eval")],
    )
    def test_pipeline_reruns_the_writer_of_a_garbled_body_line(self, config_path, tmp_path, capsys, name, stage):
        # The fingerprint header is kept: only the reader the file's consumer uses can tell it is broken.
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert run("pipeline", "--config", config_path, "--out", str(fresh), "--quiet") == 0
        assert run("pipeline", "--config", config_path, "--out", str(out), "--quiet") == 0
        path = out / name
        lines = path.read_text().splitlines()
        separator = next(sep for sep in ("=", ",", " ") if sep in lines[-1])
        lines[-1] = lines[-1].replace(separator, ";", 1)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("pipeline", "--config", config_path, "--out", str(out)) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert f"{stage}: up to date" not in stdout
        assert any(line.startswith(f"{stage}: ") for line in stdout)
        for artifact in sorted(os.listdir(fresh)):
            assert (out / artifact).read_bytes() == (fresh / artifact).read_bytes(), artifact

    def test_pipeline_determinism_across_dirs(self, config_path, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert run("pipeline", "--config", config_path, "--out", out_a, "--quiet") == 0
        assert run("pipeline", "--config", config_path, "--out", out_b, "--quiet") == 0
        entries_a, _ = read_report_lines(os.path.join(out_a, "report.txt"))
        entries_b, _ = read_report_lines(os.path.join(out_b, "report.txt"))
        assert entries_a == entries_b

    def test_pipeline_recreates_deleted_residuals(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("pipeline", "--config", config_path, "--out", out, "--quiet") == 0
        residuals = os.path.join(out, "residuals.csv")
        os.remove(residuals)
        assert run("pipeline", "--config", config_path, "--out", out) == 0
        assert "eval: up to date" not in capsys.readouterr().out
        config = load_run_config(config_path)
        expected = model_fingerprint(config, load_library_for(config))
        assert read_residuals(residuals)[1] == expected

    def test_residuals_hold_the_model_predictions(self, config_path, tmp_path):
        # Eval writes the predictions evaluate() made: one forward pass, same bytes as recomputing it.
        from feeder_nilm.featurize import apply_normalization
        from feeder_nilm.model import count_from_output, forward_batch
        from feeder_nilm.storage import read_model, write_residuals

        out = str(tmp_path / "out")
        assert run("pipeline", "--config", config_path, "--out", out, "--quiet") == 0
        config = load_run_config(config_path)
        dataset, _ = read_dataset(os.path.join(out, "dataset.csv"))
        params, fp = read_model(os.path.join(out, "model.txt"))
        _, _, test = cli._split_rows(config, dataset)
        continuous = forward_batch(params, apply_normalization(test.X, params.norm_stats))
        expected = tmp_path / "expected.csv"
        write_residuals(expected, test.t_start_s, test.y, continuous, count_from_output(continuous), fp)
        with open(os.path.join(out, "residuals.csv"), "rb") as fh:
            assert fh.read() == expected.read_bytes()

    def test_pipeline_loads_library_once(self, config_path, tmp_path, monkeypatch):
        calls = []

        def counting(config):
            calls.append(config)
            return load_library_for(config)

        monkeypatch.setattr(cli, "load_library_for", counting)
        assert run("pipeline", "--config", config_path, "--out", str(tmp_path / "out"), "--quiet") == 0
        assert len(calls) == 1
        assert run("featurize", "--config", config_path, "--out", str(tmp_path / "out"), "--quiet") == 0
        assert len(calls) == 2

    def test_truncated_dataset_fingerprint_is_stale(self, config_path, tmp_path, capsys):
        # A fingerprint cut to one character must not pass as a prefix match.
        out = str(tmp_path / "out")
        assert run("pipeline", "--config", config_path, "--out", out, "--quiet") == 0
        dataset_path = os.path.join(out, "dataset.csv")
        with open(dataset_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        index = next(k for k, line in enumerate(lines) if line.startswith("# fingerprint="))
        full = lines[index]
        lines[index] = full[: len("# fingerprint=") + 1] + "\n"
        with open(dataset_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        assert run("train", "--config", config_path, "--out", out, "--quiet") == 4
        capsys.readouterr()
        assert run("pipeline", "--config", config_path, "--out", out) == 0
        assert "featurize: up to date" not in capsys.readouterr().out
        with open(dataset_path, encoding="utf-8") as fh:
            assert full in fh.read().splitlines(keepends=True)

    @pytest.mark.parametrize("index", [0, -1], ids=["first-chunk", "last-chunk"])
    def test_non_finite_sample_is_file_error_and_resimulated(self, tmp_path, capsys, index):
        # One NaN sample, header and fingerprint kept: at the front of current.fnwv,
        # or as its very last sample, in the last chunk a reader fills.
        smoke = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "smoke.cfg")
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert run("pipeline", "--config", smoke, "--out", str(fresh), "--quiet") == 0
        assert run("pipeline", "--config", smoke, "--out", str(out), "--quiet") == 0
        current = out / "current.fnwv"
        raw = bytearray(current.read_bytes())
        offset = 64 + 8 * (index % ((len(raw) - 64) // 8))
        raw[offset : offset + 8] = struct.pack("<d", float("nan"))
        current.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run("featurize", "--config", smoke, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("file error:") and "current.fnwv" in err
        assert run("pipeline", "--config", smoke, "--out", str(out)) == 0
        assert "simulate: up to date" not in capsys.readouterr().out
        for name in sorted(os.listdir(fresh)):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_seed_override_propagates(self, config_path, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert run("pipeline", "--config", config_path, "--out", out_a, "--quiet", "--seed", "77") == 0
        assert run("pipeline", "--config", config_path, "--out", out_b, "--quiet") == 0
        wave_a, _ = read_waveform(os.path.join(out_a, "current.fnwv"), "CURR", 2000.0)
        wave_b, _ = read_waveform(os.path.join(out_b, "current.fnwv"), "CURR", 2000.0)
        assert not np.array_equal(samples_of(wave_a), samples_of(wave_b))


class TestStageRegistry:
    def test_subcommands_are_registry_plus_pipeline(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == {stage.name for stage in cli._STAGES} | {"pipeline"}

    def test_registry_artifacts_cover_artifact_table(self):
        # Every file a stage writes has exactly one reader, the one its consumer and the rerun check use.
        written = [name for stage in cli._STAGES for name in stage.artifacts]
        assert sorted(written) == sorted(cli._READERS)


class TestTopK:
    def test_top_k_requires_ranking(self, tmp_path, config_path):
        path = tmp_path / "topk.cfg"
        path.write_text(SMALL_CONFIG.replace("stride_s = 5", "stride_s = 5\ntop_k = 4"))
        out = str(tmp_path / "out")
        assert run("simulate", "--config", str(path), "--out", out, "--quiet") == 0
        assert run("featurize", "--config", str(path), "--out", out, "--quiet") == 4

    def test_top_k_truncates_features(self, tmp_path):
        path = tmp_path / "topk.cfg"
        path.write_text(SMALL_CONFIG.replace("stride_s = 5", "stride_s = 5\ntop_k = 4"))
        out = str(tmp_path / "out")
        assert run("pipeline", "--config", str(path), "--out", out, "--quiet") == 0
        dataset, _ = read_dataset(os.path.join(out, "dataset.csv"))
        assert len(dataset.feature_spec.features) == 4


class TestChronologicalSplit:
    def test_contiguous_and_exhaustive(self):
        train, val, test = cli.chronological_split(100, (0.6, 0.2, 0.2))
        assert (train.start, train.stop) == (0, 60)
        assert (val.start, val.stop) == (60, 80)
        assert (test.start, test.stop) == (80, 100)

    def test_rounding_leaves_no_gap(self):
        train, val, test = cli.chronological_split(11, (0.6, 0.2, 0.2))
        covered = list(range(*train.indices(11))) + list(range(*val.indices(11))) + list(
            range(*test.indices(11))
        )
        assert covered == list(range(11))
