import argparse
import math
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from conftest import report_values, reseal, samples_of, save_device_library

from feeder_nilm import cli
from feeder_nilm.config import (
    ConfigError,
    dataset_fingerprint,
    load_library_for,
    load_run_config,
    scenario_fingerprint,
)
from feeder_nilm.config import model_fingerprint
from feeder_nilm.devices import default_library
from feeder_nilm.featurize import apply_normalization, window_targets
from feeder_nilm import featurize as featurize_module
from feeder_nilm import model as model_module
from feeder_nilm.simulate import generate_schedule, ground_truth_counts
from feeder_nilm.storage import read_dataset, read_model, read_waveform

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

SMALL_CONFIG = """
[scenario]
duration_s = 120
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


# (artifact, stage that writes it, word that replaces the last line's last word):
# None garbles the line's first separator instead, "without-<key>" deletes
# the line that starts with <key> (the last line, if the key is "last-line"),
# and "<key>=<word>" gives the line that starts with <key> the value <word>.
# On the small config the schedule's last word is a lighting mode and the
# report's a count_<c> error.
_GARBLED_LAST_LINES = [
    ("schedule.txt", "simulate", None),
    ("ranking.txt", "select-features", None),
    ("dataset.csv", "featurize", None),
    ("model.txt", "train", None),
    ("report.txt", "eval", None),
    ("residuals.csv", "eval", None),
    ("schedule.txt", "simulate", "bogus-mode"),
    ("report.txt", "eval", "not-a-number"),
    ("report.txt", "eval", "mae_rounded=not-a-number"),
    ("report.txt", "eval", "without-mae_rounded"),
    ("schedule.txt", "simulate", "without-last-line"),
    ("schedule.txt", "simulate", "stray-header-word"),
    ("ground_truth.txt", "simulate", "stray-header-word"),
    ("ranking.txt", "select-features", "stray-header-word"),
    ("model.txt", "train", "stray-header-word"),
    ("report.txt", "eval", "stray-header-word"),
    ("residuals.csv", "eval", "stray-header-word"),
]


def _edit_value(name, lines, variant=None):
    """The ``lines`` of artifact ``name`` with one value changed: each still well-formed, fingerprint kept."""
    body = [k for k, line in enumerate(lines) if not line.startswith("#")]
    if name == "report.txt":
        (k,) = [k for k in body if lines[k].startswith("mae_rounded = ")]
        lines[k] = "mae_rounded = 0.125"
    elif name == "residuals.csv":
        fields = lines[-1].split(",")
        fields[3] = "2.5"  # y_continuous
        lines[-1] = ",".join(fields)
    elif name == "schedule.txt":
        k = next(k for k in reversed(body) if ". . ." not in lines[k])
        device_id, start, end, mode = lines[k].split()
        lines[k] = f"{device_id} {start} {(float(start) + float(end)) / 2!r} {mode}"
    elif name == "ground_truth.txt":
        k = next(k for k in body if lines[k].endswith(" 0"))
        lines[k] = lines[k][: -len("0")] + "3"
    elif name == "ranking.txt":
        feature_id, score = lines[body[0]].split()
        lines[body[0]] = f"{feature_id} {float(score) * 2!r}"
    elif name == "dataset.csv":
        # The first i_rms cell's 17th significant digit, or an 18th digit appended to it:
        # a change the parsed float may not even show.
        column = lines[body[0]].split(",").index("i_rms")
        fields = lines[body[1]].split(",")
        assert len(fields[column].replace(".", "").lstrip("0")) == 17
        if variant == "digit-appended":
            fields[column] += "7"
        else:
            fields[column] = fields[column][:-1] + str(9 - int(fields[column][-1]))
        lines[body[1]] = ",".join(fields)
    else:  # model.txt
        (k,) = [k for k in body if lines[k].startswith("W0 = ")]
        lines[k] = "W0 = 0.5 " + lines[k].split(" ", 3)[3]
    return lines


# (artifact, the stage that writes it, variant of its well-formed value edit or None).
_EDITED_VALUES = [
    ("report.txt", "eval", None),
    ("residuals.csv", "eval", None),
    ("schedule.txt", "simulate", None),
    ("ground_truth.txt", "simulate", None),
    ("ranking.txt", "select-features", None),
    ("dataset.csv", "featurize", None),
    ("dataset.csv", "featurize", "digit-appended"),
    ("model.txt", "train", None),
]


def _replace_line(lines, start, new):
    """``lines`` with the one line that starts with ``start`` replaced by ``new``."""
    (k,) = [k for k, line in enumerate(lines) if line.startswith(start)]
    return lines[:k] + [new] + lines[k + 1 :]


def _without_line(lines, start):
    (k,) = [k for k, line in enumerate(lines) if line.startswith(start)]
    return lines[:k] + lines[k + 1 :]


# (artifact, stage that writes it, case, edit of the file's lines): each edit
# keeps the fingerprint, and each makes a file that a format reader refuses
# (a wrong field count, a non-number, a class or mode the library lacks, a
# gapped or shuffled second, a count out of range, a key set other than
# eval's). None of these files is read back, so each is merely stale.
_REFUSED_EDITS = [
    ("schedule.txt", "simulate", "too-few-fields", lambda lines: lines + ["ventilator#1 3.0 4.0"]),
    ("schedule.txt", "simulate", "non-numeric-end", lambda lines: lines + ["ventilator#1 3.0 four run"]),
    ("schedule.txt", "simulate", "half-placeholder", lambda lines: lines + ["ventilator#0 . 3.0 run"]),
    ("schedule.txt", "simulate", "unknown-mode", lambda lines: lines + ["ventilator#1 50.0 60.0 bogus-mode"]),
    ("schedule.txt", "simulate", "unknown-class", lambda lines: lines + ["toaster#0 0 1 on"]),
    ("schedule.txt", "simulate", "mode-its-class-lacks", lambda lines: lines + ["resistive_heater#0 0 1 run"]),
    ("ground_truth.txt", "simulate", "three-fields", lambda lines: lines + ["60 1 1"]),
    ("ground_truth.txt", "simulate", "non-numeric-count", lambda lines: lines + ["60 seven"]),
    ("ground_truth.txt", "simulate", "gapped", lambda lines: lines[:3] + lines[4:]),
    ("ground_truth.txt", "simulate", "shuffled", lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:]),
    ("ground_truth.txt", "simulate", "late-start", lambda lines: lines[:2] + lines[3:]),
    ("ground_truth.txt", "simulate", "negative-count", lambda lines: _replace_line(lines, "0 ", "0 -1")),
    ("ground_truth.txt", "simulate", "beyond-int64", lambda lines: _replace_line(lines, "0 ", "0 99999999999999999999")),
    ("ground_truth.txt", "simulate", "missing-fingerprint", lambda lines: _without_line(lines, "# fingerprint=")),
    ("ground_truth.txt", "simulate", "other-format", lambda lines: ["# feeder-nilm dataset v1"] + lines[1:]),
    ("report.txt", "eval", "key-without-equals", lambda lines: lines + ["mae_rounded 0.25"]),
    ("report.txt", "eval", "count-of-one-value", lambda lines: lines + ["count_3 = 4"]),
    ("report.txt", "eval", "not-a-number",
     lambda lines: _replace_line(lines, "mae_continuous = ", "mae_continuous = not-a-number")),
    ("report.txt", "eval", "nan",
     lambda lines: _replace_line(lines, "exact_count_accuracy = ", "exact_count_accuracy = nan")),
    ("report.txt", "eval", "other-format-version",
     lambda lines: _replace_line(lines, "format_version = ", "format_version = 2")),
    ("report.txt", "eval", "missing-format-version", lambda lines: _without_line(lines, "format_version = ")),
    ("report.txt", "eval", "headline-key-missing", lambda lines: _without_line(lines, "baseline_constant = ")),
    ("report.txt", "eval", "unknown-key", lambda lines: lines + ["mae_median = 0.5"]),
    ("report.txt", "eval", "count-of-no-whole-number", lambda lines: lines + ["count_x = 1 0"]),
    ("report.txt", "eval", "counts-alone",
     lambda lines: [line for line in lines if line.startswith(("#", "format_version = ", "count_"))]),
    ("report.txt", "eval", "repeated-key",
     lambda lines: lines + [next(line for line in lines if line.startswith("mae_rounded = "))]),
    ("residuals.csv", "eval", "index-repeated", lambda lines: lines[:-1] + [lines[-2].split(",")[0] + lines[-1][1:]]),
    ("residuals.csv", "eval", "error-wrong", lambda lines: lines[:-1] + [lines[-1][:-1] + str(1 - int(lines[-1][-1]))]),
    ("residuals.csv", "eval", "header-renamed", lambda lines: _replace_line(lines, "window_index,", "index," + lines[2][13:])),
    ("residuals.csv", "eval", "four-fields", lambda lines: lines + ["3,60,1,1"]),
    ("residuals.csv", "eval", "non-numeric-field", lambda lines: lines + ["3,60,1,x,1,0"]),
]


@pytest.fixture(scope="module")
def fresh_outputs(tmp_path_factory):
    """(config path, output directory) of one ``pipeline`` run on the small config; copy before editing.

    The small config trains: some epoch beats the initial parameters' validation
    loss, so ``model.txt`` holds trained weights, and so does every run on it.
    """
    root = tmp_path_factory.mktemp("fresh")
    path = root / "run.cfg"
    path.write_text(SMALL_CONFIG)
    assert run("pipeline", "--config", str(path), "--out", str(root / "out"), "--quiet") == 0
    config = load_run_config(str(path))
    dataset, _ = read_dataset(root / "out" / "dataset.csv")
    (params, stats), _ = read_model(root / "out" / "model.txt")
    _, val, _ = cli._split_rows(config, dataset)
    X_val = apply_normalization(val.X, stats)
    initial = model_module.init_params(params.layer_sizes, config.model.init_seed)
    assert model_module.data_loss(params, X_val, val.y) < model_module.data_loss(initial, X_val, val.y)
    return str(path), root / "out"


def _files_of(out):
    """Each file of ``out`` with its bytes and modification time."""
    return {name: ((out / name).read_bytes(), (out / name).stat().st_mtime_ns) for name in sorted(os.listdir(out))}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def run(*argv):
    return cli.main(list(argv))


def truth_of(config_path):
    """The per-second counts of the schedule the config draws: the counts featurize labels windows with."""
    config = load_run_config(config_path)
    return ground_truth_counts(generate_schedule(config.scenario, load_library_for(config)), config.scenario)


def fingerprint_of(path) -> str:
    """The ``# fingerprint=`` word of a text artifact."""
    with open(path, encoding="utf-8") as fh:
        (line,) = [line for line in fh.read().splitlines() if line.startswith("# fingerprint=")]
    return line[len("# fingerprint=") :].split()[0]


class TestConfigParsing:
    def test_load_small_config(self, config_path):
        config = load_run_config(config_path)
        assert config.scenario.duration_s == 120.0
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
        assert current.n_samples == 240_000  # 120 s at 2 kHz
        assert os.path.exists(os.path.join(out, "voltage.fnwv"))
        assert os.path.exists(os.path.join(out, "schedule.txt"))
        assert os.path.exists(os.path.join(out, "ground_truth.txt"))
        assert "simulate:" in capsys.readouterr().out

    def test_always_on_params_give_constant_truth(self, tmp_path):
        # Schedule oracle: with a huge mean-on and a tiny mean-off every
        # instance stays on for the whole scenario, so the counts are
        # constant.
        path = tmp_path / "alwayson.cfg"
        path.write_text(
            "[scenario]\nduration_s = 60\nsample_rate_hz = 2000\n"
            "n_medical_devices = 2\nmedical_modes = run\n"
            "schedule_ventilator = 1000000000 0.000001\nrng_seed = 11\n"
        )
        out = str(tmp_path / "out")
        assert run("simulate", "--config", str(path), "--out", out, "--quiet") == 0
        counts = truth_of(path)
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
        assert dataset.n_windows == 24
        assert len(dataset.feature_spec.features) == 13

    def test_full_chain_and_report(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        for command in ("simulate", "featurize", "select-features", "train", "eval"):
            assert run(command, "--config", config_path, "--out", out) == 0, command
        values = report_values(os.path.join(out, "report.txt"))
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

    @pytest.mark.parametrize("edit", ["deleted", "truncated", "extended", "count-edited"])
    def test_featurize_labels_come_from_the_config_not_the_ground_truth_file(self, config_path, tmp_path, edit):
        # ground_truth.txt is a diagnostic: featurize draws the counts from the config's schedule.
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path, "--out", str(out), "--quiet") == 0
        assert run("featurize", "--config", config_path, "--out", str(out), "--quiet") == 0
        dataset = (out / "dataset.csv").read_bytes()
        truth = out / "ground_truth.txt"
        if edit == "deleted":
            truth.unlink()
        elif edit == "count-edited":
            truth.write_text("\n".join(_edit_value("ground_truth.txt", truth.read_text().splitlines())) + "\n")
        else:
            self.recount_ground_truth(out, {"truncated": 110, "extended": 121}[edit])
        (out / "dataset.csv").unlink()
        assert run("featurize", "--config", config_path, "--out", str(out), "--quiet") == 0
        assert (out / "dataset.csv").read_bytes() == dataset

    @pytest.mark.parametrize("seconds", [110, 121], ids=["truncated", "extended"])
    def test_pipeline_resimulates_ground_truth_of_another_duration(self, config_path, tmp_path, capsys, seconds):
        # The counts keep their fingerprint but cover 110 or 121 of the scenario's 120 seconds.
        out = tmp_path / "out"
        assert run("simulate", "--config", config_path, "--out", str(out), "--quiet") == 0
        truth = out / "ground_truth.txt"
        original = truth.read_bytes()
        self.recount_ground_truth(out, seconds)
        capsys.readouterr()
        assert run("pipeline", "--config", config_path, "--out", str(out)) == 0
        assert "simulate: up to date" not in capsys.readouterr().out
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
        reseal(ranking)
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
        reseal(model)
        capsys.readouterr()  # only what eval says; train warns on stderr that no epoch improved
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

    @pytest.mark.parametrize("key", ["init_seed", "shuffle_seed"])
    def test_negative_model_seed_exits_2_before_any_stage(self, tmp_path, capsys, key):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG.replace("patience = 20", f"patience = 20\n{key} = -1"))
        assert run("pipeline", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not os.path.exists(tmp_path / "o" / "voltage.fnwv")

    def test_supply_harmonic_aliasing_exits_2(self, tmp_path, capsys):
        # Only first-order loads and features: the one harmonic that aliases at 300 Hz is the supply's 180 Hz third.
        path = tmp_path / "supply.cfg"
        path.write_text(
            "[scenario]\nduration_s = 20\nsample_rate_hz = 300\nvoltage_thd = 0.02\n"
            "background_population = resistive_heater:2\nschedule_resistive_heater = 5 5\n\n"
            "[featurize]\nfeatures = i_rms active_power i_crest_factor\n"
        )
        for command in ("simulate", "pipeline"):
            assert run(command, "--config", str(path), "--out", str(tmp_path / "o")) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "supply harmonic order 3" in err
        path.write_text(path.read_text().replace("voltage_thd = 0.02", "voltage_thd = 0"))
        assert run("simulate", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet") == 0

    @pytest.mark.parametrize(
        "edit, message",
        [
            (("schedule_lighting = 20 20\n", ""), "lighting"),
            (("lighting:1", "lighting:1 resistive_heater:1"), "resistive_heater"),
            (("medical_modes = run humidifier-run", "medical_modes = off"), "off"),
            (("n_medical_devices = 2\nmedical_modes = run humidifier-run", "n_medical_devices = 0\nmedical_modes = off"), "off"),
            (
                ("n_medical_devices = 2\nmedical_modes = run humidifier-run",
                 "n_medical_devices = 0\nmedical_class = toaster\nmedical_modes = bogus"),
                "'toaster' is not in the device library",
            ),
            (("sample_rate_hz = 2000", "sample_rate_hz = 500"), "aliases"),
        ],
        ids=["missing-schedule", "class-listed-twice", "off-medical-mode", "off-medical-mode-no-medical-devices",
             "medical-modes-of-a-class-not-in-the-library", "aliasing-rate"],
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
        # A class is declared by its modes: a bare [device.<class>] section is refused, naming it.
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
            assert err.startswith("config error:") and "[device.widget]" in err

    def test_library_without_the_medical_class_loads_with_no_medical_devices(self, tmp_path):
        # medical_class keeps its default, ventilator, but no instance or medical mode asks for it.
        library = tmp_path / "library.cfg"
        save_device_library({name: model for name, model in default_library().items() if name != "ventilator"}, library)
        text = SMALL_CONFIG.replace("n_medical_devices = 2\nmedical_modes = run humidifier-run", "n_medical_devices = 0")
        path = tmp_path / "run.cfg"
        path.write_text(text.replace("rng_seed = 11", "rng_seed = 11\ndevice_library = library.cfg"))
        config = load_run_config(path)
        assert config.scenario.medical_class == "ventilator" and "ventilator" not in load_library_for(config)
        out = tmp_path / "o"
        assert run("simulate", "--config", str(path), "--out", str(out), "--quiet") == 0
        assert not truth_of(path).any()

    def test_format_1_library_exits_2(self, tmp_path, capsys):
        # Format 1 flagged the medical class in a [device.<class>] section; format 2 has no such section.
        library = tmp_path / "library.cfg"
        save_device_library(default_library(), library)
        text = library.read_text()
        version = text.splitlines()[1]
        assert version.startswith("format_version = ")
        library.write_text(text.replace(version, "format_version = 1\n\n[device.ventilator]\nis_medical = true", 1))
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_CONFIG.replace("rng_seed = 11", "rng_seed = 11\ndevice_library = library.cfg"))
        for command in ("simulate", "pipeline"):
            assert run(command, "--config", str(path), "--out", str(tmp_path / "o")) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "format_version" in err
        assert not os.path.exists(tmp_path / "o" / "voltage.fnwv")

    def test_any_library_class_can_be_the_medical_class(self, tmp_path):
        # The truth counts the scenario's medical_class: here refrigerators, among ventilators that are not counted.
        path = tmp_path / "fridge.cfg"
        text = SMALL_CONFIG.replace("medical_modes = run humidifier-run", "medical_class = refrigerator\nmedical_modes = compressor")
        text = text.replace("lighting:1", "lighting:1 ventilator:2")
        path.write_text(text.replace("schedule_ventilator = 25 10", "schedule_ventilator = 25 10\nschedule_refrigerator = 20 15"))
        out = tmp_path / "out"
        assert run("simulate", "--config", str(path), "--out", str(out), "--quiet") == 0
        schedule = generate_schedule(load_run_config(path).scenario, default_library())
        expected = np.zeros(120, dtype=np.int64)
        for device in schedule.devices:
            if device.class_name == "refrigerator":
                for start, end, mode in device.intervals:
                    assert mode == "compressor"
                    expected[math.ceil(start) : math.ceil(end)] += 1
        assert {d.class_name for d in schedule.devices} == {"refrigerator", "ventilator", "resistive_heater", "lighting"}
        counts = truth_of(path)
        assert np.array_equal(counts, expected) and counts.any()

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
        # A 121 s window cannot be cut from a 120 s trace: refused when the config loads.
        path = tmp_path / "long_window.cfg"
        path.write_text(SMALL_CONFIG.replace("\nwindow_s = 5\n", "\nwindow_s = 121\n"))
        with pytest.raises(ConfigError, match="duration_s"):
            load_run_config(path)
        assert run("pipeline", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "window_s" in err
        path.write_text(SMALL_CONFIG.replace("\nwindow_s = 5\n", "\nwindow_s = 120\n"))
        assert load_run_config(path).featurize.window_s == 120.0

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
        counts = truth_of(path)
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

    def test_model_version_reruns_train_and_eval_only(self, config_path, tmp_path, capsys, monkeypatch):
        # Outputs of another trainer or evaluator are stale: the waveforms, ranking and dataset are kept.
        out = str(tmp_path / "out")
        assert run("pipeline", "--config", config_path, "--out", out, "--quiet") == 0
        monkeypatch.setattr(model_module, "MODEL_VERSION", model_module.MODEL_VERSION + 1)
        capsys.readouterr()
        assert run("pipeline", "--config", config_path, "--out", out) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "up to date" in line] == [
            "simulate: up to date", "select-features: up to date", "featurize: up to date"
        ]
        for stage in ("train", "eval"):
            assert any(line.startswith(f"{stage}: ") and "up to date" not in line for line in lines), stage
        config = load_run_config(config_path)
        assert fingerprint_of(os.path.join(out, "residuals.csv")) == model_fingerprint(config, load_library_for(config))

    @pytest.mark.parametrize(
        "name, stage, last_word",
        _GARBLED_LAST_LINES,
        ids=[f"{name}-{stage}" + (f"-{word}" if word else "") for name, stage, word in _GARBLED_LAST_LINES],
    )
    def test_pipeline_reruns_the_writer_of_a_garbled_body_line(self, config_path, tmp_path, capsys, name, stage, last_word):
        # The fingerprint header is kept: the file's reader refuses it.
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert run("pipeline", "--config", config_path, "--out", str(fresh), "--quiet") == 0
        assert run("pipeline", "--config", config_path, "--out", str(out), "--quiet") == 0
        path = out / name
        lines = path.read_text().splitlines()
        if last_word is None:
            separator = next(sep for sep in ("=", ",", " ") if sep in lines[-1])
            lines[-1] = lines[-1].replace(separator, ";", 1)
        elif last_word == "without-last-line":
            del lines[-1]
        elif last_word == "stray-header-word":
            lines.insert(2, "# window_s=99")  # a dataset's header key, in a file whose format has no such key
        elif last_word.startswith("without-"):
            key = last_word[len("without-") :]
            kept = [line for line in lines if not line.startswith(f"{key} = ")]
            assert len(kept) == len(lines) - 1
            lines = kept
        elif "=" in last_word:
            key, word = last_word.split("=")
            lines = _replace_line(lines, f"{key} = ", f"{key} = {word}")
        else:
            lines[-1] = lines[-1].rsplit(" ", 1)[0] + " " + last_word
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("pipeline", "--config", config_path, "--out", str(out)) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert f"{stage}: up to date" not in stdout
        assert any(line.startswith(f"{stage}: ") for line in stdout)
        for artifact in sorted(os.listdir(fresh)):
            assert (out / artifact).read_bytes() == (fresh / artifact).read_bytes(), artifact

    @pytest.mark.parametrize(
        "name, stage, variant",
        _EDITED_VALUES,
        ids=[name + (f"-{variant}" if variant else "") for name, _, variant in _EDITED_VALUES],
    )
    def test_pipeline_reruns_only_the_writer_of_an_edited_value(self, config_path, tmp_path, capsys, name, stage, variant):
        # The edited file parses and keeps its fingerprint: only its seal tells.
        out = tmp_path / "out"
        assert run("pipeline", "--config", config_path, "--out", str(out), "--quiet") == 0
        before = {artifact: (out / artifact).read_bytes() for artifact in os.listdir(out)}
        path = out / name
        path.write_text("\n".join(_edit_value(name, path.read_text().splitlines(), variant)) + "\n")
        assert path.read_bytes() != before[name]
        capsys.readouterr()
        assert run("pipeline", "--config", config_path, "--out", str(out)) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in stdout if not line.endswith(": up to date")] == [stage]
        assert {artifact: (out / artifact).read_bytes() for artifact in os.listdir(out)} == before

    @pytest.mark.parametrize(
        "name, stage, edit", [(n, s, e) for n, s, _, e in _REFUSED_EDITS], ids=[f"{n}-{c}" for n, _, c, _ in _REFUSED_EDITS]
    )
    def test_pipeline_reruns_only_the_writer_of_a_file_no_reader_would_accept(
        self, fresh_outputs, tmp_path, capsys, name, stage, edit
    ):
        config_path, fresh = fresh_outputs
        out = tmp_path / "out"
        shutil.copytree(fresh, out)
        path = out / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        assert path.read_bytes() != (fresh / name).read_bytes()
        capsys.readouterr()
        assert run("pipeline", "--config", config_path, "--out", str(out)) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in stdout if not line.endswith(": up to date")] == [stage]
        for artifact in sorted(os.listdir(fresh)):
            assert (out / artifact).read_bytes() == (fresh / artifact).read_bytes(), artifact

    @pytest.mark.parametrize("stage", cli._STAGES, ids=[stage.name for stage in cli._STAGES])
    def test_rerun_check_finds_fresh_outputs_current_and_writes_nothing(self, fresh_outputs, tmp_path, stage):
        config_path, fresh = fresh_outputs
        out = tmp_path / "out"
        shutil.copytree(fresh, out)
        before = _files_of(out)
        config = load_run_config(config_path)
        assert cli._stage_current(config, load_library_for(config), str(out), stage)
        assert _files_of(out) == before

    def test_noop_pipeline_neither_evaluates_nor_reads_the_dataset_twice(self, fresh_outputs, tmp_path, monkeypatch):
        config_path, fresh = fresh_outputs
        out = tmp_path / "out"
        shutil.copytree(fresh, out)
        calls = []

        def counted(name, function):
            return lambda *args, **kwargs: calls.append(name) or function(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate", counted("evaluate", cli.evaluate))
        monkeypatch.setattr(cli.st, "read_dataset", counted("read_dataset", cli.st.read_dataset))
        assert run("pipeline", "--config", config_path, "--out", str(out), "--quiet") == 0
        assert calls == ["read_dataset"]

    def test_swapped_report_and_residuals_are_rewritten(self, fresh_outputs, tmp_path, capsys):
        # Both files keep a valid seal and eval's fingerprint: only the format line tells which is which.
        config_path, fresh = fresh_outputs
        out = tmp_path / "out"
        shutil.copytree(fresh, out)
        os.replace(out / "report.txt", out / "swap")
        os.replace(out / "residuals.csv", out / "report.txt")
        os.replace(out / "swap", out / "residuals.csv")
        capsys.readouterr()
        assert run("pipeline", "--config", config_path, "--out", str(out)) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in stdout if not line.endswith(": up to date")] == ["eval"]
        for artifact in sorted(os.listdir(fresh)):
            assert (out / artifact).read_bytes() == (fresh / artifact).read_bytes(), artifact

    def test_dataset_recording_the_grid_frequency_is_rewritten_alone(self, config_path, tmp_path, capsys):
        # Earlier datasets carried an f0_hz word, under the same fingerprint: the scenario's f0_hz is the only one.
        out = tmp_path / "out"
        assert run("pipeline", "--config", config_path, "--out", str(out), "--quiet") == 0
        dataset = out / "dataset.csv"
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        text = dataset.read_text()
        assert text.count(" max_harmonic=7\n") == 1
        dataset.write_text(text.replace(" max_harmonic=7\n", " f0_hz=60 max_harmonic=7\n"))
        reseal(dataset)
        capsys.readouterr()  # only what this train says
        assert run("train", "--config", config_path, "--out", str(out), "--quiet") == 3
        err = capsys.readouterr().err
        assert err.startswith("file error:") and "dataset.csv" in err and "f0_hz" in err
        assert run("pipeline", "--config", config_path, "--out", str(out)) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in stdout if not line.endswith(": up to date")] == ["featurize"]
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_pipeline_determinism_across_dirs(self, config_path, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert run("pipeline", "--config", config_path, "--out", out_a, "--quiet") == 0
        assert run("pipeline", "--config", config_path, "--out", out_b, "--quiet") == 0
        for name in ("report.txt", "residuals.csv"):
            with open(os.path.join(out_a, name), "rb") as fa, open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_pipeline_recreates_deleted_residuals(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("pipeline", "--config", config_path, "--out", out, "--quiet") == 0
        residuals = os.path.join(out, "residuals.csv")
        os.remove(residuals)
        assert run("pipeline", "--config", config_path, "--out", out) == 0
        assert "eval: up to date" not in capsys.readouterr().out
        config = load_run_config(config_path)
        expected = model_fingerprint(config, load_library_for(config))
        assert fingerprint_of(residuals) == expected

    def test_train_summary_reports_the_written_model_when_no_epoch_improved(self, tmp_path, capsys):
        # At learning rate 50 every epoch diverges, so train keeps the initial parameters; the
        # summary must give their validation loss, not the best of the diverged epochs, and warn.
        from feeder_nilm.model import forward_batch, init_params

        smoke = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "smoke.cfg")
        with open(smoke, encoding="utf-8") as fh:
            text = fh.read()
        assert "\nlearning_rate = 0.02\n" in text
        path = tmp_path / "diverging.cfg"
        path.write_text(text.replace("\nlearning_rate = 0.02\n", "\nlearning_rate = 50\n"))
        out = str(tmp_path / "out")
        assert run("pipeline", "--config", str(path), "--out", out) == 0
        captured = capsys.readouterr()

        config = load_run_config(str(path))
        dataset, _ = read_dataset(os.path.join(out, "dataset.csv"))
        (params, stats), _ = read_model(os.path.join(out, "model.txt"))
        initial = init_params(params.layer_sizes, config.model.init_seed)
        for got, want in zip(params.weights + params.biases, initial.weights + initial.biases, strict=True):
            assert np.array_equal(got, want)
        _, val, _ = cli._split_rows(config, dataset)
        r = forward_batch(params, apply_normalization(val.X, stats)) - val.y
        val_loss = float(np.mean(np.where(np.abs(r) <= 1.0, 0.5 * r * r, np.abs(r) - 0.5)))
        (line,) = [line for line in captured.out.splitlines() if line.startswith("train: ")]
        assert line.endswith(f", best val loss {val_loss:.4g}")
        assert "no epoch improved" in captured.err
        assert "initial parameters" in captured.err

    def test_train_summary_is_silent_on_stderr_when_an_epoch_improved(self, tmp_path, capsys):
        smoke = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "smoke.cfg")
        assert run("pipeline", "--config", smoke, "--out", str(tmp_path / "out")) == 0
        captured = capsys.readouterr()
        assert "\ntrain: " in captured.out
        assert captured.err == ""

    def test_residuals_hold_the_model_predictions(self, config_path, tmp_path):
        # Eval writes the predictions evaluate() made: one forward pass, same bytes as recomputing it.
        from feeder_nilm.model import count_from_output, forward_batch
        from feeder_nilm.storage import read_text, residual_lines

        out = str(tmp_path / "out")
        assert run("pipeline", "--config", config_path, "--out", out, "--quiet") == 0
        config = load_run_config(config_path)
        dataset, _ = read_dataset(os.path.join(out, "dataset.csv"))
        (params, stats), fp = read_model(os.path.join(out, "model.txt"))
        _, _, test = cli._split_rows(config, dataset)
        continuous = forward_batch(params, apply_normalization(test.X, stats))
        expected = residual_lines(test.t_start_s, test.y, continuous, count_from_output(continuous))
        assert read_text(os.path.join(out, "residuals.csv"), "residuals") == (expected, fp)

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
        lines[index] = full[: len("# fingerprint=") + 1] + full[full.index(" body=") :]
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

    def test_registry_artifacts_cover_artifact_table(self, config_path, tmp_path):
        # Every file a stage writes has one reader, which its consumer and the rerun check use.
        out = str(tmp_path / "out")
        assert run("pipeline", "--config", config_path, "--out", out, "--quiet") == 0
        written = [name for stage in cli._STAGES for name in stage.artifacts]
        assert sorted(written) == sorted(cli._READERS)
        assert sorted(os.listdir(out)) == sorted(written)


# Runs the entry point argv[1] ("module:function") on argv[2:] as an installed console script does.
CONSOLE_SCRIPT = (
    "import importlib, sys\n"
    "module, function = sys.argv[1].split(':')\n"
    "sys.argv = ['feeder-nilm', *sys.argv[2:]]\n"
    "sys.exit(getattr(importlib.import_module(module), function)())\n"
)


def test_console_script_runs_the_pipeline_then_finds_every_stage_up_to_date(tmp_path):
    # tomllib is newer than the 3.10 floor, so the [project.scripts] table is read with a pattern.
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        table = re.search(r"(?ms)^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", fh.read())
    assert table, "pyproject.toml has no [project.scripts] table"
    entry = re.search(r'(?m)^feeder-nilm\s*=\s*"([\w.]+):(\w+)"$', table.group(1))
    assert entry, "[project.scripts] has no feeder-nilm entry point"
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    smoke = os.path.join(ROOT, "configs", "smoke.cfg")
    argv = [sys.executable, "-c", CONSOLE_SCRIPT, f"{entry[1]}:{entry[2]}", "pipeline", "--config", smoke,
            "--out", str(tmp_path / "out")]
    first = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    second = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert second.returncode == 0, second.stderr
    assert second.stdout.splitlines() == [f"{stage.name}: up to date" for stage in cli._STAGES]


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
