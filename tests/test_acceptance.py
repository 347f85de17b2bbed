"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line with its runtime. Run with ``pytest tests/test_acceptance.py -v -s``.

The desk-scale and separable scenarios come from the frozen configuration
files in configs/; their thresholds were tuned once on those configs.
"""

import math
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from conftest import reference_current, report_values, samples_of

from feeder_nilm import cli
from feeder_nilm import signals as sg
from feeder_nilm.devices import default_library
from feeder_nilm.featurize import FeatureSpec, evaluate_window, rank_features
from feeder_nilm.model import init_params, loss_and_gradient
from feeder_nilm.simulate import ScenarioConfig, generate_schedule, synthesize_feeder
from feeder_nilm.storage import (
    read_dataset,
    read_model,
    read_waveform,
    report_lines,
    write_dataset,
    write_model,
    write_text,
    write_waveform,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.2f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s runtime budget"


def run_pipeline(config_name: str, out_dir: str) -> None:
    config_path = os.path.join(CONFIG_DIR, f"{config_name}.cfg")
    assert cli.main(["pipeline", "--config", config_path, "--out", out_dir, "--quiet"]) == 0


def read_report_values(out_dir: str) -> dict:
    return report_values(os.path.join(out_dir, "report.txt"))


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("smoke_a"))
    run_pipeline("smoke", out)
    return out


def test_criterion_1_analytic_feature_suite(grid):
    with criterion(1, "analytic feature suite", budget_s=1.0):
        f0, fs = grid
        n = int(round(12 * fs / f0))
        t = np.arange(n) / fs
        pure = np.sin(2 * np.pi * f0 * t)
        assert sg.form_factor(pure) == pytest.approx(math.pi / (2 * math.sqrt(2)), abs=1e-4)
        assert sg.crest_factor(pure) == pytest.approx(math.sqrt(2), abs=1e-4)
        resistive = sg.phase_shift(pure, 0.2 * pure, f0, fs)
        assert resistive == pytest.approx(0.0, abs=1e-3)
        quarter = np.sin(2 * np.pi * f0 * t - math.pi / 2)
        assert sg.phase_shift(pure, quarter, f0, fs) == pytest.approx(math.pi / 2, abs=1e-3)
        distorted = pure + 0.1 * np.sin(2 * np.pi * 3 * f0 * t)
        assert sg.thd(distorted, f0, fs, 7) == pytest.approx(0.100, abs=1e-3)


def test_criterion_2_feeder_additivity():
    with criterion(2, "feeder additivity", budget_s=5.0):
        library = {
            name: replace(model, modes=tuple(replace(m, noise_rms_amps=0.0) for m in model.modes))
            for name, model in default_library().items()
        }
        config = ScenarioConfig(
            duration_s=10.0,
            sample_rate_hz=10_000.0,
            n_medical_devices=2,
            medical_modes=("run", "humidifier-run"),
            background_population=(("resistive_heater", 1), ("smps", 1), ("lighting", 1)),
            schedule_params={
                "ventilator": (8.0, 4.0),
                "resistive_heater": (6.0, 3.0),
                "smps": (5.0, 5.0),
                "lighting": (7.0, 2.0),
            },
            feeder_noise_rms_amps=0.0,
            rng_seed=13,
        )
        schedule = generate_schedule(config, library)
        assert len(schedule.devices) == 5
        _, feeder = synthesize_feeder(config, schedule, library)
        t = np.arange(feeder.n_samples) / config.sample_rate_hz
        total = np.zeros(feeder.n_samples)
        for device in schedule.devices:
            model = library[device.class_name]
            for start, end, mode_name in device.intervals:
                lo = int(round(start * config.sample_rate_hz))
                hi = min(int(round(end * config.sample_rate_hz)), feeder.n_samples)
                total[lo:hi] += reference_current(model.mode(mode_name), t[lo:hi], config.f0_hz)
        assert np.max(np.abs(samples_of(feeder) - total)) < 1e-9


def test_criterion_3_gradient_check():
    with criterion(3, "gradient finite-difference check", budget_s=30.0):
        eps = 1e-6
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            n_hidden = int(rng.integers(1, 3))
            sizes = (int(rng.integers(2, 5)), *(int(rng.integers(2, 9)) for _ in range(n_hidden)), 1)
            params = init_params(sizes, seed=200 + trial)
            for b in params.biases:
                # Zero biases can park pre-activations exactly on the
                # rectifier kink, where finite differences are invalid.
                b[:] = rng.normal(0.0, 0.5, b.shape)
            batch = int(rng.integers(2, 11))
            X = rng.normal(0, 1, (batch, sizes[0]))
            y = rng.integers(0, 5, batch).astype(float)
            l2 = 0.01 if trial % 2 else 0.0
            _, grad_w, grad_b = loss_and_gradient(params, X, y, l2)
            for arrays, grads in ((params.weights, grad_w), (params.biases, grad_b)):
                for arr, grad in zip(arrays, grads):
                    flat, flat_grad = arr.reshape(-1), grad.reshape(-1)
                    for idx in range(flat.size):
                        saved = flat[idx]
                        flat[idx] = saved + eps
                        up = loss_and_gradient(params, X, y, l2)[0]
                        flat[idx] = saved - eps
                        down = loss_and_gradient(params, X, y, l2)[0]
                        flat[idx] = saved
                        numeric = (up - down) / (2 * eps)
                        denom = max(abs(numeric), abs(flat_grad[idx]), 1e-8)
                        assert abs(numeric - flat_grad[idx]) / denom < 1e-4


def test_criterion_4_pipeline_determinism(smoke_run, tmp_path):
    with criterion(4, "pipeline determinism"):
        rerun = str(tmp_path / "smoke_b")
        run_pipeline("smoke", rerun)
        for name in ("voltage.fnwv", "current.fnwv"):
            with open(os.path.join(smoke_run, name), "rb") as fa, open(os.path.join(rerun, name), "rb") as fb:
                assert fa.read() == fb.read(), name
        values_a = read_report_values(smoke_run)
        values_b = read_report_values(rerun)
        assert values_a["mae_rounded"] == values_b["mae_rounded"]
        assert values_a == values_b


def test_criterion_5_separable_scenario(tmp_path):
    with criterion(5, "separable scenario, exact counting"):
        out = str(tmp_path / "separable")
        run_pipeline("separable", out)
        values = read_report_values(out)
        assert float(values["exact_count_accuracy"]) == 1.0

        # Independent brute-force oracle: each running ventilator adds an
        # 0.18 A third harmonic, so midpoint thresholds alone recover the
        # count on every valid test window.
        dataset, _ = read_dataset(os.path.join(out, "dataset.csv"))
        _, _, test_idx = cli.chronological_split(dataset.n_windows, (0.6, 0.2, 0.2))
        test = dataset.rows(test_idx)
        test = test.rows(test.valid)
        h3 = test.X[:, list(dataset.feature_spec.features).index("h3")]
        thresholds = np.array([0.09, 0.27, 0.45])  # midpoints between 0.18 A steps
        counts = np.searchsorted(thresholds, h3)
        assert np.array_equal(counts, test.y)


def test_criterion_6_desk_scale_end_to_end(tmp_path):
    with criterion(6, "desk-scale end-to-end", budget_s=600.0):
        out = str(tmp_path / "desk")
        run_pipeline("desk_scale", out)
        values = read_report_values(out)
        mae_rounded = float(values["mae_rounded"])
        baseline = float(values["baseline_mae_rounded"])
        assert mae_rounded <= 0.5
        assert mae_rounded <= 0.7 * baseline


def test_criterion_7_fisher_ranking_property():
    with criterion(7, "Fisher ranking property", budget_s=1.0):
        f0, fs = 60.0, 10_000.0
        # Even-harmonic features are identically zero for every shipped
        # device, making them noise columns themselves; the base set here
        # keeps the informative features so "noise ranks last" is decidable.
        spec = FeatureSpec(
            (
                "i_rms",
                "i_form_factor",
                "i_crest_factor",
                "phase_shift",
                "active_power",
                "reactive_power",
                "thd",
                "h3",
                "h5",
                "h7",
            )
        )
        library = default_library()
        for trial in range(3):
            rng = np.random.default_rng(50 + trial)
            signatures = {}
            for offset, (name, model) in enumerate(library.items()):
                vectors = []
                for mode in model.modes:
                    n = int(round(0.2 * fs))
                    t = np.arange(n) / fs
                    base = reference_current(mode, t, f0)
                    voltage = math.sqrt(2) * 120.0 * np.sin(2 * np.pi * f0 * t)
                    for _ in range(3):
                        noisy = base + rng.normal(0, 0.01, n)
                        rows, _ = evaluate_window(voltage[None], noisy[None], spec, fs, f0)
                        row = rows[0]
                        # Inject a perfectly separating feature and a pure-noise feature.
                        separating = 10.0 * offset + rng.normal(0, 1e-6)
                        noise = rng.normal(0, 1.0)
                        vectors.append(np.concatenate([row, [separating, noise]]))
                signatures[name] = vectors
            feature_ids = spec.features + ("separating", "pure_noise")
            ranking = rank_features(signatures, feature_ids)
            assert ranking[0][0] == "separating"
            assert ranking[-1][0] == "pure_noise"


def test_criterion_8_round_trip_persistence(smoke_run, tmp_path):
    with criterion(8, "round-trip persistence"):
        # Waveform: write -> read -> write must be byte-identical.
        src = os.path.join(smoke_run, "current.fnwv")
        wave, fp = read_waveform(src, "CURR", 10_000.0)  # smoke samples at 10 kHz
        copy = tmp_path / "current.fnwv"
        write_waveform(copy, wave, "CURR", fp)
        assert copy.read_bytes() == open(src, "rb").read()

        src = os.path.join(smoke_run, "dataset.csv")
        dataset, fp = read_dataset(src)
        copy = tmp_path / "dataset.csv"
        write_dataset(copy, dataset, fp)
        assert copy.read_bytes() == open(src, "rb").read()

        src = os.path.join(smoke_run, "model.txt")
        (params, stats), fp = read_model(src)
        copy = tmp_path / "model.txt"
        write_model(copy, params, stats, fp)
        assert copy.read_bytes() == open(src, "rb").read()

        # Report: its key = value lines, written again under the model's fingerprint, are its bytes.
        values = read_report_values(smoke_run)
        assert values.pop("format_version") == "1"
        copy = tmp_path / "report.txt"
        write_text(copy, "report", fp, report_lines(list(values.items())))
        assert copy.read_bytes() == open(os.path.join(smoke_run, "report.txt"), "rb").read()
