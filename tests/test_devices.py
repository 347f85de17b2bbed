import math
import os
import subprocess
import sys

import numpy as np
import pytest

from feeder_nilm import signals as sg
from feeder_nilm.devices import (
    DeviceMode,
    DeviceModel,
    HarmonicSpec,
    LibraryFormatError,
    OFF_MODE,
    characterization_vectors,
    default_library,
    device_signature_features,
    load_device_library,
    mode_current_samples,
    save_device_library,
    synth_device_current,
)
from feeder_nilm.featurize import FEATURE_IDS, FeatureSpec


def make_model(*harmonics, noise=0.0, name="widget"):
    return DeviceModel(
        name,
        is_medical=False,
        modes=(OFF_MODE, DeviceMode("on", tuple(HarmonicSpec(*h) for h in harmonics), noise)),
    )


class TestValidation:
    def test_harmonic_phase_wrapped(self):
        h = HarmonicSpec(3, 1.0, 4.0)
        assert -math.pi < h.phase_rad <= math.pi

    def test_mode_needs_energy(self):
        with pytest.raises(ValueError):
            DeviceMode("on", (HarmonicSpec(1, 0.0),))

    def test_duplicate_harmonic_order(self):
        with pytest.raises(ValueError):
            DeviceMode("on", (HarmonicSpec(1, 1.0), HarmonicSpec(1, 2.0)))

    def test_model_requires_single_silent_off(self):
        with pytest.raises(ValueError):
            DeviceModel("x", False, (DeviceMode("on", (HarmonicSpec(1, 1.0),)),))
        with pytest.raises(ValueError):
            DeviceModel(
                "x",
                False,
                (DeviceMode("off", (), noise_rms_amps=0.1), DeviceMode("on", (HarmonicSpec(1, 1.0),))),
            )

    def test_unknown_mode_is_keyerror(self):
        with pytest.raises(KeyError):
            make_model((1, 1.0)).mode("turbo")


class TestSynthesis:
    def test_single_harmonic_rms(self, grid):
        f0, fs = grid
        model = make_model((1, 2.0))
        w = synth_device_current(model, "on", 0.5, fs, f0)
        assert sg.rms(w.samples) == pytest.approx(2.0, abs=1e-6)

    def test_off_is_silent(self, grid):
        f0, fs = grid
        w = synth_device_current(make_model((1, 2.0)), "off", 0.25, fs, f0)
        assert not w.samples.any()

    def test_parseval_two_harmonics(self, grid):
        # rms^2 = 3.0^2 + 0.4^2 = 9.16 for orthogonal harmonics.
        f0, fs = grid
        model = make_model((1, 3.0), (3, 0.4, 1.2))
        w = synth_device_current(model, "on", 0.5, fs, f0)
        assert sg.rms(w.samples) == pytest.approx(math.sqrt(9.16), abs=1e-4)

    def test_determinism_bit_identical(self, grid):
        f0, fs = grid
        model = make_model((1, 1.0), noise=0.05)
        a = synth_device_current(model, "on", 0.3, fs, f0, rng_seed=11)
        b = synth_device_current(model, "on", 0.3, fs, f0, rng_seed=11)
        assert np.array_equal(a.samples, b.samples)
        c = synth_device_current(model, "on", 0.3, fs, f0, rng_seed=12)
        assert not np.array_equal(a.samples, c.samples)

    def test_linearity_in_magnitudes(self, grid):
        f0, fs = grid
        base = make_model((1, 0.7, -0.3), (5, 0.2, 0.8))
        scaled = make_model((1, 3.0 * 0.7, -0.3), (5, 3.0 * 0.2, 0.8))
        a = synth_device_current(base, "on", 0.2, fs, f0)
        b = synth_device_current(scaled, "on", 0.2, fs, f0)
        assert np.max(np.abs(b.samples - 3.0 * a.samples)) < 1e-12

    def test_periodicity(self, grid):
        f0, fs = grid
        model = make_model((1, 1.5, 0.4), (3, 0.3, -1.0), (7, 0.1, 2.0))
        w = synth_device_current(model, "on", 0.5, fs, f0)
        period_samples = int(round(3 * fs / f0))  # 3 cycles land exactly on the 10 kHz grid
        shifted = w.samples[period_samples:]
        assert np.max(np.abs(shifted - w.samples[: shifted.size])) < 1e-9

    def test_phase_offset_rotates_harmonics(self, grid):
        # Order h rotates by h * offset, keeping the waveform a pure time shift.
        f0, fs = grid
        offset = 0.6
        model = make_model((1, 1.0), (3, 0.4, 0.2))
        w = synth_device_current(model, "on", 0.2, fs, f0, phase_offset_rad=offset)
        _, fundamental_phase = sg.fundamental_phasor(w.samples, f0, fs)
        _, third_phase = sg.fundamental_phasor(w.samples, 3 * f0, fs)
        assert sg.wrap_phase(fundamental_phase - offset) == pytest.approx(0.0, abs=1e-6)
        assert sg.wrap_phase(third_phase - (0.2 + 3 * offset)) == pytest.approx(0.0, abs=1e-6)

    def test_aliasing_rejected(self):
        model = make_model((7, 1.0))
        with pytest.raises(ValueError):
            synth_device_current(model, "on", 0.5, 800.0, 60.0)

    def test_unknown_mode(self, grid):
        f0, fs = grid
        with pytest.raises(KeyError):
            synth_device_current(make_model((1, 1.0)), "sleep", 0.5, fs, f0)


class TestSignatureFeatures:
    def test_resistive_mode_zero_phase_shift(self, grid):
        f0, fs = grid
        spec = FeatureSpec(("phase_shift",), f0)
        vec = device_signature_features(make_model((1, 4.0)), "on", 0.2, fs, f0, spec)
        assert vec[0] == pytest.approx(0.0, abs=1e-4)

    def test_fundamental_only_zero_thd(self, grid):
        f0, fs = grid
        spec = FeatureSpec(("thd",), f0)
        vec = device_signature_features(make_model((1, 4.0, -0.5)), "on", 0.2, fs, f0, spec)
        assert vec[0] == pytest.approx(0.0, abs=1e-4)

    def test_ventilator_run_matches_primitives(self, grid):
        # Per-primitive oracle: recompute every feature directly on the same window.
        f0, fs = grid
        spec = FeatureSpec()
        library = default_library()
        vec = device_signature_features(library["ventilator"], "run", 0.5, fs, f0, spec)
        mode = library["ventilator"].mode("run")
        n = int(round(0.5 * fs))
        t = np.arange(n) / fs
        i = mode_current_samples(mode, t, f0)
        v = math.sqrt(2.0) * 120.0 * np.sin(2 * np.pi * f0 * t)
        expected = [
            sg.rms(i),
            sg.form_factor(i),
            sg.crest_factor(i),
            sg.phase_shift(v, i, f0, fs),
            float(np.mean(v * i)),
            sg.active_reactive_power(v, i, f0, fs)[1],
            sg.thd(i, f0, fs, 7),
        ] + [sg.harmonic_magnitude(i, h, f0, fs) for h in range(2, 8)]
        assert vec == pytest.approx(expected, abs=1e-9)

    def test_rank_default_features_script(self):
        script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "rank_default_features.py")
        result = subprocess.run(
            [sys.executable, script, "--window-s", "0.2", "--reps", "2"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        rows = [line.split() for line in result.stdout.splitlines()[1:]]
        assert [int(rank) for rank, _, _ in rows] == list(range(1, 14))
        assert sorted(name for _, name, _ in rows) == sorted(FEATURE_IDS)
        scores = [float(score) for _, _, score in rows]
        assert scores == sorted(scores, reverse=True)

    def test_characterization_vectors_shape(self, grid):
        f0, fs = grid
        spec = FeatureSpec()
        vectors = characterization_vectors(default_library()["smps"], spec, 0.2, fs, repetitions=3)
        assert len(vectors) == 3  # one non-off mode, three repetitions
        assert all(v.shape == (len(spec.features),) for v in vectors)


class TestDefaultLibrary:
    def test_composition(self):
        library = default_library()
        assert library["ventilator"].is_medical
        assert sum(1 for m in library.values() if not m.is_medical) == 5
        vent = library["ventilator"]
        assert {m.name for m in vent.modes} == {"off", "standby", "run", "humidifier-run"}

    def test_humidifier_adds_resistive_fundamental(self):
        # Fundamental phasor of humidifier-run equals run's plus 0.8 A at phase 0.
        vent = default_library()["ventilator"]
        run = {h.harmonic_order: h for h in vent.mode("run").harmonics}
        hum = {h.harmonic_order: h for h in vent.mode("humidifier-run").harmonics}
        run_c = run[1].magnitude_rms_amps * np.exp(1j * run[1].phase_rad)
        hum_c = hum[1].magnitude_rms_amps * np.exp(1j * hum[1].phase_rad)
        assert abs(hum_c - (run_c + 0.8)) < 1e-12
        assert hum[3].magnitude_rms_amps == run[3].magnitude_rms_amps


class TestLibraryFile:
    def test_round_trip(self, tmp_path):
        library = default_library()
        path = tmp_path / "library.cfg"
        save_device_library(library, path)
        loaded = load_device_library(path)
        assert loaded == library

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "library.cfg"
        path.write_text("[library]\nformat_version = 99\n\n[device.x]\nis_medical = false\n")
        with pytest.raises(LibraryFormatError):
            load_device_library(path)

    def test_off_mode_rejected(self, tmp_path):
        path = tmp_path / "library.cfg"
        path.write_text(
            "[library]\nformat_version = 1\n\n[device.x.mode.off]\nnoise_rms_amps = 0\n"
        )
        with pytest.raises(LibraryFormatError):
            load_device_library(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "library.cfg"
        path.write_text("not a library at all")
        with pytest.raises(LibraryFormatError):
            load_device_library(path)
