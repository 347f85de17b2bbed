import math
import os
from dataclasses import replace

import numpy as np
import pytest
from conftest import reference_current, samples_of, save_device_library

from feeder_nilm import devices
from feeder_nilm import signals as sg
from feeder_nilm.config import load_library_for, load_run_config
from feeder_nilm.devices import (
    REPETITIONS,
    DeviceMode,
    DeviceModel,
    HarmonicSpec,
    LibraryFormatError,
    add_harmonics,
    characterization_vectors,
    default_library,
    load_device_library,
    mode_current_samples,
    mode_phasors,
    supply_phasors,
)
from feeder_nilm.featurize import FeatureSpec, evaluate_window
from feeder_nilm.simulate import DeviceSchedule, ScenarioConfig, Schedule, synthesize_feeder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_model(*harmonics, noise=0.0, name="widget"):
    return DeviceModel(
        name,
        modes=(DeviceMode("on", tuple(HarmonicSpec(*h) for h in harmonics), noise),),
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

    def test_model_requires_a_mode(self):
        with pytest.raises(ValueError, match="'x' has no modes"):
            DeviceModel("x", ())
        assert DeviceModel("x", (DeviceMode("on", (HarmonicSpec(1, 1.0),)),)).modes[0].name == "on"

    def test_every_mode_draws_current_whatever_its_name(self):
        with pytest.raises(ValueError, match="non-zero harmonic"):
            DeviceMode("off", (), noise_rms_amps=0.1)
        assert DeviceMode("off", (HarmonicSpec(1, 1.0),)).max_order == 1

    def test_unknown_mode_is_keyerror(self):
        with pytest.raises(KeyError):
            make_model((1, 1.0)).mode("turbo")


def kernel_current(mode, duration_s, fs, f0):
    """Samples of ``mode`` running alone from sample 0, made by the kernel the feeder uses."""
    out = np.zeros(int(round(duration_s * fs)))
    add_harmonics(out, 0, mode_phasors(mode, mode.max_order), fs, f0)
    return out


def supply(f0, fs, **settings):
    """A scenario that only sets the supply: its grid, rate, voltage and seed."""
    return ScenarioConfig(duration_s=1.0, sample_rate_hz=fs, f0_hz=f0, **settings)


def signature(model, spec, window_s, scenario):
    """The characterization vector of a noiseless single-mode ``model``: every repetition is this one."""
    first, *rest = characterization_vectors(model, spec, window_s, scenario)
    assert rest and all(np.array_equal(first, vector) for vector in rest)
    return first


class TestSynthesis:
    def test_single_harmonic_rms(self, grid):
        f0, fs = grid
        current = kernel_current(make_model((1, 2.0)).mode("on"), 0.5, fs, f0)
        assert sg.rms(current) == pytest.approx(2.0, abs=1e-6)

    def test_device_is_silent_where_no_interval_covers_it(self, grid):
        f0, fs = grid
        cfg = ScenarioConfig(duration_s=0.25, sample_rate_hz=fs, f0_hz=f0)
        schedule = Schedule((DeviceSchedule("widget#0", ((0.1, 0.2, "on"),)),))
        current = samples_of(synthesize_feeder(cfg, schedule, {"widget": make_model((1, 2.0))})[1])
        on = np.zeros(current.size, dtype=bool)
        on[1000:2000] = True
        assert current.size == 2500 and not current[~on].any()
        assert sg.rms(current[on]) == pytest.approx(2.0, abs=1e-6)

    def test_parseval_two_harmonics(self, grid):
        # rms^2 = 3.0^2 + 0.4^2 = 9.16 for orthogonal harmonics.
        f0, fs = grid
        current = kernel_current(make_model((1, 3.0), (3, 0.4, 1.2)).mode("on"), 0.5, fs, f0)
        assert sg.rms(current) == pytest.approx(math.sqrt(9.16), abs=1e-4)

    def test_linearity_in_magnitudes(self, grid):
        f0, fs = grid
        base = make_model((1, 0.7, -0.3), (5, 0.2, 0.8)).mode("on")
        scaled = make_model((1, 3.0 * 0.7, -0.3), (5, 3.0 * 0.2, 0.8)).mode("on")
        a = kernel_current(base, 0.2, fs, f0)
        b = kernel_current(scaled, 0.2, fs, f0)
        assert np.max(np.abs(b - 3.0 * a)) < 1e-12

    def test_periodicity(self, grid):
        f0, fs = grid
        mode = make_model((1, 1.5, 0.4), (3, 0.3, -1.0), (7, 0.1, 2.0)).mode("on")
        current = kernel_current(mode, 0.5, fs, f0)
        period_samples = int(round(3 * fs / f0))  # 3 cycles land exactly on the 10 kHz grid
        shifted = current[period_samples:]
        assert np.max(np.abs(shifted - current[: shifted.size])) < 1e-9

    def test_aliasing_rejected(self):
        # The 7th harmonic of 60 Hz (420 Hz) is above the 400 Hz Nyquist frequency of 800 Hz sampling.
        # The current is made as it is read, so the period table refuses it at the first read.
        library = {"widget": make_model((7, 1.0))}
        cfg = ScenarioConfig(duration_s=0.5, sample_rate_hz=800.0, f0_hz=60.0)
        schedule = Schedule((DeviceSchedule("widget#0", ((0.0, 0.5, "on"),)),))
        with pytest.raises(ValueError, match="aliases"):
            samples_of(synthesize_feeder(cfg, schedule, library)[1])


class TestModeCurrent:
    def test_is_the_feeder_kernel_from_sample_zero(self, grid):
        # A 5 s window at 10 kHz: phases up to 2*pi*420*5 rad, where the float-phase reference drifts most.
        f0, fs = grid
        n = 50_000
        t = np.arange(n) / fs
        for model in default_library().values():
            for mode in model.modes:
                current = mode_current_samples(mode, n, fs, f0)
                kernel = np.zeros(n)
                add_harmonics(kernel, 0, mode_phasors(mode, mode.max_order), fs, f0)
                assert current.tobytes() == kernel.tobytes()
                assert np.max(np.abs(current - reference_current(mode, t, f0))) < 1e-9


class TestSignatureFeatures:
    def test_resistive_mode_zero_phase_shift(self, grid):
        f0, fs = grid
        vec = signature(make_model((1, 4.0)), FeatureSpec(("phase_shift",)), 0.2, supply(f0, fs))
        assert vec[0] == pytest.approx(0.0, abs=1e-4)

    def test_fundamental_only_zero_thd(self, grid):
        f0, fs = grid
        vec = signature(make_model((1, 4.0, -0.5)), FeatureSpec(("thd",)), 0.2, supply(f0, fs))
        assert vec[0] == pytest.approx(0.0, abs=1e-4)

    def test_ventilator_run_matches_primitives(self, grid):
        # Per-primitive oracle: recompute every feature directly on the same window,
        # driven by the voltage the feeder synthesis makes for a distorted supply.
        f0, fs = grid
        scenario = supply(f0, fs, voltage_thd=0.05)
        mode = replace(default_library()["ventilator"].mode("run"), noise_rms_amps=0.0)
        vec = signature(DeviceModel("ventilator", (mode,)), FeatureSpec(), 0.5, scenario)
        n = int(round(0.5 * fs))
        v = samples_of(synthesize_feeder(scenario, Schedule(()), {})[0])[:n]
        i = reference_current(mode, np.arange(n) / fs, f0)
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

    def test_supply_is_the_feeder_voltage_bit_for_bit(self, grid):
        # Characterization and synthesis share one supply: no drift between the two.
        f0, fs = grid
        scenario = supply(f0, fs, voltage_rms=230.0, voltage_thd=0.05)
        voltage = samples_of(synthesize_feeder(scenario, Schedule(()), {})[0])
        samples = np.zeros(voltage.size)
        add_harmonics(samples, 0, supply_phasors(scenario), fs, f0)
        assert samples.tobytes() == voltage.tobytes()
        # The characterization window is the first n samples of that voltage.
        model = make_model((1, 2.0, -0.4), (3, 0.5, 1.0))
        n = int(round(0.2 * fs))
        current = mode_current_samples(model.mode("on"), n, fs, f0)
        stack = (REPETITIONS, n)
        rows, _ = evaluate_window(np.broadcast_to(voltage[:n], stack), np.broadcast_to(current, stack), FeatureSpec(), fs, f0)
        assert signature(model, FeatureSpec(), 0.2, scenario).tobytes() == rows[0].tobytes()

    def test_characterization_vectors_shape(self, grid):
        f0, fs = grid
        spec = FeatureSpec()
        vectors = characterization_vectors(default_library()["smps"], spec, 0.2, supply(f0, fs))
        assert len(vectors) == 8  # one mode, eight repetitions
        assert all(v.shape == (len(spec.features),) for v in vectors)


class TestCharacterizationGroups:
    """``characterization_vectors`` draws and evaluates each mode's repetitions in chunk-sized groups."""

    @pytest.fixture
    def smoke(self):
        config = load_run_config(os.path.join(ROOT, "configs", "smoke.cfg"))
        return config, load_library_for(config)

    @staticmethod
    def characterize(monkeypatch, config, model, chunk_bytes=None):
        """(vectors, rows of each evaluate_window stack, mode_current_samples calls), at ``chunk_bytes`` if given."""
        if chunk_bytes is not None:
            monkeypatch.setattr(devices, "CHUNK_BYTES", chunk_bytes)
        stacks, modes = [], []

        def counted_samples(mode, n_samples, sample_rate_hz, f0_hz):
            modes.append(mode.name)
            return mode_current_samples(mode, n_samples, sample_rate_hz, f0_hz)

        def recorded_window(voltage, current, spec, fs, f0):
            stacks.append(current.shape[0])
            return evaluate_window(voltage, current, spec, fs, f0)

        monkeypatch.setattr(devices, "mode_current_samples", counted_samples)
        monkeypatch.setattr(devices, "evaluate_window", recorded_window)
        vectors = characterization_vectors(
            model, FeatureSpec(config.featurize.features), config.featurize.window_s, config.scenario
        )
        return vectors, stacks, modes

    @pytest.mark.parametrize("class_name", ["ventilator", "induction_motor"])
    def test_one_repetition_per_group_gives_the_same_bits(self, smoke, monkeypatch, class_name):
        config, library = smoke
        model = library[class_name]
        n = int(round(config.featurize.window_s * config.scenario.sample_rate_hz))
        grouped, stacks, modes = self.characterize(monkeypatch, config, model)
        assert len(stacks) > len(model.modes)  # smoke's 5 s windows do not fit one chunk eight at a time
        assert max(stacks) > 1 and max(stacks) * 8 * n <= devices.CHUNK_BYTES
        single, single_stacks, single_modes = self.characterize(monkeypatch, config, model, chunk_bytes=8 * n)
        assert single_stacks == [1] * (REPETITIONS * len(model.modes))
        assert [v.tobytes() for v in single] == [v.tobytes() for v in grouped]
        # The noiseless current of a mode is made once and added to each of its groups.
        assert modes == single_modes == [mode.name for mode in model.modes]


class TestDefaultLibrary:
    def test_composition(self):
        library = default_library()
        assert set(library) == {"ventilator", "resistive_heater", "induction_motor", "smps", "lighting", "refrigerator"}
        vent = library["ventilator"]
        assert {m.name for m in vent.modes} == {"standby", "run", "humidifier-run"}

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
        path.write_text("[library]\nformat_version = 99\n\n[device.x.mode.on]\nh1 = 1 0\n")
        with pytest.raises(LibraryFormatError):
            load_device_library(path)

    def test_format_1_refused_saying_what_changed(self, tmp_path):
        # Format 1 declared each class in a [device.<class>] section with an is_medical flag.
        path = tmp_path / "library.cfg"
        path.write_text(
            "[library]\nformat_version = 1\n\n[device.x]\nis_medical = false\n\n[device.x.mode.on]\nh1 = 1 0\n"
        )
        with pytest.raises(LibraryFormatError, match=r"format_version '1'.*delete .*\[device\.<class>\].*format_version = 2"):
            load_device_library(path)

    def test_off_mode_rejected(self, tmp_path):
        # A silent mode is refused whatever its name: every mode needs a non-zero harmonic.
        path = tmp_path / "library.cfg"
        path.write_text(
            "[library]\nformat_version = 2\n\n[device.x.mode.off]\nnoise_rms_amps = 0\n"
        )
        with pytest.raises(LibraryFormatError):
            load_device_library(path)

    def test_no_mode_name_is_reserved(self, tmp_path):
        path = tmp_path / "library.cfg"
        path.write_text("[library]\nformat_version = 2\n\n[device.x.mode.off]\nh1 = 1 0\n")
        assert [m.name for m in load_device_library(path)["x"].modes] == ["off"]

    def test_class_without_modes_rejected_naming_it(self, tmp_path):
        # A class is declared by its mode sections alone: a [device.<class>] section is refused, empty or not.
        for body in ("", "is_medical = true\n"):
            path = tmp_path / "library.cfg"
            save_device_library(default_library(), path)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n[device.widget]\n" + body)
            with pytest.raises(LibraryFormatError, match=r"unexpected section \[device\.widget\]"):
                load_device_library(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "library.cfg"
        path.write_text("not a library at all")
        with pytest.raises(LibraryFormatError):
            load_device_library(path)
