import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as strat
from conftest import reference_current, samples_of

from feeder_nilm import signals as sg
from feeder_nilm.devices import default_library
from feeder_nilm.featurize import window_targets
from feeder_nilm.simulate import (
    DeviceSchedule,
    Schedule,
    ScenarioConfig,
    generate_schedule,
    ground_truth_counts,
    synthesize_feeder,
)


LIBRARY = default_library()


def noiseless_library():
    """Default library with every noise level forced to zero."""
    from dataclasses import replace

    out = {}
    for name, model in LIBRARY.items():
        modes = tuple(replace(m, noise_rms_amps=0.0) for m in model.modes)
        out[name] = replace(model, modes=modes)
    return out


def scenario(**overrides):
    base = dict(
        duration_s=10.0,
        sample_rate_hz=2000.0,
        n_medical_devices=0,
        schedule_params={
            "ventilator": (100.0, 50.0),
            "resistive_heater": (100.0, 50.0),
            "lighting": (80.0, 40.0),
        },
        rng_seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def always_on(device_id, class_name, mode, duration, is_medical=False):
    return DeviceSchedule(device_id, class_name, is_medical, ((0.0, duration, mode),))


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(duration_s=10.0, n_medical_devices=-1)
        with pytest.raises(ValueError):
            ScenarioConfig(duration_s=10.0, schedule_params={"x": (0.0, 5.0)})
        with pytest.raises(ValueError):
            ScenarioConfig(
                duration_s=10.0,
                medical_class="ventilator",
                background_population=(("ventilator", 2),),
            )

    def test_populations_order(self):
        cfg = scenario(n_medical_devices=2, background_population=(("resistive_heater", 3),))
        assert cfg.populations() == (("ventilator", 2), ("resistive_heater", 3))


class TestGenerateSchedule:
    def test_empty_scenario(self):
        assert generate_schedule(scenario(), LIBRARY).devices == ()

    def test_determinism(self):
        cfg = scenario(n_medical_devices=2, background_population=(("lighting", 3),))
        assert generate_schedule(cfg, LIBRARY) == generate_schedule(cfg, LIBRARY)

    def test_seed_changes_schedule(self):
        cfg_a = scenario(n_medical_devices=3, duration_s=500.0)
        cfg_b = scenario(n_medical_devices=3, duration_s=500.0, rng_seed=8)
        assert generate_schedule(cfg_a, LIBRARY) != generate_schedule(cfg_b, LIBRARY)

    def test_schedules_survive_population_merge(self):
        # Same (class, index) seeds: adding a disjoint class leaves schedules alone.
        small = scenario(n_medical_devices=2, duration_s=300.0)
        merged = scenario(
            n_medical_devices=2, duration_s=300.0, background_population=(("lighting", 2),)
        )
        a = generate_schedule(small, LIBRARY)
        b = generate_schedule(merged, LIBRARY)
        assert b.devices[: len(a.devices)] == a.devices

    def test_on_duration_statistics(self):
        # Statistical oracle: complete on-intervals should average the configured mean.
        mean_on = 300.0
        cfg = ScenarioConfig(
            duration_s=30_000.0,
            n_medical_devices=0,
            background_population=(("resistive_heater", 200),),
            schedule_params={"resistive_heater": (mean_on, mean_on)},
            rng_seed=123,
        )
        schedule = generate_schedule(cfg, LIBRARY)
        durations = [
            end - start
            for device in schedule.devices
            for start, end, _ in device.intervals
            if start > 0.0 and end < cfg.duration_s  # boundary-truncated draws are biased
        ]
        assert len(durations) >= 9_000
        assert np.mean(durations) == pytest.approx(mean_on, rel=0.05)

    def test_medical_modes_restrict_pool(self):
        cfg = scenario(
            n_medical_devices=5, duration_s=2000.0, medical_modes=("run",), rng_seed=3
        )
        schedule = generate_schedule(cfg, LIBRARY)
        modes = {m for d in schedule.devices for _, _, m in d.intervals}
        assert modes == {"run"}

    def test_unknown_class_rejected(self):
        cfg = ScenarioConfig(
            duration_s=10.0,
            background_population=(("toaster", 1),),
            schedule_params={"toaster": (10.0, 10.0)},
        )
        with pytest.raises(ValueError):
            generate_schedule(cfg, LIBRARY)


class TestSynthesizeFeeder:
    def test_no_devices_zero_current(self):
        cfg = scenario()
        voltage, current = synthesize_feeder(cfg, Schedule(()), LIBRARY)
        assert not samples_of(current).any()
        assert sg.rms(samples_of(voltage)) == pytest.approx(120.0, abs=1e-2)

    def test_five_device_additivity(self):
        # Additivity oracle: feeder current equals the masked per-device sum.
        lib = noiseless_library()
        cfg = scenario(
            n_medical_devices=2,
            duration_s=10.0,
            background_population=(("resistive_heater", 2), ("lighting", 1)),
            rng_seed=99,
        )
        schedule = generate_schedule(cfg, lib)
        assert len(schedule.devices) == 5
        _, current = synthesize_feeder(cfg, schedule, lib)
        n = current.n_samples
        t = np.arange(n) / cfg.sample_rate_hz
        total = np.zeros(n)
        for device in schedule.devices:
            model = lib[device.class_name]
            for start, end, mode_name in device.intervals:
                i0 = int(round(start * cfg.sample_rate_hz))
                i1 = min(int(round(end * cfg.sample_rate_hz)), n)
                total[i0:i1] += reference_current(model.mode(mode_name), t[i0:i1], cfg.f0_hz)
        assert np.max(np.abs(samples_of(current) - total)) < 1e-9

    def test_superposition_of_disjoint_populations(self):
        lib = noiseless_library()
        cfg_a = scenario(n_medical_devices=2, rng_seed=5)
        cfg_b = scenario(background_population=(("lighting", 3),), rng_seed=5)
        cfg_ab = scenario(
            n_medical_devices=2, background_population=(("lighting", 3),), rng_seed=5
        )
        _, i_a = synthesize_feeder(cfg_a, generate_schedule(cfg_a, lib), lib)
        _, i_b = synthesize_feeder(cfg_b, generate_schedule(cfg_b, lib), lib)
        _, i_ab = synthesize_feeder(cfg_ab, generate_schedule(cfg_ab, lib), lib)
        assert np.max(np.abs(samples_of(i_ab) - (samples_of(i_a) + samples_of(i_b)))) < 1e-9

    def test_waveform_determinism(self):
        cfg = scenario(n_medical_devices=1, feeder_noise_rms_amps=0.1, rng_seed=21)
        schedule = generate_schedule(cfg, LIBRARY)
        v1, i1 = synthesize_feeder(cfg, schedule, LIBRARY)
        v2, i2 = synthesize_feeder(cfg, schedule, LIBRARY)
        assert np.array_equal(samples_of(v1), samples_of(v2))
        assert np.array_equal(samples_of(i1), samples_of(i2))

    def test_voltage_thd_knob(self):
        cfg = scenario(voltage_thd=0.04)
        voltage, _ = synthesize_feeder(cfg, Schedule(()), LIBRARY)
        assert sg.thd(samples_of(voltage), cfg.f0_hz, cfg.sample_rate_hz, 7) == pytest.approx(
            0.04, abs=1e-4
        )

    def test_inconsistent_schedule_rejected(self):
        cfg = scenario()
        bad = Schedule((always_on("resistive_heater#0", "resistive_heater", "turbo", 10.0),))
        with pytest.raises(ValueError):
            synthesize_feeder(cfg, bad, LIBRARY)
        beyond = Schedule((always_on("resistive_heater#0", "resistive_heater", "on", 99.0),))
        with pytest.raises(ValueError):
            synthesize_feeder(cfg, beyond, LIBRARY)


class TestGroundTruth:
    def test_three_always_on(self):
        cfg = scenario(n_medical_devices=3)
        schedule = Schedule(
            tuple(
                always_on(f"ventilator#{k}", "ventilator", "run", cfg.duration_s, is_medical=True)
                for k in range(3)
            )
        )
        counts = ground_truth_counts(schedule, cfg)
        assert counts.dtype == np.int64
        assert counts.size == 10
        assert (counts == 3).all()

    def test_no_medical_devices(self):
        cfg = scenario(background_population=(("resistive_heater", 4),))
        schedule = generate_schedule(cfg, LIBRARY)
        assert not ground_truth_counts(schedule, cfg).any()

    def test_interval_membership(self):
        # Interval-membership oracle: [10, 20) covers exactly timestamps 10..19.
        cfg = scenario(duration_s=30.0, n_medical_devices=1)
        schedule = Schedule(
            (DeviceSchedule("ventilator#0", "ventilator", True, ((10.0, 20.0, "run"),)),)
        )
        expected = np.zeros(30, dtype=int)
        expected[10:20] = 1
        assert np.array_equal(ground_truth_counts(schedule, cfg), expected)

    def test_background_devices_not_counted(self):
        cfg = scenario(background_population=(("resistive_heater", 1),))
        schedule = Schedule(
            (always_on("resistive_heater#0", "resistive_heater", "on", cfg.duration_s),)
        )
        assert not ground_truth_counts(schedule, cfg).any()


def reference_window_targets(counts, window_s, stride_s, n_windows):
    """One window at a time: [ceil(k*stride - 1e-9), ceil(k*stride + window - 1e-9))."""
    y = np.zeros(n_windows, dtype=np.int64)
    for k in range(n_windows):
        start = k * stride_s
        lo = max(0, math.ceil(start - 1e-9))
        hi = max(0, math.ceil(start + window_s - 1e-9))
        if hi > counts.size or lo >= hi:
            raise ValueError("window extends past the end of the ground-truth series")
        y[k] = int(counts[lo:hi].max())
    return y


class TestWindowTargets:
    @given(
        counts=strat.lists(strat.integers(min_value=0, max_value=6), min_size=0, max_size=60),
        window_s=strat.one_of(
            strat.sampled_from([1.0, 2.5, 5.0, 5.00004, 7.3]),
            strat.floats(min_value=1.0, max_value=30.0),
        ),
        stride_s=strat.one_of(
            strat.sampled_from([0.25, 1.0, 1.25, 2.5, 0.1, 1e-4]),
            strat.floats(min_value=1e-3, max_value=20.0),
        ),
        n_windows=strat.integers(min_value=0, max_value=250),
    )
    @example(counts=[1] * 30, window_s=5.0, stride_s=5.0, n_windows=6)
    @example(counts=[1] * 30, window_s=5.0, stride_s=5.0, n_windows=7)
    @example(counts=[0, 3, 1, 2] * 10, window_s=5.0, stride_s=1.25, n_windows=29)
    @example(counts=[2, 0, 1] * 10, window_s=1.0, stride_s=0.1, n_windows=291)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_window_loop(self, counts, window_s, stride_s, n_windows):
        truth = self.make_truth(counts)
        try:
            want = reference_window_targets(truth, window_s, stride_s, n_windows)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                window_targets(truth, window_s, stride_s, n_windows)
        else:
            got = window_targets(truth, window_s, stride_s, n_windows)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def make_truth(self, counts):
        return np.asarray(counts, dtype=np.int64)

    def test_constant_counts(self):
        truth = self.make_truth([2] * 30)
        assert (window_targets(truth, 5.0, 5.0, 6) == 2).all()

    def test_all_zero(self):
        truth = self.make_truth([0] * 30)
        y = window_targets(truth, 5.0, 5.0, 6)
        assert y.size == 6
        assert not y.any()
        with pytest.raises(ValueError):  # a seventh window would run past the 30 s series
            window_targets(truth, 5.0, 5.0, 7)

    def test_step_mid_window_takes_max(self):
        # Max-over-window oracle: step 1 -> 2 inside the third window.
        counts = np.array([1] * 12 + [2] * 8)
        truth = self.make_truth(counts)
        y = window_targets(truth, 5.0, 5.0, 4)
        expected = [counts[5 * k : 5 * k + 5].max() for k in range(4)]
        assert list(y) == expected
        assert y[2] == 2

    def test_window_longer_than_series(self):
        with pytest.raises(ValueError):
            window_targets(self.make_truth([1, 1, 1]), 5.0, 5.0, 1)

    def test_sub_second_window_rejected(self):
        with pytest.raises(ValueError):
            window_targets(self.make_truth([1] * 10), 0.5, 0.5, 20)

    def test_counts_bounded_by_population(self):
        cfg = scenario(n_medical_devices=4, duration_s=600.0, rng_seed=17)
        schedule = generate_schedule(cfg, LIBRARY)
        truth = ground_truth_counts(schedule, cfg)
        y = window_targets(truth, 5.0, 5.0, 120)
        assert y.min() >= 0
        assert y.max() <= 4


def oracle_current(cfg, schedule, library):
    """Masked per-device sum of the float-phase ``reference_current`` on absolute time."""
    n = int(round(cfg.duration_s * cfg.sample_rate_hz))
    t = np.arange(n) / cfg.sample_rate_hz
    total = np.zeros(n)
    for device in schedule.devices:
        model = library[device.class_name]
        for start, end, mode_name in device.intervals:
            i0 = int(round(start * cfg.sample_rate_hz))
            i1 = min(int(round(end * cfg.sample_rate_hz)), n)
            total[i0:i1] += reference_current(model.mode(mode_name), t[i0:i1], cfg.f0_hz)
    return total


# Change points off multiples of the 500-sample period at 10 kHz / 60 Hz; the
# lighting interval [1.2345, 1.2567) is a 222-sample segment, the gap
# [3.0411, 3.0462) between the heater's end and the motor's start 51 samples,
# and the smps interval outlasts one 65536-sample direct-evaluation block.
HAND_SCHEDULE = Schedule(
    (
        DeviceSchedule("ventilator#0", "ventilator", True, ((0.0123, 2.5017, "run"), (2.9, 7.9871, "humidifier-run"))),
        DeviceSchedule("resistive_heater#0", "resistive_heater", False, ((0.3001, 3.0411, "on"),)),
        DeviceSchedule("resistive_heater#1", "resistive_heater", False, ((0.3001, 1.7779, "on"),)),
        DeviceSchedule("lighting#0", "lighting", False, ((1.2345, 1.2567, "on"),)),
        DeviceSchedule("induction_motor#0", "induction_motor", False, ((3.0462, 8.0, "on"),)),
        DeviceSchedule("smps#0", "smps", False, ((0.0, 7.5003, "on"),)),
    )
)


def hand_scenario(**overrides):
    base = dict(duration_s=8.0, sample_rate_hz=10_000.0, f0_hz=60.0, rng_seed=4)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestPeriodicTableSynthesis:
    @pytest.mark.parametrize(
        "fs, f0",
        [(10_000.0, 60.0), (10_000.0, 50.0), (9_999.0, 60.0)],
        ids=["integer-table", "f0-50-table", "fs-9999-table"],
    )
    def test_matches_scalar_oracle(self, fs, f0):
        lib = noiseless_library()
        cfg = hand_scenario(sample_rate_hz=fs, f0_hz=f0)
        _, current = synthesize_feeder(cfg, HAND_SCHEDULE, lib)
        assert np.max(np.abs(samples_of(current) - oracle_current(cfg, HAND_SCHEDULE, lib))) < 1e-9

    def test_voltage_matches_direct_sine(self):
        cfg = hand_scenario(voltage_thd=0.03, f0_hz=50.0, sample_rate_hz=9_999.0)  # a 9 999-sample period
        voltage, _ = synthesize_feeder(cfg, Schedule(()), LIBRARY)
        t = np.arange(voltage.n_samples) / cfg.sample_rate_hz
        amplitude = np.sqrt(2.0) * cfg.voltage_rms
        direct = amplitude * np.sin(2 * np.pi * cfg.f0_hz * t) + 0.03 * amplitude * np.sin(6 * np.pi * cfg.f0_hz * t)
        assert np.max(np.abs(samples_of(voltage) - direct)) < 1e-9

    def test_add_harmonics_table_equals_direct_evaluation(self):
        # Tiling one period is exact: every tile equals the samples evaluated at their own index.
        from feeder_nilm.devices import add_harmonics, mode_phasors

        phasors = mode_phasors(LIBRARY["smps"].mode("on"), 7)
        for start, n in [(0, 1), (123_457, 499), (5_000_003, 1_501), (77, 30_000)]:
            tiled = np.zeros(n)
            add_harmonics(tiled, start, phasors, 10_000.0, 60.0)
            single = np.array([0.0])
            for k in range(0, n, 997):
                single[0] = 0.0
                add_harmonics(single, start + k, phasors, 10_000.0, 60.0)
                assert tiled[k] == single[0]
            t = (start + np.arange(n)) / 10_000.0
            oracle = reference_current(LIBRARY["smps"].mode("on"), t, 60.0)
            assert np.max(np.abs(tiled - oracle)) < 1e-9

    @pytest.mark.parametrize("fs, f0", [(9_999.5, 60.0), (10_000.0, 59.94)], ids=["fractional-fs", "fractional-f0"])
    def test_add_harmonics_needs_whole_hertz(self, fs, f0):
        from feeder_nilm.devices import add_harmonics, mode_phasors

        out = np.zeros(100)
        with pytest.raises(ValueError, match="whole"):
            add_harmonics(out, 0, mode_phasors(LIBRARY["smps"].mode("on"), 7), fs, f0)
        assert not out.any()

    def test_segment_noise_variance_is_sum_of_active_variances(self):
        from dataclasses import replace

        noisy = dict(LIBRARY)
        for name, sigma in (("resistive_heater", 0.03), ("lighting", 0.04)):
            model = LIBRARY[name]
            noisy[name] = replace(model, modes=(replace(model.mode("on"), noise_rms_amps=sigma),))
        schedule = Schedule(
            (
                always_on("resistive_heater#0", "resistive_heater", "on", 4.0),
                always_on("resistive_heater#1", "resistive_heater", "on", 4.0),
                DeviceSchedule("lighting#0", "lighting", False, ((2.0, 6.0, "on"),)),
            )
        )
        feeder_sigma = 0.002
        cfg = hand_scenario(feeder_noise_rms_amps=feeder_sigma)
        _, current = synthesize_feeder(cfg, schedule, noisy)
        _, clean = synthesize_feeder(replace(cfg, feeder_noise_rms_amps=0.0), schedule, noiseless_library())
        noise = samples_of(current) - samples_of(clean)
        expected = {  # segment in samples -> feeder sigma^2 + sum of active sigma^2
            (0, 20_000): feeder_sigma**2 + 2 * 0.03**2,
            (20_000, 40_000): feeder_sigma**2 + 2 * 0.03**2 + 0.04**2,
            (40_000, 60_000): feeder_sigma**2 + 0.04**2,
            (60_000, 80_000): feeder_sigma**2,
        }
        for (a, b), variance in expected.items():
            # The sample variance of 20 000 Gaussian draws has relative standard
            # deviation sqrt(2 / 20 000) = 1 %; 5 % is five of those.
            assert np.var(noise[a:b]) == pytest.approx(variance, rel=0.05)
            assert abs(np.mean(noise[a:b])) < 5 * np.sqrt(variance / (b - a))

    def test_noisy_run_bit_identical_across_runs(self):
        cfg = scenario(
            n_medical_devices=3,
            background_population=(("resistive_heater", 2), ("lighting", 2)),
            feeder_noise_rms_amps=0.05,
            duration_s=30.0,
            rng_seed=5,
        )
        schedule = generate_schedule(cfg, LIBRARY)
        runs = [synthesize_feeder(cfg, schedule, LIBRARY) for _ in range(2)]
        assert samples_of(runs[0][0]).tobytes() == samples_of(runs[1][0]).tobytes()
        assert samples_of(runs[0][1]).tobytes() == samples_of(runs[1][1]).tobytes()

    @given(cuts=strat.lists(strat.integers(0, 60_000), max_size=6), seed=strat.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_any_buffer_sizes_give_the_same_bits(self, cuts, seed):
        # The samples are generated as they are read: a segment cut at any buffer
        # edge continues its noise stream and its harmonic phase across the cut.
        cfg = scenario(
            n_medical_devices=2,
            background_population=(("resistive_heater", 1), ("lighting", 1)),
            schedule_params={"ventilator": (3.0, 2.0), "resistive_heater": (4.0, 1.0), "lighting": (2.0, 2.0)},
            feeder_noise_rms_amps=0.05,
            duration_s=30.0,  # 60 000 samples at 2 kHz, in dozens of segments
            rng_seed=seed,
        )
        schedule = generate_schedule(cfg, LIBRARY)
        whole = [samples_of(w) for w in synthesize_feeder(cfg, schedule, LIBRARY)]
        edges = sorted({0, *cuts, whole[0].size})
        for waveform, expected in zip(synthesize_feeder(cfg, schedule, LIBRARY), whole):
            out = np.empty(waveform.n_samples)
            for lo, hi in zip(edges[:-1], edges[1:]):
                waveform.readinto(out[lo:hi])
            assert out.tobytes() == expected.tobytes()
