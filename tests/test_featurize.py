import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as strat
from conftest import samples_of, waveform_of

from feeder_nilm import cli
from feeder_nilm import featurize as FEATURIZE_MODULE
from feeder_nilm import signals as sg
from feeder_nilm.config import load_run_config
from feeder_nilm.devices import default_library
from feeder_nilm.featurize import (
    FEATURE_IDS,
    FeatureSpec,
    NormStats,
    apply_normalization,
    evaluate_window,
    featurize,
    fit_normalization,
    rank_features,
)
from feeder_nilm.simulate import Schedule, ScenarioConfig, generate_schedule, ground_truth_counts, synthesize_feeder
from feeder_nilm.storage import read_waveform

LIBRARY = default_library()
SMOKE = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "smoke.cfg")


def small_trace(n_medical=2, duration=60.0, seed=42, **overrides):
    cfg = ScenarioConfig(
        duration_s=duration,
        sample_rate_hz=2000.0,
        n_medical_devices=n_medical,
        background_population=(("resistive_heater", 2),),
        schedule_params={"ventilator": (30.0, 15.0), "resistive_heater": (40.0, 20.0)},
        feeder_noise_rms_amps=0.01,
        rng_seed=seed,
        **overrides,
    )
    schedule = generate_schedule(cfg, LIBRARY)
    voltage, current = synthesize_feeder(cfg, schedule, LIBRARY)
    truth = ground_truth_counts(schedule, cfg)
    return cfg, voltage, current, truth


class TestFeatureSpec:
    def test_defaults(self):
        spec = FeatureSpec()
        assert len(spec.features) == 13
        assert spec.features[0] == "i_rms"

    def test_rejects_unknown_or_duplicate(self):
        with pytest.raises(ValueError):
            FeatureSpec(("i_rms", "i_rms"))
        with pytest.raises(ValueError):
            FeatureSpec(("zero_crossings",))

    @pytest.mark.parametrize(
        "features, orders",
        [
            (("i_rms", "i_crest_factor", "active_power"), ()),
            (("phase_shift",), (1,)),
            (("i_rms", "h3", "h7"), (1, 3, 7)),
            (("thd", "h2"), tuple(range(1, 8))),
        ],
    )
    def test_harmonic_orders(self, features, orders):
        # thd projects the fundamental and orders 2..7; an h<n> feature only its own.
        assert FeatureSpec(features).harmonic_orders == orders


class TestFeaturize:
    def test_window_count(self):
        _, voltage, current, truth = small_trace()
        dataset = featurize(voltage, current, truth, 5.0, 5.0, FeatureSpec(), 60.0)
        assert dataset.n_windows == 12

    def test_overlapping_stride(self):
        _, voltage, current, truth = small_trace()
        dataset = featurize(voltage, current, truth, 5.0, 2.5, FeatureSpec(), 60.0)
        assert dataset.n_windows == 23

    def test_zero_device_trace(self):
        cfg_quiet = ScenarioConfig(duration_s=20.0, sample_rate_hz=2000.0, rng_seed=1)
        voltage, current = synthesize_feeder(cfg_quiet, Schedule(()), LIBRARY)
        truth = ground_truth_counts(Schedule(()), cfg_quiet)
        dataset = featurize(voltage, current, truth, 5.0, 5.0, FeatureSpec(), 60.0)
        i_rms_col = dataset.X[:, list(dataset.feature_spec.features).index("i_rms")]
        assert np.max(np.abs(i_rms_col)) < 1e-9
        assert not dataset.y.any()
        assert not dataset.valid.any()  # ratio features undefined on zero current

    def test_rows_match_primitives(self):
        # Per-primitive oracle at 1e-12: recompute a row straight from the raw window.
        cfg, voltage, current, truth = small_trace()
        spec = FeatureSpec()
        dataset = featurize(voltage, current, truth, 5.0, 5.0, spec, cfg.f0_hz)
        k = 7
        fs = cfg.sample_rate_hz
        lo = int(round(k * 5.0 * fs))
        hi = lo + int(round(5.0 * fs))
        v, i = (samples_of(w)[lo:hi] for w in small_trace()[1:3])  # the synthesis is deterministic
        expected = np.array(
            [
                sg.rms(i),
                sg.form_factor(i),
                sg.crest_factor(i),
                sg.phase_shift(v, i, cfg.f0_hz, fs),
                float(np.mean(v * i)),
                sg.active_reactive_power(v, i, cfg.f0_hz, fs)[1],
                sg.thd(i, cfg.f0_hz, fs, 7),
            ]
            + [sg.harmonic_magnitude(i, h, cfg.f0_hz, fs) for h in range(2, 8)]
        )
        assert np.max(np.abs(dataset.X[k] - expected)) < 1e-12
        assert dataset.valid[k]

    def test_t_start_bookkeeping(self):
        _, voltage, current, truth = small_trace()
        dataset = featurize(voltage, current, truth, 5.0, 5.0, FeatureSpec(), 60.0)
        assert np.array_equal(dataset.t_start_s, np.arange(12) * 5.0)
        assert dataset.t_start_s[-1] + dataset.window_s <= voltage.n_samples / voltage.sample_rate_hz + 1e-9

    def test_dataset_records_the_cut_grid(self, tmp_path):
        # At 2 kHz a 5.0002 s window is 10 000 samples and a 2.50024 s stride 5 000:
        # the dataset and its file header carry that 5 s / 2.5 s grid, not the request.
        from feeder_nilm.storage import write_dataset

        _, voltage, current, truth = small_trace()
        dataset = featurize(voltage, current, truth, 5.0002, 2.50024, FeatureSpec(), 60.0)
        assert (dataset.window_s, dataset.stride_s) == (5.0, 2.5)
        write_dataset(tmp_path / "dataset.csv", dataset, "0" * 32)
        assert "# window_s=5 stride_s=2.5 " in (tmp_path / "dataset.csv").read_text()

    def test_misaligned_inputs_rejected(self):
        _, voltage, current, truth = small_trace()
        shorter = waveform_of(samples_of(current)[:-10], current.sample_rate_hz)
        with pytest.raises(ValueError):
            featurize(voltage, shorter, truth, 5.0, 5.0, FeatureSpec(), 60.0)

    def test_window_longer_than_trace(self):
        _, voltage, current, truth = small_trace(duration=10.0)
        with pytest.raises(ValueError):
            featurize(voltage, current, truth, 30.0, 5.0, FeatureSpec(), 60.0)


class TestRankFeatures:
    def fisher_by_hand(self, groups):
        """Independent oracle: textbook Fisher score, computed per feature."""
        means = np.array([np.mean(g, axis=0) for g in groups])
        variances = np.array([np.var(g, axis=0, ddof=1) for g in groups])
        between = np.mean((means - means.mean(axis=0)) ** 2, axis=0)
        within = variances.mean(axis=0)
        return between / within

    def test_matches_hand_computed_scores(self):
        a = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])
        b = np.array([[10.0, 5.5], [11.0, 6.5], [12.0, 7.5]])
        ranking = rank_features({"a": list(a), "b": list(b)}, ("f_one", "f_two"))
        oracle = self.fisher_by_hand([a, b])
        assert ranking[0][0] == "f_one"
        by_name = dict(ranking)
        assert by_name["f_one"] == pytest.approx(oracle[0], rel=1e-12)
        assert by_name["f_two"] == pytest.approx(oracle[1], rel=1e-12)

    def test_constant_feature_scores_zero_and_ranks_last(self):
        rng = np.random.default_rng(0)
        groups = {
            "a": list(np.column_stack([rng.normal(0, 1, 5), np.full(5, 3.0)])),
            "b": list(np.column_stack([rng.normal(4, 1, 5), np.full(5, 3.0)])),
        }
        ranking = rank_features(groups, ("informative", "constant"))
        assert ranking[-1] == ("constant", 0.0)

    def test_disjoint_ranges_rank_first(self):
        rng = np.random.default_rng(1)
        noise = rng.normal(0, 1, (2, 6))
        groups = {
            "a": list(np.column_stack([np.full(6, 0.0) + rng.normal(0, 1e-3, 6), noise[0]])),
            "b": list(np.column_stack([np.full(6, 10.0) + rng.normal(0, 1e-3, 6), noise[1]])),
        }
        ranking = rank_features(groups, ("separating", "noisy"))
        assert ranking[0][0] == "separating"

    def test_identical_features_tie_in_spec_order(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, 4)
        b = rng.normal(2, 1, 4)
        groups = {
            "a": list(np.column_stack([a, a])),
            "b": list(np.column_stack([b, b])),
        }
        ranking = rank_features(groups, ("first", "second"))
        assert [name for name, _ in ranking] == ["first", "second"]
        assert ranking[0][1] == ranking[1][1]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            rank_features({"a": [np.zeros(2), np.ones(2)]}, ("x", "y"))

    @given(
        scale=strat.floats(min_value=1e-3, max_value=1e3),
        offset=strat.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_affine_rescaling_invariance(self, scale, offset):
        rng = np.random.default_rng(3)
        groups = {
            "a": rng.normal(0, 1, (5, 3)),
            "b": rng.normal(1, 2, (5, 3)),
            "c": rng.normal(-1, 0.5, (5, 3)),
        }
        plain = rank_features({k: list(v) for k, v in groups.items()}, ("x", "y", "z"))
        rescaled = rank_features(
            {k: list(v * scale + offset) for k, v in groups.items()}, ("x", "y", "z")
        )
        assert [name for name, _ in plain] == [name for name, _ in rescaled]
        for (_, s_plain), (_, s_scaled) in zip(plain, rescaled):
            assert s_scaled == pytest.approx(s_plain, rel=1e-9)


class TestNormalization:
    def test_fit_set_becomes_standard(self):
        rng = np.random.default_rng(4)
        X = rng.normal(3.0, 2.5, (40, 5))
        stats = fit_normalization(X, ("a", "b", "c", "d", "e"))
        normalized = apply_normalization(X, stats)
        assert np.max(np.abs(normalized.mean(axis=0))) < 1e-9
        assert np.max(np.abs(normalized.std(axis=0) - 1.0)) < 1e-9
        assert stats.kept_indices == (0, 1, 2, 3, 4)

    def test_single_row_drops_everything(self):
        stats = fit_normalization(np.array([[1.0, 2.0]]), ("a", "b"))
        assert stats.input_feature_ids == ("a", "b") and stats.kept_indices == ()

    def test_constant_column_dropped_without_a_warning(self):
        # The caller names the dropped columns from the stats; fitting warns about nothing.
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.normal(0, 1, 10), np.full(10, 7.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = fit_normalization(X, ("varying", "constant_one"))
        assert stats.kept_indices == (0,)
        assert apply_normalization(X, stats).shape == (10, 1)

    @pytest.mark.parametrize("kept", [(0, 3), (-1, 0), (1, 0), (1, 1)], ids=["past-the-end", "negative", "descending", "repeated"])
    def test_kept_indices_must_be_increasing_columns(self, kept):
        with pytest.raises(ValueError, match="kept_indices"):
            NormStats(("a", "b", "c"), kept, np.zeros(2), np.ones(2))


class TestEvaluateWindow:
    def test_undefined_features_zeroed_and_flagged(self, grid):
        f0, fs = grid
        n = int(fs)
        t = np.arange(n) / fs
        v = np.sin(2 * np.pi * f0 * t)
        X, valid = evaluate_window(v[None], np.zeros((1, n)), FeatureSpec(), fs, f0)
        row = X[0]
        assert not valid[0]
        assert np.array_equal(row[1:4], np.zeros(3))  # form, crest, phase undefined
        assert row[0] == 0.0  # rms of zero current is genuinely zero

    def test_spec_without_harmonics_ignores_aliasing_orders(self):
        # At 600 Hz the 7th harmonic of 60 Hz aliases; features that project
        # no harmonic must still evaluate, and THD must still refuse.
        fs, n = 600.0, 600
        v = np.sin(2 * np.pi * 60.0 * np.arange(n) / fs)
        X, valid = evaluate_window(v[None], 0.5 * v[None], FeatureSpec(("i_rms",)), fs, 60.0)
        assert valid[0] and X[0, 0] == sg.rms(0.5 * v)
        with pytest.raises(ValueError):
            evaluate_window(v[None], 0.5 * v[None], FeatureSpec(("thd",)), fs, 60.0)


def scalar_oracle(name, v, i, fs, f0):
    """One feature of one window from the scalar signals functions."""
    if name == "i_rms":
        return sg.rms(i)
    if name == "i_form_factor":
        return sg.form_factor(i)
    if name == "i_crest_factor":
        return sg.crest_factor(i)
    if name == "phase_shift":
        return sg.phase_shift(v, i, f0, fs)
    if name == "active_power":
        # Not active_reactive_power(...)[0]: P stays defined where Q is not.
        return float(np.mean(v * i))
    if name == "reactive_power":
        return sg.active_reactive_power(v, i, f0, fs)[1]
    if name == "thd":
        return sg.thd(i, f0, fs, 7)
    return sg.harmonic_magnitude(i, int(name[1:]), f0, fs)


# Reductions over samples run in the scalar order, so these match exactly.
# Stacked projections fold each block onto one period first and may differ
# in the last bits; the absolute tolerance covers phase shifts near zero.
EXACT_FEATURES = ("i_rms", "i_form_factor", "i_crest_factor", "active_power")


class TestEvaluateWindowStack:
    @given(
        features=strat.lists(strat.sampled_from(FEATURE_IDS), min_size=1, unique=True),
        n_rows=strat.integers(1, 6),
        width=strat.integers(34, 300),
        zero_rows=strat.lists(strat.booleans(), min_size=6, max_size=6),
        seed=strat.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_scalar_oracle(self, features, n_rows, width, zero_rows, seed):
        fs = 2000.0
        spec = FeatureSpec(tuple(features))
        rng = np.random.default_rng(seed)
        t = np.arange(width) / fs
        v = rng.uniform(50, 200, (n_rows, 1)) * np.sin(2 * np.pi * 60.0 * t + rng.uniform(-3, 3, (n_rows, 1)))
        i = rng.normal(0.0, rng.uniform(0.01, 5.0), (n_rows, width)) + 0.3 * v / 100.0
        i[np.array(zero_rows[:n_rows])] = 0.0
        X, valid = evaluate_window(v, i, spec, fs, 60.0)
        assert X.shape == (n_rows, len(features)) and valid.shape == (n_rows,)
        for k in range(n_rows):
            row_valid = True
            for col, name in enumerate(features):
                try:
                    want = scalar_oracle(name, v[k], i[k], fs, 60.0)
                except sg.UndefinedFeatureError:
                    want, row_valid = 0.0, False
                if name in EXACT_FEATURES:
                    assert X[k, col] == want, name
                else:
                    assert math.isclose(X[k, col], want, rel_tol=1e-12, abs_tol=1e-12), name
            assert valid[k] == row_valid

    def test_one_window_matches_its_stack_row(self, grid):
        f0, fs = grid
        rng = np.random.default_rng(8)
        t = np.arange(2000) / fs
        v = 170.0 * np.sin(2 * np.pi * f0 * t)
        i = np.stack([np.zeros_like(t), 3.0 * np.sin(2 * np.pi * f0 * t - 0.4) + rng.normal(0, 0.1, t.size)])
        X, valid = evaluate_window(np.stack([v, v]), i, FeatureSpec(), fs, f0)
        for k in range(2):
            row, row_valid = evaluate_window(v[None], i[k][None], FeatureSpec(), fs, f0)
            np.testing.assert_allclose(row[0], X[k], rtol=1e-12, atol=1e-12)
            assert row_valid[0] == valid[k]
        assert valid.tolist() == [False, True]

    @given(
        grid=strat.sampled_from([(60.0, 2000.0), (50.0, 9999.0)]),
        block_len=strat.integers(1, 350),
        k=strat.integers(1, 12),
        s=strat.integers(1, 6),
        n_windows=strat.integers(1, 6),
        features=strat.lists(strat.sampled_from(FEATURE_IDS), min_size=1, unique=True),
        zero_window=strat.none() | strat.integers(0, 5),
        seed=strat.integers(0, 2**32 - 1),
    )
    @example(grid=(60.0, 2000.0), block_len=250, k=2, s=1, n_windows=6, features=FEATURE_IDS, zero_window=None, seed=1)  # blocks with a tail
    @example(grid=(50.0, 9999.0), block_len=2500, k=4, s=2, n_windows=4, features=FEATURE_IDS, zero_window=1, seed=2)  # blocks shorter than P
    @settings(max_examples=40, deadline=None)
    def test_a_window_is_the_same_bits_in_any_stack(self, grid, block_len, k, s, n_windows, features, zero_window, seed):
        # Row j of a stack is what window j's own k blocks give alone.
        f0, fs = grid
        k = max(k, -(-math.ceil(fs / f0) // block_len))  # a window covers at least one grid period
        n_blocks = (n_windows - 1) * s + k
        rng = np.random.default_rng(seed)
        t = np.arange(n_blocks * block_len) / fs
        v = rng.uniform(50, 200) * np.sin(2 * np.pi * f0 * t + rng.uniform(-3, 3)) + rng.normal(0.0, 1.0, t.size)
        i = rng.normal(0.0, rng.uniform(0.01, 5.0), t.size) + 0.3 * v / 100.0
        v, i = v.reshape(n_blocks, block_len), i.reshape(n_blocks, block_len)
        if zero_window is not None and zero_window < n_windows:
            i[zero_window * s : zero_window * s + k] = 0.0
        spec = FeatureSpec(tuple(features))
        X, valid = evaluate_window(v, i, spec, fs, f0, k, s)
        for j in range(n_windows):
            blocks = slice(j * s, j * s + k)
            row, row_valid = evaluate_window(v[blocks], i[blocks], spec, fs, f0, k, s)
            assert np.array_equal(row[0], X[j]) and row_valid[0] == valid[j]

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            evaluate_window(np.ones((2, 50)), np.ones((3, 50)), FeatureSpec(), 2000.0, 60.0)
        with pytest.raises(ValueError):
            evaluate_window(np.ones((2, 2, 50)), np.ones((2, 2, 50)), FeatureSpec(), 2000.0, 60.0)
        with pytest.raises(ValueError):
            evaluate_window(np.ones(50), np.ones(50), FeatureSpec(), 2000.0, 60.0)  # a bare window is not a stack


class TestFeaturizeGrid:
    """featurize on (window, stride) grids against each window cut out and run through the scalar oracle.

    Windows are whole numbers of B = gcd(W, S) samples; the examples pin
    S < W, S = W, S > W with gapped windows (s > k), S not dividing W,
    one-block windows, B = 1, and a grid whose period is a whole 9 999
    samples.
    """

    @given(
        grid=strat.sampled_from([(60.0, 2000.0), (50.0, 9999.0)]),
        extra=strat.integers(0, 3000),
        stride=strat.integers(1, 6000),
        n_windows=strat.integers(1, 5),
        features=strat.lists(strat.sampled_from(FEATURE_IDS), min_size=1, unique=True),
        zero_window=strat.none() | strat.integers(0, 4),
        chunk_bytes=strat.integers(1, 1 << 18),
        seed=strat.integers(0, 2**32 - 1),
    )
    @example(grid=(60.0, 2000.0), extra=500, stride=1000, n_windows=5, features=FEATURE_IDS, zero_window=None, chunk_bytes=1 << 18, seed=1)  # S < W, S | W
    @example(grid=(60.0, 2000.0), extra=0, stride=2000, n_windows=4, features=FEATURE_IDS, zero_window=1, chunk_bytes=1 << 18, seed=2)  # S = W
    @example(grid=(60.0, 2000.0), extra=0, stride=5000, n_windows=4, features=FEATURE_IDS, zero_window=2, chunk_bytes=1, seed=3)  # gapped: B = 1000, k = 2, s = 5
    @example(grid=(60.0, 2000.0), extra=0, stride=4000, n_windows=3, features=FEATURE_IDS, zero_window=None, chunk_bytes=1, seed=4)  # one-block windows, s = 2
    @example(grid=(60.0, 2000.0), extra=0, stride=1500, n_windows=5, features=FEATURE_IDS, zero_window=None, chunk_bytes=1 << 16, seed=5)  # S does not divide W
    @example(grid=(60.0, 2000.0), extra=1, stride=1000, n_windows=5, features=FEATURE_IDS, zero_window=3, chunk_bytes=1 << 18, seed=6)  # B = 1
    @example(grid=(50.0, 9999.0), extra=0, stride=2500, n_windows=5, features=FEATURE_IDS, zero_window=0, chunk_bytes=1 << 18, seed=7)  # period of 9 999 samples
    @settings(max_examples=40, deadline=None)
    def test_windows_match_scalar_oracle(self, grid, extra, stride, n_windows, features, zero_window, chunk_bytes, seed):
        f0, fs = grid
        width = math.ceil(fs) + extra  # windows of at least one second
        rng = np.random.default_rng(seed)
        n = width + (n_windows - 1) * stride + int(rng.integers(0, stride))  # and a partial stride at the end
        t = np.arange(n) / fs
        v = rng.uniform(50, 200) * np.sin(2 * np.pi * f0 * t + rng.uniform(-3, 3)) + rng.normal(0.0, 1.0, n)
        i = rng.normal(0.0, rng.uniform(0.01, 5.0), n) + 0.3 * v / 100.0
        if zero_window is not None and zero_window < n_windows:
            i[zero_window * stride : zero_window * stride + width] = 0.0
        spec = FeatureSpec(tuple(features))
        truth = np.zeros(math.ceil(n / fs) + 1, dtype=np.int64)
        with mock.patch.object(FEATURIZE_MODULE, "CHUNK_BYTES", chunk_bytes):
            voltage, current = waveform_of(v, fs), waveform_of(i, fs)
            dataset = featurize(voltage, current, truth, width / fs, stride / fs, spec, f0)
        assert dataset.n_windows == n_windows
        # Both are read to the end: past any gap blocks and the samples after the last window.
        for waveform in (voltage, current):
            with pytest.raises(ValueError, match="past the end"):
                waveform.readinto(np.empty(1))
        one_block = stride % width == 0  # B = W: each window is one block, reduced as the scalar functions reduce it
        for j in range(n_windows):
            v_window, i_window = v[j * stride : j * stride + width], i[j * stride : j * stride + width]
            row_valid = True
            for col, name in enumerate(features):
                try:
                    want = scalar_oracle(name, v_window, i_window, fs, f0)
                except sg.UndefinedFeatureError:
                    want, row_valid = 0.0, False
                got = dataset.X[j, col]
                if one_block and name in EXACT_FEATURES:
                    assert got == want, name
                elif name == "phase_shift":
                    assert abs(sg.wrap_phase(got - want)) <= 1e-9, name
                else:
                    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), name
            assert dataset.valid[j] == row_valid


class TestFeaturizeChunks:
    """The smoke dataset has the same bits whether its windows are evaluated in 4 MiB chunks or one at a time."""

    @pytest.fixture(scope="class")
    def smoke(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("smoke")
        assert cli.main(["simulate", "--config", SMOKE, "--out", str(out), "--quiet"]) == 0
        return out

    @pytest.mark.parametrize("stride_s", [1.25, 0.25])
    def test_dataset_does_not_depend_on_the_chunk_size(self, smoke, stride_s):
        config = load_run_config(SMOKE)
        fs = config.scenario.sample_rate_hz
        truth = ground_truth_counts(generate_schedule(config.scenario, LIBRARY), config.scenario)

        def dataset():
            voltage, _ = read_waveform(smoke / "voltage.fnwv", "VOLT", fs)
            current, _ = read_waveform(smoke / "current.fnwv", "CURR", fs)
            spec = FeatureSpec(config.featurize.features)
            return featurize(voltage, current, truth, config.featurize.window_s, stride_s, spec, config.scenario.f0_hz)

        default = dataset()
        window, stride = round(config.featurize.window_s * fs), round(stride_s * fs)
        block_len = math.gcd(window, stride)
        with mock.patch.object(FEATURIZE_MODULE, "CHUNK_BYTES", 4 << 10):
            assert FEATURIZE_MODULE._windows_per_chunk(default.n_windows, window // block_len, stride // block_len, block_len) == 1
            one_by_one = dataset()
        for name in ("X", "y", "t_start_s", "valid"):
            assert np.array_equal(getattr(one_by_one, name), getattr(default, name)), name
        assert (one_by_one.window_s, one_by_one.stride_s) == (default.window_s, default.stride_s)
