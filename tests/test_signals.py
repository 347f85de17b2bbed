import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as strat

from feeder_nilm import signals as sg
from feeder_nilm.signals import UndefinedFeatureError, Waveform

from conftest import sine


def lstsq_harmonic_fit(x, freq_hz, sample_rate_hz):
    """Independent oracle: dense least-squares fit of sin/cos at freq_hz.

    Returns the RMS magnitude of the fitted component.
    """
    t = np.arange(x.size) / sample_rate_hz
    basis = np.column_stack(
        [np.sin(2 * np.pi * freq_hz * t), np.cos(2 * np.pi * freq_hz * t)]
    )
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return math.hypot(coef[0], coef[1]) / math.sqrt(2.0)


class TestWaveform:
    def test_basic_container(self):
        # Read once, in order, in pieces of any size; each fill starts where the last one stopped.
        fills = []

        def fill(out, start):
            fills.append((start, out.size))
            out[:] = np.arange(start, start + out.size)

        w = Waveform(10, 100.0, fill)
        assert w.n_samples == 10
        assert w.n_samples / w.sample_rate_hz == pytest.approx(0.1)
        out = np.empty(10)
        for lo, hi in ((0, 3), (3, 3), (3, 7), (7, 10)):
            w.readinto(out[lo:hi])
        assert out.tolist() == list(range(10))
        assert fills == [(0, 3), (3, 0), (3, 4), (7, 3)]
        with pytest.raises(ValueError, match="past the end"):
            w.readinto(np.empty(1))

    def test_rejects_bad_inputs(self):
        def fill(out, start):
            out[:] = 1.0

        with pytest.raises(ValueError):
            Waveform(0, 100.0, fill)
        for rate in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                Waveform(4, rate, fill)
        w = Waveform(4, 100.0, fill)
        for out in (np.empty(2, dtype=np.float32), np.empty(4)[::2], np.empty((1, 2))):
            with pytest.raises(ValueError, match="contiguous 1-D float64"):
                w.readinto(out)
        with pytest.raises(ValueError, match="past the end"):
            w.readinto(np.empty(5))

    def test_chunks_and_skip_read_in_bounded_pieces(self, monkeypatch):
        monkeypatch.setattr(sg, "CHUNK_BYTES", 8 * 4)  # four samples a chunk
        filled = []

        def fill(out, start):
            filled.append((start, out.size))
            out[:] = np.arange(start, start + out.size)

        w = Waveform(11, 100.0, fill)
        parts = [part.copy() for part in w.chunks(6)]
        w.skip(5)
        assert [p.tolist() for p in parts] == [[0, 1, 2, 3], [4, 5]]
        assert filled == [(0, 4), (4, 2), (6, 4), (10, 1)]


class TestRms:
    def test_unit_sine(self, grid):
        f0, fs = grid
        assert sg.rms(sine(f0, fs, 12)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-5)

    def test_zeros(self):
        assert sg.rms(np.zeros(100)) == 0.0

    def test_alternating(self):
        assert sg.rms([1.0, -1.0, 1.0, -1.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sg.rms([])


class TestFormFactor:
    def test_pure_sine(self, grid):
        f0, fs = grid
        expected = math.pi / (2.0 * math.sqrt(2.0))
        assert sg.form_factor(sine(f0, fs, 30)) == pytest.approx(expected, abs=1e-4)

    def test_constant(self):
        assert sg.form_factor(np.full(50, 3.7)) == pytest.approx(1.0)

    def test_square_wave(self):
        square = np.concatenate([np.ones(64), -np.ones(64)])
        assert sg.form_factor(square) == pytest.approx(1.0)

    def test_all_zero_undefined(self):
        with pytest.raises(UndefinedFeatureError):
            sg.form_factor(np.zeros(32))


class TestCrestFactor:
    def test_pure_sine(self, grid):
        f0, fs = grid
        assert sg.crest_factor(sine(f0, fs, 30)) == pytest.approx(math.sqrt(2.0), abs=1e-4)

    def test_constant(self):
        assert sg.crest_factor(np.full(16, -2.0)) == pytest.approx(1.0)

    def test_single_spike(self):
        # Direct arithmetic oracle: rms = sqrt(1/1000), peak = 1.
        x = np.zeros(1000)
        x[317] = 1.0
        assert sg.crest_factor(x) == pytest.approx(math.sqrt(1000.0), abs=1e-6)

    def test_all_zero_undefined(self):
        with pytest.raises(UndefinedFeatureError):
            sg.crest_factor(np.zeros(8))


class TestFundamentalPhasor:
    def test_rms_scaled_sine(self, grid):
        f0, fs = grid
        x = sine(f0, fs, 6, amplitude=math.sqrt(2.0) * 5.0)
        magnitude, phase = sg.fundamental_phasor(x, f0, fs)
        assert magnitude == pytest.approx(5.0, abs=1e-3)
        assert phase == pytest.approx(0.0, abs=1e-6)

    def test_zero_signal(self, grid):
        f0, fs = grid
        magnitude, phase = sg.fundamental_phasor(np.zeros(1000), f0, fs)
        assert magnitude == 0.0
        assert math.isfinite(phase)

    def test_composite_matches_lstsq_oracle(self, grid):
        f0, fs = grid
        x = sine(f0, fs, 12, amplitude=math.sqrt(2.0) * 3.0) + sine(
            3 * f0, fs, 36, amplitude=math.sqrt(2.0) * 0.5
        )
        magnitude, _ = sg.fundamental_phasor(x, f0, fs)
        assert magnitude == pytest.approx(3.0, abs=1e-3)
        assert magnitude == pytest.approx(lstsq_harmonic_fit(x, f0, fs), abs=1e-6)

    def test_short_window_rejected(self, grid):
        f0, fs = grid
        with pytest.raises(ValueError):
            sg.fundamental_phasor(np.ones(50), f0, fs)  # 5 ms < one 60 Hz period

    def test_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            sg.fundamental_phasor(np.ones(1000), 60.0, 100.0)

    @given(
        cycles=strat.integers(min_value=1, max_value=40),
        samples_per_cycle=strat.integers(min_value=8, max_value=200),
        amplitude=strat.floats(min_value=1e-3, max_value=1e3),
        phase=strat.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_recovery_on_integer_periods(self, cycles, samples_per_cycle, amplitude, phase):
        f0 = 60.0
        fs = samples_per_cycle * f0
        n = cycles * samples_per_cycle
        t = np.arange(n) / fs
        x = math.sqrt(2.0) * amplitude * np.sin(2 * np.pi * f0 * t + phase)
        magnitude, recovered_phase = sg.fundamental_phasor(x, f0, fs)
        assert magnitude == pytest.approx(amplitude, rel=1e-6)
        assert sg.wrap_phase(recovered_phase - phase) == pytest.approx(0.0, abs=1e-6)

    @given(
        delay_cycles=strat.floats(min_value=0.0, max_value=2.0),
        phase=strat.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_time_shift_covariance(self, delay_cycles, phase):
        f0, fs = 60.0, 6000.0
        n = 20 * 100  # 20 integer cycles at 100 samples each
        t = np.arange(n) / fs
        delay_s = delay_cycles / f0
        x = np.sin(2 * np.pi * f0 * t + phase)
        delayed = np.sin(2 * np.pi * f0 * (t - delay_s) + phase)
        mag_x, phase_x = sg.fundamental_phasor(x, f0, fs)
        mag_d, phase_d = sg.fundamental_phasor(delayed, f0, fs)
        assert mag_d == pytest.approx(mag_x, rel=1e-9)
        expected = sg.wrap_phase(phase_x - 2 * np.pi * f0 * delay_s)
        assert sg.wrap_phase(phase_d - expected) == pytest.approx(0.0, abs=1e-7)


class TestBlockSeries:
    """A window of k consecutive blocks equals the same samples projected as one window."""

    @given(
        grid=strat.sampled_from([(60.0, 2000.0), (50.0, 9999.0)]),
        block_len=strat.integers(1, 60),
        k=strat.integers(1, 12),
        s=strat.integers(1, 14),
        n_windows=strat.integers(1, 5),
        orders=strat.lists(strat.integers(1, 7), min_size=1, max_size=4, unique=True),
        seed=strat.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_windows_match_one_window_projections(self, grid, block_len, k, s, n_windows, orders, seed):
        f0, fs = grid
        period = math.ceil(fs / f0)
        k = max(k, -(-period // block_len))  # a window covers at least one period
        n_blocks = (n_windows - 1) * s + k
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, n_blocks * block_len) + sine(f0, fs, n_blocks * block_len * f0 / fs, 3.0, 0.7)
        blocks = x.reshape(n_blocks, block_len)
        freqs = [h * f0 for h in orders]
        magnitudes, phases = sg.fundamental_phasor(blocks, freqs, fs, k, s)
        assert magnitudes.shape == phases.shape == (len(orders), n_windows)
        for row, freq in enumerate(freqs):
            one_mag, one_phase = sg.fundamental_phasor(blocks, freq, fs, k, s)
            np.testing.assert_allclose(magnitudes[row], one_mag, rtol=1e-12, atol=1e-15)
            for j in range(n_windows):
                window = x[j * s * block_len : (j * s + k) * block_len]
                want_mag, want_phase = sg.fundamental_phasor(window, freq, fs)
                assert magnitudes[row, j] == pytest.approx(want_mag, rel=1e-9, abs=1e-12)
                assert sg.wrap_phase(phases[row, j] - want_phase) == pytest.approx(0.0, abs=1e-9)

    @given(
        grid=strat.sampled_from([(60.0, 2000.0), (50.0, 9999.0)]),
        block_len=strat.integers(1, 350),
        k=strat.integers(1, 12),
        s=strat.integers(1, 14),
        n_windows=strat.integers(1, 6),
        orders=strat.lists(strat.integers(1, 7), min_size=1, max_size=4, unique=True),
        seed=strat.integers(0, 2**32 - 1),
    )
    # With the fundamental among the orders, the table repeats every 100 samples at 2 kHz and every 9 999 at 9 999 Hz.
    @example(grid=(60.0, 2000.0), block_len=250, k=1, s=1, n_windows=6, orders=[1, 3], seed=1)  # 2 periods and a tail
    @example(grid=(60.0, 2000.0), block_len=300, k=2, s=3, n_windows=4, orders=[1], seed=2)  # whole periods, gapped
    @example(grid=(50.0, 9999.0), block_len=2500, k=4, s=1, n_windows=5, orders=[1, 2, 7], seed=3)  # blocks shorter than P
    @settings(max_examples=60, deadline=None)
    def test_a_window_is_the_same_bits_in_any_stack(self, grid, block_len, k, s, n_windows, orders, seed):
        # Window j of a stack is projected to the bits its own k blocks give alone.
        f0, fs = grid
        k = max(k, -(-math.ceil(fs / f0) // block_len))  # a window covers at least one period
        n_blocks = (n_windows - 1) * s + k
        blocks = np.random.default_rng(seed).normal(0.0, 1.0, (n_blocks, block_len))
        freqs = [h * f0 for h in orders]
        magnitudes, phases = sg.fundamental_phasor(blocks, freqs, fs, k, s)
        for j in range(n_windows):
            magnitude, phase = sg.fundamental_phasor(blocks[j * s : j * s + k], freqs, fs, k, s)
            assert np.array_equal(magnitude[:, 0], magnitudes[:, j])
            assert np.array_equal(phase[:, 0], phases[:, j])

    def test_bad_block_arguments_rejected(self, grid):
        f0, fs = grid
        blocks = np.ones((4, 100))
        with pytest.raises(ValueError):
            sg.fundamental_phasor(blocks, f0, fs, 5, 1)  # fewer blocks than one window
        with pytest.raises(ValueError):
            sg.fundamental_phasor(blocks, f0, fs, 2, 0)
        with pytest.raises(ValueError):
            sg.fundamental_phasor(np.ones(400), [f0, 2 * f0], fs)  # one window takes one frequency
        with pytest.raises(ValueError):
            sg.fundamental_phasor(np.ones(400), f0, fs, 2, 1)
        with pytest.raises(ValueError):
            sg.fundamental_phasor(np.ones((2, 2, 100)), f0, fs)
        with pytest.raises(ValueError):
            sg.fundamental_phasor(blocks, [f0, 0.6 * fs], fs, 2, 1)  # above Nyquist
        with pytest.raises(ValueError):
            sg.fundamental_phasor(blocks, f0, fs)  # 100 samples < one period at 60 Hz

    @pytest.mark.parametrize("freq, fs", [(60.0, 9999.5), (59.94, 10_000.0)], ids=["fractional-rate", "fractional-freq"])
    def test_stack_needs_whole_hertz(self, freq, fs):
        # Block rotations reduce each block's start phase exactly in integers.
        blocks = np.ones((4, 400))
        with pytest.raises(ValueError, match="whole"):
            sg.fundamental_phasor(blocks, freq, fs, 2, 1)
        with pytest.raises(ValueError, match="whole"):
            sg.fundamental_phasor(blocks, [60.0, freq], fs)
        magnitude, _ = sg.fundamental_phasor(blocks.reshape(-1), freq, fs)  # one window: any rate
        assert math.isfinite(magnitude)


class TestPhaseShift:
    def test_resistive(self, grid):
        f0, fs = grid
        v = sine(f0, fs, 12, amplitude=170.0)
        assert sg.phase_shift(v, 0.05 * v, f0, fs) == pytest.approx(0.0, abs=1e-4)

    def test_quarter_period_lag(self, grid):
        f0, fs = grid
        v = sine(f0, fs, 12)
        i = sine(f0, fs, 12, phase=-math.pi / 2.0)  # current delayed by T/4
        assert sg.phase_shift(v, i, f0, fs) == pytest.approx(math.pi / 2.0, abs=1e-3)

    def test_thirty_degree_lag_closed_form(self, grid):
        f0, fs = grid
        lag = math.radians(30.0)
        v = sine(f0, fs, 20, amplitude=3.0, phase=0.7)
        i = sine(f0, fs, 20, amplitude=1.2, phase=0.7 - lag)
        assert sg.phase_shift(v, i, f0, fs) == pytest.approx(0.5236, abs=1e-3)

    def test_zero_fundamental_undefined(self, grid):
        f0, fs = grid
        v = sine(f0, fs, 12)
        with pytest.raises(UndefinedFeatureError):
            sg.phase_shift(v, np.zeros_like(v), f0, fs)

    @given(
        v_phase=strat.floats(min_value=-3.0, max_value=3.0),
        i_phase=strat.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry(self, v_phase, i_phase):
        f0, fs = 60.0, 6000.0
        v = sine(f0, fs, 10, amplitude=2.0, phase=v_phase)
        i = sine(f0, fs, 10, amplitude=0.5, phase=i_phase)
        forward = sg.phase_shift(v, i, f0, fs)
        backward = sg.phase_shift(i, v, f0, fs)
        assert sg.wrap_phase(forward + backward) == pytest.approx(0.0, abs=1e-9)


class TestActiveReactivePower:
    def test_resistive_unit(self, grid):
        f0, fs = grid
        v = sine(f0, fs, 12, amplitude=math.sqrt(2.0))
        p, q = sg.active_reactive_power(v, v, f0, fs)
        assert p == pytest.approx(1.0, abs=1e-4)
        assert q == pytest.approx(0.0, abs=1e-4)

    def test_pure_inductive(self, grid):
        f0, fs = grid
        v = sine(f0, fs, 12, amplitude=math.sqrt(2.0))
        i = sine(f0, fs, 12, amplitude=math.sqrt(2.0), phase=-math.pi / 2.0)
        p, q = sg.active_reactive_power(v, i, f0, fs)
        assert p == pytest.approx(0.0, abs=1e-4)
        assert q == pytest.approx(1.0, abs=1e-3)

    def test_sixty_degree_lag_closed_form(self, grid):
        # P = V*I*cos(60 deg) = 1.0, Q = V*I*sin(60 deg) = sqrt(3).
        f0, fs = grid
        v = sine(f0, fs, 20, amplitude=math.sqrt(2.0))
        i = sine(f0, fs, 20, amplitude=2.0 * math.sqrt(2.0), phase=-math.pi / 3.0)
        p, q = sg.active_reactive_power(v, i, f0, fs)
        assert p == pytest.approx(1.0, abs=1e-3)
        assert q == pytest.approx(math.sqrt(3.0), abs=1e-3)

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_equal_to_separate_scalar_functions(self, grid, seed):
        # One projection per fundamental gives the same bits as P = mean(v*i) and
        # Q = |V1| |I1| sin(phase_shift) computed by the separate scalar functions.
        f0, fs = grid
        rng = np.random.default_rng(seed)
        n = int(rng.integers(200, 2000))
        v = rng.normal(0.0, 100.0, n) + sine(f0, fs, n * f0 / fs, amplitude=170.0, phase=rng.uniform(-3, 3))
        i = rng.normal(0.0, 2.0, n) + sine(f0, fs, n * f0 / fs, amplitude=5.0, phase=rng.uniform(-3, 3))
        p, q = sg.active_reactive_power(v, i, f0, fs)
        v_mag, v_phase = sg.fundamental_phasor(v, f0, fs)
        i_mag, i_phase = sg.fundamental_phasor(i, f0, fs)
        shift = sg.phase_shift(v, i, f0, fs)
        assert shift == sg.wrap_phase(v_phase - i_phase)
        assert p == float(np.mean(v * i))
        assert q == v_mag * i_mag * math.sin(shift)

    def test_zero_fundamental_undefined(self, grid):
        f0, fs = grid
        v = sine(f0, fs, 12)
        with pytest.raises(UndefinedFeatureError):
            sg.active_reactive_power(v, np.zeros_like(v), f0, fs)
        with pytest.raises(UndefinedFeatureError):
            sg.active_reactive_power(np.zeros_like(v), v, f0, fs)


class TestThd:
    def test_pure_sine(self, grid):
        f0, fs = grid
        assert sg.thd(sine(f0, fs, 12), f0, fs, 7) == pytest.approx(0.0, abs=1e-4)

    def test_ten_percent_third_harmonic(self, grid):
        f0, fs = grid
        x = sine(f0, fs, 12) + 0.1 * sine(3 * f0, fs, 36)
        assert sg.thd(x, f0, fs, 7) == pytest.approx(0.100, abs=1e-3)

    def test_composite_against_lstsq_oracle(self, grid):
        f0, fs = grid
        x = (
            sine(f0, fs, 12, amplitude=2.0)
            + sine(3 * f0, fs, 36, amplitude=0.3, phase=1.1)
            + sine(5 * f0, fs, 60, amplitude=0.2, phase=-0.4)
            + sine(7 * f0, fs, 84, amplitude=0.05, phase=2.2)
        )
        harmonics = [lstsq_harmonic_fit(x, h * f0, fs) for h in range(2, 8)]
        expected = math.hypot(*harmonics) / lstsq_harmonic_fit(x, f0, fs)
        assert sg.thd(x, f0, fs, 7) == pytest.approx(expected, abs=1e-3)

    def test_zero_fundamental_undefined(self, grid):
        f0, fs = grid
        with pytest.raises(UndefinedFeatureError):
            sg.thd(np.zeros(2000), f0, fs, 7)

    def test_aliasing_harmonic_rejected(self):
        with pytest.raises(ValueError):
            sg.thd(np.ones(500), 60.0, 800.0, 7)  # 7*60 = 420 Hz >= 400 Hz Nyquist


class TestScaleInvariance:
    @given(scale=strat.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_ratio_features_unchanged_rms_scales(self, scale):
        f0, fs = 60.0, 6000.0
        x = sine(f0, fs, 10) + 0.2 * sine(3 * f0, fs, 30, phase=0.9) + 0.01
        scaled = scale * x
        assert sg.rms(scaled) == pytest.approx(scale * sg.rms(x), rel=1e-9)
        assert sg.form_factor(scaled) == pytest.approx(sg.form_factor(x), rel=1e-9)
        assert sg.crest_factor(scaled) == pytest.approx(sg.crest_factor(x), rel=1e-9)
        assert sg.thd(scaled, f0, fs, 7) == pytest.approx(sg.thd(x, f0, fs, 7), rel=1e-9)

    @given(
        amplitude=strat.floats(min_value=1e-3, max_value=1e3),
        phase=strat.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_form_and_crest_at_least_one(self, amplitude, phase):
        f0, fs = 60.0, 6000.0
        x = sine(f0, fs, 7, amplitude=amplitude, phase=phase) + amplitude * 0.1
        assert sg.form_factor(x) >= 1.0 - 1e-12
        assert sg.crest_factor(x) >= 1.0 - 1e-12


class TestWrapPhase:
    @given(angles=strat.lists(strat.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=16))
    @example(angles=[math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 3 * math.pi, -3 * math.pi, 0.0, -0.0])
    @example(angles=[math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0), 1e6, -1e6])
    @settings(max_examples=100, deadline=None)
    def test_range_and_congruence(self, angles):
        def remainder_form(angle):
            # Exact IEEE remainder, with -pi moved to pi: bit for bit what every angle must wrap to.
            wrapped = math.remainder(angle, 2 * math.pi)
            return wrapped + 2 * math.pi if wrapped <= -math.pi else wrapped

        array = sg.wrap_phase(np.array(angles))
        assert isinstance(array, np.ndarray) and array.shape == (len(angles),)
        for angle, from_array in zip(angles, array):
            scalar = sg.wrap_phase(angle)
            assert type(scalar) is float and type(sg.wrap_phase(np.float64(angle))) is float
            assert -math.pi < scalar <= math.pi
            assert math.remainder(scalar - angle, 2 * math.pi) == pytest.approx(0.0, abs=1e-6)
            want = np.float64(remainder_form(angle)).tobytes()
            assert np.float64(scalar).tobytes() == want and from_array.tobytes() == want


class TestSinusoidSites:
    # Waveforms take their sinusoids from the period table alone; the scalar
    # reference functions keep their own basis, and the featurizer's Q takes
    # the sine of a phase shift, not of a time.
    ALLOWED = {
        ("signals", "_period_table"),
        ("signals", "_projection_basis"),
        ("signals", "active_reactive_power"),
        ("featurize", "evaluate_window"),
    }

    @staticmethod
    def sinusoid_sites():
        """(module, top-level function or ``Class.method``) of every ``np``/``math`` ``sin`` or ``cos`` in the package."""
        sites = set()
        for path in sorted(pathlib.Path(sg.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scopes = []
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    scopes += [(f"{node.name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef)]
                else:
                    scopes.append((getattr(node, "name", "<module>"), node))
            for name, scope in scopes:
                for node in ast.walk(scope):
                    attribute = (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ("np", "numpy", "math")
                        and node.attr in ("sin", "cos")
                    )
                    imported = isinstance(node, ast.ImportFrom) and any(a.name in ("sin", "cos") for a in node.names)
                    if attribute or imported:
                        sites.add((path.stem, name))
        return sites

    def test_only_the_period_table_evaluates_a_waveform_sinusoid(self):
        sites = self.sinusoid_sites()
        assert ("signals", "_period_table") in sites
        assert sorted(sites - self.ALLOWED) == []
