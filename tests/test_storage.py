import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from feeder_nilm import storage

from feeder_nilm.devices import default_library
from feeder_nilm.featurize import FeatureDataset, FeatureSpec, NormStats
from feeder_nilm.model import init_params
from feeder_nilm.signals import Waveform
from feeder_nilm.simulate import DeviceSchedule, Schedule
from feeder_nilm.storage import (
    FileFormatError,
    read_dataset,
    read_ground_truth,
    read_model,
    read_ranking,
    read_report_lines,
    read_schedule,
    read_waveform,
    write_dataset,
    write_ground_truth,
    write_model,
    write_ranking,
    write_report_lines,
    write_schedule,
    write_waveform,
)

FP = "ab" * 16  # 32 hex digits, arbitrary


def random_waveform(seed=0, n=5000):
    rng = np.random.default_rng(seed)
    samples = rng.normal(0, 3, n)
    samples[0] = 0.0
    samples[1] = -0.0
    samples[2] = 1e-300  # subnormal territory must survive the trip
    return Waveform(samples, 12_345.5)


class TestWaveformFile:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "w.fnwv"
        original = random_waveform()
        write_waveform(path, original, "CURR", FP)
        loaded, fingerprint = read_waveform(path, "CURR", 12_345.5)
        assert fingerprint == FP
        assert loaded.sample_rate_hz == original.sample_rate_hz
        assert np.array_equal(loaded.samples, original.samples)

    def test_write_read_write_byte_identical(self, tmp_path):
        first = tmp_path / "a.fnwv"
        second = tmp_path / "b.fnwv"
        write_waveform(first, random_waveform(), "VOLT", FP)
        loaded, fingerprint = read_waveform(first, "VOLT", 12_345.5)
        write_waveform(second, loaded, "VOLT", fingerprint)
        assert first.read_bytes() == second.read_bytes()

    def test_header_is_64_bytes(self, tmp_path):
        path = tmp_path / "w.fnwv"
        w = Waveform(np.zeros(10), 100.0)
        write_waveform(path, w, "VOLT", FP)
        raw = path.read_bytes()
        assert len(raw) == 64 + 10 * 8
        assert raw[:4] == b"FNWV"
        assert raw[16:24] == struct.pack("<d", 0.0)  # every trace starts at scenario second 0
        assert raw[36:52] == bytes.fromhex(FP)  # the whole fingerprint

    @pytest.mark.parametrize(
        "fingerprint",
        ["ab" * 32, "ab" * 15, "", "AB" * 16, "zz" * 16],
        ids=["64-digits", "30-digits", "empty", "upper-case", "non-hex"],
    )
    def test_fingerprint_must_be_32_hex_digits(self, tmp_path, fingerprint):
        # The header holds 16 bytes: a longer fingerprint would be cut, a shorter one padded.
        path = tmp_path / "w.fnwv"
        with pytest.raises(ValueError, match="32"):
            write_waveform(path, Waveform(np.zeros(10), 100.0), "VOLT", fingerprint)
        assert not path.exists()

    def test_nonzero_start_time_refused_naming_file(self, tmp_path):
        # Every trace starts at scenario second 0: another start would shift every window's time stamp.
        path = tmp_path / "voltage.fnwv"
        write_waveform(path, Waveform(np.zeros(10), 100.0), "VOLT", FP)
        raw = bytearray(path.read_bytes())
        raw[16:24] = struct.pack("<d", 3.0)
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="voltage.fnwv: start time 3.0, expected 0.0"):
            read_waveform(path, "VOLT", 100.0)

    def test_other_channel_refused_naming_file(self, tmp_path):
        path = tmp_path / "voltage.fnwv"
        write_waveform(path, Waveform(np.zeros(10), 100.0), "CURR", FP)
        with pytest.raises(FileFormatError, match="voltage.fnwv: channel 'CURR', expected 'VOLT'"):
            read_waveform(path, "VOLT", 100.0)

    def test_other_rate_refused_naming_file(self, tmp_path):
        # The scenario sets the rate: a header that claims another would re-time every window.
        path = tmp_path / "current.fnwv"
        write_waveform(path, Waveform(np.zeros(10), 100.0), "CURR", FP)
        with pytest.raises(FileFormatError, match="current.fnwv: sample rate 100.0 Hz, expected 200.0 Hz"):
            read_waveform(path, "CURR", 200.0)

    def test_unknown_channel_tag_rejected(self, tmp_path):
        path = tmp_path / "odd.fnwv"
        write_waveform(path, Waveform(np.zeros(10), 100.0), "VOLT", FP)
        raw = bytearray(path.read_bytes())
        raw[32:36] = b"\xffOLT"
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="odd.fnwv"):
            read_waveform(path, "VOLT", 100.0)

    def test_corrupt_magic_names_file(self, tmp_path):
        path = tmp_path / "bad.fnwv"
        write_waveform(path, Waveform(np.zeros(10), 100.0), "VOLT", FP)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="bad.fnwv"):
            read_waveform(path, "VOLT", 100.0)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.fnwv"
        write_waveform(path, Waveform(np.zeros(10), 100.0), "VOLT", FP)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FileFormatError):
            read_waveform(path, "VOLT", 100.0)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.fnwv"
        write_waveform(path, Waveform(np.zeros(10), 100.0), "VOLT", FP)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FileFormatError, match="long.fnwv"):
            read_waveform(path, "VOLT", 100.0)

    def test_huge_count_rejected_before_allocation(self, tmp_path):
        # A corrupt count must be refused from the file size, not by a failed allocation.
        path = tmp_path / "huge.fnwv"
        write_waveform(path, Waveform(np.zeros(10), 100.0), "VOLT", FP)
        raw = bytearray(path.read_bytes())
        raw[24:32] = (2**60).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="huge.fnwv"):
            read_waveform(path, "VOLT", 100.0)


class TestScheduleFile:
    def test_round_trip(self, tmp_path):
        library = default_library()
        schedule = Schedule(
            (
                DeviceSchedule(
                    "ventilator#0", "ventilator", True, ((0.5, 20.25, "run"), (30.0, 45.0, "standby"))
                ),
                DeviceSchedule("resistive_heater#0", "resistive_heater", False, ((1.0, 9.0, "on"),)),
                DeviceSchedule("lighting#0", "lighting", False, ()),
            )
        )
        path = tmp_path / "schedule.txt"
        write_schedule(path, schedule, FP)
        loaded, fingerprint = read_schedule(path, library)
        assert fingerprint == FP
        assert loaded == schedule

    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "schedule.txt"
        write_schedule(
            path, Schedule((DeviceSchedule("toaster#0", "toaster", False, ((0.0, 1.0, "on"),)),)), FP
        )
        with pytest.raises(FileFormatError):
            read_schedule(path, default_library())


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        counts = np.tile([0, 1, 2, 1], 5)
        path = tmp_path / "truth.txt"
        write_ground_truth(path, counts, FP)
        loaded, fingerprint = read_ground_truth(path)
        assert fingerprint == FP
        assert loaded.dtype == np.int64
        assert np.array_equal(loaded, counts)
        assert path.read_text().splitlines()[2:5] == ["0 0", "1 1", "2 2"]  # one 'second count' line per second

    @pytest.mark.parametrize(
        "body", ["0 1\n2 1\n3 1\n", "0 1\n2 1\n1 1\n", "1 1\n2 1\n"], ids=["gapped", "shuffled", "late-start"]
    )
    def test_seconds_must_be_the_line_index(self, tmp_path, body):
        # Counts are read by position, so a line whose second is not its index would be misplaced.
        path = tmp_path / "truth.txt"
        path.write_text(f"# feeder-nilm ground-truth v1\n# fingerprint={FP}\n{body}")
        with pytest.raises(FileFormatError, match="truth.txt"):
            read_ground_truth(path)

    @pytest.mark.parametrize("count", ["-1", "99999999999999999999"], ids=["negative", "beyond-int64"])
    def test_count_out_of_range_rejected(self, tmp_path, count):
        path = tmp_path / "truth.txt"
        path.write_text(f"# feeder-nilm ground-truth v1\n# fingerprint={FP}\n0 1\n1 {count}\n")
        with pytest.raises(FileFormatError, match="truth.txt"):
            read_ground_truth(path)

    def test_missing_fingerprint_rejected(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("# feeder-nilm ground-truth v1\n0 1\n1 1\n")
        with pytest.raises(FileFormatError, match="fingerprint"):
            read_ground_truth(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("# feeder-nilm dataset v1\n0 1\n")
        with pytest.raises(FileFormatError):
            read_ground_truth(path)


class TestDatasetFile:
    def make_dataset(self, seed=0):
        rng = np.random.default_rng(seed)
        spec = FeatureSpec(("i_rms", "thd", "h3"))
        n = 17
        return FeatureDataset(
            rng.normal(0, 100, (n, 3)),
            rng.integers(0, 5, n),
            np.arange(n) * 2.5,
            rng.random(n) > 0.2,
            5.0,
            2.5,
            spec,
        )

    def test_round_trip_exact(self, tmp_path):
        dataset = self.make_dataset()
        path = tmp_path / "dataset.csv"
        write_dataset(path, dataset, FP)
        loaded, fingerprint = read_dataset(path)
        assert fingerprint == FP
        assert np.array_equal(loaded.X, dataset.X)  # 17 significant digits round-trips float64
        assert np.array_equal(loaded.y, dataset.y)
        assert np.array_equal(loaded.valid, dataset.valid)
        assert loaded.feature_spec == dataset.feature_spec
        assert loaded.window_s == dataset.window_s
        assert loaded.stride_s == dataset.stride_s

    def test_write_read_write_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_dataset(first, self.make_dataset(), FP)
        loaded, fingerprint = read_dataset(first)
        write_dataset(second, loaded, fingerprint)
        assert first.read_bytes() == second.read_bytes()

    def test_header_row_shape(self, tmp_path):
        path = tmp_path / "dataset.csv"
        write_dataset(path, self.make_dataset(), FP)
        header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
        assert header == "t_start_s,i_rms,thd,h3,y,valid"

    def test_corrupt_row_rejected(self, tmp_path):
        path = tmp_path / "dataset.csv"
        write_dataset(path, self.make_dataset(), FP)
        lines = path.read_text().splitlines()
        lines[5] = "garbage,row"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="dataset.csv"):
            read_dataset(path)


class TestModelFile:
    def make_params(self):
        features = ("i_rms", "thd", "h3")
        stats = NormStats(features, (0, 2), np.array([1.5, -2.25]), np.array([0.5, 3.0]))
        return init_params((2, 4, 1), seed=11, norm_stats=stats)

    def test_round_trip_exact(self, tmp_path):
        params = self.make_params()
        path = tmp_path / "model.txt"
        write_model(path, params, FP)
        loaded, fingerprint = read_model(path)
        assert fingerprint == FP
        assert loaded.layer_sizes == params.layer_sizes
        for wa, wb in zip(loaded.weights, params.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(loaded.biases, params.biases):
            assert np.array_equal(ba, bb)
        assert loaded.norm_stats.input_feature_ids == params.norm_stats.input_feature_ids
        assert loaded.norm_stats.kept_indices == params.norm_stats.kept_indices
        assert np.array_equal(loaded.norm_stats.mean, params.norm_stats.mean)

    def test_write_read_write_byte_identical(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_model(first, self.make_params(), FP)
        loaded, fingerprint = read_model(first)
        write_model(second, loaded, fingerprint)
        assert first.read_bytes() == second.read_bytes()

    def test_model_written_before_activation_removal_still_reads(self, tmp_path):
        # Files from before the format dropped the fixed activation and init_seed lines still load.
        path = tmp_path / "model.txt"
        write_model(path, self.make_params(), FP)
        lines = path.read_text().splitlines()
        assert not any("activation" in line or "init_seed" in line for line in lines)
        at = lines.index("format_version = 1") + 2
        lines[at:at] = ["init_seed = 11", "hidden_activation = relu", "output_activation = softplus"]
        path.write_text("\n".join(lines) + "\n")
        loaded, fingerprint = read_model(path)
        assert fingerprint == FP
        assert np.array_equal(loaded.weights[0], self.make_params().weights[0])

    def test_missing_layer_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        write_model(path, self.make_params(), FP)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("W1")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_model(path)


class TestReportFile:
    def test_round_trip_byte_identical(self, tmp_path):
        entries = [("format_version", "1"), ("mae_rounded", "0.25"), ("count_0", "4 0")]
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_report_lines(first, entries, FP)
        loaded, fingerprint = read_report_lines(first)
        assert loaded == entries
        write_report_lines(second, loaded, fingerprint)
        assert first.read_bytes() == second.read_bytes()


class TestRankingFile:
    def test_round_trip(self, tmp_path):
        ranking = [("h3", 1234.5), ("i_rms", 0.75), ("thd", 0.0)]
        path = tmp_path / "ranking.txt"
        write_ranking(path, ranking, FP)
        loaded, fingerprint = read_ranking(path)
        assert fingerprint == FP
        assert loaded == ranking

    def test_infinite_scores_survive(self, tmp_path):
        path = tmp_path / "ranking.txt"
        write_ranking(path, [("h3", float("inf"))], FP)
        loaded, _ = read_ranking(path)
        assert loaded[0][1] == float("inf")


class _Exploding:
    """Stands in for a sample array whose serialisation fails after the header is out."""

    def astype(self, *args, **kwargs):
        raise RuntimeError("disk full")


class TestAtomicWrites:
    def test_failed_text_write_keeps_previous_artifact(self, tmp_path):
        path = tmp_path / "ranking.txt"
        write_ranking(path, [("thd", 2.0), ("h3", 1.0)], FP)
        before = path.read_bytes()

        def lines():
            yield "# feeder-nilm ranking v1"
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            storage._write_text(path, lines())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ranking.txt"]

    def test_failed_waveform_write_keeps_previous_artifact(self, tmp_path):
        path = tmp_path / "current.fnwv"
        write_waveform(path, random_waveform(), "CURR", FP)
        before = path.read_bytes()
        broken = SimpleNamespace(sample_rate_hz=100.0, n_samples=10, samples=_Exploding())
        with pytest.raises(RuntimeError):
            write_waveform(path, broken, "CURR", FP)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["current.fnwv"]

    def test_text_writer_refuses_other_fingerprint_widths(self, tmp_path):
        path = tmp_path / "ranking.txt"
        with pytest.raises(ValueError, match="32"):
            write_ranking(path, [("thd", 2.0)], "ab" * 32)
        assert os.listdir(tmp_path) == []

    def test_write_replaces_existing_artifact(self, tmp_path):
        path = tmp_path / "ranking.txt"
        write_ranking(path, [("thd", 2.0)], FP)
        write_ranking(path, [("h3", 1.0)], FP)
        assert read_ranking(path) == ([("h3", 1.0)], FP)
        assert os.listdir(tmp_path) == ["ranking.txt"]


def _schedule_with_idle_device():
    return Schedule(
        (
            DeviceSchedule(
                "ventilator#0", "ventilator", True, ((0.5, 20.25, "run"), (30.0, 45.0, "standby"))
            ),
            DeviceSchedule("lighting#0", "lighting", False, ()),
        )
    )


def _write_sample(path, kind):
    """A valid artifact of ``kind`` at ``path``."""
    if kind == "schedule":
        write_schedule(path, _schedule_with_idle_device(), FP)
    elif kind == "ground-truth":
        write_ground_truth(path, np.array([0, 1, 2, 1, 0, 3]), FP)
    elif kind == "ranking":
        write_ranking(path, [("h3", 1234.5), ("i_rms", 0.75)], FP)
    elif kind == "dataset":
        write_dataset(path, TestDatasetFile().make_dataset(), FP)
    elif kind == "model":
        write_model(path, TestModelFile().make_params(), FP)
    else:
        write_report_lines(path, [("format_version", "1"), ("mae_rounded", "0.25")], FP)


_READERS = {
    "schedule": lambda path: read_schedule(path, default_library()),
    "ground-truth": read_ground_truth,
    "ranking": read_ranking,
    "dataset": read_dataset,
    "model": read_model,
    "report": read_report_lines,
}

# (artifact kind, appended line): a wrong field count (too few or too many),
# then a non-numeric number. Report values are free text, so a report has
# only the field-count case. A schedule line is an idle device only when it
# is the exact '. . .' placeholder.
_BAD_LINES = [
    ("schedule", "ventilator#1 3.0 4.0"),
    ("schedule", "ventilator#1 3.0 four run"),
    ("schedule", "ventilator#0 . 3.0 run"),
    ("ground-truth", "7.0 1 1"),
    ("ground-truth", "7.0 seven"),
    ("ranking", "thd 0.5 0.25"),
    ("ranking", "thd high"),
    ("dataset", "1.0,2.0,3.0"),
    ("dataset", "1.0,2.0,x,4.0,1,1"),
    ("model", "init_seed"),
    ("model", "W0 = x"),
    ("report", "mae_rounded 0.25"),
]


# (artifact kind, appended line, repeated key): each line reads on its own,
# but repeats a header key or a ``key = value`` key the file already has.
_REPEATED_KEYS = [
    ("ranking", f"# fingerprint={'cd' * 16}", "fingerprint"),
    ("dataset", "# max_harmonic=7", "max_harmonic"),
    ("model", "b1 = 0.5", "b1"),
    ("report", "mae_rounded = 0.5", "mae_rounded"),
]


class TestSharedParser:
    @pytest.mark.parametrize("kind, line", _BAD_LINES, ids=[f"{k}:{l}" for k, l in _BAD_LINES])
    def test_bad_line_rejected_naming_file(self, tmp_path, kind, line):
        path = tmp_path / f"bad-{kind}.txt"
        _write_sample(path, kind)
        _READERS[kind](path)  # the untouched file reads
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(FileFormatError, match=f"bad-{kind}.txt"):
            _READERS[kind](path)

    @pytest.mark.parametrize(
        "kind, line, key", _REPEATED_KEYS, ids=[f"{k}:{key}" for k, _, key in _REPEATED_KEYS]
    )
    def test_repeated_key_rejected_naming_file_and_key(self, tmp_path, kind, line, key):
        path = tmp_path / f"bad-{kind}.txt"
        _write_sample(path, kind)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(FileFormatError, match=f"bad-{kind}.txt: repeated key {key!r}"):
            _READERS[kind](path)

    @pytest.mark.parametrize("kind", ["schedule", "ground-truth", "ranking"])
    def test_write_read_write_byte_identical(self, tmp_path, kind):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        _write_sample(first, kind)
        loaded, fingerprint = _READERS[kind](first)
        assert fingerprint == FP
        if kind == "schedule":
            assert loaded == _schedule_with_idle_device()
            write_schedule(second, loaded, fingerprint)
        elif kind == "ground-truth":
            write_ground_truth(second, loaded, fingerprint)
        else:
            write_ranking(second, loaded, fingerprint)
        assert first.read_bytes() == second.read_bytes()
