import os
import struct

import numpy as np
import pytest
from conftest import samples_of, waveform_of

from feeder_nilm import signals, storage

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
    read_residuals,
    read_schedule,
    read_waveform,
    write_dataset,
    write_ground_truth,
    write_model,
    write_ranking,
    write_report_lines,
    write_residuals,
    write_schedule,
    write_waveform,
)

FP = "ab" * 16  # 32 hex digits, arbitrary


def random_samples(seed=0, n=5000):
    rng = np.random.default_rng(seed)
    samples = rng.normal(0, 3, n)
    samples[0] = 0.0
    samples[1] = -0.0
    samples[2] = 1e-300  # subnormal territory must survive the trip
    return samples


def random_waveform(seed=0, n=5000):
    return waveform_of(random_samples(seed, n), 12_345.5)


class TestWaveformFile:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "w.fnwv"
        write_waveform(path, random_waveform(), "CURR", FP)
        loaded, fingerprint = read_waveform(path, "CURR", 12_345.5)
        assert fingerprint == FP
        assert loaded.sample_rate_hz == 12_345.5
        assert samples_of(loaded).tobytes() == random_samples().tobytes()

    def test_samples_stream_through_bounded_chunks(self, tmp_path, monkeypatch):
        # Four-sample chunks: the writer and the reader each hold one chunk at a time,
        # and the file is the same as one written in a single piece.
        whole = tmp_path / "whole.fnwv"
        write_waveform(whole, random_waveform(n=11), "CURR", FP)
        monkeypatch.setattr(signals, "CHUNK_BYTES", 8 * 4)
        chunked = tmp_path / "chunked.fnwv"
        write_waveform(chunked, random_waveform(n=11), "CURR", FP)
        assert chunked.read_bytes() == whole.read_bytes()
        loaded, _ = read_waveform(chunked, "CURR", 12_345.5)
        parts = [part.tolist() for part in loaded.chunks(loaded.n_samples)]
        assert [len(part) for part in parts] == [4, 4, 3]
        assert sum(parts, []) == random_samples(n=11).tolist()

    @pytest.mark.parametrize("index", [0, 4_999], ids=["first", "last"])
    def test_non_finite_sample_refused_naming_file_when_read(self, tmp_path, index):
        path = tmp_path / "current.fnwv"
        write_waveform(path, random_waveform(), "CURR", FP)
        raw = bytearray(path.read_bytes())
        raw[64 + 8 * index : 72 + 8 * index] = struct.pack("<d", float("inf"))
        path.write_bytes(bytes(raw))
        loaded, fingerprint = read_waveform(path, "CURR", 12_345.5)  # the header alone is sound
        assert fingerprint == FP
        with pytest.raises(FileFormatError, match="current.fnwv: samples must all be finite"):
            loaded.skip(loaded.n_samples)

    @pytest.mark.parametrize("change", ["replaced", "truncated"])
    def test_file_changed_after_its_header_was_read_is_refused(self, tmp_path, change):
        path = tmp_path / "current.fnwv"
        write_waveform(path, random_waveform(), "CURR", FP)
        loaded, _ = read_waveform(path, "CURR", 12_345.5)
        if change == "replaced":
            write_waveform(path, random_waveform(seed=1), "CURR", FP)
        else:
            path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FileFormatError, match="current.fnwv"):
            samples_of(loaded)

    def test_write_read_write_byte_identical(self, tmp_path):
        first = tmp_path / "a.fnwv"
        second = tmp_path / "b.fnwv"
        write_waveform(first, random_waveform(), "VOLT", FP)
        loaded, fingerprint = read_waveform(first, "VOLT", 12_345.5)
        write_waveform(second, loaded, "VOLT", fingerprint)
        assert first.read_bytes() == second.read_bytes()

    def test_header_is_64_bytes(self, tmp_path):
        path = tmp_path / "w.fnwv"
        w = waveform_of(np.zeros(10), 100.0)
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
            write_waveform(path, waveform_of(np.zeros(10), 100.0), "VOLT", fingerprint)
        assert not path.exists()

    def test_nonzero_start_time_refused_naming_file(self, tmp_path):
        # Every trace starts at scenario second 0: another start would shift every window's time stamp.
        path = tmp_path / "voltage.fnwv"
        write_waveform(path, waveform_of(np.zeros(10), 100.0), "VOLT", FP)
        raw = bytearray(path.read_bytes())
        raw[16:24] = struct.pack("<d", 3.0)
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="voltage.fnwv: start time 3.0, expected 0.0"):
            read_waveform(path, "VOLT", 100.0)

    def test_other_channel_refused_naming_file(self, tmp_path):
        path = tmp_path / "voltage.fnwv"
        write_waveform(path, waveform_of(np.zeros(10), 100.0), "CURR", FP)
        with pytest.raises(FileFormatError, match="voltage.fnwv: channel 'CURR', expected 'VOLT'"):
            read_waveform(path, "VOLT", 100.0)

    def test_other_rate_refused_naming_file(self, tmp_path):
        # The scenario sets the rate: a header that claims another would re-time every window.
        path = tmp_path / "current.fnwv"
        write_waveform(path, waveform_of(np.zeros(10), 100.0), "CURR", FP)
        with pytest.raises(FileFormatError, match="current.fnwv: sample rate 100.0 Hz, expected 200.0 Hz"):
            read_waveform(path, "CURR", 200.0)

    def test_unknown_channel_tag_rejected(self, tmp_path):
        path = tmp_path / "odd.fnwv"
        write_waveform(path, waveform_of(np.zeros(10), 100.0), "VOLT", FP)
        raw = bytearray(path.read_bytes())
        raw[32:36] = b"\xffOLT"
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="odd.fnwv"):
            read_waveform(path, "VOLT", 100.0)

    def test_corrupt_magic_names_file(self, tmp_path):
        path = tmp_path / "bad.fnwv"
        write_waveform(path, waveform_of(np.zeros(10), 100.0), "VOLT", FP)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="bad.fnwv"):
            read_waveform(path, "VOLT", 100.0)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.fnwv"
        write_waveform(path, waveform_of(np.zeros(10), 100.0), "VOLT", FP)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FileFormatError):
            read_waveform(path, "VOLT", 100.0)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.fnwv"
        write_waveform(path, waveform_of(np.zeros(10), 100.0), "VOLT", FP)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FileFormatError, match="long.fnwv"):
            read_waveform(path, "VOLT", 100.0)

    def test_huge_count_rejected_before_allocation(self, tmp_path):
        # A corrupt count must be refused from the file size, not by a failed allocation.
        path = tmp_path / "huge.fnwv"
        write_waveform(path, waveform_of(np.zeros(10), 100.0), "VOLT", FP)
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
        loaded, fingerprint = read_ground_truth(path, 20)
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
            read_ground_truth(path, body.count("\n"))

    @pytest.mark.parametrize("count", ["-1", "99999999999999999999"], ids=["negative", "beyond-int64"])
    def test_count_out_of_range_rejected(self, tmp_path, count):
        path = tmp_path / "truth.txt"
        path.write_text(f"# feeder-nilm ground-truth v1\n# fingerprint={FP}\n0 1\n1 {count}\n")
        with pytest.raises(FileFormatError, match="truth.txt"):
            read_ground_truth(path, 2)

    def test_missing_fingerprint_rejected(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("# feeder-nilm ground-truth v1\n0 1\n1 1\n")
        with pytest.raises(FileFormatError, match="fingerprint"):
            read_ground_truth(path, 2)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("# feeder-nilm dataset v1\n0 1\n")
        with pytest.raises(FileFormatError):
            read_ground_truth(path, 1)


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

    def test_rows_render_every_value_as_the_float_writer(self, tmp_path):
        # Each row is one template; every float cell must be _f's 17-digit rendering.
        from feeder_nilm.storage import _f

        X = np.array([[-0.0, 5e-324, 0.1], [1e300, -2.5, 123456789.123456789]])
        dataset = FeatureDataset(X, [0, 3], [0.0, 2.5], [True, False], 5.0, 2.5, FeatureSpec(("i_rms", "thd", "h3")))
        path = tmp_path / "dataset.csv"
        write_dataset(path, dataset, FP)
        rows = [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]
        assert rows == [
            ",".join([_f(t), *map(_f, x), str(y), str(int(valid))])
            for t, x, y, valid in zip(dataset.t_start_s, X, dataset.y, dataset.valid)
        ]
        assert rows[0].startswith("0,-0,4.9406564584124654e-324,0.10000000000000001,")

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

    def test_unknown_key_rejected(self, tmp_path):
        # Lines of an older format (a fixed activation, an init seed) are refused, not skipped.
        path = tmp_path / "model.txt"
        write_model(path, self.make_params(), FP)
        lines = path.read_text().splitlines()
        at = lines.index("format_version = 1") + 2
        lines[at:at] = ["init_seed = 11", "hidden_activation = relu"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="unknown model key.*hidden_activation, init_seed"):
            read_model(path)

    def test_input_width_other_than_kept_count_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        write_model(path, self.make_params(), FP)
        text = path.read_text().replace("kept_indices = 0 2", "kept_indices = 0")
        path.write_text(text.replace("norm_mean = 1.5 -2.25", "norm_mean = 1.5").replace("norm_std = 0.5 3", "norm_std = 0.5"))
        with pytest.raises(FileFormatError, match="layer_sizes"):
            read_model(path)

    def test_missing_layer_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        write_model(path, self.make_params(), FP)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("W1")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_model(path)


class TestReportFile:
    def test_round_trip_byte_identical(self, tmp_path):
        entries = [("mae_rounded", "0.25"), ("count_0", "4 0")]
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_report_lines(first, entries, FP)
        assert first.read_text().splitlines()[2] == "format_version = 1"  # written by the writer, not the caller
        loaded, fingerprint = read_report_lines(first)
        assert loaded == entries
        write_report_lines(second, loaded, fingerprint)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("version", ["2", None], ids=["other", "missing"])
    def test_other_format_version_rejected(self, tmp_path, version):
        path = tmp_path / "report.txt"
        write_report_lines(path, [("mae_rounded", "0.25")], FP)
        lines = [line for line in path.read_text().splitlines() if line != "format_version = 1"]
        if version is not None:
            lines.append(f"format_version = {version}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="report.txt: unsupported report format_version"):
            read_report_lines(path)


class TestResidualsFile:
    @pytest.mark.parametrize(
        "old, new, message",
        [("1,2.5,3,", "0,2.5,3,", "window indices"), (",2,1\n", ",2,0\n", "abs_error_rounded"),
         ("window_index,", "index,", "header row")],
        ids=["index-repeated", "error-wrong", "header-renamed"],
    )
    def test_inconsistent_rows_rejected(self, tmp_path, old, new, message):
        path = tmp_path / "residuals.csv"
        write_residuals(path, [0.0, 2.5], [1, 3], [1.25, 1.5], [1, 2], FP)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(FileFormatError, match=f"residuals.csv: .*{message}"):
            read_residuals(path)


class TestRankingFile:
    def test_round_trip(self, tmp_path):
        ranking = [("h3", 1234.5), ("i_rms", 0.75), ("thd", 0.0)]
        path = tmp_path / "ranking.txt"
        write_ranking(path, ranking, FP)
        loaded, fingerprint = read_ranking(path, ("i_rms", "thd", "h3"))
        assert fingerprint == FP
        assert loaded == ranking

    def test_infinite_scores_survive(self, tmp_path):
        path = tmp_path / "ranking.txt"
        write_ranking(path, [("h3", float("inf"))], FP)
        loaded, _ = read_ranking(path, ("h3",))
        assert loaded[0][1] == float("inf")

    @pytest.mark.parametrize("ranking, message", [([("h3", 1.0), ("h8", 0.5)], "unknown feature 'h8'"), ([("h3", 1.0), ("h3", 0.5)], "twice")])
    def test_unknown_or_repeated_feature_rejected(self, tmp_path, ranking, message):
        path = tmp_path / "ranking.txt"
        write_ranking(path, ranking, FP)
        with pytest.raises(FileFormatError, match=message):
            read_ranking(path, ("h3", "h8"))


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

        def fill(out, start):  # fails once the header is out
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            write_waveform(path, Waveform(10, 100.0, fill), "CURR", FP)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["current.fnwv"]

    def test_source_failing_after_its_first_chunk_keeps_previous_artifact(self, tmp_path, monkeypatch):
        # The header and the first chunk are already in the temp file when the source fails.
        path = tmp_path / "current.fnwv"
        write_waveform(path, random_waveform(), "CURR", FP)
        before = path.read_bytes()
        monkeypatch.setattr(signals, "CHUNK_BYTES", 8 * 4)
        filled = []

        def fill(out, start):
            if filled:
                raise RuntimeError("source failed")
            filled.append(start)
            out[:] = 1.0

        with pytest.raises(RuntimeError, match="source failed"):
            write_waveform(path, Waveform(10, 100.0, fill), "CURR", FP)
        assert filled == [0]
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
        assert read_ranking(path, ("h3",)) == ([("h3", 1.0)], FP)
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
    elif kind == "report":
        write_report_lines(path, [("mae_rounded", "0.25")], FP)
    else:
        write_residuals(path, [0.0, 2.5, 5.0], [1, 3, 0], [1.25, 1.5, 0.0], [1, 2, 0], FP)


_READERS = {
    "schedule": lambda path: read_schedule(path, default_library()),
    "ground-truth": lambda path: read_ground_truth(path, 6),
    "ranking": lambda path: read_ranking(path, ("h3", "i_rms")),
    "dataset": read_dataset,
    "model": read_model,
    "report": read_report_lines,
    "residuals": read_residuals,
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
    ("residuals", "3,7.5,1,1"),
    ("residuals", "3,7.5,1,x,1,0"),
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

    @pytest.mark.parametrize("kind", ["schedule", "ground-truth", "ranking", "residuals"])
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
        elif kind == "residuals":
            write_residuals(second, *loaded, fingerprint)
        else:
            write_ranking(second, loaded, fingerprint)
        assert first.read_bytes() == second.read_bytes()
