import os
import shutil
import struct
import zlib

import numpy as np
import pytest
from conftest import reseal, samples_of, waveform_of

from feeder_nilm import cli, signals

from feeder_nilm.featurize import FeatureDataset, FeatureSpec, NormStats
from feeder_nilm.model import init_params
from feeder_nilm.signals import Waveform
from feeder_nilm.simulate import DeviceSchedule, Schedule
from feeder_nilm.storage import (
    FileFormatError,
    ground_truth_lines,
    read_dataset,
    read_model,
    read_ranking,
    read_text,
    read_waveform,
    report_lines,
    residual_lines,
    schedule_lines,
    write_dataset,
    write_model,
    write_ranking,
    write_text,
    write_waveform,
)

FP = "ab" * 16  # 32 hex digits, arbitrary
SMOKE = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "smoke.cfg")


def random_samples(seed=0, n=5000):
    rng = np.random.default_rng(seed)
    samples = rng.normal(0, 3, n)
    samples[0] = 0.0
    samples[1] = -0.0
    samples[2] = 1e-300  # subnormal territory must survive the trip
    return samples


def random_waveform(seed=0, n=5000):
    return waveform_of(random_samples(seed, n), 12_345.5)


@pytest.fixture(scope="module")
def smoke_simulated(tmp_path_factory):
    """The output directory of ``simulate`` on ``configs/smoke.cfg``: two 120 s traces at 10 kHz."""
    out = tmp_path_factory.mktemp("smoke")
    assert cli.main(["simulate", "--config", SMOKE, "--out", str(out), "--quiet"]) == 0
    yield out
    shutil.rmtree(out)  # 19 MB of waveforms


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

    def read_smoke_copy(self, smoke_simulated, tmp_path):
        """(path, waveform) of a copy of the ``smoke`` current trace whose header has been read."""
        path = tmp_path / "current.fnwv"
        shutil.copy2(smoke_simulated / "current.fnwv", path)
        return path, read_waveform(path, "CURR", 10_000.0)[0]

    def test_trace_rewritten_in_place_at_the_same_size_is_refused(self, smoke_simulated, tmp_path):
        # Same inode and size: only the modification time tells the rewrite apart.
        path, loaded = self.read_smoke_copy(smoke_simulated, tmp_path)
        before = os.stat(path)
        raw = bytearray(path.read_bytes())
        raw[64:72] = struct.pack("<d", 1.0)
        path.write_bytes(bytes(raw))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1_000_000_000))
        after = os.stat(path)
        assert (after.st_ino, after.st_size) == (before.st_ino, before.st_size)
        with pytest.raises(FileFormatError, match=r"current\.fnwv: file changed while its samples were read"):
            loaded.skip(loaded.n_samples)

    def test_trace_replaced_by_another_file_is_refused(self, smoke_simulated, tmp_path):
        # A copy with the same bytes, size and modification time: only the inode tells it apart.
        path, loaded = self.read_smoke_copy(smoke_simulated, tmp_path)
        other = tmp_path / "other.fnwv"
        shutil.copy2(path, other)
        before = os.stat(path)
        os.replace(other, path)
        after = os.stat(path)
        assert after.st_ino != before.st_ino
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        with pytest.raises(FileFormatError, match=r"current\.fnwv: file changed while its samples were read"):
            loaded.skip(loaded.n_samples)

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


class TestRenderedText:
    """The body lines of the four artifacts no stage parses; ``write_text`` adds the format and seal lines."""

    def test_schedule_lines_keep_an_idle_device_as_a_placeholder(self):
        schedule = Schedule(
            (
                DeviceSchedule("ventilator#0", ((0.5, 20.25, "run"), (30.0, 45.0, "standby"))),
                DeviceSchedule("lighting#0", ()),
            )
        )
        assert schedule_lines(schedule) == [
            "ventilator#0 0.5 20.25 run",
            "ventilator#0 30 45 standby",
            "lighting#0 . . .",
        ]

    def test_ground_truth_lines_give_one_second_per_line(self):
        assert ground_truth_lines(np.array([0, 1, 2, 1])) == ["0 0", "1 1", "2 2", "3 1"]

    def test_report_lines_start_with_the_format_version(self):
        lines = report_lines([("mae_rounded", "0.25"), ("count_1", "2 0.5")])
        assert lines == ["format_version = 1", "mae_rounded = 0.25", "count_1 = 2 0.5"]

    def test_residual_lines_give_the_rounded_error(self):
        lines = residual_lines([0.0, 2.5], [1, 3], [1.25, 0.1], [1, 0])
        assert lines == [
            "window_index,t_start_s,y_true,y_continuous,y_rounded,abs_error_rounded",
            "0,0,1,1.25,1,0",
            "1,2.5,3,0.10000000000000001,0,3",
        ]

    def test_write_text_seals_the_body(self, tmp_path):
        path = tmp_path / "report.txt"
        write_text(path, "report", FP, report_lines([("mae_rounded", "0.5")]))
        body = b"format_version = 1\nmae_rounded = 0.5\n"
        seal = f"# fingerprint={FP} body={zlib.crc32(body):08x}\n".encode()
        assert path.read_bytes() == b"# feeder-nilm report v2\n" + seal + body


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
        reseal(path)
        with pytest.raises(FileFormatError, match="dataset.csv"):
            read_dataset(path)

    def test_unknown_metadata_word_rejected(self, tmp_path):
        # The grid frequency is the scenario's, not the dataset's: a dataset that records one is stale.
        path = tmp_path / "dataset.csv"
        write_dataset(path, self.make_dataset(), FP)
        text = path.read_text()
        assert text.splitlines()[2] == "# window_s=5 stride_s=2.5 max_harmonic=7"
        path.write_text(text.replace(" max_harmonic=7", " f0_hz=60 max_harmonic=7"))
        reseal(path)
        with pytest.raises(FileFormatError, match="dataset.csv: unknown header key 'f0_hz'"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [(" max_harmonic=7", " max_harmonic=9", "max_harmonic must be 7, not 9"),
         (" stride_s=2.5", "", "missing '# stride_s=' header word")],
        ids=["other-max_harmonic", "missing-stride_s"],
    )
    def test_metadata_value_and_presence_checked(self, tmp_path, old, new, message):
        path = tmp_path / "dataset.csv"
        write_dataset(path, self.make_dataset(), FP)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        reseal(path)
        with pytest.raises(FileFormatError, match=f"dataset.csv: {message}"):
            read_dataset(path)


class TestModelFile:
    def make_model(self):
        """(network, normalization) as ``write_model`` takes them."""
        features = ("i_rms", "thd", "h3")
        stats = NormStats(features, (0, 2), np.array([1.5, -2.25]), np.array([0.5, 3.0]))
        return init_params((2, 4, 1), seed=11), stats

    def test_round_trip_exact(self, tmp_path):
        params, stats = self.make_model()
        path = tmp_path / "model.txt"
        write_model(path, params, stats, FP)
        (loaded, loaded_stats), fingerprint = read_model(path)
        assert fingerprint == FP
        assert loaded.layer_sizes == params.layer_sizes
        for wa, wb in zip(loaded.weights, params.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(loaded.biases, params.biases):
            assert np.array_equal(ba, bb)
        assert loaded_stats.input_feature_ids == stats.input_feature_ids
        assert loaded_stats.kept_indices == stats.kept_indices
        assert np.array_equal(loaded_stats.mean, stats.mean)
        assert np.array_equal(loaded_stats.std, stats.std)

    def test_write_read_write_byte_identical(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_model(first, *self.make_model(), FP)
        loaded, fingerprint = read_model(first)
        write_model(second, *loaded, fingerprint)
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_key_rejected(self, tmp_path):
        # Lines of an older format (a fixed activation, an init seed) are refused, not skipped.
        path = tmp_path / "model.txt"
        write_model(path, *self.make_model(), FP)
        lines = path.read_text().splitlines()
        at = lines.index("format_version = 1") + 2
        lines[at:at] = ["init_seed = 11", "hidden_activation = relu"]
        path.write_text("\n".join(lines) + "\n")
        reseal(path)
        with pytest.raises(FileFormatError, match="unknown model key.*hidden_activation, init_seed"):
            read_model(path)

    def test_input_width_other_than_kept_count_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        write_model(path, *self.make_model(), FP)
        text = path.read_text().replace("kept_indices = 0 2", "kept_indices = 0")
        path.write_text(text.replace("norm_mean = 1.5 -2.25", "norm_mean = 1.5").replace("norm_std = 0.5 3", "norm_std = 0.5"))
        reseal(path)
        with pytest.raises(FileFormatError, match="layer_sizes"):
            read_model(path)

    def test_missing_layer_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        write_model(path, *self.make_model(), FP)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("W1")]
        path.write_text("\n".join(lines) + "\n")
        reseal(path)
        with pytest.raises(FileFormatError, match="model.txt: bad model file"):
            read_model(path)


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
            yield "thd 2.0"
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            write_text(path, "ranking", FP, lines())
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


# The body lines of each format no stage parses.
_RENDERED = {
    "schedule": schedule_lines(Schedule((DeviceSchedule("ventilator#0", ((0.5, 20.25, "run"),)),))),
    "ground-truth": ground_truth_lines(np.array([0, 1, 2, 1])),
    "report": report_lines([("mae_rounded", "0.25"), ("count_1", "2 0.5")]),
    "residuals": residual_lines([0.0, 2.5], [1, 3], [1.25, 0.1], [1, 0]),
}

# Each text format's writer: (path, value as its reader returns it, fingerprint).
_WRITERS = {
    "ranking": write_ranking,
    "dataset": write_dataset,
    "model": lambda path, value, fingerprint: write_model(path, *value, fingerprint),
    **{kind: lambda path, value, fingerprint, kind=kind: write_text(path, kind, fingerprint, value) for kind in _RENDERED},
}

_READERS = {
    "ranking": lambda path: read_ranking(path, ("h3", "i_rms")),
    "dataset": read_dataset,
    "model": read_model,
    **{kind: lambda path, kind=kind: read_text(path, kind) for kind in _RENDERED},
}

# A valid value of each format, as its reader returns it.
_SAMPLES = {
    "ranking": [("h3", 1234.5), ("i_rms", 0.75)],
    "dataset": TestDatasetFile().make_dataset(),
    "model": TestModelFile().make_model(),
    **_RENDERED,
}


def _write_sample(path, kind):
    """A valid artifact of ``kind`` at ``path``."""
    _WRITERS[kind](path, _SAMPLES[kind], FP)


# (artifact kind, appended line): a wrong field count (too few or too many),
# then a non-numeric number.
_BAD_LINES = [
    ("ranking", "thd 0.5 0.25"),
    ("ranking", "thd high"),
    ("dataset", "1.0,2.0,3.0"),
    ("dataset", "1.0,2.0,x,4.0,1,1"),
    ("model", "init_seed"),
    ("model", "W0 = x"),
]


# (artifact kind, appended line, repeated key): each line reads on its own,
# but repeats a header key or a ``key = value`` key the file already has.
_REPEATED_KEYS = [
    ("ranking", f"# fingerprint={'cd' * 16}", "fingerprint"),
    ("dataset", "# max_harmonic=7", "max_harmonic"),
    ("model", "b1 = 0.5", "b1"),
]


# (artifact kind, header word): a ``key=value`` word its format does not declare.
_STRAY_HEADER_WORDS = [
    ("ranking", "window_s=99"),
    ("dataset", "f0_hz=60"),
    ("model", "window_s=99"),
]


class TestSharedParser:
    @pytest.mark.parametrize("kind, line", _BAD_LINES, ids=[f"{k}:{l}" for k, l in _BAD_LINES])
    def test_bad_line_rejected_naming_file(self, tmp_path, kind, line):
        path = tmp_path / f"bad-{kind}.txt"
        _write_sample(path, kind)
        _READERS[kind](path)  # the untouched file reads
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        reseal(path)
        with pytest.raises(FileFormatError, match=f"bad-{kind}.txt") as refused:
            _READERS[kind](path)
        assert "seal" not in str(refused.value)  # the reader's own refusal

    @pytest.mark.parametrize(
        "kind, line, key", _REPEATED_KEYS, ids=[f"{k}:{key}" for k, _, key in _REPEATED_KEYS]
    )
    def test_repeated_key_rejected_naming_file_and_key(self, tmp_path, kind, line, key):
        path = tmp_path / f"bad-{kind}.txt"
        _write_sample(path, kind)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        reseal(path)
        with pytest.raises(FileFormatError, match=f"bad-{kind}.txt: repeated key {key!r}"):
            _READERS[kind](path)

    @pytest.mark.parametrize("kind, word", _STRAY_HEADER_WORDS, ids=[k for k, _ in _STRAY_HEADER_WORDS])
    def test_stray_header_word_rejected_naming_file_and_key(self, tmp_path, kind, word):
        # Each format declares its header keys; any other comment word is refused, wherever it stands.
        path = tmp_path / f"bad-{kind}.txt"
        _write_sample(path, kind)
        lines = path.read_text().splitlines()
        lines.insert(2, f"# {word}")
        path.write_text("\n".join(lines) + "\n")
        reseal(path)
        key = word.split("=")[0]
        with pytest.raises(FileFormatError, match=f"bad-{kind}.txt: unknown header key {key!r}"):
            _READERS[kind](path)

    @pytest.mark.parametrize("kind", _READERS)
    def test_write_read_write_byte_identical(self, tmp_path, kind):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        _write_sample(first, kind)
        loaded, fingerprint = _READERS[kind](first)
        assert fingerprint == FP
        _WRITERS[kind](second, loaded, fingerprint)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("kind", _READERS)
    def test_any_byte_flipped_after_the_seal_line_is_refused_naming_the_file(self, tmp_path, kind):
        path = tmp_path / f"sealed-{kind}.txt"
        _write_sample(path, kind)
        raw = path.read_bytes()
        start = raw.index(b"\n", raw.index(b"\n") + 1) + 1  # the first byte after the seal line
        assert start < len(raw)
        for k in range(start, len(raw)):
            path.write_bytes(raw[:k] + bytes([raw[k] ^ 0xFF]) + raw[k + 1 :])
            with pytest.raises(FileFormatError, match=f"sealed-{kind}.txt: missing or broken body seal"):
                _READERS[kind](path)

    @pytest.mark.parametrize("kind", _READERS)
    def test_file_without_its_seal_is_refused_naming_the_file(self, tmp_path, kind):
        # The v1 layout: the fingerprint line carries no body word.
        path = tmp_path / f"unsealed-{kind}.txt"
        _write_sample(path, kind)
        lines = path.read_text().splitlines()
        lines[1] = f"# fingerprint={FP}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=f"unsealed-{kind}.txt: missing or broken body seal"):
            _READERS[kind](path)
