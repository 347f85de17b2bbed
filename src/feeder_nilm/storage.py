"""Artifact file formats: waveforms, schedules, ground truth, datasets, models, reports, residuals.

Waveform files are binary with a fixed 64-byte header:

    offset  size  field
    0       4     magic "FNWV"
    4       4     format version, u32 little-endian (currently 1)
    8       8     sample_rate_hz, f64 little-endian
    16      8     start_time_s, f64 little-endian
    24      8     sample count, u64 little-endian
    32      4     channel tag, ASCII "VOLT" or "CURR"
    36      16    reserved: 16-byte config-fingerprint prefix (zeros if none)
    52      12    reserved, zeros
    64      ...   raw little-endian IEEE-754 float64 samples

Text artifacts are line-oriented; every format starts with comment lines
carrying the format name and the config fingerprint, and renders floats
with 17 significant digits so a write/read/write cycle is byte-identical.
Every artifact is written to a temp file beside it and then renamed over
it, so an interrupted write leaves the previous artifact intact.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from typing import Iterable

import numpy as np

from .devices import DeviceModel
from .featurize import FeatureDataset, FeatureSpec, NormStats
from .model import RegressorParams
from .simulate import DeviceSchedule, GroundTruthSeries, Schedule
from .signals import Waveform

__all__ = [
    "FileFormatError",
    "read_fingerprint",
    "write_waveform",
    "read_waveform",
    "write_schedule",
    "read_schedule",
    "write_ground_truth",
    "read_ground_truth",
    "write_dataset",
    "read_dataset",
    "write_model",
    "read_model",
    "write_report_lines",
    "read_report_lines",
    "write_residuals",
    "write_ranking",
    "read_ranking",
]

WAVEFORM_MAGIC = b"FNWV"
WAVEFORM_VERSION = 1
_HEADER = struct.Struct("<4sIddQ4s16s12x")
assert _HEADER.size == 64

CHANNEL_TAGS = ("VOLT", "CURR")


class FileFormatError(ValueError):
    """An artifact file is truncated, corrupt, or has an unsupported version."""


def _fingerprint_bytes(fingerprint_hex: str) -> bytes:
    if not fingerprint_hex:
        return b"\x00" * 16
    return bytes.fromhex(fingerprint_hex[:32]).ljust(16, b"\x00")


def _f(x: float) -> str:
    return format(float(x), ".17g")


@contextmanager
def _atomic_open(path, mode: str, **kwargs):
    """A handle on a temp file in the same directory that replaces ``path`` once the block completes.

    A reader never sees a partial artifact; if the block raises, the temp
    file is removed and the previous artifact stays as it was.
    """
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, mode, **kwargs) as fh:
            yield fh
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):  # the block raised before the replace
            os.remove(temp)


# ---------------------------------------------------------------- waveforms


def write_waveform(path, waveform: Waveform, channel: str, fingerprint_hex: str = "") -> None:
    if channel not in CHANNEL_TAGS:
        raise ValueError(f"channel must be one of {CHANNEL_TAGS}")
    header = _HEADER.pack(
        WAVEFORM_MAGIC,
        WAVEFORM_VERSION,
        waveform.sample_rate_hz,
        waveform.start_time_s,
        waveform.n_samples,
        channel.encode("ascii"),
        _fingerprint_bytes(fingerprint_hex),
    )
    with _atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(waveform.samples.astype("<f8", copy=False).tobytes())


def read_waveform(path) -> tuple[Waveform, str, str]:
    """Returns (waveform, channel tag, fingerprint-prefix hex or '')."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FileFormatError(f"{path}: truncated waveform header")
        magic, version, rate, start, count, tag, fp = _HEADER.unpack(header)
        if magic != WAVEFORM_MAGIC:
            raise FileFormatError(f"{path}: not a waveform file (bad magic)")
        if version != WAVEFORM_VERSION:
            raise FileFormatError(f"{path}: unsupported waveform version {version}")
        try:
            channel = tag.decode("ascii")
        except UnicodeDecodeError:
            raise FileFormatError(f"{path}: bad channel tag") from None
        if channel not in CHANNEL_TAGS:
            raise FileFormatError(f"{path}: unknown channel tag {channel!r}")
        payload = fh.read()
    if len(payload) != 8 * count:
        raise FileFormatError(f"{path}: sample payload does not match header count")
    samples = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    fingerprint = "" if fp == b"\x00" * 16 else fp.hex()
    try:
        waveform = Waveform(samples, rate, start)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    return waveform, channel, fingerprint


# ------------------------------------------------------------- text helpers


def _write_text(path, lines: Iterable[str]) -> None:
    with _atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _read_tagged_lines(path, tag: str) -> tuple[str, list[str]]:
    """Returns (fingerprint, non-comment lines); validates the format tag."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: not a text artifact") from None
    if not raw or raw[0] != f"# feeder-nilm {tag} v1":
        raise FileFormatError(f"{path}: missing '# feeder-nilm {tag} v1' header")
    fingerprint = ""
    body: list[str] = []
    for line in raw[1:]:
        if line.startswith("# fingerprint="):
            fingerprint = line.split("=", 1)[1]
        elif line.startswith("#") or not line.strip():
            continue
        else:
            body.append(line)
    return fingerprint, body


def _header_lines(tag: str, fingerprint: str) -> list[str]:
    return [f"# feeder-nilm {tag} v1", f"# fingerprint={fingerprint}"]


def read_fingerprint(path, tag: str) -> str:
    """Fingerprint of a text artifact without parsing its body."""
    return _read_tagged_lines(path, tag)[0]


# ---------------------------------------------------------------- schedules


def write_schedule(path, schedule: Schedule, fingerprint: str = "") -> None:
    lines = _header_lines("schedule", fingerprint)
    for device in schedule.devices:
        if not device.intervals:
            lines.append(f"{device.device_id} . . .")  # placeholder keeps idle devices on file
        for start, end, mode in device.intervals:
            lines.append(f"{device.device_id} {_f(start)} {_f(end)} {mode}")
    _write_text(path, lines)


def read_schedule(path, library: dict[str, DeviceModel]) -> tuple[Schedule, str]:
    fingerprint, body = _read_tagged_lines(path, "schedule")
    per_device: dict[str, list[tuple[float, float, str]]] = {}
    for line in body:
        fields = line.split()
        if len(fields) != 4:
            raise FileFormatError(f"{path}: expected 'device_id start end mode' lines")
        device_id = fields[0]
        per_device.setdefault(device_id, [])
        if fields[1] == ".":
            continue
        try:
            per_device[device_id].append((float(fields[1]), float(fields[2]), fields[3]))
        except ValueError:
            raise FileFormatError(f"{path}: bad interval on line {line!r}") from None
    devices = []
    for device_id, intervals in per_device.items():
        class_name = device_id.split("#", 1)[0]
        if class_name not in library:
            raise FileFormatError(f"{path}: schedule references unknown class {class_name!r}")
        try:
            devices.append(
                DeviceSchedule(device_id, class_name, library[class_name].is_medical, tuple(intervals))
            )
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}") from None
    return Schedule(tuple(devices)), fingerprint


# ------------------------------------------------------------- ground truth


def write_ground_truth(path, truth: GroundTruthSeries, fingerprint: str = "") -> None:
    lines = _header_lines("ground-truth", fingerprint)
    for t, c in zip(truth.timestamps_s, truth.counts):
        lines.append(f"{_f(t)} {int(c)}")
    _write_text(path, lines)


def read_ground_truth(path) -> tuple[GroundTruthSeries, str]:
    fingerprint, body = _read_tagged_lines(path, "ground-truth")
    timestamps, counts = [], []
    for line in body:
        fields = line.split()
        if len(fields) != 2:
            raise FileFormatError(f"{path}: expected 'timestamp count' lines")
        try:
            timestamps.append(float(fields[0]))
            counts.append(int(fields[1]))
        except ValueError:
            raise FileFormatError(f"{path}: bad ground-truth line {line!r}") from None
    try:
        truth = GroundTruthSeries(np.asarray(timestamps), np.asarray(counts))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    return truth, fingerprint


# ------------------------------------------------------------------ dataset


def write_dataset(path, dataset: FeatureDataset, fingerprint: str = "") -> None:
    lines = _header_lines("dataset", fingerprint)
    spec = dataset.feature_spec
    lines.append(
        f"# window_s={_f(dataset.window_s)} stride_s={_f(dataset.stride_s)} "
        f"f0_hz={_f(spec.f0_hz)} max_harmonic={spec.max_harmonic}"
    )
    lines.append("t_start_s," + ",".join(spec.features) + ",y,valid")
    for k in range(dataset.n_windows):
        row = ",".join(_f(x) for x in dataset.X[k])
        lines.append(f"{_f(dataset.t_start_s[k])},{row},{int(dataset.y[k])},{int(dataset.valid[k])}")
    _write_text(path, lines)


def read_dataset(path) -> tuple[FeatureDataset, str]:
    fingerprint, body = _read_tagged_lines(path, "dataset")
    meta: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# window_s="):
                meta = dict(part.split("=", 1) for part in line[2:].split())
                break
    if not meta or not body:
        raise FileFormatError(f"{path}: missing dataset metadata or header row")
    header = body[0].split(",")
    if header[0] != "t_start_s" or header[-2:] != ["y", "valid"]:
        raise FileFormatError(f"{path}: bad dataset header row")
    features = tuple(header[1:-2])
    try:
        spec = FeatureSpec(features, float(meta["f0_hz"]), int(meta["max_harmonic"]))
        window_s = float(meta["window_s"])
        stride_s = float(meta["stride_s"])
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad dataset metadata ({exc})") from None
    t_start, rows, y, valid = [], [], [], []
    for line in body[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise FileFormatError(f"{path}: row width disagrees with header")
        try:
            t_start.append(float(fields[0]))
            rows.append([float(x) for x in fields[1:-2]])
            y.append(int(fields[-2]))
            valid.append(bool(int(fields[-1])))
        except ValueError:
            raise FileFormatError(f"{path}: bad dataset row {line!r}") from None
    try:
        dataset = FeatureDataset(
            np.asarray(rows, dtype=np.float64).reshape(len(rows), len(features)),
            np.asarray(y),
            np.asarray(t_start),
            np.asarray(valid),
            window_s,
            stride_s,
            spec,
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    return dataset, fingerprint


# -------------------------------------------------------------------- model


def write_model(path, params: RegressorParams, fingerprint: str = "") -> None:
    if params.norm_stats is None:
        raise ValueError("model file requires normalization statistics")
    stats = params.norm_stats
    lines = _header_lines("model", fingerprint)
    lines.append("format_version = 1")
    lines.append("layer_sizes = " + " ".join(str(s) for s in params.layer_sizes))
    lines.append(f"init_seed = {params.init_seed}")
    lines.append("input_features = " + " ".join(stats.input_feature_ids))
    lines.append("kept_indices = " + " ".join(str(i) for i in stats.kept_indices))
    lines.append("norm_mean = " + " ".join(_f(x) for x in stats.mean))
    lines.append("norm_std = " + " ".join(_f(x) for x in stats.std))
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        lines.append(f"W{layer} = " + " ".join(_f(x) for x in w.reshape(-1)))
        lines.append(f"b{layer} = " + " ".join(_f(x) for x in b))
    _write_text(path, lines)


def read_model(path) -> tuple[RegressorParams, str]:
    fingerprint, body = _read_tagged_lines(path, "model")
    values: dict[str, str] = {}
    for line in body:
        if "=" not in line:
            raise FileFormatError(f"{path}: expected 'key = value' lines")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    try:
        if values.get("format_version") != "1":
            raise FileFormatError(f"{path}: unsupported model format_version")
        sizes = tuple(int(s) for s in values["layer_sizes"].split())
        stats = NormStats(
            tuple(values["input_features"].split()),
            tuple(int(i) for i in values["kept_indices"].split()),
            np.asarray([float(x) for x in values["norm_mean"].split()]),
            np.asarray([float(x) for x in values["norm_std"].split()]),
        )
        weights, biases = [], []
        for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            w = np.asarray([float(x) for x in values[f"W{layer}"].split()], dtype=np.float64)
            b = np.asarray([float(x) for x in values[f"b{layer}"].split()], dtype=np.float64)
            weights.append(w.reshape(fan_out, fan_in))
            biases.append(b)
        params = RegressorParams(sizes, weights, biases, int(values["init_seed"]), stats)
    except FileFormatError:
        raise
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad model file ({exc})") from None
    return params, fingerprint


# ------------------------------------------------------------------- report


def write_report_lines(path, entries: list[tuple[str, str]], fingerprint: str = "") -> None:
    """Write an ordered key = value report."""
    lines = _header_lines("report", fingerprint)
    for key, value in entries:
        lines.append(f"{key} = {value}")
    _write_text(path, lines)


def read_report_lines(path) -> tuple[list[tuple[str, str]], str]:
    fingerprint, body = _read_tagged_lines(path, "report")
    entries: list[tuple[str, str]] = []
    for line in body:
        if "=" not in line:
            raise FileFormatError(f"{path}: expected 'key = value' lines")
        key, value = line.split("=", 1)
        entries.append((key.strip(), value.strip()))
    return entries, fingerprint


def write_residuals(path, t_start_s, y_true, y_continuous, y_rounded, fingerprint: str = "") -> None:
    """Write one CSV row per test window: truth, continuous and rounded prediction, rounded error."""
    lines = _header_lines("residuals", fingerprint)
    lines.append("window_index,t_start_s,y_true,y_continuous,y_rounded,abs_error_rounded")
    for k, (t, y, cont, rounded) in enumerate(zip(t_start_s, y_true, y_continuous, y_rounded)):
        lines.append(f"{k},{_f(t)},{int(y)},{_f(cont)},{int(rounded)},{abs(int(rounded) - int(y))}")
    _write_text(path, lines)


# ------------------------------------------------------------------ ranking


def write_ranking(path, ranking: list[tuple[str, float]], fingerprint: str = "") -> None:
    lines = _header_lines("ranking", fingerprint)
    for feature_id, score in ranking:
        lines.append(f"{feature_id} {_f(score)}")
    _write_text(path, lines)


def read_ranking(path) -> tuple[list[tuple[str, float]], str]:
    fingerprint, body = _read_tagged_lines(path, "ranking")
    ranking: list[tuple[str, float]] = []
    for line in body:
        fields = line.split()
        if len(fields) != 2:
            raise FileFormatError(f"{path}: expected 'feature_id score' lines")
        try:
            ranking.append((fields[0], float(fields[1])))
        except ValueError:
            raise FileFormatError(f"{path}: bad ranking line {line!r}") from None
    return ranking, fingerprint
