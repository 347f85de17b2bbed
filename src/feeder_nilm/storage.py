"""Artifact file formats: waveforms, schedules, ground truth, datasets, models, reports, residuals.

Waveform files are binary with a fixed 64-byte header:

    offset  size  field
    0       4     magic "FNWV"
    4       4     format version, u32 little-endian (currently 1)
    8       8     sample_rate_hz, f64 little-endian
    16      8     start time in seconds, f64 little-endian; always 0.0
    24      8     sample count, u64 little-endian
    32      4     channel tag, ASCII "VOLT" or "CURR"
    36      16    16-byte config fingerprint
    52      12    reserved, zeros
    64      ...   raw little-endian IEEE-754 float64 samples

Samples stream in chunks of at most ``signals.CHUNK_BYTES``, so no trace
is ever whole in memory. The writer fills one buffer at a time from its
``Waveform`` and writes it to the temp file. The reader checks the header
and the file size against the header count before it allocates anything,
and returns a ``Waveform`` that reads the samples into its consumer's
buffers, checking every one finite as it arrives; a non-finite sample is a
``FileFormatError`` naming the file. The reader is told which channel and
sample rate it expects and refuses a file of the other channel or another
rate. Every trace starts at scenario second 0, so the reader also refuses
a header whose start time is not 0.0.

Text artifacts are line-oriented. Every format begins with its format line
``# feeder-nilm <tag> v1``, followed by ``# key=value`` comment lines that
carry the fingerprint (and, for a dataset, its window metadata); floats
are rendered with 17 significant digits so a write/read/write cycle is
byte-identical. Every writer requires a 32-hex-digit fingerprint, and
every reader returns it beside the value for an exact comparison.
Each format has one reader, which checks the whole file; a stage reads
its inputs with it, and ``pipeline`` judges an artifact current only if
it passes it, so nothing reads a fingerprint without its body.
Every artifact is written to a temp file beside it and then renamed over
it, so an interrupted write leaves the previous artifact intact.
"""

from __future__ import annotations

import os
import struct
import sys
from contextlib import contextmanager
from typing import Iterable

import numpy as np

from .devices import DeviceModel
from .featurize import FEATURE_IDS, THD_ORDERS, FeatureDataset, FeatureSpec, NormStats
from .model import RegressorParams
from .simulate import DeviceSchedule, Schedule
from .signals import Waveform

__all__ = [
    "FileFormatError",
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
    "read_residuals",
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
    # Any other string would be cut, padded or re-cased on the way to 16 bytes and back.
    if len(fingerprint_hex) != 32 or fingerprint_hex.strip("0123456789abcdef"):
        raise ValueError(f"fingerprint must be 32 lowercase hex digits, got {fingerprint_hex!r}")
    return bytes.fromhex(fingerprint_hex)


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


def write_waveform(path, waveform: Waveform, channel: str, fingerprint_hex: str) -> None:
    """Write every sample of the unread ``waveform``, one chunk at a time, then rename the file into place."""
    if channel not in CHANNEL_TAGS:
        raise ValueError(f"channel must be one of {CHANNEL_TAGS}")
    header = _HEADER.pack(
        WAVEFORM_MAGIC,
        WAVEFORM_VERSION,
        waveform.sample_rate_hz,
        0.0,
        waveform.n_samples,
        channel.encode("ascii"),
        _fingerprint_bytes(fingerprint_hex),
    )
    with _atomic_open(path, "wb") as fh:
        fh.write(header)
        for part in waveform.chunks(waveform.n_samples):
            fh.write(part.astype("<f8", copy=False))


def read_waveform(path, channel: str, sample_rate_hz: float) -> tuple[Waveform, str]:
    """Returns (waveform, fingerprint hex); refuses a file of another ``channel`` or ``sample_rate_hz``.

    The header is checked here; the samples are read, and checked finite,
    as the waveform is read. A file replaced or resized in between is
    refused then.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FileFormatError(f"{path}: truncated waveform header")
        magic, version, rate, start, count, tag, fp = _HEADER.unpack(header)
        if magic != WAVEFORM_MAGIC:
            raise FileFormatError(f"{path}: not a waveform file (bad magic)")
        if version != WAVEFORM_VERSION:
            raise FileFormatError(f"{path}: unsupported waveform version {version}")
        tag = tag.decode("latin-1")  # never fails; a corrupt tag is refused by the comparison
        if tag != channel:
            raise FileFormatError(f"{path}: channel {tag!r}, expected {channel!r}")
        if rate != sample_rate_hz:
            raise FileFormatError(f"{path}: sample rate {rate!r} Hz, expected {float(sample_rate_hz)!r} Hz")
        if start != 0.0:
            raise FileFormatError(f"{path}: start time {start!r}, expected 0.0")
        identity = _file_identity(fh)
        if identity[-1] != _HEADER.size + 8 * count:
            raise FileFormatError(f"{path}: sample payload does not match header count")

    def fill(out: np.ndarray, first: int) -> None:
        with open(path, "rb") as fh:
            if _file_identity(fh) != identity:
                raise FileFormatError(f"{path}: file changed while its samples were read")
            fh.seek(_HEADER.size + 8 * first)
            if fh.readinto(out) != out.nbytes:
                raise FileFormatError(f"{path}: sample payload does not match header count")
        if sys.byteorder != "little":
            out.byteswap(inplace=True)
        if not np.isfinite(out).all():
            raise FileFormatError(f"{path}: samples must all be finite")

    try:
        waveform = Waveform(count, rate, fill)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    return waveform, fp.hex()


def _file_identity(fh) -> tuple[int, int, int, int]:
    """(device, inode, modification time, size) of an open file: a replaced or rewritten file differs."""
    stat = os.fstat(fh.fileno())
    return stat.st_dev, stat.st_ino, stat.st_mtime_ns, stat.st_size


# ------------------------------------------------------------- text helpers


def _write_text(path, lines: Iterable[str]) -> None:
    with _atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _read_tagged_lines(path, tag: str) -> tuple[dict[str, str], list[str]]:
    """Returns (header values, non-comment lines); validates the format line.

    Header values are the ``key=value`` words of the comment lines after
    the format line: the fingerprint, which must be there, and for a
    dataset its window metadata.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: not a text artifact") from None
    if not raw or raw[0] != f"# feeder-nilm {tag} v1":
        raise FileFormatError(f"{path}: missing '# feeder-nilm {tag} v1' header")
    words: list[tuple[str, str]] = []
    body: list[str] = []
    for line in raw[1:]:
        if line.startswith("#"):
            words += [tuple(word.split("=", 1)) for word in line[1:].split() if "=" in word]
        elif line.strip():
            body.append(line)
    header = _unique(path, words)
    if "fingerprint" not in header:
        raise FileFormatError(f"{path}: missing '# fingerprint=' line")
    return header, body


def _fields(path, line: str, types: tuple, sep: str | None = None) -> tuple:
    """One body line split on ``sep``, one field per entry of ``types``, each converted by it."""
    fields = line.split(sep)
    if len(fields) != len(types):
        raise FileFormatError(f"{path}: expected {len(types)} fields, got {len(fields)} in {line!r}")
    try:
        return tuple(convert(field) for convert, field in zip(types, fields))
    except (ValueError, OverflowError):
        raise FileFormatError(f"{path}: bad value in line {line!r}") from None


def _unique(path, pairs: list[tuple[str, str]]) -> dict[str, str]:
    """``pairs`` as a dict; a key given twice is refused, not overridden by its last value."""
    values: dict[str, str] = {}
    for key, value in pairs:
        if key in values:
            raise FileFormatError(f"{path}: repeated key {key!r}")
        values[key] = value
    return values


def _entries(path, body: list[str]) -> dict[str, str]:
    """``key = value`` lines, each split on its first '=', in file order; each key once."""
    if any("=" not in line for line in body):
        raise FileFormatError(f"{path}: expected 'key = value' lines")
    return _unique(path, [tuple(part.strip() for part in line.split("=", 1)) for line in body])


def _header_lines(tag: str, fingerprint: str) -> list[str]:
    _fingerprint_bytes(fingerprint)  # the same width as a waveform header's
    return [f"# feeder-nilm {tag} v1", f"# fingerprint={fingerprint}"]


# ---------------------------------------------------------------- schedules


def write_schedule(path, schedule: Schedule, fingerprint: str) -> None:
    lines = _header_lines("schedule", fingerprint)
    for device in schedule.devices:
        if not device.intervals:
            lines.append(f"{device.device_id} . . .")  # placeholder keeps idle devices on file
        for start, end, mode in device.intervals:
            lines.append(f"{device.device_id} {_f(start)} {_f(end)} {mode}")
    _write_text(path, lines)


def read_schedule(path, library: dict[str, DeviceModel]) -> tuple[Schedule, str]:
    header, body = _read_tagged_lines(path, "schedule")
    per_device: dict[str, list[tuple[float, float, str]]] = {}
    for line in body:
        device_id, *interval = line.split()
        intervals = per_device.setdefault(device_id, [])
        if interval != [".", ".", "."]:  # only an idle device's exact placeholder adds no interval
            intervals.append(_fields(path, line, (str, float, float, str))[1:])
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
    return Schedule(tuple(devices)), header["fingerprint"]


# ------------------------------------------------------------- ground truth


def write_ground_truth(path, counts: np.ndarray, fingerprint: str) -> None:
    """One ``second count`` line per scenario second, from second 0."""
    lines = _header_lines("ground-truth", fingerprint)
    lines += [f"{second} {int(count)}" for second, count in enumerate(counts)]
    _write_text(path, lines)


def read_ground_truth(path, seconds: int) -> tuple[np.ndarray, str]:
    """The per-second ``int64`` counts; line k must be second k, with a count of at least 0.

    The file must hold exactly ``seconds`` counts, a scenario's ``ceil(duration_s)``.
    """
    header, body = _read_tagged_lines(path, "ground-truth")
    rows = np.array([_fields(path, line, (np.int64, np.int64)) for line in body], dtype=np.int64).reshape(-1, 2)
    if len(rows) != seconds:
        raise FileFormatError(f"{path}: {len(rows)} seconds of counts, expected the scenario's {seconds}")
    misplaced = np.flatnonzero(rows[:, 0] != np.arange(len(rows)))
    if misplaced.size:
        raise FileFormatError(f"{path}: line {misplaced[0]} of the counts is second {rows[misplaced[0], 0]}")
    if (rows[:, 1] < 0).any():
        raise FileFormatError(f"{path}: negative count")
    return np.ascontiguousarray(rows[:, 1]), header["fingerprint"]


# ------------------------------------------------------------------ dataset


def write_dataset(path, dataset: FeatureDataset, fingerprint: str) -> None:
    lines = _header_lines("dataset", fingerprint)
    spec = dataset.feature_spec
    lines.append(
        f"# window_s={_f(dataset.window_s)} stride_s={_f(dataset.stride_s)} "
        f"f0_hz={_f(spec.f0_hz)} max_harmonic={THD_ORDERS[-1]}"
    )
    lines.append("t_start_s," + ",".join(spec.features) + ",y,valid")
    # One template per row; "%.17g" renders a float exactly as _f does.
    row = "%.17g," * (1 + len(spec.features)) + "%d,%d"
    columns = zip(dataset.t_start_s.tolist(), dataset.X.tolist(), dataset.y.tolist(), dataset.valid.tolist())
    lines.extend(row % (t, *x, y, valid) for t, x, y, valid in columns)
    _write_text(path, lines)


def read_dataset(path) -> tuple[FeatureDataset, str]:
    meta, body = _read_tagged_lines(path, "dataset")
    columns = (body or [""])[0].split(",")
    if columns[0] != "t_start_s" or columns[-2:] != ["y", "valid"]:
        raise FileFormatError(f"{path}: missing or bad dataset header row")
    if meta.get("max_harmonic") != str(THD_ORDERS[-1]):  # thd's highest order is fixed; readers of the file use it
        raise FileFormatError(f"{path}: dataset metadata needs max_harmonic={THD_ORDERS[-1]}")
    try:
        spec = FeatureSpec(tuple(columns[1:-2]), float(meta["f0_hz"]))
        window_s, stride_s = float(meta["window_s"]), float(meta["stride_s"])
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad dataset metadata ({exc})") from None
    types = (float,) * (len(columns) - 2) + (int, int)
    rows = np.array([_fields(path, line, types, ",") for line in body[1:]], dtype=np.float64)
    rows = rows.reshape(-1, len(columns))  # y and valid are exact small integers in float64
    try:
        dataset = FeatureDataset(
            rows[:, 1:-2], rows[:, -2], rows[:, 0], rows[:, -1] != 0, window_s, stride_s, spec
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    return dataset, meta["fingerprint"]


# -------------------------------------------------------------------- model


def write_model(path, params: RegressorParams, fingerprint: str) -> None:
    if params.norm_stats is None:
        raise ValueError("model file requires normalization statistics")
    stats = params.norm_stats
    lines = _header_lines("model", fingerprint)
    lines.append("format_version = 1")
    lines.append("layer_sizes = " + " ".join(str(s) for s in params.layer_sizes))
    lines.append("input_features = " + " ".join(stats.input_feature_ids))
    lines.append("kept_indices = " + " ".join(str(i) for i in stats.kept_indices))
    lines.append("norm_mean = " + " ".join(_f(x) for x in stats.mean))
    lines.append("norm_std = " + " ".join(_f(x) for x in stats.std))
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        lines.append(f"W{layer} = " + " ".join(_f(x) for x in w.reshape(-1)))
        lines.append(f"b{layer} = " + " ".join(_f(x) for x in b))
    _write_text(path, lines)


def read_model(path) -> tuple[RegressorParams, str]:
    header, body = _read_tagged_lines(path, "model")
    values = _entries(path, body)

    def floats(key: str) -> np.ndarray:
        return np.asarray([float(x) for x in values[key].split()], dtype=np.float64)

    if values.get("format_version") != "1":
        raise FileFormatError(f"{path}: unsupported model format_version")
    try:
        sizes = tuple(int(s) for s in values["layer_sizes"].split())
        stats = NormStats(
            tuple(values["input_features"].split()),
            tuple(int(i) for i in values["kept_indices"].split()),
            floats("norm_mean"),
            floats("norm_std"),
        )
        if sizes[:1] != (len(stats.kept_indices),):
            raise ValueError("layer_sizes must start with the kept feature count")
        weights, biases = [], []
        for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            weights.append(floats(f"W{layer}").reshape(fan_out, fan_in))
            biases.append(floats(f"b{layer}"))
        params = RegressorParams(sizes, weights, biases, stats)
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad model file ({exc})") from None
    known = {"format_version", "layer_sizes", "input_features", "kept_indices", "norm_mean", "norm_std"}
    unknown = set(values) - known - {f"{kind}{layer}" for kind in "Wb" for layer in range(len(sizes) - 1)}
    if unknown:
        raise FileFormatError(f"{path}: unknown model key(s): {', '.join(sorted(unknown))}")
    return params, header["fingerprint"]


# ------------------------------------------------------------------- report


def write_report_lines(path, entries: list[tuple[str, str]], fingerprint: str) -> None:
    """Write an ordered key = value report after its ``format_version = 1`` line."""
    lines = _header_lines("report", fingerprint) + ["format_version = 1"]
    for key, value in entries:
        lines.append(f"{key} = {value}")
    _write_text(path, lines)


def read_report_lines(path) -> tuple[list[tuple[str, str]], str]:
    """The report's entries in file order, without its format version, which must be 1."""
    header, body = _read_tagged_lines(path, "report")
    values = _entries(path, body)
    if values.pop("format_version", None) != "1":
        raise FileFormatError(f"{path}: unsupported report format_version")
    return list(values.items()), header["fingerprint"]


# ---------------------------------------------------------------- residuals

_RESIDUAL_COLUMNS = "window_index,t_start_s,y_true,y_continuous,y_rounded,abs_error_rounded"


def write_residuals(path, t_start_s, y_true, y_continuous, y_rounded, fingerprint: str) -> None:
    """Write one CSV row per test window: truth, continuous and rounded prediction, rounded error."""
    lines = _header_lines("residuals", fingerprint)
    lines.append(_RESIDUAL_COLUMNS)
    for k, (t, y, cont, rounded) in enumerate(zip(t_start_s, y_true, y_continuous, y_rounded)):
        lines.append(f"{k},{_f(t)},{int(y)},{_f(cont)},{int(rounded)},{abs(int(rounded) - int(y))}")
    _write_text(path, lines)


def read_residuals(path) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], str]:
    """The columns ``write_residuals`` took, and the fingerprint; row k must be window k, with a consistent error."""
    header, body = _read_tagged_lines(path, "residuals")
    if body[:1] != [_RESIDUAL_COLUMNS]:
        raise FileFormatError(f"{path}: missing or bad residuals header row")
    types = (np.int64, float, np.int64, float, np.int64, np.int64)
    rows = np.array([_fields(path, line, types, ",") for line in body[1:]], dtype=np.float64).reshape(-1, 6)
    if (rows[:, 0] != np.arange(len(rows))).any():
        raise FileFormatError(f"{path}: window indices must count 0, 1, 2, ...")
    if (rows[:, 5] != np.abs(rows[:, 4] - rows[:, 2])).any():
        raise FileFormatError(f"{path}: abs_error_rounded must be |y_rounded - y_true|")
    return (rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4]), header["fingerprint"]


# ------------------------------------------------------------------ ranking


def write_ranking(path, ranking: list[tuple[str, float]], fingerprint: str) -> None:
    lines = _header_lines("ranking", fingerprint)
    for feature_id, score in ranking:
        lines.append(f"{feature_id} {_f(score)}")
    _write_text(path, lines)


def read_ranking(path, features) -> tuple[list[tuple[str, float]], str]:
    """The ranking and its fingerprint; refused unless it ranks each of ``features`` once, and nothing else."""
    header, body = _read_tagged_lines(path, "ranking")
    ranking = [_fields(path, line, (str, float)) for line in body]
    ids = [feature_id for feature_id, _ in ranking]
    for feature_id in ids:
        if feature_id not in FEATURE_IDS:
            raise FileFormatError(f"{path}: unknown feature {feature_id!r}")
    if len(set(ids)) != len(ids):
        raise FileFormatError(f"{path}: a feature is ranked twice")
    if sorted(ids) != sorted(features):
        raise FileFormatError(f"{path}: does not rank exactly the configured features")
    return ranking, header["fingerprint"]
