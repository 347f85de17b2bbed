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
buffers through the handle the header came from, checking every one
finite as it arrives; a non-finite sample is a ``FileFormatError`` naming
the file. The reader is told which channel and sample rate it expects and
refuses a file of the other channel or another rate. Every trace starts
at scenario second 0, so the reader also refuses a header whose start time
is not 0.0.

Text artifacts are line-oriented. ``write_text``, the one writer of all
seven text formats, takes a format's body lines and writes the format line
``# feeder-nilm <tag> v2``, the seal line
``# fingerprint=<32 hex> body=<8 hex>``, then the body. ``body`` is the
CRC-32 of every byte after the seal line, a dataset's ``# window_s=`` line
included. Floats are rendered with 17 significant digits so a
write/read/write cycle is byte-identical. Every writer requires a
32-hex-digit fingerprint, and every reader returns it beside the value for
an exact comparison.

Every text reader checks the seal first, so a file edited or damaged since
it was written is refused, naming it. The seal guards against accidental
edits and bit rot, not forgery: anyone can recompute a CRC. The ranking,
dataset and model readers then check the whole body, which a stage reads.
Schedules, ground truth, reports and residuals are read by ``read_text``,
which returns the body lines their renderers (``schedule_lines``,
``ground_truth_lines``, ``report_lines``, ``residual_lines``) gave.
Every artifact is written to a temp file beside it and then renamed over
it, so an interrupted write leaves the previous artifact intact.
"""

from __future__ import annotations

import os
import re
import struct
import sys
import weakref
import zlib
from contextlib import contextmanager
from typing import Iterable

import numpy as np

from .featurize import FEATURE_IDS, THD_ORDERS, FeatureDataset, FeatureSpec, NormStats
from .model import RegressorParams
from .simulate import Schedule
from .signals import Waveform

__all__ = [
    "FileFormatError",
    "write_waveform",
    "read_waveform",
    "write_text",
    "read_text",
    "schedule_lines",
    "ground_truth_lines",
    "write_dataset",
    "read_dataset",
    "write_model",
    "read_model",
    "report_lines",
    "residual_lines",
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
    as the waveform is read, through the one handle the header was read
    from. It is closed after the last sample, or when the waveform is
    dropped before it. A file replaced, rewritten or resized in between is
    refused then.
    """
    fh = open(path, "rb", buffering=0)
    try:
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
        identity = _identity(os.fstat(fh.fileno()))
        if identity[-1] != _HEADER.size + 8 * count:
            raise FileFormatError(f"{path}: sample payload does not match header count")

        def fill(out: np.ndarray, first: int) -> None:
            if not out.size:
                return  # the last piece may have closed the handle
            # The handle sees a rewrite in place; only the path sees a file renamed over it.
            if _identity(os.fstat(fh.fileno())) != identity or _identity(os.stat(path)) != identity:
                raise FileFormatError(f"{path}: file changed while its samples were read")
            fh.seek(_HEADER.size + 8 * first)  # a piece that failed its checks moved the handle on
            if fh.readinto(out) != out.nbytes:
                raise FileFormatError(f"{path}: sample payload does not match header count")
            if sys.byteorder != "little":
                out.byteswap(inplace=True)
            if not np.isfinite(out).all():
                raise FileFormatError(f"{path}: samples must all be finite")
            if first + out.size == count:
                fh.close()

        try:
            waveform = Waveform(count, rate, fill)
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}") from None
    except BaseException:
        fh.close()
        raise
    weakref.finalize(waveform, fh.close)
    return waveform, fp.hex()


def _identity(stat: os.stat_result) -> tuple[int, int, int, int]:
    """(device, inode, modification time, size): a replaced or rewritten file differs."""
    return stat.st_dev, stat.st_ino, stat.st_mtime_ns, stat.st_size


# ------------------------------------------------------------- text helpers


def _format_line(tag: str) -> str:
    return f"# feeder-nilm {tag} v2"


# The seal line; the fingerprint's width is checked where it is compared.
_SEAL = re.compile(rb"# fingerprint=\S* body=([0-9a-f]{8})")


def write_text(path, tag: str, fingerprint: str, lines: Iterable[str]) -> None:
    """Write format ``tag``'s format and seal lines, then each of ``lines`` and a newline, UTF-8; rename it into place."""
    _fingerprint_bytes(fingerprint)  # the same width as a waveform header's
    body = "".join(f"{line}\n" for line in lines).encode("utf-8")
    with _atomic_open(path, "wb") as fh:
        fh.write(f"{_format_line(tag)}\n# fingerprint={fingerprint} body={zlib.crc32(body):08x}\n".encode("utf-8"))
        fh.write(body)


def _read_tagged_lines(path, tag: str, keys: tuple[str, ...] = ()) -> tuple[dict[str, str], list[str]]:
    """Returns (header values, non-comment lines); checks the seal, then the format line.

    The seal comes first: a file whose bytes after the seal line are not
    the ones it was written with is refused before any of them is parsed.
    Header values are the ``key=value`` words of the comment lines after
    the format line. Every format has ``fingerprint`` and ``body`` and
    declares the rest as ``keys``: each must be there once, and any other
    key is refused, so a stray word is no part of a current file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    parts = raw.split(b"\n", 2)
    seal = _SEAL.fullmatch(parts[1]) if len(parts) == 3 else None
    if seal is None or int(seal[1], 16) != zlib.crc32(parts[2]):
        raise FileFormatError(f"{path}: missing or broken body seal; edited or damaged since it was written")
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: not a text artifact") from None
    if lines[0] != _format_line(tag):
        raise FileFormatError(f"{path}: missing '{_format_line(tag)}' header")
    words: list[tuple[str, str]] = []
    body: list[str] = []
    for line in lines[1:]:
        if line.startswith("#"):
            words += [tuple(word.split("=", 1)) for word in line[1:].split() if "=" in word]
        elif line.strip():
            body.append(line)
    header = _unique(path, words)
    keys = ("fingerprint", "body", *keys)
    for key in header:
        if key not in keys:
            raise FileFormatError(f"{path}: unknown header key {key!r}")
    for key in keys:
        if key not in header:
            raise FileFormatError(f"{path}: missing '# {key}=' header word")
    return header, body


def read_text(path, tag: str) -> tuple[list[str], str]:
    """(body lines, fingerprint) of a sealed format ``tag`` file whose body no stage parses."""
    header, body = _read_tagged_lines(path, tag)
    return body, header["fingerprint"]


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


# ------------------------------------------------- schedules and ground truth


def schedule_lines(schedule: Schedule) -> list[str]:
    lines = []
    for device in schedule.devices:
        if not device.intervals:
            lines.append(f"{device.device_id} . . .")  # placeholder keeps idle devices on file
        for start, end, mode in device.intervals:
            lines.append(f"{device.device_id} {_f(start)} {_f(end)} {mode}")
    return lines


def ground_truth_lines(counts: np.ndarray) -> list[str]:
    """One ``second count`` line per scenario second, from second 0."""
    return [f"{second} {int(count)}" for second, count in enumerate(counts)]


# ------------------------------------------------------------------ dataset


def write_dataset(path, dataset: FeatureDataset, fingerprint: str) -> None:
    spec = dataset.feature_spec
    lines = [
        f"# window_s={_f(dataset.window_s)} stride_s={_f(dataset.stride_s)} max_harmonic={THD_ORDERS[-1]}",
        "t_start_s," + ",".join(spec.features) + ",y,valid",
    ]
    # One template per row; "%.17g" renders a float exactly as _f does.
    row = "%.17g," * (1 + len(spec.features)) + "%d,%d"
    columns = zip(dataset.t_start_s.tolist(), dataset.X.tolist(), dataset.y.tolist(), dataset.valid.tolist())
    lines.extend(row % (t, *x, y, valid) for t, x, y, valid in columns)
    write_text(path, "dataset", fingerprint, lines)


def read_dataset(path) -> tuple[FeatureDataset, str]:
    meta, body = _read_tagged_lines(path, "dataset", ("window_s", "stride_s", "max_harmonic"))
    columns = (body or [""])[0].split(",")
    if columns[0] != "t_start_s" or columns[-2:] != ["y", "valid"]:
        raise FileFormatError(f"{path}: missing or bad dataset header row")
    # thd's highest order is fixed, and readers of the file use it; the grid frequency is the scenario's.
    if meta["max_harmonic"] != str(THD_ORDERS[-1]):
        raise FileFormatError(f"{path}: max_harmonic must be {THD_ORDERS[-1]}, not {meta['max_harmonic']}")
    try:
        spec = FeatureSpec(tuple(columns[1:-2]))
        window_s, stride_s = float(meta["window_s"]), float(meta["stride_s"])
    except ValueError as exc:
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


def write_model(path, params: RegressorParams, stats: NormStats, fingerprint: str) -> None:
    lines = ["format_version = 1"]
    lines.append("layer_sizes = " + " ".join(str(s) for s in params.layer_sizes))
    lines.append("input_features = " + " ".join(stats.input_feature_ids))
    lines.append("kept_indices = " + " ".join(str(i) for i in stats.kept_indices))
    lines.append("norm_mean = " + " ".join(_f(x) for x in stats.mean))
    lines.append("norm_std = " + " ".join(_f(x) for x in stats.std))
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        lines.append(f"W{layer} = " + " ".join(_f(x) for x in w.reshape(-1)))
        lines.append(f"b{layer} = " + " ".join(_f(x) for x in b))
    write_text(path, "model", fingerprint, lines)


def read_model(path) -> tuple[tuple[RegressorParams, NormStats], str]:
    """Returns ((network, normalization), fingerprint)."""
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
        params = RegressorParams(sizes, weights, biases)
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad model file ({exc})") from None
    known = {"format_version", "layer_sizes", "input_features", "kept_indices", "norm_mean", "norm_std"}
    unknown = set(values) - known - {f"{kind}{layer}" for kind in "Wb" for layer in range(len(sizes) - 1)}
    if unknown:
        raise FileFormatError(f"{path}: unknown model key(s): {', '.join(sorted(unknown))}")
    return (params, stats), header["fingerprint"]


# ------------------------------------------------------ report and residuals


def report_lines(entries: list[tuple[str, str]]) -> list[str]:
    """An ordered key = value report after its ``format_version = 1`` line."""
    return ["format_version = 1"] + [f"{key} = {value}" for key, value in entries]


def residual_lines(t_start_s, y_true, y_continuous, y_rounded) -> list[str]:
    """One CSV row per test window: truth, continuous and rounded prediction, rounded error."""
    lines = ["window_index,t_start_s,y_true,y_continuous,y_rounded,abs_error_rounded"]
    for k, (t, y, cont, rounded) in enumerate(zip(t_start_s, y_true, y_continuous, y_rounded)):
        lines.append(f"{k},{_f(t)},{int(y)},{_f(cont)},{int(rounded)},{abs(int(rounded) - int(y))}")
    return lines


# ------------------------------------------------------------------ ranking


def write_ranking(path, ranking: list[tuple[str, float]], fingerprint: str) -> None:
    write_text(path, "ranking", fingerprint, [f"{feature_id} {_f(score)}" for feature_id, score in ranking])


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
