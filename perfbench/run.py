"""Desk-scale benchmark of the feeder-nilm pipeline, timed from outside.

    python3 perfbench/run.py --workload desk_cold --seed 27 --seconds 26 --trace 0

Run it from any directory of a source checkout; the program is imported
from the checkout's ``src``. Each workload runs the real command line
(``feeder_nilm.cli.main``, what the ``feeder-nilm`` script calls) in fresh
child processes, one at a time: a closed loop with one client, as users
run the batch pipeline. Children start with the BLAS/OpenMP thread count
set to ``nproc``, the default users get. The seed is the scenario seed,
passed to the CLI as ``--seed``; without one the config's own ``rng_seed``
(27) is used. ``--workload all`` runs the three workloads in turn.

Workloads (the config is the frozen ``configs/desk_scale.cfg``):

- ``desk_cold``: ``pipeline`` into an empty directory, always at the
  config's own seed (see DeskCold). The only workload that synthesizes,
  writes waveforms and trains.
  Check: ``mae_rounded`` < ``baseline_mae_rounded`` in ``report.txt``.
- ``desk_features``: ``select-features`` then ``featurize`` on the
  simulate artifacts of ``desk_cold`` (prepared untimed), with a copy of
  the config whose only change is ``stride_s = 0.25`` (2381 windows instead
  of 477): the loop of a user tuning ``[featurize]``.
  Check: the window count is floor((duration - window_s) / stride_s) + 1
  and a fixed sample of windows, recomputed here with the scalar
  ``signals`` functions, agrees within ORACLE_RTOL / ORACLE_ATOL.
- ``desk_noop``: ``pipeline`` again on a current output directory
  (prepared untimed), so every stage is skipped: the rerun after an edit.
  Check: every artifact keeps its bytes and modification time.

End-to-end metrics, with tracing off: ``wall_s`` and ``cpu_s`` (user+sys
from ``wait4``) of one iteration's CLI invocations, ``peak_rss_mb`` (the
largest child max-RSS) and ``setup_s`` (a child that only imports the
CLI and loads the config and device library, repeated SETUP_REPEATS
times), each the median over the run. The report also gives
``test_mae_rounded`` (``desk_cold``) and ``error_rate``.

With ``--trace 1`` traced and untraced iterations alternate; the traced
ones wrap each module's public functions in spans (see instrument.py) and
report the per-layer metrics of spans.py, medians over the traced
iterations, plus ``trace.overhead_s``: traced minus untraced median wall.
A traced iteration fails if a span expected on the workload never fires.

Lines before the last describe the run; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from typing import NamedTuple

from spans import LAYER_METRICS, layer_metrics, missing_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DESK_CONFIG = os.path.join(ROOT, "configs", "desk_scale.cfg")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 60.0
FEATURES_STRIDE_S = "0.25"
ORACLE_WINDOWS = 8
# Tolerance, not byte equality: a vectorized featurizer sums in another order.
ORACLE_RTOL = 1e-9
ORACLE_ATOL = 1e-9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ARTIFACT_FILES = (
    "voltage.fnwv",
    "current.fnwv",
    "schedule.txt",
    "ground_truth.txt",
    "ranking.txt",
    "dataset.csv",
    "model.txt",
    "report.txt",
    "residuals.csv",
)
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(RuntimeError):
    """The benchmark cannot run here: no checkout, or preparation failed."""


class Child(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None


class Sample(NamedTuple):
    """One iteration of a workload: one or more CLI invocations."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None
    spans: list | None = None
    mae: float | None = None


class Bench:
    """Starts children with a fixed environment and keeps their logs in ``work``."""

    def __init__(self, work: str, threads: int):
        self.work = work
        self.env = {**os.environ, **{var: str(threads) for var in THREAD_VARS}}
        self._n = 0

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def _run(self, argv: list[str]) -> Child:
        self._n += 1
        log_path = self.path(f"child-{self._n}.log")
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        error = None
        if code != 0:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:].strip()
            error = f"{' '.join(argv[2:])}: exit {code}: {tail}"
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, error)

    def cli(self, *args: str, seed: int | None = None, trace: str | None = None) -> Child:
        argv = [sys.executable, os.path.join(HERE, "child.py"), "cli"]
        if trace:
            argv += ["--trace", trace]
        argv += ["--", *args, "--quiet"]
        if seed is not None:
            argv += ["--seed", str(seed)]
        return self._run(argv)

    def setup(self, config: str) -> Child:
        return self._run([sys.executable, os.path.join(HERE, "child.py"), "setup", config])

    def invoke(self, runs: list[tuple[str, ...]], seed: int | None, trace: bool) -> Sample:
        """Run CLI invocations in order, stopping at the first that fails."""
        children, spans = [], []
        for k, args in enumerate(runs):
            trace_path = self.path(f"spans-{k}.json") if trace else None
            child = self.cli(*args, seed=seed, trace=trace_path)
            children.append(child)
            if child.error:
                break
            if trace_path:
                spans += _load_spans(trace_path, offset=len(spans))
        return Sample(
            sum(c.wall_s for c in children),
            sum(c.cpu_s for c in children),
            max(c.rss_mb for c in children),
            next((c.error for c in children if c.error), None),
            spans if trace else None,
        )

    def checked(self, sample: Sample, check) -> Sample:
        """``sample`` failed by ``check()`` (an error or None) if it ran."""
        return sample if sample.error else sample._replace(error=check())


def _load_spans(path: str, offset: int) -> list:
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)
    os.remove(path)
    for span in spans:
        if span[3] >= 0:
            span[3] += offset
    return spans


def _report_values(out: str) -> dict[str, str]:
    values = {}
    with open(os.path.join(out, "report.txt"), encoding="utf-8") as fh:
        for line in fh:
            if "=" in line and not line.startswith("#"):
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    return values


def check_report(out: str) -> tuple[str | None, float | None]:
    """(error or None, mae_rounded): the model must beat the median baseline."""
    try:
        values = _report_values(out)
        mae, baseline = float(values["mae_rounded"]), float(values["baseline_mae_rounded"])
    except (OSError, KeyError, ValueError) as exc:
        return f"report.txt unreadable: {exc!r}", None
    if not mae < baseline:
        return f"mae_rounded {mae} does not beat baseline_mae_rounded {baseline}", mae
    return None, mae


# ---------------------------------------------------------------- workloads


class DeskCold:
    """The frozen headline experiment. Its scenario keeps the config's own
    rng_seed whatever the benchmark seed: training length depends on the
    data (1538, 319 and 735 epochs on seeds 1, 2 and 4) and peak memory on the
    schedule, so another scenario per run would measure the seed, not the
    code."""

    required = (
        "cli.stage_pipeline", "cli.stage_simulate", "cli.stage_select_features",
        "cli.stage_featurize", "cli.stage_train", "cli.stage_eval",
        "config.load_run_config", "config.load_library_for", "config.scenario_fingerprint",
        "simulate.synthesize_feeder", "devices.mode_current_samples",
        "devices.characterization_vectors", "signals.fundamental_phasor",
        "featurize.featurize", "featurize.evaluate_window", "model.train",
        "model.loss_and_gradient", "evaluate.evaluate", "storage.read_waveform",
        "storage.write_waveform", "storage.text.",
    )
    forbidden = ()

    def __init__(self, bench: Bench, seed: int | None):
        self.bench = bench
        self.config = DESK_CONFIG
        self.out = bench.path("cold")

    def prepare(self) -> None:
        pass

    def iterate(self, trace: bool) -> Sample:
        shutil.rmtree(self.out, ignore_errors=True)
        sample = self.bench.invoke([("pipeline", "--config", self.config, "--out", self.out)], None, trace)
        if sample.error:
            return sample
        error, mae = check_report(self.out)
        return sample._replace(error=error, mae=mae)


class DeskFeatures:
    required = (
        "cli.stage_select_features", "cli.stage_featurize", "config.load_run_config",
        "config.load_library_for", "config.dataset_fingerprint",
        "devices.characterization_vectors", "devices.mode_current_samples",
        "signals.fundamental_phasor", "featurize.featurize", "featurize.evaluate_window",
        "storage.read_waveform", "storage.text.",
    )
    forbidden = ("simulate.synthesize_feeder", "model.train", "evaluate.evaluate", "storage.write_waveform")

    def __init__(self, bench: Bench, seed: int | None):
        self.bench = bench
        self.seed = seed
        self.config = bench.path("desk_features.cfg")
        self.out = bench.path("features")

    def prepare(self) -> None:
        with open(DESK_CONFIG, encoding="utf-8") as fh:
            text, n = re.subn(r"(?m)^stride_s\s*=.*$", f"stride_s = {FEATURES_STRIDE_S}", fh.read())
        if n != 1:
            raise BenchError(f"{DESK_CONFIG}: expected one stride_s line, found {n}")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(text)
        child = self.bench.cli("simulate", "--config", DESK_CONFIG, "--out", self.out, seed=self.seed)
        # One untimed iteration: the first run after 96 MB of fresh writes stalls.
        error = child.error or self.iterate(False).error
        if error:
            raise BenchError(f"preparing desk_features: {error}")

    def iterate(self, trace: bool) -> Sample:
        runs = [(stage, "--config", self.config, "--out", self.out) for stage in ("select-features", "featurize")]
        return self.bench.checked(self.bench.invoke(runs, self.seed, trace), self.check)

    def check(self) -> str | None:
        cfg = configparser.ConfigParser()
        cfg.read(self.config, encoding="utf-8")
        duration = cfg.getfloat("scenario", "duration_s")
        window_s = cfg.getfloat("featurize", "window_s")
        stride_s = cfg.getfloat("featurize", "stride_s")
        expected = math.floor((duration - window_s) / stride_s) + 1
        meta, features, rows = _read_dataset(os.path.join(self.out, "dataset.csv"))
        if len(rows) != expected:
            return f"dataset.csv has {len(rows)} windows, expected {expected}"
        return _oracle_check(self.out, meta, features, rows, cfg.getfloat("scenario", "f0_hz"))


class DeskNoop:
    required = ("cli.stage_pipeline", "config.load_run_config", "config.load_library_for",
                "storage.read_waveform", "storage.text.")
    forbidden = ("cli.stage_simulate", "cli.stage_select_features", "cli.stage_featurize",
                 "cli.stage_train", "cli.stage_eval", "storage.write_waveform")

    def __init__(self, bench: Bench, seed: int | None):
        self.bench = bench
        self.seed = seed
        self.config = DESK_CONFIG
        self.out = bench.path("noop")
        self.snapshot: dict = {}

    def prepare(self) -> None:
        # No MAE check here: this workload measures reruns, not the model.
        child = self.bench.cli("pipeline", "--config", self.config, "--out", self.out, seed=self.seed)
        self.snapshot = _snapshot(self.out)
        missing = [name for name, state in self.snapshot.items() if state is None]
        error = child.error or (f"no {missing}" if missing else None) or self.iterate(False).error
        if error:
            raise BenchError(f"preparing desk_noop: {error}")

    def iterate(self, trace: bool) -> Sample:
        sample = self.bench.invoke([("pipeline", "--config", self.config, "--out", self.out)], self.seed, trace)
        return self.bench.checked(sample, self.check)

    def check(self) -> str | None:
        now = _snapshot(self.out)
        changed = [name for name in self.snapshot if now.get(name) != self.snapshot[name]]
        return f"artifacts changed by a no-op run: {changed}" if changed else None


WORKLOADS = {"desk_cold": DeskCold, "desk_features": DeskFeatures, "desk_noop": DeskNoop}


def _snapshot(out: str) -> dict[str, tuple[str, int] | None]:
    """(sha256, mtime) of every artifact, None for one that is missing."""
    state = {}
    for name in ARTIFACT_FILES:
        path = os.path.join(out, name)
        digest = hashlib.sha256()
        try:
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            state[name] = (digest.hexdigest(), os.stat(path).st_mtime_ns)
        except FileNotFoundError:
            state[name] = None
    return state


# ------------------------------------------------------------ output oracle


def _read_dataset(path: str):
    """(metadata, feature ids, rows of strings) of a dataset.csv."""
    meta, header, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# window_s="):
                meta = dict(part.split("=", 1) for part in line[2:].split())
            elif not line or line.startswith("#"):
                continue
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header[1:-2], rows


def _read_samples(path: str):
    import numpy as np

    with open(path, "rb") as fh:
        _, _, rate, _, count = struct.unpack("<4sIddQ", fh.read(32))
    return np.memmap(path, dtype="<f8", mode="r", offset=64, shape=(count,)), rate


def _oracle_feature(name: str, v, i, f0: float, fs: float, max_harmonic: int) -> float:
    from feeder_nilm import signals

    if name == "i_rms":
        return signals.rms(i)
    if name == "i_form_factor":
        return signals.form_factor(i)
    if name == "i_crest_factor":
        return signals.crest_factor(i)
    if name == "phase_shift":
        return signals.phase_shift(v, i, f0, fs)
    if name == "active_power":
        return signals.active_reactive_power(v, i, f0, fs)[0]
    if name == "reactive_power":
        return signals.active_reactive_power(v, i, f0, fs)[1]
    if name == "thd":
        return signals.thd(i, f0, fs, max_harmonic)
    return signals.harmonic_magnitude(i, int(name[1:]), f0, fs)


def _oracle_check(out: str, meta: dict, features: list[str], rows: list, f0: float) -> str | None:
    """Recompute a fixed sample of windows with the scalar signal functions."""
    import numpy as np
    from feeder_nilm.signals import UndefinedFeatureError

    voltage, fs = _read_samples(os.path.join(out, "voltage.fnwv"))
    current, _ = _read_samples(os.path.join(out, "current.fnwv"))
    window = int(round(float(meta["window_s"]) * fs))
    stride = int(round(float(meta["stride_s"]) * fs))
    max_harmonic = int(meta["max_harmonic"])
    n = len(rows)
    for k in sorted({round(j * (n - 1) / (ORACLE_WINDOWS - 1)) for j in range(ORACLE_WINDOWS)}):
        v = np.array(voltage[k * stride : k * stride + window])
        i = np.array(current[k * stride : k * stride + window])
        valid = True
        for col, name in enumerate(features):
            try:
                want = _oracle_feature(name, v, i, f0, fs, max_harmonic)
            except UndefinedFeatureError:
                want, valid = 0.0, False
            got = float(rows[k][1 + col])
            if not math.isclose(got, want, rel_tol=ORACLE_RTOL, abs_tol=ORACLE_ATOL):
                return f"window {k} feature {name}: dataset {got!r}, oracle {want!r}"
        if bool(int(rows[k][-1])) != valid:
            return f"window {k}: valid flag {rows[k][-1]}, oracle {int(valid)}"
    return None


# ----------------------------------------------------------------- report


def environment(threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _line(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"# {name:<36} n/a"
    return (
        f"# {name:<36} {statistics.median(values):12.6g} {unit:<6} median of n={len(values)}: "
        + " ".join(f"{v:.4g}" for v in values)
    )


def run(workload_name: str, seed: int | None, seconds: float, trace: bool) -> dict:
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)

    work = os.path.join(WORK_ROOT, f"{workload_name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        bench = Bench(work, threads)
        workload = WORKLOADS[workload_name](bench, seed)
        workload.prepare()
        setups = [] if trace else [bench.setup(workload.config) for _ in range(SETUP_REPEATS)]
        failed_setup = next((c.error for c in setups if c.error), None)
        if failed_setup:
            raise BenchError(f"setup child failed: {failed_setup}")

        plain: list[Sample] = []
        traced: list[Sample] = []
        start = time.perf_counter()
        while not (time.perf_counter() - start >= seconds and (traced or not trace)):
            with_spans = trace and len(plain) > len(traced)
            sample = workload.iterate(with_spans)
            if with_spans and not sample.error:
                problems = missing_spans(sample.spans, workload.required, workload.forbidden)
                if problems:
                    sample = sample._replace(error="span coverage: " + "; ".join(problems))
            (traced if with_spans else plain).append(sample)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = plain + traced
    failures = [s.error for s in samples if s.error]
    ok = [s for s in plain if not s.error]
    ok_traced = [s for s in traced if not s.error]
    if not ok or (trace and not ok_traced):
        raise BenchError(f"every iteration failed; first failure: {failures[0]}")

    print(f"# perfbench {workload_name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("# env " + json.dumps(environment(threads)))
    for error in failures:
        print(f"# FAILED: {error}")
    series = {
        "wall_s": [s.wall_s for s in ok],
        "cpu_s": [s.cpu_s for s in ok],
        "peak_rss_mb": [s.rss_mb for s in ok],
        "setup_s": [c.wall_s for c in setups],
    }
    for name, unit in END_TO_END:
        print(_line(name, series[name], unit))
    print(_line("test_mae_rounded", [s.mae for s in ok if s.mae is not None], "count"))
    print(f"# {'error_rate':<36} {len(failures) / len(samples):12.6g} ratio  {len(failures)} failed of {len(samples)} attempted")

    if trace:
        untraced_wall = statistics.median(series["wall_s"])
        per_layer = [
            {**layer_metrics(s.spans), "trace.overhead_s": s.wall_s - untraced_wall} for s in ok_traced
        ]
        print(_line("traced wall_s", [s.wall_s for s in ok_traced], "s"))
        series = {name: [m[name] for m in per_layer] for name, _, _ in LAYER_METRICS}
        units = [(name, unit) for name, unit, _ in LAYER_METRICS]
        for name, unit in units:
            print(_line(name, series[name], unit))
    else:
        units = END_TO_END
    metrics = {name: {"value": statistics.median(series[name]), "unit": unit} for name, unit in units}
    return {"correct": not failures, "attempted": len(samples), "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="scenario seed (default: the config's rng_seed)")
    parser.add_argument("--seconds", type=float, default=26.0, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (os.path.isfile(os.path.join(SRC, "feeder_nilm", "cli.py")) and os.path.isfile(DESK_CONFIG)):
        print(f"perfbench: no feeder-nilm checkout at {ROOT} (need src/feeder_nilm and configs/)", file=sys.stderr)
        return 2
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            result = run(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
