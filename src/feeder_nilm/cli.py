"""Command-line pipeline: simulate, select-features, featurize, train, eval.

Every command takes ``--config <path>`` and ``--out <dir>`` (default from
FEEDER_NILM_OUT, then the config [output] section, then ./out). Exit
codes: 0 success, 2 configuration error, 3 I/O or file-format error,
4 contract violation (fingerprint or dimension mismatch).

Each stage's row in ``_STAGES`` declares the artifact files it writes, each
with its reader and writer; a stage reads another's artifact only under the
fingerprint of the stage that declares it, and writes its own under its own.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

# One BLAS thread whatever the environment says, set before numpy loads BLAS:
# no product here is large enough to use a second thread, whose idle OpenBLAS
# worker spins for about 0.1 s of CPU per process (a no-op pipeline rerun on
# desk_scale took 0.34 s CPU with two threads, 0.22 s with one, on 2 vCPUs;
# the artifacts are the same bytes). It takes effect only where numpy is not
# loaded yet: the console script, ``python -m feeder_nilm.cli`` or a fresh
# process that imports this module first. Importing the other modules leaves
# the environment alone.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np

from . import storage as st
from .evaluate import evaluate, median_count, report_from_predictions
from .featurize import (
    FeatureDataset,
    FeatureSpec,
    apply_normalization,
    featurize,
    fit_normalization,
    rank_features,
)
from .model import data_loss, init_params, train
from .simulate import generate_schedule, ground_truth_counts, synthesize_feeder
from .config import (
    ConfigError,
    RunConfig,
    dataset_fingerprint,
    load_library_for,
    load_run_config,
    model_fingerprint,
    scenario_fingerprint,
)
from .devices import DeviceModel, LibraryFormatError, characterization_vectors
from .signals import Waveform

__all__ = ["main", "ContractError", "chronological_split"]

Library = dict[str, DeviceModel]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CONTRACT = 4


class ContractError(RuntimeError):
    """An artifact does not match the current configuration (stale or foreign)."""


def chronological_split(n_windows: int, fractions: tuple[float, float, float]):
    """Contiguous train/val/test index ranges in time order."""
    n_train = int(n_windows * fractions[0])
    n_val = int(n_windows * fractions[1])
    return slice(0, n_train), slice(n_train, n_train + n_val), slice(n_train + n_val, n_windows)


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


# The artifact files, each named once: its writing stage's row in _STAGES declares its reader and writer.
VOLTAGE, CURRENT, SCHEDULE, TRUTH = "voltage.fnwv", "current.fnwv", "schedule.txt", "ground_truth.txt"
RANKING, DATASET, MODEL, REPORT, RESIDUALS = "ranking.txt", "dataset.csv", "model.txt", "report.txt", "residuals.csv"


# An artifact's (reader, writer): reader(path, config) -> (value, fingerprint), and
# writer(path, value, fingerprint). Each looks its storage function up on ``st`` at
# call time, so a tracer that rebinds it there reaches these calls.
def _waveform(channel: str) -> tuple[Callable, Callable]:
    return (lambda path, config: st.read_waveform(path, channel, config.scenario.sample_rate_hz),
            lambda path, waveform, fp: st.write_waveform(path, waveform, channel, fp))


def _text(tag: str, lines: Callable) -> tuple[Callable, Callable]:
    """A text file no stage parses: read by its envelope alone, under the tag its name must carry."""
    return (lambda path, config: st.read_text(path, tag),
            lambda path, value, fp: st.write_text(path, tag, fp, lines(value)))


def _writer_of(name: str) -> Stage:
    return next(stage for stage in _STAGES if name in stage.artifacts)


def _read_checked(config: RunConfig, library: Library, out: str, name: str):
    """Artifact ``name`` read from ``out`` by its reader; refused unless it carries its writing stage's fingerprint."""
    stage = _writer_of(name)
    path = os.path.join(out, name)
    value, found = stage.artifacts[name][0](path, config)
    if found != stage.fingerprint(config, library):
        raise ContractError(f"{path} was produced by a different configuration; re-run the upstream stage")
    return value


def _write(config: RunConfig, library: Library, out: str, values: dict) -> dict[str, str]:
    """Each artifact ``name: value`` of ``values`` written to ``out`` under its stage's fingerprint; their paths."""
    stage = _writer_of(next(iter(values)))
    fingerprint = stage.fingerprint(config, library)
    paths = {name: os.path.join(out, name) for name in values}
    for name, value in values.items():
        stage.artifacts[name][1](paths[name], value, fingerprint)
    return paths


# ------------------------------------------------------------------- stages


def stage_simulate(config: RunConfig, library: Library, out: str, quiet: bool) -> None:
    schedule = generate_schedule(config.scenario, library)
    voltage, current = synthesize_feeder(config.scenario, schedule, library)
    truth = ground_truth_counts(schedule, config.scenario)
    paths = _write(config, library, out, {VOLTAGE: voltage, CURRENT: current, SCHEDULE: schedule, TRUTH: truth})
    _say(quiet, f"simulate: {config.scenario.duration_s:g} s at {config.scenario.sample_rate_hz:g} Hz, "
                f"{len(schedule.devices)} devices ({config.scenario.n_medical_devices} medical), "
                f"current file {os.path.getsize(paths[CURRENT])} bytes")


def _resolve_features(config: RunConfig, library, out: str) -> FeatureSpec:
    spec = FeatureSpec(config.featurize.features)
    top_k = config.featurize.top_k
    if top_k <= 0:
        return spec
    try:
        ranking = _read_checked(config, library, out, RANKING)
    except FileNotFoundError as exc:
        raise ContractError(f"{exc.filename} is required when top_k is set; run select-features first") from None
    chosen = {fid for fid, _ in ranking[:top_k]}
    return FeatureSpec(tuple(fid for fid in spec.features if fid in chosen))


def stage_featurize(config: RunConfig, library: Library, out: str, quiet: bool) -> None:
    voltage = _read_checked(config, library, out, VOLTAGE)
    current = _read_checked(config, library, out, CURRENT)
    truth = ground_truth_counts(generate_schedule(config.scenario, library), config.scenario)

    spec = _resolve_features(config, library, out)
    dataset = featurize(
        voltage, current, truth, config.featurize.window_s, config.featurize.stride_s, spec, config.scenario.f0_hz
    )
    _write(config, library, out, {DATASET: dataset})
    _say(quiet, f"featurize: {dataset.n_windows} windows x {len(spec.features)} features "
                f"(window {config.featurize.window_s:g} s, stride {config.featurize.stride_s:g} s)")


def stage_select_features(config: RunConfig, library: Library, out: str, quiet: bool) -> None:
    spec = FeatureSpec(config.featurize.features)
    signatures = {
        class_name: characterization_vectors(library[class_name], spec, config.featurize.window_s, config.scenario)
        for class_name, count in config.scenario.populations()
        if count > 0
    }
    if len(signatures) < 2:
        raise ConfigError("feature selection needs at least two device classes in the scenario")
    ranking = rank_features(signatures, spec.features)
    _write(config, library, out, {RANKING: ranking})
    top = ", ".join(fid for fid, _ in ranking[:3])
    _say(quiet, f"select-features: ranked {len(ranking)} features, top: {top}")


def _split_rows(config: RunConfig, dataset: FeatureDataset):
    fractions = (config.split.train_fraction, config.split.val_fraction, config.split.test_fraction)
    train_idx, val_idx, test_idx = chronological_split(dataset.n_windows, fractions)
    splits = [dataset.rows(idx) for idx in (train_idx, val_idx, test_idx)]
    splits = [part.rows(part.valid) for part in splits]  # train/evaluate on valid windows only
    if any(part.n_windows == 0 for part in splits):
        raise ConfigError("a split has no valid windows; lengthen the scenario or adjust fractions")
    return splits


def stage_train(config: RunConfig, library: Library, out: str, quiet: bool) -> None:
    dataset = _read_checked(config, library, out, DATASET)
    train_part, val_part, _ = _split_rows(config, dataset)

    stats = fit_normalization(train_part.X, dataset.feature_spec.features)
    if not stats.kept_indices:
        raise ConfigError(f"every feature is constant on the training split: {', '.join(stats.input_feature_ids)}")
    dropped = [name for j, name in enumerate(stats.input_feature_ids) if j not in stats.kept_indices]
    if dropped:
        print(f"train: warning: dropping zero-variance features: {', '.join(dropped)}", file=sys.stderr)
    X_train = apply_normalization(train_part.X, stats)
    X_val = apply_normalization(val_part.X, stats)

    layer_sizes = (len(stats.kept_indices), *config.model.hidden_layers, 1)
    params = init_params(layer_sizes, config.model.init_seed)
    initial_val = data_loss(params, X_val, val_part.y)
    params, history = train(params, (X_train, train_part.y), (X_val, val_part.y), config.model.train)
    _write(config, library, out, {MODEL: (params, stats)})
    # train keeps the initial parameters unless an epoch's validation loss beats theirs.
    best_val = min(h[2] for h in history)
    if not best_val < initial_val:
        best_val = initial_val
        print(f"train: warning: no epoch improved on the initial parameters' val loss {initial_val:.4g}; "
              f"{MODEL} holds the initial parameters", file=sys.stderr)
    last_epoch, train_obj, _ = history[-1]
    _say(quiet, f"train: {last_epoch + 1} epochs on {train_part.n_windows} windows, "
                f"final train objective {train_obj:.4g}, best val loss {best_val:.4g}")


def stage_eval(config: RunConfig, library: Library, out: str, quiet: bool) -> None:
    dataset = _read_checked(config, library, out, DATASET)
    params, stats = _read_checked(config, library, out, MODEL)
    if stats.input_feature_ids != dataset.feature_spec.features:
        raise ContractError(f"{MODEL} feature layout does not match {DATASET}")

    train_part, _, test_part = _split_rows(config, dataset)
    report = evaluate(params, stats, test_part)
    constant = median_count(train_part.y)
    baseline = report_from_predictions(np.full(test_part.n_windows, constant, dtype=np.float64), test_part.y)

    headline = [("n_test_windows", report.n_test_windows), ("mae_continuous", report.mae_continuous),
                ("mae_rounded", report.mae_rounded), ("exact_count_accuracy", report.exact_count_accuracy),
                ("baseline_constant", constant), ("baseline_mae_rounded", baseline.mae_rounded),
                ("baseline_exact_count_accuracy", baseline.exact_count_accuracy)]
    entries = [(key, format(value, ".17g")) for key, value in headline]
    entries += [(f"count_{count}", f"{n} {format(err, '.17g')}") for count, n, err in report.per_count]
    residuals = (test_part.t_start_s, test_part.y, report.continuous, report.rounded)
    _write(config, library, out, {REPORT: entries, RESIDUALS: residuals})
    _say(quiet, f"eval: rounded MAE {report.mae_rounded:.4g} (baseline {baseline.mae_rounded:.4g}), "
                f"exact-count accuracy {report.exact_count_accuracy:.1%} on {report.n_test_windows} test windows")


class Stage(NamedTuple):
    """A subcommand, the fingerprint its artifacts carry, and each artifact file it writes with its (reader, writer)."""

    name: str
    run: Callable[[RunConfig, Library, str, bool], None]
    fingerprint: Callable
    artifacts: dict[str, tuple[Callable, Callable]]
    help: str


# The stages in pipeline order: a plain module-level tuple, so a tracer that
# rebinds the stage and fingerprint functions here reaches the ones `pipeline`,
# `main` and every artifact read and write run.
_STAGES = (
    Stage("simulate", stage_simulate, scenario_fingerprint,
          {VOLTAGE: _waveform("VOLT"), CURRENT: _waveform("CURR"),
           SCHEDULE: _text("schedule", lambda schedule: st.schedule_lines(schedule)),
           TRUTH: _text("ground-truth", lambda counts: st.ground_truth_lines(counts))},
          "synthesize waveforms, schedule, and ground truth"),
    Stage("select-features", stage_select_features, dataset_fingerprint,
          {RANKING: (lambda path, config: st.read_ranking(path, config.featurize.features),
                     lambda path, ranking, fp: st.write_ranking(path, ranking, fp))},
          "rank features by Fisher score over class signatures"),
    Stage("featurize", stage_featurize, dataset_fingerprint,
          {DATASET: (lambda path, config: st.read_dataset(path),
                     lambda path, dataset, fp: st.write_dataset(path, dataset, fp))},
          "window the waveforms into a feature dataset"),
    Stage("train", stage_train, model_fingerprint,
          {MODEL: (lambda path, config: st.read_model(path), lambda path, model, fp: st.write_model(path, *model, fp))},
          "fit the count regressor on the dataset"),
    Stage("eval", stage_eval, model_fingerprint,
          {REPORT: _text("report", lambda entries: st.report_lines(entries)),
           RESIDUALS: _text("residuals", lambda columns: st.residual_lines(*columns))},
          "evaluate the trained model and write the report"),
)


def _stage_current(config: RunConfig, library: Library, out: str, stage: Stage) -> bool:
    """Whether every artifact file ``stage`` writes to ``out`` is current; nothing is written.

    A file is current when it passes its reader and carries the stage's
    fingerprint; a text file's reader checks its seal first, and a
    waveform's every sample is read, and checked, too. A missing file is
    stale before any file is read.
    """
    paths = {name: os.path.join(out, name) for name in stage.artifacts}
    if not all(map(os.path.isfile, paths.values())):
        return False
    expected = stage.fingerprint(config, library)
    try:
        for name, (read, _) in stage.artifacts.items():
            value, found = read(paths[name], config)
            if found != expected:
                return False
            if isinstance(value, Waveform):
                value.skip(value.n_samples)
    except (st.FileFormatError, OSError):
        return False
    return True


def stage_pipeline(config: RunConfig, library: Library, out: str, quiet: bool) -> None:
    """Run all stages in order, skipping stages whose artifacts are current."""
    n_classes = sum(1 for _, count in config.scenario.populations() if count > 0)
    for stage in _STAGES:
        if stage.name == "select-features" and n_classes < 2 and config.featurize.top_k == 0:
            _say(quiet, f"{stage.name}: skipped (single device class, top_k unset)")
            continue
        if _stage_current(config, library, out, stage):
            _say(quiet, f"{stage.name}: up to date")
            continue
        stage.run(config, library, out, quiet)


# --------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feeder-nilm",
        description="Simulate feeder waveforms, extract window features, and train a device-count regressor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(stage.name, stage.help) for stage in _STAGES] + [("pipeline", "run all stages in order")]
    for name, help_text in commands:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="run configuration file")
        cmd.add_argument("--out", default=None, help="output directory (default: $FEEDER_NILM_OUT or ./out)")
        cmd.add_argument("--seed", type=int, default=None, help="override the scenario rng_seed")
        cmd.add_argument("--quiet", action="store_true", help="suppress per-stage summaries")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config)
        if args.seed is not None:
            config = config.with_seed(args.seed)
        out = args.out or os.environ.get("FEEDER_NILM_OUT") or config.output_dir or "out"
        os.makedirs(out, exist_ok=True)
        runners = {stage.name: stage.run for stage in _STAGES}
        runners["pipeline"] = stage_pipeline
        runners[args.command](config, load_library_for(config), out, args.quiet)
    except (ConfigError, LibraryFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except st.FileFormatError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
