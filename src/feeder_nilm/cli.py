"""Command-line pipeline: simulate, select-features, featurize, train, eval.

Every command takes ``--config <path>`` and ``--out <dir>`` (default from
FEEDER_NILM_OUT, then the config [output] section, then ./out). Exit
codes: 0 success, 2 configuration error, 3 I/O or file-format error,
4 contract violation (fingerprint or dimension mismatch).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, NamedTuple

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
from .model import init_params, train
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


# Every artifact file and the reader its consumer uses: (path, config, library) ->
# (value, fingerprint). The readers are looked up on ``st`` at call time, so a
# tracer that rebinds them there reaches these calls.
_READERS: dict[str, Callable] = {
    "voltage.fnwv": lambda path, config, library: st.read_waveform(path, "VOLT", config.scenario.sample_rate_hz),
    "current.fnwv": lambda path, config, library: st.read_waveform(path, "CURR", config.scenario.sample_rate_hz),
    "schedule.txt": lambda path, config, library: st.read_schedule(path, library),
    "ground_truth.txt": lambda path, config, library: st.read_ground_truth(path, math.ceil(config.scenario.duration_s)),
    "ranking.txt": lambda path, config, library: st.read_ranking(path, config.feature_spec().features),
    "dataset.csv": lambda path, config, library: st.read_dataset(path),
    "model.txt": lambda path, config, library: st.read_model(path),
    "report.txt": lambda path, config, library: st.read_report_lines(path),
    "residuals.csv": lambda path, config, library: st.read_residuals(path),
}


def _read_checked(config: RunConfig, library: Library, out: str, name: str, expected: str):
    """Artifact file ``name`` read from ``out`` by its reader; refused unless it carries the ``expected`` fingerprint."""
    path = os.path.join(out, name)
    value, found = _READERS[name](path, config, library)
    if found != expected:
        raise ContractError(f"{path} was produced by a different configuration; re-run the upstream stage")
    return value


# ------------------------------------------------------------------- stages


def stage_simulate(config: RunConfig, library: Library, out: str, quiet: bool) -> None:
    fp = scenario_fingerprint(config, library)
    schedule = generate_schedule(config.scenario, library)
    truth = ground_truth_counts(schedule, config.scenario)
    voltage, current = synthesize_feeder(config.scenario, schedule, library)

    os.makedirs(out, exist_ok=True)
    st.write_waveform(os.path.join(out, "voltage.fnwv"), voltage, "VOLT", fp)
    st.write_waveform(os.path.join(out, "current.fnwv"), current, "CURR", fp)
    st.write_schedule(os.path.join(out, "schedule.txt"), schedule, fp)
    st.write_ground_truth(os.path.join(out, "ground_truth.txt"), truth, fp)

    n_devices = len(schedule.devices)
    _say(
        quiet,
        f"simulate: {config.scenario.duration_s:g} s at {config.scenario.sample_rate_hz:g} Hz, "
        f"{n_devices} devices ({config.scenario.n_medical_devices} medical), "
        f"current file {os.path.getsize(os.path.join(out, 'current.fnwv'))} bytes",
    )


def _resolve_features(config: RunConfig, library, out: str) -> FeatureSpec:
    spec = config.feature_spec()
    top_k = config.featurize.top_k
    if top_k <= 0:
        return spec
    ranking_path = os.path.join(out, "ranking.txt")
    if not os.path.exists(ranking_path):
        raise ContractError(f"{ranking_path} is required when top_k is set; run select-features first")
    ranking = _read_checked(config, library, out, "ranking.txt", dataset_fingerprint(config, library))
    chosen = {fid for fid, _ in ranking[:top_k]}
    kept = tuple(fid for fid in spec.features if fid in chosen)
    return FeatureSpec(kept, spec.f0_hz)


def stage_featurize(config: RunConfig, library: Library, out: str, quiet: bool) -> None:
    scenario_fp = scenario_fingerprint(config, library)
    voltage = _read_checked(config, library, out, "voltage.fnwv", scenario_fp)
    current = _read_checked(config, library, out, "current.fnwv", scenario_fp)
    truth = _read_checked(config, library, out, "ground_truth.txt", scenario_fp)

    spec = _resolve_features(config, library, out)
    dataset = featurize(
        voltage, current, truth, config.featurize.window_s, config.featurize.stride_s, spec
    )
    st.write_dataset(os.path.join(out, "dataset.csv"), dataset, dataset_fingerprint(config, library))
    _say(
        quiet,
        f"featurize: {dataset.n_windows} windows x {len(spec.features)} features "
        f"(window {config.featurize.window_s:g} s, stride {config.featurize.stride_s:g} s)",
    )


def stage_select_features(config: RunConfig, library: Library, out: str, quiet: bool) -> None:
    spec = config.feature_spec()
    signatures = {
        class_name: characterization_vectors(library[class_name], spec, config.featurize.window_s, config.scenario)
        for class_name, count in config.scenario.populations()
        if count > 0
    }
    if len(signatures) < 2:
        raise ConfigError("feature selection needs at least two device classes in the scenario")
    ranking = rank_features(signatures, spec.features)
    os.makedirs(out, exist_ok=True)
    st.write_ranking(os.path.join(out, "ranking.txt"), ranking, dataset_fingerprint(config, library))
    top = ", ".join(fid for fid, _ in ranking[:3])
    _say(quiet, f"select-features: ranked {len(ranking)} features, top: {top}")


def _split_rows(config: RunConfig, dataset: FeatureDataset):
    fractions = (
        config.split.train_fraction,
        config.split.val_fraction,
        config.split.test_fraction,
    )
    train_idx, val_idx, test_idx = chronological_split(dataset.n_windows, fractions)
    splits = [dataset.rows(idx) for idx in (train_idx, val_idx, test_idx)]
    splits = [part.rows(part.valid) for part in splits]  # train/evaluate on valid windows only
    if any(part.n_windows == 0 for part in splits):
        raise ConfigError("a split has no valid windows; lengthen the scenario or adjust fractions")
    return splits


def stage_train(config: RunConfig, library: Library, out: str, quiet: bool) -> None:
    dataset = _read_checked(config, library, out, "dataset.csv", dataset_fingerprint(config, library))
    train_part, val_part, _ = _split_rows(config, dataset)

    stats = fit_normalization(train_part.X, dataset.feature_spec.features)
    X_train = apply_normalization(train_part.X, stats)
    X_val = apply_normalization(val_part.X, stats)

    layer_sizes = (len(stats.kept_indices), *config.model.hidden_layers, 1)
    params = init_params(layer_sizes, config.model.init_seed, norm_stats=stats)
    params, history = train(
        params, (X_train, train_part.y), (X_val, val_part.y), config.model.train
    )
    st.write_model(os.path.join(out, "model.txt"), params, model_fingerprint(config, library))
    last_epoch, train_obj, _ = history[-1]
    _say(
        quiet,
        f"train: {last_epoch + 1} epochs on {train_part.n_windows} windows, "
        f"final train objective {train_obj:.4g}, best val loss {min(h[2] for h in history):.4g}",
    )


def stage_eval(config: RunConfig, library: Library, out: str, quiet: bool) -> None:
    dataset = _read_checked(config, library, out, "dataset.csv", dataset_fingerprint(config, library))
    expected_fp = model_fingerprint(config, library)
    params = _read_checked(config, library, out, "model.txt", expected_fp)
    if params.norm_stats is None or params.norm_stats.input_feature_ids != dataset.feature_spec.features:
        raise ContractError("model.txt feature layout does not match dataset.csv")

    train_part, _, test_part = _split_rows(config, dataset)
    report = evaluate(params, test_part)
    constant = median_count(train_part.y)
    baseline = report_from_predictions(np.full(test_part.n_windows, constant, dtype=np.float64), test_part.y)

    entries: list[tuple[str, str]] = [
        ("n_test_windows", str(report.n_test_windows)),
        ("mae_continuous", format(report.mae_continuous, ".17g")),
        ("mae_rounded", format(report.mae_rounded, ".17g")),
        ("exact_count_accuracy", format(report.exact_count_accuracy, ".17g")),
        ("baseline_constant", str(constant)),
        ("baseline_mae_rounded", format(baseline.mae_rounded, ".17g")),
        ("baseline_exact_count_accuracy", format(baseline.exact_count_accuracy, ".17g")),
    ]
    for count, n, err in report.per_count:
        entries.append((f"count_{count}", f"{n} {format(err, '.17g')}"))
    st.write_report_lines(os.path.join(out, "report.txt"), entries, expected_fp)

    st.write_residuals(
        os.path.join(out, "residuals.csv"),
        test_part.t_start_s,
        test_part.y,
        report.continuous,
        report.rounded,
        expected_fp,
    )
    _say(
        quiet,
        f"eval: rounded MAE {report.mae_rounded:.4g} (baseline {baseline.mae_rounded:.4g}), "
        f"exact-count accuracy {report.exact_count_accuracy:.1%} on {report.n_test_windows} test windows",
    )


class Stage(NamedTuple):
    """A subcommand and the artifact files it writes."""

    name: str
    run: Callable[[RunConfig, Library, str, bool], None]
    fingerprint: Callable
    artifacts: tuple[str, ...]
    help: str


# The stages in pipeline order: a plain module-level tuple, so a tracer that
# rebinds the stage functions here reaches the ones `pipeline` and `main` run.
_STAGES = (
    Stage("simulate", stage_simulate, scenario_fingerprint,
          ("voltage.fnwv", "current.fnwv", "schedule.txt", "ground_truth.txt"),
          "synthesize waveforms, schedule, and ground truth"),
    Stage("select-features", stage_select_features, dataset_fingerprint, ("ranking.txt",),
          "rank features by Fisher score over class signatures"),
    Stage("featurize", stage_featurize, dataset_fingerprint, ("dataset.csv",),
          "window the waveforms into a feature dataset"),
    Stage("train", stage_train, model_fingerprint, ("model.txt",), "fit the count regressor on the dataset"),
    Stage("eval", stage_eval, model_fingerprint, ("report.txt", "residuals.csv"),
          "evaluate the trained model and write the report"),
)


def _artifact_current(config: RunConfig, library: Library, out: str, name: str, expected_fp: str) -> bool:
    """Whether artifact file ``name`` passes the reader its consumer uses and carries ``expected_fp``.

    A waveform's every sample is read, and checked, too.
    """
    try:
        value = _read_checked(config, library, out, name, expected_fp)
        if isinstance(value, Waveform):
            value.skip(value.n_samples)
    except (st.FileFormatError, OSError, ContractError):
        return False
    return True


def stage_pipeline(config: RunConfig, library: Library, out: str, quiet: bool) -> None:
    """Run all stages in order, skipping stages whose artifacts are current."""
    n_classes = sum(1 for _, count in config.scenario.populations() if count > 0)
    for stage in _STAGES:
        if stage.name == "select-features" and n_classes < 2 and config.featurize.top_k == 0:
            _say(quiet, f"{stage.name}: skipped (single device class, top_k unset)")
            continue
        expected = stage.fingerprint(config, library)
        if all(_artifact_current(config, library, out, name, expected) for name in stage.artifacts):
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
