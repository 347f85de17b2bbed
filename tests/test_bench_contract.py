"""The names the benchmark's tracer wraps must exist in the program.

``perfbench/instrument.py`` wraps the functions it lists in ``TRACED`` and
every ``storage`` callable whose name matches ``_TEXT_IO``; the storage
wrapper records the size of the file named by the first argument. A
renamed stage or a path-less ``_read_*`` helper breaks only a traced
benchmark run, so these checks keep that contract in the tier-1 suite.

A traced benchmark iteration also fails when a span its workload requires
never fires, or a forbidden one does. The span-coverage tests run the
benchmark's own child (``perfbench/child.py cli --trace``) on the small
``configs/smoke.cfg`` in the same invocations as each workload of
``perfbench/run.py`` and check its ``required`` and ``forbidden`` lists.
Every artifact's reader and writer must fire its own span, and the files
the no-op workload checks for changes must be the ones the stages declare.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

from feeder_nilm import cli, storage

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import instrument  # noqa: E402  (lives in perfbench/)
import run as bench_run  # noqa: E402
from spans import missing_spans  # noqa: E402

SMOKE = os.path.join(ROOT, "configs", "smoke.cfg")


def test_every_traced_function_exists():
    missing = [
        f"{module_name}.{name}"
        for module_name, names in instrument.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"feeder_nilm.{module_name}"), name, None))
    ]
    assert not missing


def test_storage_io_functions_take_the_path_first():
    traced = {
        name: value
        for name, value in vars(storage).items()
        if callable(value) and instrument._TEXT_IO.match(name)
    }
    assert {"read_waveform", "write_waveform", "_read_tagged_lines", "write_text"} <= set(traced)
    for name, function in traced.items():
        first = next(iter(inspect.signature(function).parameters), None)
        assert first == "path", f"storage.{name} takes {first!r} first"


def test_noop_snapshot_covers_every_declared_artifact():
    # desk_noop checks that a rerun leaves these files untouched; a missing name goes unchecked.
    assert sorted(bench_run.ARTIFACT_FILES) == sorted(name for stage in cli._STAGES for name in stage.artifacts)


def child(out, *args, trace=None):
    """One ``perfbench/child.py cli`` run on the smoke config; its spans, or None untraced."""
    argv = [sys.executable, os.path.join(PERFBENCH, "child.py"), "cli"]
    if trace is not None:
        argv += ["--trace", str(trace)]
    argv += ["--", *args, "--config", SMOKE, "--out", str(out), "--quiet"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    if trace is None:
        return None
    with open(trace, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """A traced cold ``pipeline`` into an empty directory: (directory, spans)."""
    work = tmp_path_factory.mktemp("cold")
    out = work / "out"
    return out, child(out, "pipeline", trace=work / "spans.json")


def test_cold_pipeline_covers_desk_cold_spans(cold_run):
    _, spans = cold_run
    workload = bench_run.DeskCold
    assert missing_spans(spans, workload.required, workload.forbidden) == []


def test_feature_stages_cover_desk_features_spans(tmp_path):
    out = tmp_path / "out"
    child(out, "simulate")
    spans = child(out, "select-features", trace=tmp_path / "select.json")
    spans += child(out, "featurize", trace=tmp_path / "featurize.json")
    workload = bench_run.DeskFeatures
    assert missing_spans(spans, workload.required, workload.forbidden) == []


@pytest.fixture(scope="module")
def rerun_spans(cold_run, tmp_path_factory):
    """The spans of a traced ``pipeline`` rerun on the cold run's current directory."""
    out, _ = cold_run
    return child(out, "pipeline", trace=tmp_path_factory.mktemp("rerun") / "rerun.json")


def test_pipeline_rerun_covers_desk_noop_spans(rerun_spans):
    workload = bench_run.DeskNoop
    assert missing_spans(rerun_spans, workload.required, workload.forbidden) == []


def test_every_artifact_reader_and_writer_fires_its_span(cold_run, rerun_spans):
    # Each looks its storage function up at call time: one bound at import would run untraced.
    _, cold = cold_run
    writers = ("write_waveform", "text.write_text", "text.write_ranking", "text.write_dataset", "text.write_model")
    readers = ("read_waveform", "text.read_text", "text.read_ranking", "text.read_dataset", "text.read_model")
    assert {f"storage.{name}" for name in writers} <= {span[0] for span in cold}
    assert {f"storage.{name}" for name in readers} <= {span[0] for span in rerun_spans}
