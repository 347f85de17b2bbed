"""Artifacts do not depend on the BLAS thread variables, nor on the OpenBLAS kernel where no BLAS product makes them.

Every run is a child process whose ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``OPENBLAS_CORETYPE`` are exactly those of its run
(a variable the run leaves out is unset), because OpenBLAS reads them once,
when numpy loads it. The command line sets the thread variables to ``1``
before it imports numpy (README, BLAS threads), so the thread runs check
that a thread count set in the environment no longer reaches the program:
a run at two threads writes what a run at one writes. The kernel variable
still reaches the program, and the kernel runs compare as before.

- ``smoke``: thread variables at one, at two twice, and the Prescott and
  Sandybridge kernels. Every artifact is byte-equal across the thread
  variables and the rerun. Selection and featurizing use no BLAS, so no
  kernel may move ``ranking.txt`` or ``dataset.csv``; ``model.txt`` is not
  compared across kernels, because training's matrix products round
  differently on each.
- ``desk_scale`` trains in the batch shapes of the headline run (16 rows, and
  a last batch of 14), which the 28 training rows of ``smoke`` never reach.
  Its model, report and residuals are byte-equal with the thread variables
  at one and at two; across kernels only what the weights decide is
  compared: the epoch count, ``mae_rounded`` and the rounded counts.

The nine runs take about 4 s, so they sit outside tier-1's ``testpaths``:
``PYTHONPATH=src python -m pytest -q checks``.
"""

import os
import re
import shutil
import subprocess
import sys

import pytest

from feeder_nilm import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE = os.path.join(ROOT, "configs", "smoke.cfg")
DESK = os.path.join(ROOT, "configs", "desk_scale.cfg")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_CORETYPE")
ARTIFACTS = sorted(name for stage in cli._STAGES for name in stage.artifacts)
KERNELS = ("Prescott", "Sandybridge")


def threads(n: int) -> dict:
    return {"OPENBLAS_NUM_THREADS": str(n), "OMP_NUM_THREADS": str(n)}


def kernel(name: str) -> dict:
    return {"OPENBLAS_CORETYPE": name}


# run name -> its BLAS variables
SMOKE_RUNS = {"threads-1": threads(1), "threads-2a": threads(2), "threads-2b": threads(2)}
SMOKE_RUNS.update({f"kernel-{name}": kernel(name) for name in KERNELS})
DESK_RUNS = {"threads-1": threads(1), "threads-2": threads(2)}
DESK_RUNS.update({f"kernel-{name}": kernel(name) for name in KERNELS})


def pipeline(config: str, out, blas: dict) -> str:
    """The stdout of ``pipeline`` on ``config`` into ``out``, run in a child whose BLAS variables are ``blas``."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARIABLES}
    paths = [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]
    env.update(blas, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = [sys.executable, "-m", "feeder_nilm.cli", "pipeline", "--config", config, "--out", str(out)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The directory that holds one ``smoke`` output directory per run, named after it."""
    root = tmp_path_factory.mktemp("smoke")
    for run, blas in SMOKE_RUNS.items():
        pipeline(SMOKE, root / run, blas)
    yield root
    shutil.rmtree(root)


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """run name -> (output directory, pipeline stdout) of the ``desk_scale`` runs."""
    root = tmp_path_factory.mktemp("desk")
    yield {run: (root / run, pipeline(DESK, root / run, blas)) for run, blas in DESK_RUNS.items()}
    shutil.rmtree(root)  # 96 MB of waveforms per run


@pytest.mark.parametrize("run", SMOKE_RUNS)
def test_smoke_run_holds_exactly_the_artifacts_of_the_stages(smoke, run):
    assert sorted(os.listdir(smoke / run)) == ARTIFACTS


@pytest.mark.parametrize("name", ARTIFACTS)
def test_smoke_artifact_is_byte_equal_across_thread_counts_and_a_rerun(smoke, name):
    expected = (smoke / "threads-2a" / name).read_bytes()
    assert (smoke / "threads-2b" / name).read_bytes() == expected
    assert (smoke / "threads-1" / name).read_bytes() == expected


@pytest.mark.parametrize("name", ["ranking.txt", "dataset.csv"])
@pytest.mark.parametrize("kernel_name", KERNELS)
def test_smoke_selection_and_features_are_byte_equal_under_other_kernels(smoke, kernel_name, name):
    assert (smoke / f"kernel-{kernel_name}" / name).read_bytes() == (smoke / "threads-2a" / name).read_bytes()


@pytest.mark.parametrize("name", ["model.txt", "report.txt", "residuals.csv"])
def test_desk_model_report_and_residuals_are_byte_equal_at_one_and_two_threads(desk, name):
    (one, _), (two, _) = desk["threads-1"], desk["threads-2"]
    assert (one / name).read_bytes() == (two / name).read_bytes()


def decided_by_the_weights(out, stdout: str):
    """(epoch count, ``mae_rounded`` line, ``y_rounded`` column) of one run."""
    epochs = re.search(r"(?m)^train: (\d+) epochs ", stdout)[1]
    (mae,) = [line for line in (out / "report.txt").read_text().splitlines() if line.startswith("mae_rounded = ")]
    lines = (out / "residuals.csv").read_text().splitlines()
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    column = header.index("y_rounded")
    return epochs, mae, [row[column] for row in rows]


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_desk_epochs_rounded_mae_and_rounded_counts_are_equal_under_other_kernels(desk, kernel_name):
    assert decided_by_the_weights(*desk[f"kernel-{kernel_name}"]) == decided_by_the_weights(*desk["threads-2"])
