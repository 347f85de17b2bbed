"""The command line loads numpy with a one-thread BLAS pool; the library modules leave the environment alone.

OpenBLAS reads its thread count once, when numpy loads it, and this pytest
process has loaded numpy already, so each probe is a fresh child whose three
thread variables are ``2``. It counts its OS threads in ``/proc/self/task``:
with two BLAS threads OpenBLAS starts one idle worker besides the main thread.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# OpenBLAS starts no second thread on one CPU.
pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc/self/task to count threads, and two CPUs",
)


def probe(imports: str) -> tuple[int, list[str]]:
    """(OS thread count, values of VARIABLES) in a child that runs ``imports`` with every variable set to 2."""
    code = f"import os\n{imports}\nprint(len(os.listdir('/proc/self/task')), *(os.environ[v] for v in {VARIABLES!r}))"
    paths = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **dict.fromkeys(VARIABLES, "2"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    threads, *values = result.stdout.split()
    return int(threads), values


def test_numpy_alone_starts_a_second_blas_thread():
    # The control: without it a probe that counts one thread could never fail.
    assert probe("import numpy") == (2, ["2", "2", "2"])


def test_cli_import_sets_one_blas_thread_whatever_the_environment_says():
    assert probe("import feeder_nilm.cli") == (1, ["1", "1", "1"])


def test_library_imports_leave_the_thread_variables_alone():
    assert probe("import feeder_nilm.model, feeder_nilm.featurize") == (2, ["2", "2", "2"])
