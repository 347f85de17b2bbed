"""Peak memory does not grow with the data: waveforms and repetitions move in bounded chunks.

``simulate``, ``featurize`` and a no-op ``pipeline`` rerun, which reads and
checks every sample of both traces, run on copies of ``configs/smoke.cfg``
cut to 60 s and to 600 s of scenario (at 10 kHz a 600 s waveform file holds
48 MB).
``select-features`` runs on copies with 5 s and 40 s windows: it
characterizes each device mode from ``devices.REPETITIONS`` windows, drawn
in groups of about ``signals.CHUNK_BYTES``, so eight 40 s windows (25.6 MB)
are never held at once. Each stage runs in its own process, and a small
launcher process takes its peak RSS (``ru_maxrss``) from ``os.wait4``. The
launcher, not pytest, is the stage's parent because on Linux a child's
``ru_maxrss`` starts from the peak RSS of the process that started it.

Two absolute bounds hold as well: each of the three stages peaks under
150 MB (153 600 KiB) on a 30-minute copy of smoke (two 144 MB waveform
files), and ``select-features`` under 100 MB (102 400 KiB) with 60 s windows.

Inside one stage, ``evaluate_window`` adds no copy of the stack it is
given: numpy reports its array data to ``tracemalloc``, so the guard on its
temporaries counts bytes allocated, whatever the host's allocator keeps.
"""

import os
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from feeder_nilm.featurize import FeatureSpec, evaluate_window

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE = os.path.join(ROOT, "configs", "smoke.cfg")

# Starts argv[1:] and prints its exit code and its peak RSS in KiB.
LAUNCHER = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:])\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)

# The peak of a stage on 600 s may exceed its peak on 60 s by at most this much.
GROWTH_BOUND_MB = 16.0
# The peak of select-features with 40 s windows may exceed its peak with 5 s windows by at most this much.
WINDOW_GROWTH_BOUND_MB = 24.0
# The peak of each stage on a 30-minute scenario, and of select-features with 60 s windows, is at most this.
LONG_SCENARIO_BOUND_MB = 150.0
LONG_WINDOW_BOUND_MB = 100.0


def stage_peak_mb(stage: str, config: str, out: str) -> float:
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    cli = [sys.executable, "-m", "feeder_nilm.cli", stage, "--config", config, "--out", out, "--quiet"]
    result = subprocess.run([sys.executable, "-c", LAUNCHER, *cli], env=env, capture_output=True, text=True)
    code, max_rss_kib = result.stdout.split()[-2:]
    assert code == "0", f"{stage}: exit {code}"
    return int(max_rss_kib) / 1024.0


def smoke_with(tmp_path, key: str, value: int) -> str:
    """A copy of ``configs/smoke.cfg`` with ``key = value``, written under ``tmp_path``; its path."""
    with open(SMOKE, encoding="utf-8") as fh:
        text, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", fh.read())
    assert n == 1
    config = tmp_path / f"smoke_{key}_{value}.cfg"
    config.write_text(text)
    return str(config)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_peak_rss_does_not_grow_with_the_scenario(tmp_path):
    peaks = {}
    for duration in (60, 600):
        config = smoke_with(tmp_path, "duration_s", duration)
        out = str(tmp_path / f"out_{duration}")
        for stage in ("simulate", "featurize"):
            peaks[stage, duration] = stage_peak_mb(stage, config, out)
        stage_peak_mb("pipeline", config, out)  # select-features, train and eval: every artifact is now current
        written = {name: os.stat(os.path.join(out, name)).st_mtime_ns for name in os.listdir(out)}
        peaks["pipeline", duration] = stage_peak_mb("pipeline", config, out)
        assert {name: os.stat(os.path.join(out, name)).st_mtime_ns for name in os.listdir(out)} == written
    for stage in ("simulate", "featurize", "pipeline"):
        growth = peaks[stage, 600] - peaks[stage, 60]
        message = f"{stage}: peak RSS {peaks[stage, 60]:.1f} MB at 60 s, {peaks[stage, 600]:.1f} MB at 600 s"
        assert growth <= GROWTH_BOUND_MB, message


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_select_features_peak_rss_does_not_grow_with_the_window(tmp_path):
    peaks = {}
    for window_s in (5, 40):
        config = smoke_with(tmp_path, "window_s", window_s)
        peaks[window_s] = stage_peak_mb("select-features", config, str(tmp_path / f"out_{window_s}"))
    message = f"select-features: peak RSS {peaks[5]:.1f} MB with 5 s windows, {peaks[40]:.1f} MB with 40 s windows"
    assert peaks[40] - peaks[5] <= WINDOW_GROWTH_BOUND_MB, message


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_each_stage_peaks_under_the_bound_on_a_30_minute_scenario(tmp_path):
    config = smoke_with(tmp_path, "duration_s", 1800)
    out = str(tmp_path / "out")
    peaks = {stage: stage_peak_mb(stage, config, out) for stage in ("simulate", "select-features", "featurize")}
    shutil.rmtree(out)  # 288 MB of waveforms
    over = {stage: f"{peak:.1f} MB" for stage, peak in peaks.items() if peak > LONG_SCENARIO_BOUND_MB}
    assert over == {}


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_select_features_peaks_under_the_bound_with_60_s_windows(tmp_path):
    peak = stage_peak_mb("select-features", smoke_with(tmp_path, "window_s", 60), str(tmp_path / "out"))
    assert peak <= LONG_WINDOW_BOUND_MB, f"select-features: peak RSS {peak:.1f} MB with 60 s windows"


def test_evaluate_window_temporaries_stay_under_half_its_stacks():
    # 100 one-second blocks at 10 kHz, 20 periods of 60 Hz each: two 8 MB stacks.
    rng = np.random.default_rng(0)
    v, i = rng.standard_normal((2, 100, 10_000))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()  # tracing may have started before this test (python -X tracemalloc)
        before = tracemalloc.get_traced_memory()[0]
        evaluate_window(v, i, FeatureSpec(), 10_000.0, 60.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < i.nbytes / 2, f"evaluate_window peaked at {peak} traced bytes on {i.nbytes}-byte stacks"
