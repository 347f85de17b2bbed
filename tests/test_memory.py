"""Peak memory does not grow with the scenario: every waveform moves in bounded chunks.

``simulate`` and ``featurize`` run on copies of ``configs/smoke.cfg`` cut to
60 s and to 600 s of scenario (at 10 kHz a 600 s waveform file holds 48 MB).
Each stage runs in its own process, and a small launcher process takes its
peak RSS (``ru_maxrss``) from ``os.wait4``. The launcher, not pytest, is
the stage's parent because on Linux a child's ``ru_maxrss`` starts from
the peak RSS of the process that started it.
"""

import os
import re
import subprocess
import sys

import pytest

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


def stage_peak_mb(stage: str, config: str, out: str) -> float:
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    cli = [sys.executable, "-m", "feeder_nilm.cli", stage, "--config", config, "--out", out, "--quiet"]
    result = subprocess.run([sys.executable, "-c", LAUNCHER, *cli], env=env, capture_output=True, text=True)
    code, max_rss_kib = result.stdout.split()[-2:]
    assert code == "0", f"{stage}: exit {code}"
    return int(max_rss_kib) / 1024.0


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_peak_rss_does_not_grow_with_the_scenario(tmp_path):
    with open(SMOKE, encoding="utf-8") as fh:
        smoke = fh.read()
    peaks = {}
    for duration in (60, 600):
        text, n = re.subn(r"(?m)^duration_s\s*=.*$", f"duration_s = {duration}", smoke)
        assert n == 1
        config = tmp_path / f"smoke_{duration}.cfg"
        config.write_text(text)
        out = str(tmp_path / f"out_{duration}")
        for stage in ("simulate", "featurize"):
            peaks[stage, duration] = stage_peak_mb(stage, str(config), out)
    for stage in ("simulate", "featurize"):
        growth = peaks[stage, 600] - peaks[stage, 60]
        message = f"{stage}: peak RSS {peaks[stage, 60]:.1f} MB at 60 s, {peaks[stage, 600]:.1f} MB at 600 s"
        assert growth <= GROWTH_BOUND_MB, message
