"""Fingerprints and noise seeds hash with the interpreter's own sha256, not OpenSSL's.

``devices.sha256`` is ``_sha256.sha256`` (Python 3.10-3.11) or
``_sha2.sha256`` (3.12+), and ``hashlib.sha256`` only where neither exists:
``import hashlib`` maps OpenSSL's libcrypto, about 3.5 MB of resident
memory for a rerun that hashes a few hundred bytes. The digests are the
same bytes, so every fingerprint and seed is what ``hashlib`` gives.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys

import pytest

from feeder_nilm import config as config_module
from feeder_nilm import devices

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2"))

# Seed parts: the desk_scale feeder noise (rng_seed 27), a characterization, and edge cases.
SEED_PARTS = [
    (27, "feeder", "noise"),
    (27, "ventilator", "humidifier-run", "characterize"),
    (0,),
    ("",),
    ("µ", 2**70, -1),
]

# Runs feeder_nilm.cli.main on argv[1:], then prints whether OpenSSL's hashlib backend was imported.
RERUN_THEN_REPORT = (
    "import sys\n"
    "from feeder_nilm.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, '_hashlib' in sys.modules)\n"
)


@pytest.mark.parametrize("data", [b"", b"abc", b"x" * 1000, b'{"rng_seed": 27}'], ids=["empty", "abc", "1000-bytes", "json"])
def test_sha256_gives_the_bytes_of_hashlib(data):
    assert devices.sha256(data).digest() == hashlib.sha256(data).digest()


@pytest.mark.skipif(not BUILTIN_SHA256, reason="the interpreter has neither _sha256 nor _sha2")
def test_sha256_is_the_interpreters_built_in_module():
    assert devices.sha256.__module__ in ("_sha256", "_sha2")


@pytest.mark.parametrize("parts", SEED_PARTS, ids=repr)
def test_stable_seed_is_the_integer_of_hashlib(parts):
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    assert devices._stable_seed(*parts) == int.from_bytes(digest[:8], "little")


def test_digest_is_the_hex_of_hashlib():
    text = '[{"answer": 42}, "v", 3]'  # the canonical JSON of the parts
    assert config_module._digest({"answer": 42}, "v", 3) == hashlib.sha256(text.encode()).digest()[:16].hex()


@pytest.mark.skipif(not BUILTIN_SHA256, reason="the interpreter has neither _sha256 nor _sha2")
def test_a_no_op_pipeline_rerun_imports_no_openssl(tmp_path):
    # A child, because pytest itself imports hashlib.
    smoke = os.path.join(ROOT, "configs", "smoke.cfg")
    out = str(tmp_path / "out")
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = [sys.executable, "-c", RERUN_THEN_REPORT, "pipeline", "--config", smoke, "--out", out]
    first = subprocess.run([*argv, "--quiet"], env=env, capture_output=True, text=True)
    # The probe sees OpenSSL where it is mapped: simulate's numpy.random imports secrets, and so hmac.
    assert first.stdout.split() == ["0", "True"], first.stderr
    rerun = subprocess.run(argv, env=env, capture_output=True, text=True)
    lines = rerun.stdout.splitlines()
    assert lines[:-1] == ["simulate: up to date", "select-features: up to date", "featurize: up to date",
                          "train: up to date", "eval: up to date"], rerun.stderr
    assert lines[-1].split() == ["0", "False"]
