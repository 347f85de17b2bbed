"""The names the benchmark's tracer wraps must exist in the program.

``perfbench/instrument.py`` wraps the functions it lists in ``TRACED`` and
every ``storage`` callable whose name matches ``_TEXT_IO``; the storage
wrapper records the size of the file named by the first argument. A
renamed stage or a path-less ``_read_*`` helper breaks only a traced
benchmark run, so these checks keep that contract in the tier-1 suite.
"""

import importlib
import inspect
import os
import sys

from feeder_nilm import storage

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import instrument  # noqa: E402  (lives in perfbench/)


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
    assert {"read_waveform", "write_waveform", "_read_tagged_lines", "_write_text"} <= set(traced)
    for name, function in traced.items():
        first = next(iter(inspect.signature(function).parameters), None)
        assert first == "path", f"storage.{name} takes {first!r} first"
