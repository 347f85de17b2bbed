"""Wrap the public functions of each feeder_nilm module in spans.

Spans are recorded from outside the program: ``install`` replaces each
traced function with a wrapper in every namespace and stage table that
refers to it, so every call path reaches the wrapper:

- ``feeder_nilm.featurize`` and ``feeder_nilm.evaluate`` are the
  re-exported functions on the package, so modules come from sys.modules;
- a name brought in with ``from ... import`` (``cli``, ``simulate``) is a
  separate binding, rebound in each importing module;
- ``pipeline`` reaches the stages through ``cli._STAGES`` and the
  subcommands through ``cli._DISPATCH``, containers that hold the original
  functions, so module-level tuples, lists and dicts are rebuilt too.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from time import perf_counter

from spans import STAGES

# module -> function names; a span is named "<module>.<function>".
TRACED = {
    "cli": ("stage_pipeline",) + tuple(f"stage_{stage}" for stage in STAGES),
    "config": (
        "load_run_config",
        "load_library_for",
        "scenario_fingerprint",
        "dataset_fingerprint",
        "model_fingerprint",
    ),
    "simulate": ("synthesize_feeder",),
    "devices": ("mode_current_samples", "characterization_vectors"),
    "signals": ("fundamental_phasor",),
    "featurize": ("featurize", "evaluate_window"),
    "model": ("train", "loss_and_gradient"),
    "evaluate": ("evaluate",),
    "storage": ("read_waveform", "write_waveform"),
}

# Every other read/write function of storage handles a text artifact.
_TEXT_IO = re.compile(r"_?(read|write)_\w+$")


def _train_counts(args, result) -> dict:
    history = result[1]
    best = min(range(len(history)), key=lambda k: history[k][2])
    return {"epochs": len(history), "useful_epochs": best + 1}


def _counters(span_name: str):
    """Counts taken from a call's arguments and result, or None."""
    if span_name == "simulate.synthesize_feeder":
        return lambda args, result: {"samples": result[1].n_samples}
    if span_name == "featurize.featurize":
        return lambda args, result: {"windows": result.n_windows, "valid": int(result.valid.sum())}
    if span_name == "model.train":
        return _train_counts
    if span_name.startswith("storage."):
        key = "bytes_read" if "read_" in span_name else "bytes_written"
        return lambda args, result: {key: os.path.getsize(args[0])}
    return None


class Tracer:
    """Spans kept in memory as lists ``[name, start, end, parent, counters]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, counters=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counters is not None:
                record[4] = counters(args, result)
            return result

        return traced


def _rebind(value, wrappers: dict, depth: int = 0):
    """``value`` with every traced original replaced by its wrapper."""
    if callable(value) and id(value) in wrappers:
        return wrappers[id(value)]
    if depth >= 3:
        return value
    if isinstance(value, tuple):
        items = [_rebind(v, wrappers, depth + 1) for v in value]
        if all(a is b for a, b in zip(items, value)):
            return value
        return type(value)._make(items) if hasattr(value, "_make") else tuple(items)
    if isinstance(value, list):
        value[:] = [_rebind(v, wrappers, depth + 1) for v in value]
    elif isinstance(value, dict):
        for key, item in value.items():
            value[key] = _rebind(item, wrappers, depth + 1)
    return value


def install(tracer: Tracer) -> None:
    """Trace every function in TRACED plus the storage text functions."""
    import feeder_nilm.cli  # noqa: F401  (imports every module of the package)

    targets = []
    for module_name, names in TRACED.items():
        module = sys.modules[f"feeder_nilm.{module_name}"]
        targets += [(module, name, f"{module_name}.{name}") for name in names]
    storage = sys.modules["feeder_nilm.storage"]
    for name, value in vars(storage).items():
        if callable(value) and _TEXT_IO.match(name) and "waveform" not in name:
            targets.append((storage, name, f"storage.text.{name}"))

    wrappers = {}
    for module, name, span_name in targets:
        original = getattr(module, name)
        wrappers[id(original)] = tracer.wrap(span_name, original, _counters(span_name))
    for module_name, module in list(sys.modules.items()):
        if module_name == "feeder_nilm" or module_name.startswith("feeder_nilm."):
            for name, value in list(vars(module).items()):
                if not name.startswith("__"):
                    setattr(module, name, _rebind(value, wrappers))
