"""Span records and the arithmetic that turns them into per-layer metrics.

A span is ``(name, start_s, end_s, parent, counters)``: ``parent`` is the
index of the enclosing span in the same list (-1 at top level) and
``counters`` is a dict of counts taken when the call returned (or None).
Span names are ``<module>.<function>``; text-artifact functions of
``storage`` are named ``storage.text.<function>`` so they form one group.

This module is pure Python and imports nothing from the program.
"""

from __future__ import annotations

from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    counters: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# (metric name, unit, better): the per-layer metrics a traced run reports.
LAYER_METRICS = (
    ("cli.stage.simulate_s", "s", "lower"),
    ("cli.stage.select_features_s", "s", "lower"),
    ("cli.stage.featurize_s", "s", "lower"),
    ("cli.stage.train_s", "s", "lower"),
    ("cli.stage.eval_s", "s", "lower"),
    ("cli.stages_skipped", "count", "higher"),
    ("cli.pipeline.self_s", "s", "lower"),
    ("config.s", "s", "lower"),
    ("config.load_library_for.calls", "count", "lower"),
    ("simulate.synthesize_feeder.self_s", "s", "lower"),
    ("simulate.samples", "count", "lower"),
    ("devices.mode_current_samples.calls", "count", "lower"),
    ("devices.mode_current_samples_s", "s", "lower"),
    ("devices.characterization_vectors_s", "s", "lower"),
    ("signals.fundamental_phasor.calls", "count", "lower"),
    ("signals.fundamental_phasor_s", "s", "lower"),
    ("signals.slow_phasor_calls", "count", "lower"),
    ("featurize.evaluate_window.calls", "count", "lower"),
    ("featurize.evaluate_window.self_s", "s", "lower"),
    ("featurize.windows", "count", "higher"),
    ("featurize.valid_ratio", "ratio", "higher"),
    ("model.train_s", "s", "lower"),
    ("model.loss_and_gradient.calls", "count", "lower"),
    ("model.epochs_run", "count", "lower"),
    ("model.useful_epoch_ratio", "ratio", "higher"),
    ("evaluate.evaluate_s", "s", "lower"),
    ("storage.read_waveform.calls", "count", "lower"),
    ("storage.read_waveform_s", "s", "lower"),
    ("storage.bytes_read", "bytes", "lower"),
    ("storage.write_waveform_s", "s", "lower"),
    ("storage.bytes_written", "bytes", "lower"),
    ("storage.text_s", "s", "lower"),
    # Traced minus untraced median wall; run.py adds it, the spans cannot.
    ("trace.overhead_s", "s", "lower"),
)

STAGES = ("simulate", "select_features", "featurize", "train", "eval")

# A normal fundamental_phasor call on a 5 s window takes ~0.03 ms; a call
# slower than this is a BLAS start-up stall, not work.
SLOW_PHASOR_S = 1e-3


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals`` (start, end)."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: Span, children) -> float:
    """The span's duration minus the part of it that ``children`` cover."""
    return span.duration - covered([(c.start, c.end) for c in children], span.start, span.end)


def children_of(spans) -> list[list[Span]]:
    kids: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            kids[span.parent].append(span)
    return kids


def _has_ancestor(spans, span: Span, match) -> bool:
    parent = span.parent
    while parent >= 0:
        if match(spans[parent].name):
            return True
        parent = spans[parent].parent
    return False


def outermost(spans, prefix: str) -> list[Span]:
    """Spans whose name starts with ``prefix`` and that no such span encloses.

    Summing these counts each stretch of time (and each counter) once even
    when functions of one group call each other.
    """
    def match(name: str) -> bool:
        return name.startswith(prefix)

    return [s for s in spans if match(s.name) and not _has_ancestor(spans, s, match)]


def _named(spans, name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def _total(spans, name: str) -> float:
    """Time inside calls to ``name``, counting a recursive call once."""
    return sum(
        s.duration for s in spans if s.name == name and not _has_ancestor(spans, s, name.__eq__)
    )


def _counter(spans, key: str) -> float:
    return sum((s.counters or {}).get(key, 0) for s in spans)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (or several, concatenated)."""
    spans = [Span(*s) for s in spans]
    kids = children_of(spans)
    m: dict[str, float] = {}

    for stage in STAGES:
        m[f"cli.stage.{stage}_s"] = _total(spans, f"cli.stage_{stage}")
    skipped, outside = 0, 0.0
    for index, span in enumerate(spans):
        if span.name == "cli.stage_pipeline":
            ran = [c for c in kids[index] if c.name.startswith("cli.stage_")]
            skipped += len(STAGES) - len(ran)
            outside += self_time(span, ran)
    m["cli.stages_skipped"] = skipped
    m["cli.pipeline.self_s"] = outside

    m["config.s"] = sum(s.duration for s in outermost(spans, "config."))
    m["config.load_library_for.calls"] = len(_named(spans, "config.load_library_for"))

    synth = [(i, s) for i, s in enumerate(spans) if s.name == "simulate.synthesize_feeder"]
    m["simulate.synthesize_feeder.self_s"] = sum(self_time(s, kids[i]) for i, s in synth)
    m["simulate.samples"] = _counter([s for _, s in synth], "samples")

    m["devices.mode_current_samples.calls"] = len(_named(spans, "devices.mode_current_samples"))
    m["devices.mode_current_samples_s"] = _total(spans, "devices.mode_current_samples")
    m["devices.characterization_vectors_s"] = _total(spans, "devices.characterization_vectors")

    phasor = _named(spans, "signals.fundamental_phasor")
    m["signals.fundamental_phasor.calls"] = len(phasor)
    m["signals.fundamental_phasor_s"] = _total(spans, "signals.fundamental_phasor")
    m["signals.slow_phasor_calls"] = sum(1 for s in phasor if s.duration > SLOW_PHASOR_S)

    windows = [(i, s) for i, s in enumerate(spans) if s.name == "featurize.evaluate_window"]
    m["featurize.evaluate_window.calls"] = len(windows)
    m["featurize.evaluate_window.self_s"] = sum(self_time(s, kids[i]) for i, s in windows)
    featurized = _named(spans, "featurize.featurize")
    n_windows = _counter(featurized, "windows")
    m["featurize.windows"] = n_windows
    m["featurize.valid_ratio"] = _counter(featurized, "valid") / n_windows if n_windows else 0.0

    trained = _named(spans, "model.train")
    epochs = _counter(trained, "epochs")
    m["model.train_s"] = _total(spans, "model.train")
    m["model.loss_and_gradient.calls"] = len(_named(spans, "model.loss_and_gradient"))
    m["model.epochs_run"] = epochs
    m["model.useful_epoch_ratio"] = _counter(trained, "useful_epochs") / epochs if epochs else 0.0

    m["evaluate.evaluate_s"] = _total(spans, "evaluate.evaluate")

    io = outermost(spans, "storage.")
    m["storage.read_waveform.calls"] = len(_named(spans, "storage.read_waveform"))
    m["storage.read_waveform_s"] = _total(spans, "storage.read_waveform")
    m["storage.bytes_read"] = _counter(io, "bytes_read")
    m["storage.write_waveform_s"] = _total(spans, "storage.write_waveform")
    m["storage.bytes_written"] = _counter(io, "bytes_written")
    m["storage.text_s"] = sum(s.duration for s in io if s.name.startswith("storage.text."))
    return m


def missing_spans(spans, required, forbidden=()) -> list[str]:
    """Coverage problems: required span names (or ``prefix.`` groups) that
    never fired, and forbidden ones that did."""
    names = {s[0] for s in spans}

    def fired(pattern: str) -> bool:
        if pattern.endswith("."):
            return any(n.startswith(pattern) for n in names)
        return pattern in names

    problems = [f"{p} never fired" for p in required if not fired(p)]
    problems += [f"{p} fired but should not" for p in forbidden if fired(p)]
    return problems
