"""Self-time arithmetic and per-layer metrics of the benchmark's spans.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import LAYER_METRICS, Span, covered, layer_metrics, missing_spans, outermost, self_time  # noqa: E402


def test_self_time_nested():
    parent = Span("a", 0.0, 10.0, -1)
    child = Span("b", 2.0, 5.0, 0)
    grandchild = Span("c", 3.0, 4.0, 1)
    assert self_time(parent, [child]) == pytest.approx(7.0)
    assert self_time(child, [grandchild]) == pytest.approx(2.0)
    assert self_time(grandchild, []) == pytest.approx(1.0)


def test_self_time_siblings():
    parent = Span("a", 0.0, 10.0, -1)
    kids = [Span("b", 1.0, 3.0, 0), Span("b", 3.0, 4.5, 0), Span("c", 6.0, 7.0, 0)]
    assert self_time(parent, kids) == pytest.approx(10.0 - 2.0 - 1.5 - 1.0)


def test_self_time_child_ends_at_parent_end():
    parent = Span("a", 0.0, 10.0, -1)
    assert self_time(parent, [Span("b", 4.0, 10.0, 0)]) == pytest.approx(4.0)
    assert self_time(parent, [Span("b", 0.0, 10.0, 0)]) == 0.0


def test_covered_merges_overlap_and_clips_to_bounds():
    assert covered([(1.0, 4.0), (2.0, 5.0), (-3.0, 0.5)], 0.0, 4.5) == pytest.approx(0.5 + 3.5)
    assert covered([], 0.0, 1.0) == 0.0


def test_outermost_counts_nested_calls_of_a_group_once():
    spans = [
        Span("storage.text.read_dataset", 0.0, 2.0, -1, {"bytes_read": 10}),
        Span("storage.text._read_tagged_lines", 0.5, 1.0, 0, {"bytes_read": 10}),
        Span("storage.read_waveform", 3.0, 4.0, -1, {"bytes_read": 100}),
    ]
    assert [s.name for s in outermost(spans, "storage.")] == [
        "storage.text.read_dataset",
        "storage.read_waveform",
    ]
    m = layer_metrics(spans)
    assert m["storage.bytes_read"] == 110
    assert m["storage.text_s"] == pytest.approx(2.0)
    assert m["storage.read_waveform_s"] == pytest.approx(1.0)


def test_layer_metrics_of_a_skipping_pipeline():
    spans = [
        Span("cli.stage_pipeline", 0.0, 10.0, -1),
        Span("config.load_library_for", 0.0, 1.0, 0),
        Span("cli.stage_train", 2.0, 6.0, 0),
        Span("model.train", 2.5, 6.0, 2, {"epochs": 8, "useful_epochs": 2}),
        Span("storage.read_waveform", 7.0, 9.0, 0),
    ]
    m = layer_metrics(spans)
    assert m["cli.stages_skipped"] == 4
    # The pipeline's own time is everything outside its stages, storage included.
    assert m["cli.pipeline.self_s"] == pytest.approx(6.0)
    assert m["cli.stage.train_s"] == pytest.approx(4.0)
    assert m["model.useful_epoch_ratio"] == pytest.approx(0.25)
    assert m["config.s"] == pytest.approx(1.0)


def test_missing_spans_reports_required_and_forbidden():
    spans = [Span("a.x", 0.0, 1.0, -1), Span("storage.text.read_model", 0.0, 1.0, -1)]
    assert missing_spans(spans, ["a.x", "storage.text."]) == []
    assert missing_spans(spans, ["b.y"], ["a.x"]) == ["b.y never fired", "a.x fired but should not"]


def test_benchmark_json_lists_the_layer_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == list(LAYER_METRICS)

