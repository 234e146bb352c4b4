"""Span bookkeeping of the harness and the seeded sweep-long inputs."""

from __future__ import annotations

import pytest

from harness.tracing import TARGETS, SpanRecorder, split_around_child, summarize_spans

# [name, start, end, parent index]
SPANS = [
    ["outer", 0.0, 10.0, -1],
    ["inner", 1.0, 4.0, 0],
    ["inner", 5.0, 7.0, 0],
    ["outer", 8.0, 12.0, -1],  # overlaps the first outer span
    ["leaf", 2.0, 3.0, 1],
]


def test_busy_self_and_calls_by_hand():
    table = summarize_spans(SPANS)
    assert table["outer"]["calls"] == 2
    assert table["outer"]["busy_s"] == pytest.approx(12.0)  # union of [0,10] and [8,12]
    assert table["outer"]["self_s"] == pytest.approx((10 - 3 - 2) + 4)
    assert table["inner"]["busy_s"] == pytest.approx(5.0)
    assert table["inner"]["self_s"] == pytest.approx((3 - 1) + 2)
    assert table["leaf"]["durations_s"] == [1.0]


def test_split_around_child():
    head, tail = split_around_child(SPANS, "outer", "inner")
    assert head == pytest.approx(1.0)  # first outer: 0 -> first inner at 1
    assert tail == pytest.approx(3.0 + 4.0)  # 7 -> 10, plus the childless outer


def test_recorder_wraps_and_restores_every_binding():
    import importlib

    def resolve(module, path):
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    originals = [resolve(module, path) for module, path, _ in TARGETS]
    recorder = SpanRecorder()
    recorder.install()
    try:
        wrapped = [resolve(module, path) for module, path, _ in TARGETS]
        assert all(w is not o for w, o in zip(wrapped, originals))
        from repro.study.core import Study, StudyResult

        StudyResult(Study("probe", analyze=lambda result: 42), {}).analyze()
    finally:
        recorder.uninstall()
    assert [resolve(module, path) for module, path, _ in TARGETS] == originals
    assert [span[0] for span in recorder.spans] == ["experiments.analyze"]


def test_sweep_specs_follow_the_seed():
    from harness.workloads import SWEEP_STRIDE, full_matrix_specs, sweep_specs

    matrix = full_matrix_specs()
    positions = {spec.content_hash(): index for index, spec in enumerate(matrix)}

    def hashes(seed):
        return [spec.content_hash() for spec in sweep_specs(seed)]

    first = hashes(7)
    assert len(positions) == len(matrix)  # no duplicate specs
    assert len(first) == -(-len(matrix) // SWEEP_STRIDE) == len(set(first))
    assert [positions[key] // SWEEP_STRIDE for key in first] == list(range(len(first)))
    assert hashes(7) == first
    assert hashes(8) != first
