"""Tests for the declarative study engine (repro.study)."""

import pytest

from repro.display.device import PIXEL_5
from repro.errors import BatchExecutionError, ConfigurationError, ExecutionError
from repro.exec.executor import Executor
from repro.exec.spec import DriverSpec, RunSpec
from repro.metrics.fdps import fdps
from repro.study import (
    Cell,
    CompositeStudy,
    Study,
    cell_key,
    execute_studies,
)
from repro.telemetry import runtime as telemetry_runtime


def _spec(name="study-test", **overrides):
    fields = dict(
        driver=DriverSpec.of(
            "repro.exec.builders:burst_animation", name=name, target_fdps=2.0
        ),
        device=PIXEL_5,
        architecture="vsync",
        buffer_count=3,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def _failing_spec(name="study-crash"):
    return _spec(
        name,
        driver=DriverSpec.of(
            "repro.exec.builders:chaos_driver", name=name, mode="raise"
        ),
    )


@pytest.fixture
def executor():
    with Executor(jobs=1, cache=False) as ex:
        yield ex


# ---------------------------------------------------------------- structure
def test_cell_requires_exactly_one_payload():
    with pytest.raises(ConfigurationError):
        Cell(coords={"a": 1})
    with pytest.raises(ConfigurationError):
        Cell(coords={"a": 1}, spec=_spec(), thunk=lambda: 1)


def test_duplicate_cell_coordinates_rejected():
    study = Study("dup")
    study.add(_spec("a"), arch="vsync", rep=0)
    with pytest.raises(ConfigurationError):
        study.add(_spec("b"), rep=0, arch="vsync")  # same key, any kwarg order


def test_cell_key_is_order_insensitive():
    assert cell_key({"a": 1, "b": 2}) == cell_key({"b": 2, "a": 1})


def test_grid_expands_product_and_skips_none():
    study = Study("grid")
    study.grid(
        lambda arch, rep: None if arch == "skip" else _spec(f"{arch}#{rep}"),
        arch=["vsync", "skip"],
        rep=[0, 1],
    )
    assert len(study) == 2
    assert [cell.coords for cell in study.cells] == [
        {"arch": "vsync", "rep": 0},
        {"arch": "vsync", "rep": 1},
    ]


def test_grid_accepts_live_thunks_and_rejects_junk():
    study = Study("grid-live")
    study.grid(lambda rep: (lambda: rep * 10), rep=[0, 1])
    assert all(cell.thunk is not None for cell in study.cells)
    with pytest.raises(ConfigurationError):
        Study("grid-bad").grid(lambda rep: 42, rep=[0])


# ---------------------------------------------------------------- execution
def test_execute_keys_results_and_selects(executor):
    study = Study("exec")
    for rep in range(2):
        study.add(_spec(f"run#{rep}"), arch="vsync", rep=rep)
    result = study.execute(executor=executor)
    assert len(result.select(arch="vsync")) == 2
    assert result.get(rep=1) is result.select(rep=1)[0]
    with pytest.raises(ExecutionError):
        result.get(arch="vsync")  # two matches
    with pytest.raises(ExecutionError):
        result.get(arch="nope")  # zero matches


def test_whole_matrix_is_one_batch_with_dedup(executor):
    study = Study("batch")
    shared = _spec("shared-baseline")
    study.add(shared, arch="vsync", rep=0)
    study.add(shared, arch="vsync", rep=1)  # same content hash
    study.add(_spec("other"), arch="dvsync", rep=0)
    [result], stats = execute_studies([study], executor=executor)
    assert executor.stats.batches == 1
    assert executor.stats.deduplicated == 1
    assert stats.spec_cells == 3
    assert stats.unique_specs == 2
    assert stats.dedup_hits == 1
    assert result.select(arch="vsync")[0] is not None


def test_union_of_studies_is_still_one_batch(executor):
    first = Study("one")
    first.add(_spec("alpha"), rep=0)
    second = Study("two")
    second.add(_spec("alpha"), rep=0)  # dedups across studies
    second.add(_spec("beta"), rep=1)
    [res_a, res_b], stats = execute_studies([first, second], executor=executor)
    assert executor.stats.batches == 1
    assert stats.studies == 2
    assert stats.dedup_hits == 1
    assert res_a.get(rep=0) is not None
    assert res_b.get(rep=1) is not None


def test_live_cells_run_in_process(executor):
    order = []
    study = Study("live")
    study.add(_spec("spec-cell"), kind="spec")
    study.add_live(lambda: order.append("a") or "live-a", kind="live-a")
    study.add_live(lambda: order.append("b") or "live-b", kind="live-b")
    result = study.execute(executor=executor)
    assert order == ["a", "b"]  # insertion order
    assert result.get(kind="live-a") == "live-a"
    assert result.get(kind="spec") is not None


def test_run_applies_analysis(executor):
    study = Study(
        "analyzed", analyze=lambda result: fdps(result.get(rep=0))
    )
    study.add(_spec("analyzed"), rep=0)
    value = study.run(executor=executor)
    assert isinstance(value, float)


def test_run_without_analysis_raises(executor):
    study = Study("no-analysis")
    study.add(_spec("no-analysis"), rep=0)
    with pytest.raises(ConfigurationError):
        study.run(executor=executor)


# ------------------------------------------------------------------ failure
def test_fail_fast_raises_batch_error():
    study = Study("failfast")
    study.add(_spec("ok-arm"), rep=0)
    study.add(_failing_spec(), rep=1)
    with Executor(jobs=1, cache=False, retries=0, policy="fail-fast") as ex:
        with pytest.raises(BatchExecutionError):
            study.execute(executor=ex)


def test_keep_going_leaves_keyed_holes_and_drops_pairs():
    study = Study("holes")
    study.add(_spec("hole-base#0"), arch="vsync", rep=0)
    study.add(_spec("hole-base#1"), arch="vsync", rep=1)
    study.add(_failing_spec(), arch="dvsync", rep=0)
    study.add(_spec("hole-impr#1"), arch="dvsync", rep=1)
    with Executor(jobs=1, cache=False, retries=0, policy="keep-going") as ex:
        result = study.execute(executor=ex)
    assert result.get(arch="dvsync", rep=0) is None
    holes = result.holes()
    assert len(holes) == 1 and holes[0][0].coords == {"arch": "dvsync", "rep": 0}
    assert holes[0][1] is not None  # structured failure record
    assert result.stats.holes == 1
    # the rep-0 pair vanishes; rep-1 survives
    pairs = result.pairs({"arch": "vsync"}, {"arch": "dvsync"})
    assert len(pairs) == 1
    assert all(value is not None for pair in pairs for value in pair)


def test_pairs_rejects_mismatched_slices(executor):
    study = Study("ragged")
    study.add(_spec("r0"), arch="vsync", rep=0)
    study.add(_spec("r1"), arch="vsync", rep=1)
    study.add(_spec("r2"), arch="dvsync", rep=0)
    result = study.execute(executor=executor)
    with pytest.raises(ExecutionError):
        result.pairs({"arch": "vsync"}, {"arch": "dvsync"})


# -------------------------------------------------------------- aggregation
def test_mean_and_stats_skip_holes(executor):
    study = Study("agg")
    study.add_live(lambda: 1.0, rep=0)
    study.add_live(lambda: 3.0, rep=1)
    result = study.execute(executor=executor)
    assert result.mean_of(lambda v: v) == 2.0
    mean, sd = result.stats_of(lambda v: v)
    assert mean == 2.0
    assert sd == pytest.approx(1.4142, abs=1e-3)
    assert result.stats_of(lambda v: v, rep=0) == (1.0, 0.0)  # n=1 -> sd 0
    assert result.mean_of(lambda v: v, rep=99) == 0.0  # empty slice


# ---------------------------------------------------------------- composite
def test_composite_flattens_parts_into_one_batch(executor):
    left = Study("left", analyze=lambda result: ("L", result.get(rep=0)))
    left.add(_spec("composite-shared"), rep=0)
    right = Study("right", analyze=lambda result: ("R", result.get(rep=0)))
    right.add(_spec("composite-shared"), rep=0)  # dedups against left
    composite = CompositeStudy(
        "both", parts=[left, right], combine=lambda parts: dict(parts)
    )
    assert len(composite) == 2
    merged = composite.run(executor=executor)
    assert executor.stats.batches == 1
    assert executor.stats.deduplicated == 1
    assert set(merged) == {"L", "R"}
    assert merged["L"] is not None


def test_composite_without_combine_returns_part_list(executor):
    part = Study("solo", analyze=lambda result: "analyzed")
    part.add_live(lambda: 1, rep=0)
    composite = CompositeStudy("wrap", parts=[part])
    assert composite.run(executor=executor) == ["analyzed"]


# ---------------------------------------------------------------- telemetry
def test_study_telemetry_counters(executor):
    telemetry_runtime.reset()
    telemetry_runtime.set_enabled(True)
    try:
        study = Study("telemetry")
        shared = _spec("telemetry-shared")
        study.add(shared, rep=0)
        study.add(shared, rep=1)
        study.add_live(lambda: 1, rep=2)
        study.execute(executor=executor)
        metrics = telemetry_runtime.collector().exec_metrics
        assert metrics.counter("study.cells").value == 3
        assert metrics.counter("study.dedup_hits").value == 1
        assert metrics.counter("study.holes").value == 0
    finally:
        telemetry_runtime.set_enabled(False)
        telemetry_runtime.reset()
