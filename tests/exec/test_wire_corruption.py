"""A malformed result wire is rejected at every boundary it can cross.

Each corruption below must raise :class:`ValueError` out of
``result_from_wire``; found in a cache entry, it must be evicted as a miss
and re-simulated; returned by a worker, it must settle as ``cache-corrupt``
and never reach the cache.
"""

import concurrent.futures
import copy
import dataclasses

import pytest

from repro.display.device import PIXEL_5
from repro.display.hal import PresentRecord
from repro.exec import executor as executor_module
from repro.exec.cache import ResultCache
from repro.exec.executor import Executor, execute_spec
from repro.exec.serialize import (
    _DROP_FIELDS,
    _FRAME_FIELDS,
    _PRESENT_FIELDS,
    RESULT_SCHEMA_VERSION,
    encode_wire,
    result_from_wire,
    result_to_wire,
)
from repro.exec.spec import DriverSpec, RunSpec
from repro.pipeline.compositor import DropEvent
from repro.pipeline.frame import FrameRecord
from repro.telemetry.session import TELEMETRY_SCHEMA_VERSION, Telemetry


def _spec(name="corrupt"):
    return RunSpec(
        driver=DriverSpec.of(
            "repro.exec.builders:burst_animation", name=name, target_fdps=6.0
        ),
        device=PIXEL_5,
        architecture="vsync",
        buffer_count=3,
    )


def _frame_row_short(wire):
    wire["frames"][0].pop(0)


def _frame_row_long(wire):
    wire["frames"][0].insert(0, 0)


def _workload_row_short(wire):
    wire["frames"][0][-1].pop()


def _drop_row(wire):
    wire["drops"][0].append(0)


def _present_row(wire):
    wire["presents"][0].pop()


def _negative_stage(wire):
    wire["frames"][0][-1][0] = -1


def _unknown_category(wire):
    wire["frames"][0][-1][3] = "not-a-category"


def _wrong_schema(wire):
    wire["schema"] = RESULT_SCHEMA_VERSION + 1


def _telemetry_version(wire):
    wire["telemetry"] = {"version": 999}


def _trace_kind(wire):
    wire["telemetry"] = {
        "version": TELEMETRY_SCHEMA_VERSION,
        "name": "corrupt",
        "trace": {"kind": "nope"},
        "metrics": {},
    }


def _v1_snapshot(wire):
    # A version-1 snapshot, which still carried wall-clock profile blocks.
    snapshot = Telemetry("corrupt").snapshot().to_dict()
    snapshot.update(version=1, profile={"sim.loop": {"seconds": 0.25, "count": 1}})
    wire["telemetry"] = snapshot


def _missing_key(wire):
    del wire["end_time"]


CORRUPTIONS = [
    _frame_row_short,
    _frame_row_long,
    _workload_row_short,
    _drop_row,
    _present_row,
    _negative_stage,
    _unknown_category,
    _wrong_schema,
    _telemetry_version,
    _trace_kind,
    _v1_snapshot,
    _missing_key,
]


@pytest.fixture
def wire():
    wire = result_to_wire(execute_spec(_spec()))
    assert wire["frames"] and wire["drops"] and wire["presents"]
    return wire


def _corrupted(wire, corruption):
    broken = copy.deepcopy(wire)
    corruption(broken)
    return broken


def test_field_tuples_follow_the_dataclass_field_order():
    # The positional decoder unpacks rows in this order.
    frame_fields = [f.name for f in dataclasses.fields(FrameRecord)]
    frame_fields.remove("workload")
    assert list(_FRAME_FIELDS) == frame_fields
    assert list(_DROP_FIELDS) == [f.name for f in dataclasses.fields(DropEvent)]
    assert list(_PRESENT_FIELDS) == [
        f.name for f in dataclasses.fields(PresentRecord)
    ]


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c.__name__[1:])
def test_decoder_raises_value_error(wire, corruption):
    with pytest.raises(ValueError):
        result_from_wire(_corrupted(wire, corruption))


@pytest.mark.parametrize("payload", [[], "text", None, 3])
def test_decoder_rejects_a_non_mapping(payload):
    with pytest.raises(ValueError):
        result_from_wire(payload)


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c.__name__[1:])
def test_corrupt_cache_entry_is_evicted_and_rerun(tmp_path, wire, corruption):
    spec = _spec()
    cache = ResultCache(tmp_path)
    cache.put(spec, encode_wire(_corrupted(wire, corruption)))
    with Executor(jobs=1, cache=cache) as executor:
        result = executor.run(spec)
        assert executor.stats.cache_evictions == 1
        assert executor.stats.runs_executed == 1
    assert result_to_wire(result) == wire
    (entry,) = cache.entries()
    assert entry.read_bytes() == encode_wire(wire)  # healed with the fresh run


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c.__name__[1:])
def test_corrupt_cache_entry_is_scrubbed(tmp_path, wire, corruption):
    cache = ResultCache(tmp_path)
    cache.put(_spec(), encode_wire(_corrupted(wire, corruption)))
    cache.put(_spec("sound"), encode_wire(wire))
    assert cache.scrub() == 1
    assert len(cache.entries()) == 1


class _InlinePool:
    """A process pool that runs each submission at once, in this process."""

    def __init__(self, max_workers):
        pass

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c.__name__[1:])
def test_corrupt_worker_wire_settles_as_cache_corrupt(
    tmp_path, monkeypatch, corruption
):
    original = executor_module.result_to_wire

    def corrupting(result):
        broken = original(result)
        corruption(broken)
        return broken

    # Only a pool worker's result arrives as a wire; the inline pool runs
    # the worker here, so it sees the corrupting encoder.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(executor_module, "result_to_wire", corrupting)
    cache = ResultCache(tmp_path)
    with Executor(
        jobs=2, backend="process", cache=cache, policy="keep-going"
    ) as executor:
        outcome = executor.map_outcome([_spec()])
    assert outcome.results == [None]
    (failure,) = outcome.failures
    assert failure.kind == "cache-corrupt"
    assert failure.attempts == 1
    assert cache.entries() == []
    assert cache.stats.stores == 0
