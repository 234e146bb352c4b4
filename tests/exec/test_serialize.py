"""Tests for the lossless RunResult wire form."""

import gc
import json

import pytest

from repro.core.config import DVSyncConfig
from repro.display.device import PIXEL_5
from repro.display.hal import PresentRecord
from repro.exec.cache import ResultCache
from repro.exec.serialize import (
    RESULT_SCHEMA_VERSION,
    encode_wire,
    gc_paused,
    jsonable,
    result_from_wire,
    result_to_wire,
)
from repro.exec.spec import DriverSpec, RunSpec
from repro.exec.executor import execute_spec
from repro.faults.schedule import FaultSchedule
from repro.pipeline.compositor import DropEvent
from repro.pipeline.frame import FrameRecord, FrameWorkload


def _result(architecture="vsync", faults=None, watchdog=False):
    spec = RunSpec(
        driver=DriverSpec.of(
            "repro.exec.builders:burst_animation",
            name="wire-test",
            target_fdps=2.0,
        ),
        device=PIXEL_5,
        architecture=architecture,
        buffer_count=3 if architecture == "vsync" else None,
        dvsync=DVSyncConfig(buffer_count=4) if architecture == "dvsync" else None,
        faults=faults,
        watchdog=watchdog,
    )
    return execute_spec(spec)


def test_round_trip_is_lossless():
    result = _result()
    clone = result_from_wire(result_to_wire(result))
    assert clone.frames == result.frames
    assert clone.drops == result.drops
    assert clone.presents == result.presents
    assert clone.device == result.device
    assert clone.scheduler == result.scheduler
    assert clone.end_time == result.end_time


def test_wire_form_is_json_and_bit_stable():
    wire = result_to_wire(_result())
    text = json.dumps(wire, sort_keys=True)
    again = result_to_wire(result_from_wire(json.loads(text)))
    assert json.dumps(again, sort_keys=True) == text


def test_round_trip_covers_dvsync_extras():
    result = _result(
        architecture="dvsync",
        faults="vsync-jitter(sigma_us=300)",
        watchdog=True,
    )
    clone = result_from_wire(result_to_wire(result))
    assert clone.extra.get("faults") == result.extra["faults"]
    assert clone.scheduler == "dvsync"
    assert clone == result
    assert result_to_wire(clone) == result_to_wire(result)


@pytest.mark.parametrize("architecture", ["vsync", "dvsync"])
def test_fault_drill_arms_equal_their_decoded_form(architecture):
    # The watchdog's event log and the HAL's contained exceptions were once
    # built as tuples, which a decode turns into lists.
    dvsync = architecture == "dvsync"
    spec = RunSpec(
        driver=DriverSpec.of("repro.faults.drill:drill_driver", scenario="interaction"),
        device=PIXEL_5,
        architecture=architecture,
        buffer_count=None if dvsync else 3,
        dvsync=DVSyncConfig(buffer_count=4) if dvsync else None,
        faults=FaultSchedule.parse("standard").describe(),
        watchdog=dvsync,
    )
    result = execute_spec(spec)
    assert result_from_wire(result_to_wire(result)) == result


def test_contained_exceptions_equal_their_decoded_form():
    result = _result(faults="callback-crash(prob=0.5)")
    assert result.extra["contained_exceptions"]
    assert result_from_wire(result_to_wire(result)) == result


def test_schema_mismatch_is_rejected():
    wire = result_to_wire(_result())
    wire["schema"] = RESULT_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema"):
        result_from_wire(wire)


def test_jsonable_converts_tuples_recursively():
    assert jsonable({"a": (1, (2, 3)), "b": [4, (5,)]}) == {
        "a": [1, [2, 3]],
        "b": [4, [5]],
    }


def test_records_carry_no_instance_dict():
    # One record per frame and per present: a __dict__ each made the decoded
    # quick matrix's results about 16% larger.
    workload = FrameWorkload(1, 2)
    records = [
        workload,
        FrameRecord(0, workload, 0, 0),
        PresentRecord(0, 0, 0, 0, 0, 0),
        DropEvent(0, 0, 0, 0),
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def _decode(payload: bytes):
    with gc_paused():
        assert not gc.isenabled()
        return result_from_wire(json.loads(payload))


@pytest.fixture
def payload():
    enabled = gc.isenabled()
    yield encode_wire(result_to_wire(_result()))
    (gc.enable if enabled else gc.disable)()


def _missing_key(payload: bytes) -> bytes:
    wire = json.loads(payload)
    del wire["end_time"]
    return encode_wire(wire)


def test_gc_pause_restores_an_enabled_gc(payload, tmp_path):
    gc.enable()
    assert encode_wire(result_to_wire(_decode(payload))) == payload
    assert gc.isenabled()
    for corrupt in (payload[:-1], _missing_key(payload)):
        with pytest.raises(ValueError):
            _decode(corrupt)
        assert gc.isenabled()
    cache = ResultCache(tmp_path)
    spec = RunSpec(
        driver=DriverSpec.of("repro.exec.builders:burst_animation", name="gc"),
        device=PIXEL_5,
    )
    cache.put(spec, payload[:-1])
    assert cache.get(spec) is None  # evicted as a miss
    assert cache.stats.evictions == 1
    assert gc.isenabled()


def test_gc_pause_leaves_a_disabled_gc_disabled(payload):
    gc.disable()
    _decode(payload)
    assert not gc.isenabled()
    with pytest.raises(ValueError):
        _decode(payload[:-1])
    assert not gc.isenabled()
