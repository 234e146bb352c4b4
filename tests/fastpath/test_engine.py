"""Engine selection: auto fallback, forced-fastpath errors, hash neutrality."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import DVSyncConfig
from repro.display.device import PIXEL_5
from repro.errors import ConfigurationError
from repro.exec.executor import execute_spec
from repro.exec.serialize import result_to_wire
from repro.exec.spec import DriverSpec, RunSpec, canonical_json
from repro.fastpath.engine import (
    get_default_engine,
    reset_default_engine,
    resolve_engine,
    set_default_engine,
    spec_ineligibility,
)
from tests.fastpath.test_parity import wire_text


@pytest.fixture(autouse=True)
def _engine_default_isolation():
    reset_default_engine()
    yield
    reset_default_engine()


def _burst_spec(**overrides) -> RunSpec:
    driver = DriverSpec.of(
        "repro.exec.builders:burst_animation",
        name="engine-test",
        target_fdps=3.0,
        refresh_hz=60,
        duration_ms=150,
    )
    fields = dict(driver=driver, device=PIXEL_5, architecture="vsync", buffer_count=3)
    fields.update(overrides)
    return RunSpec(**fields)


# --------------------------------------------------------------- resolution
def test_resolve_engine_accepts_known_names_and_rejects_unknown():
    assert resolve_engine("event") == "event"
    assert resolve_engine("fastpath") == "fastpath"
    assert resolve_engine(None) == get_default_engine()
    with pytest.raises(ConfigurationError, match="unknown engine"):
        resolve_engine("warp")


def test_process_default_comes_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "event")
    reset_default_engine()
    assert get_default_engine() == "event"
    assert resolve_engine("auto") == "event"
    set_default_engine("fastpath")
    assert resolve_engine("auto") == "fastpath"


def test_invalid_environment_engine_raises(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "bogus")
    reset_default_engine()
    with pytest.raises(ConfigurationError, match="REPRO_ENGINE"):
        get_default_engine()


# ------------------------------------------------------------- eligibility
def test_spec_ineligibility_names_the_observer():
    from repro.verify import runtime

    runtime.set_enabled(False)  # the suite-wide strict fixture resets this
    assert spec_ineligibility(_burst_spec(verify=False)) is None
    assert spec_ineligibility(_burst_spec(verify=True)) is None
    assert spec_ineligibility(_burst_spec(telemetry=True)) is None
    disabled = _burst_spec(
        architecture="dvsync",
        buffer_count=None,
        dvsync=DVSyncConfig(buffer_count=4, enabled=False),
    )
    assert "fallback" in spec_ineligibility(disabled)


def test_process_wide_verify_switch_keeps_fastpath():
    # The suite-wide strict fixture keeps the switch armed in this module.
    spec = _burst_spec(verify=False, engine="fastpath")
    assert spec_ineligibility(spec) is None
    verdict = execute_spec(spec).extra["invariants"]
    assert verdict["checked"] > 0 and verdict["violation_count"] == 0


def test_strict_checker_raises_on_the_fastpath():
    from repro import simulate
    from repro.core.api import SimConfig
    from repro.errors import InvariantViolationError
    from repro.verify.invariants import InvariantChecker

    spec = _burst_spec()
    checker = InvariantChecker(strict=True)
    checker._record("present-once", 0, "synthetic violation for the test")
    with pytest.raises(InvariantViolationError, match="present-once"):
        simulate(
            spec.driver.build(),
            spec.device,
            architecture="vsync",
            config=SimConfig(buffer_count=3, engine="fastpath"),
            verify=checker,
        )


#: ``(telemetry switch, verify switch, live-driver (telemetry, verify),
#: spec (telemetry, verify), dvsync config, replayable)``. A live driver's
#: ``None`` defers to the switch; a spec's ``False`` does the same.
_VERDICT_CASES = {
    "switches-off": (False, False, (None, None), (False, False), None, True),
    "telemetry-on": (False, False, (True, False), (True, False), None, True),
    "telemetry-off": (False, False, (False, False), (False, False), None, True),
    "telemetry-switch": (True, False, (None, False), (False, False), None, True),
    "verify-on": (False, False, (False, True), (False, True), None, True),
    "verify-off": (False, False, (False, False), (False, False), None, True),
    "verify-switch": (False, True, (False, None), (False, False), None, True),
    "dvsync-disabled": (
        False, False, (False, False), (False, False),
        DVSyncConfig(buffer_count=4, enabled=False), False,
    ),
}


@pytest.mark.parametrize("case", list(_VERDICT_CASES))
def test_live_driver_and_spec_paths_agree_on_eligibility(case):
    """A spec and a live driver take one engine choice: both replay, or both
    are refused with the same reason, and replayed wires are equal."""
    from repro import simulate
    from repro.core.api import SimConfig
    from repro.fastpath.profile import clear_profile_cache
    from repro.telemetry import runtime as telemetry_runtime
    from repro.verify import runtime as verify_runtime

    telemetry_switch, verify_switch, live, flags, dvsync, replayable = (
        _VERDICT_CASES[case]
    )
    telemetry_runtime.set_enabled(telemetry_switch)
    verify_runtime.set_enabled(verify_switch)
    spec = _burst_spec(telemetry=flags[0], verify=flags[1], engine="fastpath")
    if dvsync is not None:
        spec = dataclasses.replace(
            spec, architecture="dvsync", buffer_count=None, dvsync=dvsync
        )
    clear_profile_cache()

    def run_spec():
        return execute_spec(spec)

    def run_live():
        return simulate(
            spec.driver.build(),
            spec.device,
            architecture=spec.architecture,
            config=SimConfig(
                buffer_count=spec.buffer_count, dvsync=spec.dvsync, engine="fastpath"
            ),
            telemetry=live[0],
            verify=live[1],
        )

    if replayable:
        assert wire_text(run_spec()) == wire_text(run_live())
        return
    refusals = []
    for run in (run_spec, run_live):
        with pytest.raises(ConfigurationError, match="cannot replay this spec: ") as refused:
            run()
        refusals.append(str(refused.value))
    assert refusals[0] == refusals[1]


# ---------------------------------------------------------------- fallback
def test_forced_fastpath_raises_for_ineligible_spec():
    spec = _burst_spec(faults="vsync-jitter(sigma_us=300)", engine="fastpath")
    with pytest.raises(ConfigurationError, match="cannot replay this spec"):
        execute_spec(spec)


def test_auto_falls_back_to_event_for_non_trace_pure_driver():
    """A driver without a replay profile silently takes the event engine."""
    from repro.verify import runtime

    runtime.set_enabled(False)
    try:
        driver = DriverSpec.of(
            "repro.experiments.fig07_touch_latency:build_touch_driver",
            repetition=0,
        )
        spec = RunSpec(
            driver=driver, device=PIXEL_5, architecture="dvsync", engine="auto"
        )
        auto = execute_spec(spec)
        event = execute_spec(dataclasses.replace(spec, engine="event"))
        assert canonical_json(result_to_wire(auto)) == canonical_json(
            result_to_wire(event)
        )
    finally:
        runtime.reset()


def test_forced_fastpath_raises_for_live_non_trace_pure_driver():
    from repro import simulate
    from repro.core.api import SimConfig
    from repro.pipeline.driver import ScenarioDriver
    from repro.pipeline.frame import FrameWorkload

    class Opaque(ScenarioDriver):
        def wants_frame(self, content_timestamp, now):
            return now - self.start_time < 50_000_000

        def finished(self, now):
            return now - self.start_time >= 50_000_000

        def make_workload(self, frame_index, content_timestamp):
            return FrameWorkload(ui_ns=1_000_000, render_ns=1_000_000, gpu_ns=0)

    with pytest.raises(ConfigurationError, match="cannot replay this spec"):
        simulate(
            Opaque(),
            PIXEL_5,
            architecture="vsync",
            config=SimConfig(engine="fastpath"),
            verify=False,
        )


# -------------------------------------------------------------------- hash
def test_engine_rides_outside_the_content_hash():
    """Both engines are byte-exact, so results are engine-interchangeable."""
    base = _burst_spec()
    for engine in ("auto", "event", "fastpath"):
        assert dataclasses.replace(base, engine=engine).content_hash() == (
            base.content_hash()
        )
    with pytest.raises(ConfigurationError, match="unknown engine"):
        _burst_spec(engine="warp")
