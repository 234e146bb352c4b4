"""Tests for the invariant checker: whole runs, and one log per invariant."""

import pytest

from repro.core.config import DVSyncConfig
from repro.core.dvsync import DVSyncScheduler
from repro.core.ltpo_codesign import LTPOCoDesign
from repro.display.device import MATE_60_PRO, PIXEL_5
from repro.display.hal import PresentRecord
from repro.display.ltpo import LTPOController
from repro.errors import ConfigurationError, InvariantViolationError
from repro.pipeline.compositor import DropEvent
from repro.pipeline.frame import FrameRecord, FrameWorkload
from repro.pipeline.scheduler_base import RunResult
from repro.telemetry.session import QUEUED
from repro.testing import light_params, make_animation, run_dvsync, run_vsync
from repro.units import ms
from repro.verify import runtime
from repro.verify.invariants import (
    INVARIANTS,
    V_COMMIT,
    V_END,
    V_IDLE,
    V_PRESENT,
    V_SPAWN,
    V_TICK,
    InvariantChecker,
    Violation,
    resolve_checker,
)
from repro.vsync.scheduler import VSyncScheduler
from repro.workloads.animations import DecelerateCurve
from repro.workloads.distributions import params_for_target_fdps
from repro.workloads.drivers import AnimationDriver


def test_registry_ids_are_documented():
    assert len(INVARIANTS) >= 10
    for invariant_id, description in INVARIANTS.items():
        assert invariant_id == invariant_id.lower()
        assert description


def test_clean_vsync_run_is_violation_free():
    result = run_vsync(make_animation(light_params(), "inv-vsync"))
    verdict = result.extra["invariants"]
    assert verdict["violation_count"] == 0
    assert verdict["violations"] == []
    assert verdict["checked"] > 0
    assert verdict["waived"] == {}
    assert verdict["relaxed"] is None


def test_clean_droppy_dvsync_run_is_violation_free():
    params = params_for_target_fdps(5.0, 60)
    result = run_dvsync(make_animation(params, "inv-droppy"))
    verdict = result.extra["invariants"]
    assert verdict["violation_count"] == 0
    assert verdict["checked"] > 0


def test_disabled_scheduler_registers_no_verifier():
    scheduler = VSyncScheduler(
        make_animation(light_params(), "inv-off"),
        PIXEL_5,
        buffer_count=3,
        verify=False,
    )
    assert scheduler.verifier is None
    result = scheduler.run()
    assert "invariants" not in result.extra


def test_resolve_checker_semantics():
    assert resolve_checker(False) is None
    checker = resolve_checker(True)
    assert isinstance(checker, InvariantChecker) and not checker.strict
    explicit = InvariantChecker(strict=True)
    assert resolve_checker(explicit) is explicit
    with pytest.raises(ConfigurationError):
        resolve_checker(7)


def test_resolve_checker_follows_runtime_switch():
    runtime.set_enabled(False)
    assert resolve_checker(None) is None
    runtime.set_enabled(True, strict=False)
    checker = resolve_checker(None)
    assert isinstance(checker, InvariantChecker) and not checker.strict
    runtime.set_enabled(True, strict=True)
    assert resolve_checker(None).strict


def test_checker_serves_exactly_one_run():
    checker = InvariantChecker()
    VSyncScheduler(
        make_animation(light_params(), "inv-one"),
        PIXEL_5,
        buffer_count=3,
        verify=checker,
    )
    with pytest.raises(ConfigurationError):
        VSyncScheduler(
            make_animation(light_params(), "inv-two"),
            PIXEL_5,
            buffer_count=3,
            verify=checker,
        )


def test_waive_rejects_unknown_invariant():
    with pytest.raises(ConfigurationError):
        InvariantChecker().waive("no-such-invariant", "because")


def test_strict_checker_fails_the_run_on_violation():
    checker = InvariantChecker(strict=True)
    scheduler = VSyncScheduler(
        make_animation(light_params(), "inv-strict", duration_ms=200),
        PIXEL_5,
        buffer_count=3,
        verify=checker,
    )
    checker._record("present-once", 0, "synthetic violation for the test")
    with pytest.raises(InvariantViolationError, match="present-once"):
        scheduler.run()


def test_relaxed_checker_records_without_raising():
    checker = InvariantChecker(strict=True)
    checker.relax("test exercises the evidence path")
    scheduler = VSyncScheduler(
        make_animation(light_params(), "inv-relaxed", duration_ms=200),
        PIXEL_5,
        buffer_count=3,
        verify=checker,
    )
    checker._record("present-once", 0, "synthetic violation for the test")
    result = scheduler.run()  # records, never raises
    verdict = result.extra["invariants"]
    assert verdict["violation_count"] == 1
    assert verdict["relaxed"] == "test exercises the evidence path"


def test_violation_wire_form_is_json_primitive():
    violation = Violation(invariant="queue-fifo", time=42, message="m")
    assert violation.to_wire() == ["queue-fifo", 42, "m"]


def test_ltpo_rate_switching_run_stays_clean():
    """A run that actually switches panel rates passes the full checker."""
    driver = AnimationDriver(
        "inv-ltpo",
        light_params(refresh_hz=120),
        duration_ns=ms(1200.0),
        curve=DecelerateCurve(rate=4.0),
    )
    scheduler = DVSyncScheduler(driver, MATE_60_PRO, DVSyncConfig(buffer_count=4))
    ltpo = LTPOController(scheduler.hw_vsync, max_hz=120)
    LTPOCoDesign(scheduler, ltpo, enforce_drain=True)
    result = scheduler.run()
    assert ltpo.current_hz < 120  # the rate really switched
    assert result.extra["invariants"]["violation_count"] == 0


def test_ltpo_ablation_waives_rate_bound_display():
    driver = AnimationDriver(
        "inv-ltpo-ablate",
        light_params(refresh_hz=120),
        duration_ns=ms(1200.0),
        curve=DecelerateCurve(rate=4.0),
    )
    scheduler = DVSyncScheduler(driver, MATE_60_PRO, DVSyncConfig(buffer_count=4))
    ltpo = LTPOController(scheduler.hw_vsync, max_hz=120)
    bridge = LTPOCoDesign(scheduler, ltpo, enforce_drain=False)
    result = scheduler.run()
    waived = result.extra["invariants"]["waived"]
    assert "rate-bound-display" in waived
    # The ablation produced the mismatches the waiver covers, and the
    # checker reported no *other* violations.
    assert bridge.rate_mismatched_presents > 0
    assert result.extra["invariants"]["violation_count"] == 0


# ------------------------------------------------- one log per invariant
P = 16_666_667  # a 60 Hz period
IDLE = (0, 0, 0, False, 0, 0)  # queue state: nothing queued, no front buffer


def _frame(frame_id, content=0, decoupled=False, rate=60, present=None):
    frame = FrameRecord(
        frame_id=frame_id,
        workload=FrameWorkload(ui_ns=1, render_ns=1),
        trigger_time=frame_id * P,
        content_timestamp=content,
        decoupled=decoupled,
    )
    frame.render_rate_hz = rate
    frame.present_time = present
    return frame


def _present(frame_id, time):
    return PresentRecord(
        frame_id=frame_id,
        present_time=time,
        vsync_index=0,
        content_timestamp=0,
        queue_depth_after=0,
        refresh_period=P,
    )


def _result(frames=(), presents=(), drops=()):
    return RunResult(
        scheduler="log",
        scenario="log",
        device=PIXEL_5,
        buffer_count=3,
        frames=list(frames),
        drops=list(drops),
        presents=list(presents),
        start_time=0,
        end_time=10 * P,
        ui_busy_ns=0,
        render_busy_ns=0,
        gpu_busy_ns=0,
    )


def _tick(time, state=IDLE):
    return (V_TICK, (time, P) + state)


def _end(pending=None, state=IDLE):
    return (V_END, state + (pending,))


def _shown(*frame_ids):
    """Frames queued in order, then presented one period apart."""
    log = [(QUEUED, frame_id) for frame_id in frame_ids]
    log += [(V_PRESENT, index) for index in range(len(frame_ids))]
    return log


#: Invariant id -> (result, log) that breaks exactly that invariant.
BREAKING_LOGS = {
    "buffer-conservation": (_result(), [_tick(P, (1, 0, 0, False, 1, 1)), _end()]),
    "queue-fifo": (
        _result([_frame(0)], [_present(0, 2 * P)]),
        [(V_PRESENT, 0), _end()],
    ),
    "present-monotone": (
        _result([_frame(0), _frame(1)], [_present(0, 3 * P), _present(1, 2 * P)]),
        _shown(0, 1) + [_end()],
    ),
    "present-once": (
        _result([_frame(0)], [_present(0, 2 * P), _present(0, 3 * P)]),
        _shown(0, 0) + [_end()],
    ),
    "content-monotone": (
        _result(
            [_frame(0, content=P), _frame(1, content=0)],
            [_present(0, 2 * P), _present(1, 3 * P)],
        ),
        _shown(0, 1) + [_end()],
    ),
    "dts-monotone": (
        _result(),
        [
            (V_COMMIT, (0, 3 * P, P, 3 * P)),
            (V_COMMIT, (P, 4 * P, P, 3 * P)),
            _end(),
        ],
    ),
    "dts-future-slot": (_result(), [(V_COMMIT, (5 * P, 4 * P, 2 * P, 2 * P)), _end()]),
    "accumulation-limit": (
        _result([_frame(0, decoupled=True)]),
        [(V_COMMIT, (0, 3 * P, P, 2 * P)), (V_SPAWN, (0, 4, 3)), _end()],
    ),
    "rate-bound-display": (
        _result([_frame(0, rate=120)], [_present(0, 2 * P)]),
        _shown(0) + [_end()],
    ),
    "dtv-grid-calibration": (
        _result([_frame(0, decoupled=True)], [_present(0, 3 * P + 5)]),
        [
            (V_COMMIT, (0, 3 * P, P, 2 * P)),
            (V_SPAWN, (0, 1, 3)),
            *_shown(0),
            _tick(3 * P),
            _end(pending=()),
        ],
    ),
    "drop-accounting": (
        _result(drops=[DropEvent(P, 0, queued_depth=0, frames_in_flight=0)]),
        [_tick(P), _end()],
    ),
    "dtv-tracking": (
        _result([_frame(0, decoupled=True, present=2 * P)]),
        [_end(pending=(0,))],
    ),
}


def test_every_invariant_has_a_breaking_log():
    assert sorted(BREAKING_LOGS) == sorted(INVARIANTS)


@pytest.mark.parametrize("invariant", sorted(BREAKING_LOGS))
def test_breaking_log_fires_exactly_its_invariant(invariant):
    result, log = BREAKING_LOGS[invariant]
    checker = InvariantChecker()
    checker.check(result, log)
    verdict = result.extra["invariants"]
    assert verdict["violation_count"] >= 1
    assert {v[0] for v in verdict["violations"]} == {invariant}


def test_waived_invariant_is_neither_checked_nor_counted():
    result, log = BREAKING_LOGS["drop-accounting"]
    strict = InvariantChecker()
    strict.check(result, log)
    waiving = InvariantChecker()
    waiving.waive("drop-accounting", "test")
    waiving.check(result, log)
    verdict = result.extra["invariants"]
    assert verdict["violation_count"] == 0
    assert verdict["checked"] == strict.checks - 1
    assert verdict["waived"] == {"drop-accounting": "test"}


def test_idle_entry_checks_each_skipped_tick_in_the_last_ticks_state():
    broken = (1, 0, 0, False, 1, 1)
    checker = InvariantChecker()
    checker.check(_result(), [_tick(P, broken), (V_IDLE, 3), _end()])
    times = [v.time for v in checker.violations]
    assert times == [P, 2 * P, 3 * P, 4 * P]
    assert checker.checks == 5  # four ticks and the run end
