"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import DVSyncConfig
from repro.display.device import PIXEL_5
from repro.sim.engine import Simulator
from repro.workloads.distributions import (
    SCATTERED,
    FrameTimeParams,
    params_for_target_fdps,
)


@pytest.fixture(autouse=True)
def _telemetry_isolation():
    """Keep the process-wide telemetry switch/collector from leaking."""
    yield
    from repro.telemetry import runtime

    runtime.reset()


@pytest.fixture(autouse=True)
def _strict_verification():
    """Run the whole suite under the strict invariant checker.

    Every run any test starts gets a checker via the process-wide switch,
    on either engine: the checker reads the finished run and its emission
    log, so the switch does not change which engine runs a spec, and
    trace-pure specs still replay. A violated invariant fails the test
    loudly (:class:`~repro.errors.InvariantViolationError`) instead of
    shipping a silently-wrong trace. Tests that intentionally break
    invariants pass ``verify=False`` (or a relaxed checker) explicitly.
    """
    from repro.verify import runtime

    runtime.set_enabled(True, strict=True)
    yield
    runtime.reset()


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def light_params() -> FrameTimeParams:
    """A 60 Hz workload with no key frames (never drops)."""
    return FrameTimeParams(refresh_hz=60, key_prob=0.0)


@pytest.fixture
def droppy_params() -> FrameTimeParams:
    """A 60 Hz workload calibrated to drop a few frames per second."""
    return params_for_target_fdps(3.0, 60, profile=SCATTERED)


@pytest.fixture
def quick_dvsync_config() -> DVSyncConfig:
    return DVSyncConfig(buffer_count=4)


@pytest.fixture
def pixel5():
    return PIXEL_5
