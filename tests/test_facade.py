"""Tests for the top-level ``repro.simulate`` facade."""

import pytest

import repro
from repro import PIXEL_5, Scenario, SimConfig, simulate
from repro.core.config import DVSyncConfig
from repro.errors import ConfigurationError
from repro.telemetry.session import Telemetry
from repro.testing import light_params, make_animation


def make_scenario():
    return Scenario(
        name="facade-demo",
        description="test scenario",
        refresh_hz=60,
        target_vsync_fdps=1.0,
        bursts=2,
    )


def test_exported_from_package_root():
    assert repro.simulate is simulate
    assert "simulate" in repro.__all__


def test_scenario_defaults_to_dvsync():
    result = simulate(make_scenario(), PIXEL_5)
    assert result.scheduler == "dvsync"
    assert result.telemetry is None


def test_scenario_vsync_with_buffer_count():
    result = simulate(
        make_scenario(), PIXEL_5, architecture="vsync",
        config=SimConfig(buffer_count=3),
    )
    assert result.scheduler == "vsync"
    assert result.buffer_count == 3


def test_scenario_dvsync_config_object():
    config = SimConfig(dvsync=DVSyncConfig(buffer_count=5))
    result = simulate(make_scenario(), PIXEL_5, config=config)
    assert result.buffer_count == 5


def test_seed_gives_independent_repetitions():
    first = simulate(make_scenario(), PIXEL_5, config=SimConfig(seed=0))
    second = simulate(make_scenario(), PIXEL_5, config=SimConfig(seed=1))
    identical = simulate(make_scenario(), PIXEL_5, config=SimConfig(seed=0))
    assert [f.workload for f in first.frames] == [
        f.workload for f in identical.frames
    ]
    assert [f.workload for f in first.frames] != [
        f.workload for f in second.frames
    ]


def test_live_driver_path(pixel5):
    driver = make_animation(light_params(), "facade-live")
    result = simulate(
        driver, pixel5, architecture="vsync", config=SimConfig(buffer_count=3)
    )
    assert result.scenario == "facade-live"
    assert result.scheduler == "vsync"


def test_telemetry_flag_attaches_snapshot():
    result = simulate(make_scenario(), PIXEL_5, telemetry=True)
    assert result.telemetry is not None
    assert result.telemetry.trace.spans


def test_live_driver_accepts_session(pixel5):
    session = Telemetry("facade-own")
    driver = make_animation(light_params(), "facade-session")
    result = simulate(driver, pixel5, architecture="vsync", telemetry=session)
    assert result.telemetry is not None
    assert session.trace.spans


def test_scenario_rejects_session_object():
    with pytest.raises(ConfigurationError, match="on/off flag"):
        simulate(make_scenario(), PIXEL_5, telemetry=Telemetry("x"))


def test_seed_rejected_for_live_driver(pixel5):
    driver = make_animation(light_params(), "facade-seed")
    with pytest.raises(ConfigurationError, match="seed"):
        simulate(driver, pixel5, config=SimConfig(seed=1))


def test_timeout_rejected_for_live_driver(pixel5):
    driver = make_animation(light_params(), "facade-timeout")
    with pytest.raises(ConfigurationError, match="timeout_s"):
        simulate(driver, pixel5, config=SimConfig(timeout_s=5.0))


def test_unknown_architecture_rejected():
    with pytest.raises(ConfigurationError, match="architecture"):
        simulate(make_scenario(), PIXEL_5, architecture="tripple-buffer")


def test_dvsync_config_rejected_for_vsync():
    with pytest.raises(ConfigurationError, match="DVSyncConfig"):
        simulate(
            make_scenario(),
            PIXEL_5,
            architecture="vsync",
            config=SimConfig(dvsync=DVSyncConfig(buffer_count=4)),
        )


def test_bad_config_type_rejected():
    with pytest.raises(ConfigurationError, match="config must be a SimConfig"):
        simulate(make_scenario(), PIXEL_5, config="four")
    with pytest.raises(ConfigurationError, match="config must be a SimConfig"):
        simulate(make_scenario(), PIXEL_5, config=4)


def test_bad_scenario_type_rejected():
    with pytest.raises(ConfigurationError, match="Scenario"):
        simulate("fig05", PIXEL_5)


def test_live_driver_spec_cannot_reach_an_executor():
    """A live run's RunSpec names no builder: it neither builds nor decodes."""
    from repro.exec.executor import Executor
    from repro.exec.spec import RunSpec
    from repro.facade import LIVE_DRIVER

    spec = RunSpec(driver=LIVE_DRIVER, device=PIXEL_5, architecture="dvsync")
    with pytest.raises(ConfigurationError, match="cannot resolve driver builder"):
        spec.driver.build()
    with pytest.raises(ConfigurationError, match="module:function"):
        RunSpec.from_wire(spec.to_wire())
    [failure] = Executor().map_outcome([spec]).failures
    assert failure.kind == "config"
