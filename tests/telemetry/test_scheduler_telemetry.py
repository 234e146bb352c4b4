"""End-to-end telemetry through schedulers, the wire, and the executor."""

import pytest

from repro.core.config import DVSyncConfig
from repro.display.device import PIXEL_5
from repro.core.dvsync import DVSyncScheduler
from repro.exec.executor import Executor, execute_spec
from repro.exec.serialize import result_from_wire, result_to_wire
from repro.exec.spec import RunSpec
from repro.experiments.runner import scenario_spec
from repro.telemetry import runtime
from repro.telemetry.session import NullTelemetry, Telemetry
from repro.testing import light_params, make_animation
from repro.vsync.scheduler import VSyncScheduler
from repro.workloads.os_cases import scenario_for_case, use_case


def make_scenario():
    return scenario_for_case(
        use_case("cls notif ctr"), refresh_hz=60, target_fdps=1.0
    )


def test_disabled_run_registers_zero_hooks(pixel5):
    driver = make_animation(light_params(), "tel-off")
    # A checker reads the emission log too, so it would register QUEUED.
    scheduler = VSyncScheduler(driver, pixel5, verify=False)
    assert isinstance(scheduler.telemetry, NullTelemetry)
    assert scheduler.on_frame_spawned == []
    assert scheduler.pipeline.on_ui_complete == []
    assert scheduler.pipeline.on_frame_queued == []
    result = scheduler.run()
    assert result.telemetry is None


def test_enabled_run_attaches_snapshot(pixel5):
    driver = make_animation(light_params(), "tel-on")
    scheduler = VSyncScheduler(driver, pixel5, telemetry=True)
    assert isinstance(scheduler.telemetry, Telemetry)
    result = scheduler.run()
    snapshot = result.telemetry
    assert snapshot is not None
    assert snapshot.name == "vsync@tel-on"
    assert snapshot.trace.spans  # UI/render spans
    registry = snapshot.metrics_registry()
    assert registry.value("trigger.frames") == len(result.frames)
    assert registry.value("display.presents") == len(result.presents)
    assert registry.value("run.frames") == len(result.frames)
    assert snapshot.profile_seconds("scheduler.run") > 0
    assert snapshot.profile_seconds("sim.loop") > 0


def test_dvsync_run_records_decoupled_triggers(pixel5):
    driver = make_animation(light_params(), "tel-dv")
    scheduler = DVSyncScheduler(
        driver, pixel5, DVSyncConfig(buffer_count=4), telemetry=True
    )
    result = scheduler.run()
    snapshot = result.telemetry
    assert snapshot is not None
    triggers = [i for i in snapshot.trace.instants if i.track == "trigger"]
    assert any(i.name == "d-vsync" for i in triggers)
    # _finalize_result still annotates extra under the unified run().
    assert "fpe_triggers_accumulation" in result.extra


def test_caller_owned_session_is_used(pixel5):
    session = Telemetry("mine")
    driver = make_animation(light_params(), "tel-own")
    scheduler = VSyncScheduler(driver, pixel5, telemetry=session)
    assert scheduler.telemetry is session
    scheduler.run()
    assert session.trace.spans


@pytest.mark.parametrize("engine", ["event", "fastpath"])
def test_session_records_exactly_one_run(pixel5, engine):
    from repro import simulate
    from repro.core.api import SimConfig
    from repro.errors import ConfigurationError

    session = Telemetry("once")
    config = SimConfig(buffer_count=3, engine=engine)
    first = simulate(
        make_animation(light_params(), "tel-once"), pixel5,
        architecture="vsync", config=config, telemetry=session, verify=False,
    )
    spans = list(first.telemetry.trace.spans)
    with pytest.raises(ConfigurationError, match="exactly one run"):
        simulate(
            make_animation(light_params(), "tel-twice"), pixel5,
            architecture="vsync", config=config, telemetry=session, verify=False,
        )
    assert first.telemetry.trace.spans == spans


def test_result_wire_roundtrip_preserves_snapshot(pixel5):
    driver = make_animation(light_params(), "tel-wire")
    result = VSyncScheduler(driver, pixel5, telemetry=True).run()
    clone = result_from_wire(result_to_wire(result))
    assert clone.telemetry is not None
    assert clone.telemetry.name == result.telemetry.name
    assert clone.telemetry.trace.spans == result.telemetry.trace.spans
    assert clone.telemetry.metrics == result.telemetry.metrics
    assert clone.telemetry.profile == result.telemetry.profile


def test_uninstrumented_result_wire_roundtrip(pixel5):
    driver = make_animation(light_params(), "tel-wire-off")
    result = VSyncScheduler(driver, pixel5).run()
    assert result_from_wire(result_to_wire(result)).telemetry is None


def test_spec_telemetry_flag_forces_session_in_worker():
    spec = scenario_spec(make_scenario(), PIXEL_5, "vsync")
    assert spec.telemetry is False
    instrumented = RunSpec(
        driver=spec.driver,
        device=spec.device,
        architecture="vsync",
        telemetry=True,
    )
    # The flag is part of the content hash (instrumented results must not be
    # served to uninstrumented requests) and survives the spec wire.
    assert instrumented.content_hash() != spec.content_hash()
    assert RunSpec.from_wire(instrumented.to_wire()).telemetry is True
    result = execute_spec(instrumented)
    assert result.telemetry is not None


def test_scenario_spec_reads_process_switch():
    runtime.set_enabled(True)
    try:
        assert scenario_spec(make_scenario(), PIXEL_5, "vsync").telemetry is True
        assert (
            scenario_spec(
                make_scenario(), PIXEL_5, "vsync", telemetry=False
            ).telemetry
            is False
        )
    finally:
        runtime.set_enabled(False)
    assert scenario_spec(make_scenario(), PIXEL_5, "vsync").telemetry is False


def test_executor_collects_snapshots_across_backends(tmp_path):
    device = PIXEL_5
    runtime.reset()
    runtime.set_enabled(True)
    try:
        spec = scenario_spec(make_scenario(), device, "vsync")
        assert spec.telemetry is True
        with Executor(jobs=1, cache=True, cache_dir=tmp_path) as executor:
            executor.map([spec, spec])  # second is deduplicated
            collected = len(runtime.collector().snapshots)
            assert collected == 1  # one per unique simulated spec
            executor.map([spec])  # cache hit also publishes
            assert len(runtime.collector().snapshots) == 2
        assert runtime.collector().batches == 1
    finally:
        runtime.reset()


def test_pool_worker_round_trips_telemetry(tmp_path):
    """A process-pool worker records because the spec carries the flag."""
    device = PIXEL_5
    specs = [
        scenario_spec(make_scenario(), device, arch, telemetry=True)
        for arch in ("vsync", "dvsync")
    ]
    with Executor(jobs=2, backend="process") as executor:
        results = executor.map(specs)
    for result in results:
        assert result.telemetry is not None
        assert result.telemetry.trace.spans


def test_telemetry_rejects_bad_argument(pixel5):
    driver = make_animation(light_params(), "tel-bad")
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        VSyncScheduler(driver, pixel5, telemetry="yes")
