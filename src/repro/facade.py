"""``repro.simulate()``: the one way to run a single simulation.

:func:`simulate` picks the path from its first argument:

* a :class:`~repro.workloads.scenarios.Scenario` is declarative, so it is
  described as a :class:`~repro.exec.spec.RunSpec` and runs through the
  default executor, with its result cache and any configured parallelism;
* a live :class:`~repro.pipeline.driver.ScenarioDriver` cannot be content-
  addressed, so it runs in-process. This is the one escape hatch for
  callers that already hold a driver (tests, ad-hoc exploration, drivers
  wrapped in live objects).

Many runs belong in a :class:`~repro.study.Study`, which batches them into
one executor submission. Either way the result is the same normalized
:class:`RunResult`, and telemetry and verification obey the same tri-state
contract as the scheduler constructors: ``None`` defers to the process-wide
switch, ``True``/``False`` force it, and a
:class:`~repro.telemetry.session.Telemetry` instance records into a session
the caller owns (driver path only — sessions cannot cross the spec wire).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.api import Arch, SimConfig
from repro.core.config import DVSyncConfig
from repro.core.dvsync import DVSyncScheduler
from repro.errors import ConfigurationError
from repro.exec.executor import get_default_executor
from repro.pipeline.driver import ScenarioDriver
from repro.pipeline.scheduler_base import RunResult
from repro.telemetry import runtime as telemetry_runtime
from repro.vsync.scheduler import VSyncScheduler
from repro.workloads.scenarios import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.session import NullTelemetry, Telemetry
    from repro.verify.invariants import InvariantChecker


def simulate(
    scenario: Scenario | ScenarioDriver,
    device,
    *,
    architecture: Arch | str = Arch.DVSYNC,
    config: SimConfig | None = None,
    telemetry: "bool | Telemetry | NullTelemetry | None" = None,
    verify: "bool | InvariantChecker | None" = None,
) -> RunResult:
    """Run *scenario* on *device* under one architecture; return the result.

    Args:
        scenario: A declarative :class:`Scenario` (runs via the default
            executor: cached, parallelizable) or a live
            :class:`ScenarioDriver` (runs in-process).
        device: The :class:`~repro.display.device.DeviceProfile` under test.
        architecture: :attr:`Arch.DVSYNC` (the paper's system, default) or
            :attr:`Arch.VSYNC` (the classic baseline); the wire strings
            ``"dvsync"``/``"vsync"`` are equivalent (``Arch`` is a str enum).
        config: A :class:`SimConfig` bundling buffers, pre-render limit,
            engine, seed and timeout, or ``None`` for the defaults. ``seed``
            (the repetition index a Scenario's driver is seeded with) and
            ``timeout_s`` (the supervised executor's deadline) apply to a
            Scenario only; a live driver is already built and runs with
            nothing above it to enforce a deadline.
        telemetry: ``None`` defers to the process-wide switch
            (:func:`repro.telemetry.runtime.set_enabled`); ``True``/``False``
            force recording on/off for this run; an explicit session records
            into it (live-driver path only). When recorded, the snapshot is
            attached as ``result.telemetry``.
        verify: Same tri-state contract for the runtime invariant checker
            (:mod:`repro.verify`): ``None`` defers to
            :func:`repro.verify.runtime.set_enabled`, ``True`` forces a
            checker, ``False`` declines one, an
            :class:`~repro.verify.invariants.InvariantChecker` instance is
            used as-is (live-driver path only). Like ``telemetry``, the
            Scenario path records the flag on the :class:`RunSpec` as an
            opt-in: ``True`` forces a checker in whichever process executes
            the spec, while ``False`` still defers to that process's
            process-wide switch. The verdict is attached as
            ``result.extra["invariants"]``.

    Returns:
        The normalized :class:`RunResult` for the run.
    """
    arch = Arch.coerce(architecture)
    if config is None:
        config = SimConfig()
    elif not isinstance(config, SimConfig):
        raise ConfigurationError(
            f"config must be a SimConfig or None, got {config!r}"
        )
    buffer_count, dvsync_config = config.normalize(arch)

    if isinstance(scenario, Scenario):
        if telemetry is not None and not isinstance(telemetry, bool):
            raise ConfigurationError(
                "a Scenario runs through the executor, whose specs only carry "
                "a telemetry on/off flag; pass telemetry=True/False/None or "
                "use a live driver with an explicit session"
            )
        if verify is not None and not isinstance(verify, bool):
            raise ConfigurationError(
                "a Scenario runs through the executor, whose specs only carry "
                "a verify on/off flag; pass verify=True/False/None or use a "
                "live driver with an explicit InvariantChecker"
            )
        from repro.experiments.runner import scenario_spec

        return get_default_executor().run(
            scenario_spec(
                scenario,
                device,
                arch.value,
                run=config.seed or 0,
                buffer_count=buffer_count,
                dvsync_config=dvsync_config,
                telemetry=telemetry,
                verify=verify,
                timeout_s=config.timeout_s,
                engine=config.engine,
            )
        )

    if isinstance(scenario, ScenarioDriver):
        if config.seed is not None:
            raise ConfigurationError(
                "seed only applies to a declarative Scenario; a live driver "
                "is already constructed (seed its builder instead)"
            )
        if config.timeout_s is not None:
            raise ConfigurationError(
                "timeout_s only applies to a declarative Scenario, which runs "
                "under the supervised executor; a live driver runs in-process "
                "with nothing above it to enforce a deadline"
            )
        return _run_live_driver(
            scenario,
            device,
            arch.value,
            buffer_count,
            dvsync_config,
            telemetry,
            verify,
            config.engine,
        )

    raise ConfigurationError(
        f"scenario must be a Scenario or a ScenarioDriver, got {scenario!r}"
    )


def _run_live_driver(
    driver: ScenarioDriver,
    device,
    architecture: str,
    buffer_count: int | None,
    dvsync_config: DVSyncConfig | None,
    telemetry,
    verify,
    engine: str,
) -> RunResult:
    """Run one live driver to completion in-process.

    ``engine`` follows the spec-layer contract: ``"auto"`` replays trace-pure
    runs through :mod:`repro.fastpath` and falls back to the event loop
    otherwise; ``"fastpath"`` raises when the run cannot be replayed. The
    telemetry snapshot (if any) is published to the collector like
    executor-path runs are.
    """
    from repro.fastpath.engine import fastpath_driver_attempt, resolve_engine

    requested = resolve_engine(engine)
    result = None
    if requested != "event":
        result, reason = fastpath_driver_attempt(
            driver, device, architecture, buffer_count, dvsync_config,
            telemetry, verify,
        )
        if result is None and requested == "fastpath":
            raise ConfigurationError(
                f"engine='fastpath' cannot replay this run: {reason}"
            )
    if result is None:
        if architecture == "vsync":
            scheduler = VSyncScheduler(
                driver, device, buffer_count, telemetry=telemetry, verify=verify
            )
        else:  # SimConfig.normalize folds dvsync buffers into dvsync_config
            scheduler = DVSyncScheduler(
                driver, device, dvsync_config, telemetry=telemetry, verify=verify
            )
        result = scheduler.run()
    telemetry_runtime.collect(result.telemetry)
    return result
