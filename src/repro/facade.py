"""``repro.simulate()``: the one way to run a single simulation.

:func:`simulate` picks the path from its first argument:

* a :class:`~repro.workloads.scenarios.Scenario` is declarative, so it is
  described as a :class:`~repro.exec.spec.RunSpec` and runs through the
  default executor, with its result cache and any configured parallelism;
* a live :class:`~repro.pipeline.driver.ScenarioDriver` cannot be content-
  addressed, so it runs in-process, uncached: its run is still described as
  a ``RunSpec`` and takes the same engine choice and scheduler build
  (:func:`repro.exec.executor.run_driver`) as a spec does. This is the path
  for callers that already hold a driver (tests, ad-hoc exploration,
  drivers wrapped in live objects, aware apps such as the DVFS governor).

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
from repro.errors import ConfigurationError
from repro.exec.executor import get_default_executor, run_driver
from repro.exec.spec import DriverSpec, RunSpec
from repro.pipeline.driver import ScenarioDriver
from repro.pipeline.scheduler_base import RunResult
from repro.telemetry import runtime as telemetry_runtime
from repro.workloads.scenarios import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.session import NullTelemetry, Telemetry
    from repro.verify.invariants import InvariantChecker

#: The ``driver`` of a live driver's :class:`RunSpec`. It names no builder,
#: so an executor handed such a spec fails with a :class:`ConfigurationError`
#: (the driver cannot be built, nor the spec decoded in a pool worker)
#: instead of running some other driver.
LIVE_DRIVER = DriverSpec(builder="<live driver>")


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
        spec = RunSpec(
            driver=LIVE_DRIVER,
            device=device,
            architecture=arch.value,
            buffer_count=buffer_count,
            dvsync=dvsync_config,
            engine=config.engine,
        )
        result = run_driver(spec, scenario, telemetry, verify)
        telemetry_runtime.collect(result.telemetry)
        return result

    raise ConfigurationError(
        f"scenario must be a Scenario or a ScenarioDriver, got {scenario!r}"
    )
