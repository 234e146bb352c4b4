"""Engine selection: which specs the fastpath replay may execute.

The replay engine is byte-exact only for *trace-pure* runs: the driver's
demand is a deterministic function of time and nothing observes or perturbs
the run from outside the scheduling rules. :func:`run_ineligibility` states
the rules once; :func:`spec_ineligibility` adds the spec-only ones (faults,
watchdog, start time). :func:`fastpath_attempt` is what the executor calls,
and :func:`fastpath_driver_attempt` is its live-driver twin. Telemetry and
the invariant checker read the finished run and its emission log, which the
replay writes too, so neither makes a run ineligible.

The process-wide default engine (consulted by ``engine="auto"`` specs) comes
from ``--engine`` on the CLI or the ``REPRO_ENGINE`` environment variable —
the latter so process-pool workers inherit the parent's choice.
"""

from __future__ import annotations

import os
import types
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.exec.spec import ENGINES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.spec import RunSpec
    from repro.pipeline.driver import ScenarioDriver
    from repro.pipeline.scheduler_base import RunResult

_ENV_VAR = "REPRO_ENGINE"
_default_engine: str | None = None


def _validate(engine: str, source: str) -> str:
    if engine not in ENGINES:
        raise ConfigurationError(
            f"{source}: unknown engine {engine!r}; known: {', '.join(ENGINES)}"
        )
    return engine


def get_default_engine() -> str:
    """The engine ``engine="auto"`` specs resolve to in this process."""
    global _default_engine
    if _default_engine is None:
        _default_engine = _validate(
            os.environ.get(_ENV_VAR, "auto"), f"{_ENV_VAR} environment variable"
        )
    return _default_engine


def set_default_engine(engine: str) -> None:
    """Set the process default (the CLI's ``--engine``)."""
    global _default_engine
    _default_engine = _validate(engine, "set_default_engine")


def reset_default_engine() -> None:
    """Re-read the default from the environment on next use (tests)."""
    global _default_engine
    _default_engine = None


def resolve_engine(engine: "str | None") -> str:
    """Resolve an engine request string against the process default."""
    requested = _validate(engine or "auto", "engine")
    if requested == "auto":
        requested = get_default_engine()
    return requested


def resolve_requested_engine(spec: "RunSpec") -> str:
    """Resolve a spec's engine request against the process default.

    Returns ``"event"``, ``"fastpath"``, or ``"auto"`` (meaning: fastpath
    when eligible, event otherwise).
    """
    return resolve_engine(getattr(spec, "engine", "auto"))


def run_ineligibility(architecture: str, dvsync) -> str | None:
    """The eligibility rule shared by spec runs and live-driver runs."""
    if architecture == "dvsync" and dvsync is not None and not dvsync.enabled:
        return "DVSyncConfig(enabled=False) routes frames through live fallback"
    return None


def spec_ineligibility(spec: "RunSpec") -> str | None:
    """Why *spec* cannot be replayed, or ``None`` if it is trace-pure.

    The driver's own purity (``replay_profile()``) is checked separately by
    :func:`fastpath_attempt`, because answering it requires building the
    driver.
    """
    if spec.faults:
        return "fault injection perturbs the run from outside the scheduling rules"
    if spec.watchdog:
        return "the degradation watchdog observes live fault telemetry"
    if spec.start_time < 0:
        return "negative start_time (the event engine rejects it at schedule time)"
    return run_ineligibility(spec.architecture, spec.dvsync)


def _replay(
    spec, driver, compiled, telemetry, verify
) -> tuple["RunResult | None", str | None]:
    """Replay a compiled profile; ``(None, reason)`` when it cannot be."""
    if compiled is None:
        return None, "the driver is not trace-pure (no replay profile)"
    if compiled.frame_times.shape[0] == 0:
        return None, "the driver's replay profile has no frame times"
    from repro.fastpath.replay import replay_spec

    return replay_spec(spec, driver, compiled, telemetry, verify), None


def fastpath_driver_attempt(
    driver: "ScenarioDriver",
    device,
    architecture: str,
    buffer_count: int | None,
    dvsync_config,
    telemetry,
    verify,
) -> tuple["RunResult | None", str | None]:
    """Try to replay a live driver in-process.

    Returns ``(result, None)`` on success, ``(None, reason)`` when the run
    must fall back to the event engine. The driver's profile is compiled on
    the spot (no cache: a live driver has no content identity to key on).
    """
    reason = run_ineligibility(architecture, dvsync_config)
    if reason is not None:
        return None, reason
    from repro.fastpath.profile import compile_profile

    profile = driver.replay_profile()
    compiled = None if profile is None else compile_profile(profile)
    pseudo_spec = types.SimpleNamespace(
        device=device,
        architecture=architecture,
        buffer_count=buffer_count,
        dvsync=dvsync_config,
        start_time=0,
        horizon=None,
    )
    return _replay(pseudo_spec, driver, compiled, telemetry, verify)


def fastpath_attempt(
    spec: "RunSpec",
) -> tuple["RunResult | None", "ScenarioDriver | None", str | None]:
    """Try to replay *spec*.

    Returns ``(result, None, None)`` on success. On ineligibility returns
    ``(None, driver, reason)`` where ``driver`` is a freshly built driver the
    event engine should reuse (``None`` when the driver was never built, or
    is a cached one that must stay untouched).
    """
    reason = spec_ineligibility(spec)
    if reason is not None:
        return None, None, reason
    from repro.fastpath.profile import load_compiled

    driver, compiled = load_compiled(spec.driver)
    # spec.telemetry / spec.verify force a session or checker; False defers
    # to the process switch.
    result, reason = _replay(
        spec,
        driver,
        compiled,
        True if spec.telemetry else None,
        True if spec.verify else None,
    )
    if result is None:
        # only an uncached (non-trace-pure) driver may be handed on
        return None, driver if compiled is None else None, reason
    return result, None, None
