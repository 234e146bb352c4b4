"""Engine selection: which runs the fastpath replay may execute.

The replay engine is byte-exact only for *trace-pure* runs: the driver's
demand is a deterministic function of time and nothing observes or perturbs
the run from outside the scheduling rules. :func:`spec_ineligibility` states
the rules once, and :func:`fastpath_attempt` is what
:func:`repro.exec.executor.run_driver` calls for every run, a spec's or a
live driver's. Telemetry and the invariant checker read the finished run and
its emission log, which the replay writes too, so neither makes a run
ineligible.

The process-wide default engine (consulted by ``engine="auto"`` specs) comes
from ``--engine`` on the CLI or the ``REPRO_ENGINE`` environment variable —
the latter so process-pool workers inherit the parent's choice.
"""

from __future__ import annotations

import os
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


def spec_ineligibility(spec: "RunSpec") -> str | None:
    """Why *spec* cannot be replayed, or ``None`` if it is trace-pure.

    The driver's own purity (``replay_profile()``) is checked separately by
    :func:`fastpath_attempt`, because answering it requires the driver.
    """
    if spec.faults:
        return "fault injection perturbs the run from outside the scheduling rules"
    if spec.watchdog:
        return "the degradation watchdog observes live fault telemetry"
    if spec.start_time < 0:
        return "negative start_time (the event engine rejects it at schedule time)"
    dvsync = spec.dvsync
    if spec.architecture == "dvsync" and dvsync is not None and not dvsync.enabled:
        return "DVSyncConfig(enabled=False) routes frames through live fallback"
    return None


def fastpath_attempt(
    spec: "RunSpec", driver: "ScenarioDriver | None", telemetry, verify
) -> tuple["RunResult | None", "ScenarioDriver | None", str | None]:
    """Try to replay *spec* on *driver* (``None``: the one ``spec.driver`` builds).

    A live driver's profile is compiled on the spot (it has no content
    identity to key a cache on); a spec's driver and profile come from the
    :mod:`repro.fastpath.profile` cache. *telemetry* and *verify* follow the
    scheduler constructors' tri-state contracts.

    Returns ``(result, None, None)`` on success. Otherwise returns
    ``(None, driver, reason)`` where ``driver`` is the one the event engine
    should run: the caller's live driver, a freshly built uncached one, or
    ``None`` when the driver was never built or is a cached one that must
    stay untouched.
    """
    reason = spec_ineligibility(spec)
    if reason is not None:
        return None, driver, reason
    from repro.fastpath.profile import compile_profile, load_compiled

    if driver is None:
        driver, compiled = load_compiled(spec.driver)
        # only an uncached (non-trace-pure) driver may be handed on
        fallback = driver if compiled is None else None
    else:
        profile = driver.replay_profile()
        compiled = None if profile is None else compile_profile(profile)
        fallback = driver
    if compiled is None:
        return None, fallback, "the driver is not trace-pure (no replay profile)"
    if compiled.frame_times.shape[0] == 0:
        return None, fallback, "the driver's replay profile has no frame times"
    from repro.fastpath.replay import replay_spec

    return replay_spec(spec, driver, compiled, telemetry, verify), None, None
