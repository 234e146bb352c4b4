"""Generic driver builders referenced by :class:`~repro.exec.spec.DriverSpec`.

A builder is a module-level function taking only JSON-able keyword arguments
and returning a fresh, seeded :class:`ScenarioDriver`. Experiments with
bespoke drivers define their own builders next to the experiment (e.g.
``repro.experiments.fig10_patterns:build_pattern_driver``); the ones here
cover the common shapes every module shares.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

from repro.errors import ConfigurationError, WorkloadError
from repro.pipeline.driver import ScenarioDriver
from repro.units import ms
from repro.workloads.distributions import params_for_target_fdps
from repro.workloads.drivers import AnimationDriver
from repro.workloads.scenarios import Scenario

#: Misbehaviors :func:`chaos_driver` can stage (supervisor test harness).
CHAOS_MODES = ("ok", "raise", "config", "sleep", "kill")


def scenario_driver(run: int = 0, **fields) -> ScenarioDriver:
    """Build ``Scenario(**fields).build_driver(run)``.

    The target of :meth:`DriverSpec.from_scenario`; *fields* are exactly the
    :class:`Scenario` dataclass fields, all JSON primitives.
    """
    return Scenario(**fields).build_driver(run)


def burst_animation(
    name: str,
    target_fdps: float,
    refresh_hz: int = 60,
    duration_ms: float = 400.0,
    bursts: int = 1,
    burst_period_ms: float | None = 600.0,
) -> AnimationDriver:
    """A plain burst-train animation calibrated to a target VSync FDPS.

    The workhorse shape of the case studies (§6.7's map animation, the
    ablation sweeps): seeded by *name*, so distinct repetition names yield
    independent workload traces.
    """
    params = params_for_target_fdps(target_fdps, refresh_hz)
    return AnimationDriver(
        name,
        params,
        duration_ns=ms(duration_ms),
        bursts=bursts,
        burst_period_ns=ms(burst_period_ms) if burst_period_ms else None,
    )


def chaos_driver(
    name: str = "chaos",
    mode: str = "ok",
    delay_s: float = 0.0,
    target_fdps: float = 10.0,
    duration_ms: float = 50.0,
) -> AnimationDriver:
    """A driver that misbehaves on purpose — the supervisor's test subject.

    Modes: ``ok`` builds a normal short animation; ``raise`` throws a
    :class:`~repro.errors.WorkloadError` (a deterministic in-spec crash);
    ``config`` throws a :class:`~repro.errors.ConfigurationError` (the
    never-retried kind); ``sleep`` stalls for *delay_s* before building,
    simulating a run that blows its deadline; ``kill`` SIGKILLs the worker
    process mid-build, after *delay_s* — but only inside a pool worker (it
    refuses to kill a process with no parent, so a mistargeted spec cannot
    take down the harness itself).

    Build-time misbehavior is the honest analogue of run-time misbehavior
    here: :func:`~repro.exec.executor.execute_spec` runs builder and
    scheduler under one supervision envelope, so where the fault fires is
    indistinguishable to the supervisor.
    """
    if mode not in CHAOS_MODES:
        raise ConfigurationError(
            f"unknown chaos mode {mode!r}; known: {', '.join(CHAOS_MODES)}"
        )
    if mode == "raise":
        raise WorkloadError(f"chaos driver {name!r} raised on request")
    if mode == "config":
        raise ConfigurationError(f"chaos driver {name!r} rejected on request")
    if mode in ("sleep", "kill") and delay_s > 0:
        time.sleep(delay_s)
    if mode == "kill":
        if multiprocessing.parent_process() is None:
            raise WorkloadError(
                f"chaos driver {name!r} refuses kill mode outside a pool worker"
            )
        os.kill(os.getpid(), signal.SIGKILL)
    return burst_animation(name, target_fdps=target_fdps, duration_ms=duration_ms)


def memory_hog(
    name: str = "hog",
    allocate_mb: int = 1024,
    chunk_mb: int = 16,
    target_fdps: float = 10.0,
    duration_ms: float = 50.0,
) -> AnimationDriver:
    """A driver that eats *allocate_mb* of address space before building.

    The governor's OOM test subject: under a budget's ``memory_mb`` cap
    (``RLIMIT_AS`` in a pool worker) the allocation dies with a clean
    ``MemoryError`` → failure kind ``oom``. Like :func:`chaos_driver`'s kill
    mode it refuses to run outside a pool worker — an uncapped in-process
    allocation would eat the harness's own memory.

    Allocation is touched page by page (``bytearray``), so address-space
    accounting cannot be cheated by lazy zero pages.
    """
    if multiprocessing.parent_process() is None:
        raise WorkloadError(
            f"memory hog {name!r} refuses to allocate outside a pool worker"
        )
    hoard = []
    remaining = allocate_mb
    while remaining > 0:
        step = min(chunk_mb, remaining)
        hoard.append(bytearray(step * 1024 * 1024))
        remaining -= step
    del hoard
    return burst_animation(name, target_fdps=target_fdps, duration_ms=duration_ms)


def event_storm(
    name: str = "storm",
    target_fdps: float = 120.0,
    refresh_hz: int = 120,
    duration_ms: float = 5000.0,
    bursts: int = 1,
) -> AnimationDriver:
    """A long, dense animation that generates events until a budget trips.

    The governor's budget test subject: a multi-second sustained burst at a
    high refresh rate produces thousands of simulator events — far beyond
    any small ``max_events``/``max_sim_ns`` budget — at a perfectly
    deterministic event stream, so the trip point is byte-stable across
    hosts, backends, and engines.
    """
    return burst_animation(
        name,
        target_fdps=target_fdps,
        refresh_hz=refresh_hz,
        duration_ms=duration_ms,
        bursts=bursts,
        burst_period_ms=duration_ms * 1.5 if bursts > 1 else None,
    )
