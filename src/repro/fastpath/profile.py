"""Compiled replay profiles: numpy frame-time arrays + a keyed build cache.

``load_compiled`` is the exec layer's entry point: given a ``DriverSpec`` it
builds the driver once, asks it for a :class:`~repro.pipeline.driver.
ReplayProfile`, and compiles the profile's tuples into numpy arrays for the
replay kernel. Driver + compiled profile are cached together, keyed by the
spec's content identity (builder name + canonical params): a study batch
that replays the same scenario across devices and buffer counts pays the
driver's workload pre-generation exactly once. This, plus skipping the event
loop, is where the fastpath speedup comes from.

Cached drivers are used *only* by the replay engine, which calls their pure
policy methods (``wants_frame`` / ``finished`` / ``make_workload`` /
``true_value``) and re-anchors them with ``begin(start_time)`` per run; the
event engine always gets a freshly built driver.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro.pipeline.driver import ReplayProfile, ScenarioDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.spec import DriverSpec

# Compiled entries are immutable arrays plus one live driver per scenario;
# the cap only guards against unbounded sweeps over distinct scenarios.
_CACHE_CAP = 128

_cache: OrderedDict[tuple[str, str], tuple[ScenarioDriver, "CompiledProfile"]]
_cache = OrderedDict()
_cache_lock = threading.Lock()


@dataclasses.dataclass(frozen=True)
class CompiledProfile:
    """A :class:`ReplayProfile` lowered to numpy arrays for the replay kernel.

    Attributes:
        arrival_offsets: ascending int64 array of gating-input offsets (ns)
            from the run's start time.
        frame_times: ``(n, 3)`` int64 array of per-frame
            ``(ui_ns, render_ns, gpu_ns)`` stage durations.
        total_span_ns: offset from start at which the driver finishes.
        loop: wrap frame indexes around ``frame_times`` instead of clamping.
        workloads: pre-normalized per-frame ``FrameWorkload`` objects aligned
            with ``frame_times`` (``None`` → kernel calls ``make_workload``).
        burst_duration_ns: analytic ``wants_frame`` demand window per input
            arrival (``None`` → kernel calls the driver's ``wants_frame``).
    """

    arrival_offsets: np.ndarray
    frame_times: np.ndarray
    total_span_ns: int
    loop: bool
    workloads: tuple | None
    burst_duration_ns: int | None

    def stage_ns(self, frame_index: int) -> tuple[int, int, int]:
        """Stage durations for *frame_index* as plain Python ints.

        Mirrors ``make_workload``'s index convention: wrap when looping,
        clamp to the last entry otherwise. Plain ints keep numpy scalars out
        of ``FrameRecord`` fields (``np.int64`` is not JSON-serialisable).
        """
        n = self.frame_times.shape[0]
        if self.loop:
            frame_index %= n
        elif frame_index >= n:
            frame_index = n - 1
        row = self.frame_times[frame_index]
        return int(row[0]), int(row[1]), int(row[2])


def compile_profile(profile: ReplayProfile) -> CompiledProfile:
    """Lower a driver-declared profile into the kernel's array form."""
    arrivals = np.asarray(profile.input_arrival_offsets, dtype=np.int64)
    frame_times = np.asarray(profile.frame_times, dtype=np.int64)
    if frame_times.ndim != 2 or frame_times.shape[1] != 3:
        raise ValueError("frame_times must be a sequence of (ui, render, gpu) triples")
    workloads = profile.workloads
    if workloads is not None and len(workloads) != frame_times.shape[0]:
        raise ValueError("workloads must align one-to-one with frame_times")
    return CompiledProfile(
        arrival_offsets=arrivals,
        frame_times=frame_times,
        total_span_ns=profile.total_span_ns,
        loop=profile.loop,
        workloads=workloads,
        burst_duration_ns=profile.burst_duration_ns,
    )


def load_compiled(
    driver_spec: "DriverSpec",
) -> tuple[ScenarioDriver, CompiledProfile | None]:
    """Resolve *driver_spec* to a (driver, compiled profile) pair.

    Returns ``(driver, None)`` — with the freshly built driver handed back so
    the event engine can reuse it instead of building twice — when the driver
    is not trace-pure. Eligible drivers are cached alongside their compiled
    arrays and shared across replays of the same scenario.
    """
    key = _cache_key(driver_spec)
    with _cache_lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
            return cached
    driver = driver_spec.build()
    profile = driver.replay_profile()
    if profile is None:
        return driver, None
    compiled = compile_profile(profile)
    with _cache_lock:
        _cache[key] = (driver, compiled)
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_CAP:
            _cache.popitem(last=False)
    return driver, compiled


def _cache_key(driver_spec: "DriverSpec") -> tuple[str, str]:
    return driver_spec.builder, driver_spec.params_json


def profile_cached(driver_spec: "DriverSpec") -> bool:
    """Whether :func:`load_compiled` would reuse a cached driver for *driver_spec*."""
    with _cache_lock:
        return _cache_key(driver_spec) in _cache


def evict_profile(driver_spec: "DriverSpec") -> None:
    """Drop *driver_spec*'s cached driver and profile, if there is one."""
    with _cache_lock:
        _cache.pop(_cache_key(driver_spec), None)


def clear_profile_cache() -> None:
    """Drop every cached driver/profile (tests and benchmark cold starts)."""
    with _cache_lock:
        _cache.clear()
