"""Resource governance: deterministic run budgets and containment knobs.

A :class:`ResourceBudget` bounds what one run may consume — simulator events,
simulated time span, worker address space, cache disk — and rides on
:class:`~repro.exec.spec.RunSpec` as execution *policy* (wire-serialized so
pool workers enforce it, excluded from the content hash like ``timeout_s``).
Enforcement happens at three layers:

* **Simulator** — a :class:`BudgetGuard` installed on
  ``Simulator.budget_guard`` (and honored, with live-equivalent event
  accounting, by the fastpath replay kernel) trips
  :class:`~repro.errors.BudgetExceededError` at a deterministic event: the
  same spec with the same budget fails at the identical (count, sim-time,
  seq) on every host, every backend, and both engines. That is what makes a
  ``budget`` failure replayable where a wall-clock ``timeout`` is not.
* **Workers** — the process backend clamps ``RLIMIT_AS`` around each run
  (:func:`address_space_cap`), so a memory hog dies with a clean
  ``MemoryError`` (failure kind ``oom``) instead of summoning the OS
  OOM-killer onto the whole pool.
* **Cache** — a disk quota with LRU garbage collection (see
  ``repro.exec.cache``). Work in flight needs no knob of its own: the
  executor never has more than ``jobs`` pool futures out. Trips,
  ooms and quota evictions are counted on the executor's
  :class:`~repro.exec.executor.ExecStats`.

Environment knobs (validated loudly, at construction time, by
:func:`env_int` / :func:`env_float`, which the executor's knobs share):
``REPRO_MAX_EVENTS``, ``REPRO_MEMORY_MB``, ``REPRO_CACHE_QUOTA_MB``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.errors import BudgetExceededError, ConfigurationError
from repro.sim.engine import max_events_diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.spec import RunSpec


@dataclasses.dataclass(frozen=True)
class ResourceBudget:
    """Frozen resource limits for one run (all optional, ``None`` = unlimited).

    Attributes:
        max_events: Simulator event-count cap; the run fails with kind
            ``budget`` at exactly this many executed events.
        max_sim_ns: Simulated-time span cap, measured from the spec's
            ``start_time``; the first event past the deadline trips.
        memory_mb: Worker address-space cap (``RLIMIT_AS``), applied by
            process-backend workers at dispatch; an allocation beyond it
            raises ``MemoryError`` → failure kind ``oom``. In-process runs
            cannot clamp the host and ignore it.
        cache_quota_mb: Disk quota for the result cache; the executor's
            cache garbage-collects least-recently-used entries back under it
            after every store.
    """

    max_events: int | None = None
    max_sim_ns: int | None = None
    memory_mb: int | None = None
    cache_quota_mb: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_events", "max_sim_ns", "memory_mb"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigurationError(
                    f"budget {name} must be a positive integer, got {value!r}"
                )
        quota = self.cache_quota_mb
        if quota is not None and not (
            isinstance(quota, (int, float))
            and not isinstance(quota, bool)
            and quota > 0
        ):
            raise ConfigurationError(
                f"budget cache_quota_mb must be > 0, got {quota!r}"
            )

    @property
    def governs_sim(self) -> bool:
        """Whether any limit needs a :class:`BudgetGuard` on the simulator."""
        return self.max_events is not None or self.max_sim_ns is not None

    @property
    def is_noop(self) -> bool:
        return all(
            getattr(self, field.name) is None for field in dataclasses.fields(self)
        )

    @property
    def cache_quota_bytes(self) -> int | None:
        if self.cache_quota_mb is None:
            return None
        return int(self.cache_quota_mb * 1024 * 1024)

    def to_wire(self) -> dict:
        return {
            "max_events": self.max_events,
            "max_sim_ns": self.max_sim_ns,
            "memory_mb": self.memory_mb,
            "cache_quota_mb": self.cache_quota_mb,
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "ResourceBudget":
        return cls(
            max_events=wire.get("max_events"),
            max_sim_ns=wire.get("max_sim_ns"),
            memory_mb=wire.get("memory_mb"),
            cache_quota_mb=wire.get("cache_quota_mb"),
        )

    def describe(self) -> str:
        parts = []
        if self.max_events is not None:
            parts.append(f"max_events={self.max_events}")
        if self.max_sim_ns is not None:
            parts.append(f"max_sim_ns={self.max_sim_ns}")
        if self.memory_mb is not None:
            parts.append(f"memory_mb={self.memory_mb}")
        if self.cache_quota_mb is not None:
            parts.append(f"cache_quota_mb={self.cache_quota_mb:g}")
        return "budget(" + ", ".join(parts) + ")" if parts else "budget(unlimited)"


class BudgetGuard:
    """Deterministic event-count / sim-time enforcement for one run.

    Installed on ``Simulator.budget_guard`` by the executor (event engine)
    and consulted inline by the fastpath replay kernel, which maintains a
    live-engine-equivalent event stream (elided recorder events and
    fast-forwarded ticks included) so both engines call :meth:`on_event`
    with the identical (time, seq) sequence and trip with the identical
    message. With no limits set the guard is a pure counter — the probe
    :func:`measure_run_events` uses to learn a spec's natural event count.
    """

    __slots__ = ("max_events", "max_sim_ns", "deadline_ns", "events")

    def __init__(
        self,
        max_events: int | None = None,
        max_sim_ns: int | None = None,
        start_time: int = 0,
    ) -> None:
        self.max_events = max_events
        self.max_sim_ns = max_sim_ns
        self.deadline_ns = (
            start_time + max_sim_ns if max_sim_ns is not None else None
        )
        self.events = 0

    @classmethod
    def for_budget(cls, budget: ResourceBudget, start_time: int = 0) -> "BudgetGuard":
        return cls(budget.max_events, budget.max_sim_ns, start_time=start_time)

    def _time_trip(self, time: int, seq: int) -> BudgetExceededError:
        return BudgetExceededError(
            f"resource budget exceeded max_sim_ns={self.max_sim_ns} "
            f"(deadline t={self.deadline_ns} ns) at event t={time} ns "
            f"(event seq {seq}) after {self.events} events"
        )

    def _count_trip(self, time: int, seq: int) -> BudgetExceededError:
        return BudgetExceededError(
            "resource budget " + max_events_diagnostic(self.max_events, time, seq)
        )

    def on_event(self, time: int, seq: int) -> None:
        """Account one event about to execute; raises at the trip point.

        The sim-time check precedes the count (an over-deadline event never
        executes, so it is not counted); a count trip charges the event.
        """
        deadline = self.deadline_ns
        if deadline is not None and time > deadline:
            raise self._time_trip(time, seq)
        self.events += 1
        if self.max_events is not None and self.events >= self.max_events:
            raise self._count_trip(time, seq)

    def on_tick_run(
        self, first_time: int, period: int, count: int, first_seq: int,
        seq_counter: int,
    ) -> None:
        """Account *count* back-to-back tick events in O(1).

        The replay kernel's idle fast-forward skips ticks that the live
        engine executes one by one: the first at (*first_time*, *first_seq*),
        each subsequent one scheduled by its predecessor — times advancing by
        *period*, seqs drawn consecutively from *seq_counter* (nothing else
        schedules during a drained gap). A budget can trip mid-gap, and the
        trip coordinates must match the live engine's exactly.
        """
        j_time = None
        deadline = self.deadline_ns
        if deadline is not None and first_time + (count - 1) * period > deadline:
            if first_time > deadline:
                j_time = 1
            else:
                j_time = (deadline - first_time) // period + 2
        j_count = None
        if self.max_events is not None and self.events + count >= self.max_events:
            j_count = self.max_events - self.events
        if j_time is None and j_count is None:
            self.events += count
            return
        j = min(x for x in (j_time, j_count) if x is not None)
        time = first_time + (j - 1) * period
        seq = first_seq if j == 1 else seq_counter + j - 2
        self.events += j - 1
        # Mirrors on_event: the time check precedes the count at any event.
        if j_time is not None and j_time <= j:
            raise self._time_trip(time, seq)
        self.events += 1
        raise self._count_trip(time, seq)


# --------------------------------------------------------------------- probe
_probe: BudgetGuard | None = None


@contextlib.contextmanager
def counting_probe() -> Iterator[BudgetGuard]:
    """Install a limitless :class:`BudgetGuard` as a pure event counter.

    While active, :func:`guard_for_spec` hands the probe to budget-free runs
    on either engine, so ``probe.events`` afterwards is the run's natural
    live-engine event count. In-process, single-run scoped; not thread-safe.
    """
    global _probe
    guard = BudgetGuard()
    previous, _probe = _probe, guard
    try:
        yield guard
    finally:
        _probe = previous


def guard_for_spec(spec: "RunSpec") -> BudgetGuard | None:
    """The guard a run of *spec* must account events through, if any."""
    budget = spec.budget
    if budget is not None and budget.governs_sim:
        return BudgetGuard.for_budget(budget, start_time=spec.start_time)
    return _probe


def measure_run_events(spec: "RunSpec") -> int:
    """Natural event count of *spec*: how many simulator events a full run
    executes (identical on both engines — the budget-parity relation and the
    governor property suite are built on that equality)."""
    from repro.exec.executor import execute_spec

    if spec.budget is not None:
        spec = dataclasses.replace(spec, budget=None)
    with counting_probe() as probe:
        execute_spec(spec)
    return probe.events


# ------------------------------------------------------- worker memory cap
@contextlib.contextmanager
def address_space_cap(memory_mb: int | None) -> Iterator[bool]:
    """Clamp ``RLIMIT_AS`` to *memory_mb* for the duration of the block.

    Yields whether the cap was actually applied: ``None`` caps, platforms
    without the ``resource`` module (Windows), and kernels that refuse the
    limit all degrade to an uncapped run rather than failing it. The
    previous soft limit is restored on exit — pool workers are reused, so a
    per-run cap must never outlive its run.
    """
    if memory_mb is None:
        yield False
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        yield False
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = memory_mb * 1024 * 1024
    if hard != resource.RLIM_INFINITY and cap > hard:
        cap = hard
    try:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    except (ValueError, OSError):  # pragma: no cover - kernel said no
        yield False
        return
    try:
        yield True
    finally:
        with contextlib.suppress(ValueError, OSError):
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# ----------------------------------------------------------------- env knobs
def env_int(name: str, minimum: int, default: int | None = None) -> int | None:
    """Parse an integer environment knob (*default* when unset or empty).

    Malformed or too-small values raise
    :class:`~repro.errors.ConfigurationError` naming the variable and the
    bad value, so a bad knob fails at construction time.
    """
    text = os.environ.get(name, "")
    if not text:
        return default
    try:
        value = int(text)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {text!r}"
        ) from None
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return value


def env_float(name: str) -> float | None:
    """Parse a positive-number environment knob (``None`` when unset or empty)."""
    text = os.environ.get(name, "")
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(f"{name} must be a number, got {text!r}") from None
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return value


def budget_from_env() -> ResourceBudget | None:
    """Build the default-executor budget from the environment, or ``None``.

    Reads ``REPRO_MAX_EVENTS`` (event-count cap), ``REPRO_MEMORY_MB``
    (worker address-space cap), and ``REPRO_CACHE_QUOTA_MB`` (cache disk
    quota); malformed values raise
    :class:`~repro.errors.ConfigurationError` at construction time.
    """
    max_events = env_int("REPRO_MAX_EVENTS", minimum=1)
    memory_mb = env_int("REPRO_MEMORY_MB", minimum=1)
    cache_quota_mb = env_float("REPRO_CACHE_QUOTA_MB")
    if max_events is None and memory_mb is None and cache_quota_mb is None:
        return None
    return ResourceBudget(
        max_events=max_events, memory_mb=memory_mb, cache_quota_mb=cache_quota_mb
    )
