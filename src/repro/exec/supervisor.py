"""Supervision primitives for the executor: failure taxonomy, retry, breaker.

The executor's batch engine (``Executor._execute_batch``) needs four small,
independently testable pieces to turn a bare ``pool.map`` into a resilient
harness:

* :class:`RunFailure` — the structured, wire-serializable record of one
  spec's final failure (kind, attempt count, message, traceback), so batches
  can return *partial results plus failure records* instead of raising;
* :class:`RetryPolicy` — seeded-deterministic exponential backoff with
  jitter for transient (crash/timeout) failures: the same retry seed yields
  the same delay sequence, which keeps salvage runs byte-reproducible;
* :class:`CircuitBreaker` — after N *consecutive* process-pool breaks the
  executor stops fighting the pool and degrades to the in-process backend,
  mirroring the degradation watchdog's D-VSync→VSync fallback (§4.5);
* :class:`BatchOutcome` — order-preserving partial results with per-index
  failure attribution, the return type of ``Executor.map_outcome``.

None of these import the executor (or anything heavy); the executor imports
them.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Mapping

from repro.errors import BatchExecutionError, ConfigurationError

#: The failure taxonomy. ``crash`` covers both a raising spec and a dead
#: worker (the message and traceback distinguish them); ``timeout`` is a
#: blown per-run deadline; ``config`` is a spec the library rejected
#: (:class:`~repro.errors.ConfigurationError` — never retried, the same spec
#: fails the same way every time); ``cache-corrupt`` is a result wire form
#: that could not be deserialized (a healed cache entry never surfaces here —
#: the cache evicts those as misses); ``budget`` is a deterministic
#: :class:`~repro.exec.governor.ResourceBudget` trip (same spec + same budget
#: fails at the identical simulator event on every host and both engines);
#: ``oom`` is a ``MemoryError`` under the budget's worker address-space cap.
FAILURE_KINDS = ("crash", "timeout", "config", "cache-corrupt", "budget", "oom")

#: Kinds worth retrying: transient by nature (a crashed worker or a blown
#: wall-clock deadline can succeed on a quieter machine, and an oom may be a
#: reused worker's fragmented address space — the executor grants it exactly
#: one retry, never a cap escalation), unlike ``config`` (deterministic
#: rejection), ``cache-corrupt`` (deterministic bad bytes), and ``budget``
#: (deterministic by design — retrying replays the identical trip).
RETRYABLE_KINDS = frozenset({"crash", "timeout", "oom"})

#: Kinds that never quarantine. The quarantine key is ``content_hash``, which
#: is deliberately blind to execution policy (``timeout_s``, ``budget``): a
#: failure caused by an allowance must not outlive the allowance that
#: produced it — the same spec resubmitted with a larger deadline, event
#: budget, or memory cap deserves a fresh run.
NON_QUARANTINE_KINDS = frozenset({"timeout", "budget", "oom"})


@dataclasses.dataclass(frozen=True)
class RunFailure:
    """Why one spec produced no result: the harness's structured answer.

    Attributes:
        spec_hash: ``RunSpec.content_hash()`` of the failed spec.
        description: ``RunSpec.describe()`` — human-readable, for reports.
        kind: One of :data:`FAILURE_KINDS`.
        attempts: How many times the spec was executed (>= 1).
        message: One-line cause. Deterministic — it never embeds measured
            wall times, so failure records are byte-stable across reruns.
        traceback: Formatted traceback when the failure was an exception,
            ``None`` for timeouts and dead workers.
    """

    spec_hash: str
    description: str
    kind: str
    attempts: int
    message: str
    traceback: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ConfigurationError(
                f"unknown failure kind {self.kind!r}; "
                f"known: {', '.join(FAILURE_KINDS)}"
            )
        if self.attempts < 1:
            raise ConfigurationError(
                f"a failure records at least one attempt, got {self.attempts}"
            )

    def to_wire(self) -> dict:
        return {
            "spec_hash": self.spec_hash,
            "description": self.description,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
            "traceback": self.traceback,
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "RunFailure":
        return cls(
            spec_hash=wire["spec_hash"],
            description=wire["description"],
            kind=wire["kind"],
            attempts=wire["attempts"],
            message=wire["message"],
            traceback=wire.get("traceback"),
        )

    def describe(self) -> str:
        """One-line summary for logs and :class:`BatchExecutionError`."""
        return (
            f"{self.kind} after {self.attempts} attempt(s) "
            f"[{self.description}]: {self.message}"
        )


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Seeded-deterministic exponential backoff with jitter.

    ``delay_s(spec_hash, attempt)`` is a pure function of the policy seed,
    the spec's content hash, and the attempt number, so two runs of the same
    batch with the same seed sleep the same delays and retry in the same
    order — retries never make a salvage run irreproducible.

    Attributes:
        retries: Extra attempts after the first (0 disables retrying).
        base_delay_s: Backoff before the first retry.
        multiplier: Exponential growth factor per further retry.
        max_delay_s: Backoff ceiling.
        jitter: Symmetric jitter fraction (0.5 → delay × U[0.5, 1.5]),
            decorrelating a fleet of workers that failed together.
        seed: Root of the per-spec jitter streams.
    """

    retries: int = 1
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"backoff multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be within [0, 1], got {self.jitter}"
            )

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def retryable(self, kind: str) -> bool:
        """Whether a failure of *kind* is worth another attempt at all."""
        return self.retries > 0 and kind in RETRYABLE_KINDS

    def delay_s(self, spec_hash: str, attempt: int) -> float:
        """Deterministic backoff before retrying *attempt* + 1 of a spec."""
        base = min(
            self.max_delay_s, self.base_delay_s * self.multiplier ** (attempt - 1)
        )
        rng = random.Random(f"{self.seed}:{spec_hash}:{attempt}")
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class CircuitBreaker:
    """Counts consecutive process-pool breaks; trips at a threshold.

    The unit is the pool attempt. Each pool break (a dead worker, recorded
    once the attempts in flight with it have drained) adds one to the
    streak; each pool attempt that returns an envelope resets it, whether
    the envelope holds a result or a spec's own failure. Once tripped, the
    executor stops respawning pools and degrades to the in-process backend
    for the remaining work (the harness analogue of the watchdog demoting
    D-VSync to classic VSync).
    """

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ConfigurationError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        self.threshold = threshold
        self.consecutive_failures = 0
        self.trips = 0

    @property
    def tripped(self) -> bool:
        return self.consecutive_failures >= self.threshold

    def record_failure(self) -> bool:
        """Note a pool-level failure; returns True when this one trips."""
        self.consecutive_failures += 1
        if self.consecutive_failures == self.threshold:
            self.trips += 1
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def reset(self) -> None:
        self.consecutive_failures = 0


@dataclasses.dataclass
class BatchOutcome:
    """Partial results plus structured failures for one submitted batch.

    ``results`` is aligned with the submitted specs (``None`` where the spec
    failed); ``failures`` holds one :class:`RunFailure` per failed *unique*
    spec, ordered by first affected index; ``index_failures`` maps every
    failed index (including de-duplicated repeats) to its record.
    """

    results: list
    failures: list[RunFailure]
    index_failures: dict[int, RunFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def salvaged(self) -> int:
        """How many submitted specs still produced a result."""
        return sum(1 for result in self.results if result is not None)

    def raise_for_failures(self) -> None:
        """Raise :class:`BatchExecutionError` if anything failed."""
        if self.failures:
            raise BatchExecutionError(self.failures, salvaged=self.salvaged)
