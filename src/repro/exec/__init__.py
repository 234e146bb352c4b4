"""Declarative execution layer: RunSpecs, the executor, and the result cache.

A :class:`RunSpec` is a frozen, serializable, content-hashable description of
one simulation run — scenario/driver construction, device, architecture,
buffer configuration, fault schedule, seeds, and sim-length knobs. Because
every run is a deterministic function of its spec (the event kernel and all
workload generators are seeded), the spec's content hash is a valid cache
key.

The :class:`Executor` maps batches of RunSpecs to ``RunResult``s through an
in-process backend (tests, debugging) or a process pool (``--jobs N``), with
a content-addressed on-disk cache under ``.repro-cache/`` keyed by RunSpec
hash + code-version salt. Experiments *describe* their runs as specs and
submit them in batches, so independent runs fan out across cores and repeat
invocations are served from the cache without touching a scheduler.

Batches run *supervised*: per-run deadlines, seeded-deterministic retries,
worker-crash containment with pool respawn, a circuit breaker that degrades
to in-process execution, and structured :class:`RunFailure` records so a
batch returns partial results instead of losing everything to one bad spec
(see :mod:`repro.exec.supervisor`).

Runs are also *governed*: a :class:`ResourceBudget` on the spec (or the
executor) bounds simulator events and sim-time deterministically, caps
worker address space (``MemoryError`` → failure kind ``oom``), and puts the
result cache under an LRU disk quota (see :mod:`repro.exec.governor`).
A batch streams through one queue into at most ``jobs`` pool slots, so the
pool width is the one bound on work in flight.
"""

from repro.exec.cache import CacheStats, ResultCache, code_salt
from repro.exec.executor import (
    ExecStats,
    Executor,
    execute_spec,
    get_default_executor,
    set_default_executor,
    using_executor,
)
from repro.exec.governor import (
    BudgetGuard,
    ResourceBudget,
    counting_probe,
    measure_run_events,
)
from repro.exec.serialize import (
    RESULT_SCHEMA_VERSION,
    result_from_wire,
    result_to_wire,
)
from repro.exec.spec import DriverSpec, RunSpec
from repro.exec.supervisor import (
    FAILURE_KINDS,
    NON_QUARANTINE_KINDS,
    RETRYABLE_KINDS,
    BatchOutcome,
    CircuitBreaker,
    RetryPolicy,
    RunFailure,
)

__all__ = [
    "BatchOutcome",
    "BudgetGuard",
    "CacheStats",
    "CircuitBreaker",
    "DriverSpec",
    "ExecStats",
    "Executor",
    "FAILURE_KINDS",
    "NON_QUARANTINE_KINDS",
    "RESULT_SCHEMA_VERSION",
    "RETRYABLE_KINDS",
    "ResourceBudget",
    "ResultCache",
    "RetryPolicy",
    "RunFailure",
    "RunSpec",
    "code_salt",
    "counting_probe",
    "execute_spec",
    "get_default_executor",
    "measure_run_events",
    "result_from_wire",
    "result_to_wire",
    "set_default_executor",
    "using_executor",
]
