"""The executor: RunSpecs in, RunResults out, in parallel, cached, supervised.

:func:`execute_spec` is the single seam through which a spec becomes a
scheduler invocation — the fault drill, every experiment module, and the
process-pool worker all funnel through it. :class:`Executor` adds the
operational layer on top: batch submission with de-duplication, a process
pool (``--jobs N``) or in-process backend, the content-addressed result
cache, and per-run timing/cache observability.

Batches run under *supervision*: every spec gets a wall-clock deadline
(``RunSpec.timeout_s`` or the executor default), transient failures retry
with seeded-deterministic exponential backoff, a dead worker
(``BrokenProcessPool``) is contained — the pool respawns, survivors re-run,
and the culprit is identified by isolation rather than guessed — and a
circuit breaker degrades the executor to the in-process backend after
repeated pool failures, mirroring the degradation watchdog's D-VSync→VSync
fallback. Both backends run one streaming loop (``Executor._execute_batch``),
fed by one queue, and one exception → envelope function (:func:`_attempt`):
the process backend keeps at most ``jobs`` attempts in flight, the in-process
backend is the loop's width-1 case with no pool, and a tripped breaker sends
the rest of the queue down that same path. Failed specs become structured
:class:`~repro.exec.supervisor.RunFailure` records: :meth:`Executor.map_outcome`
always returns partial results plus failures, and :meth:`Executor.map`
applies the ``fail-fast`` (raise :class:`~repro.errors.BatchExecutionError`)
or ``keep-going`` (return ``None`` holes) policy on top. Results checkpoint
into the cache as they complete, so a killed batch resumes where it died.

A module-level *default executor* carries the CLI's ``--jobs``/``--no-cache``
choices down to the experiment studies without threading a parameter through
every ``study()`` signature. Library and test use defaults to a hermetic
executor: in-process, no cache. ``REPRO_JOBS``, ``REPRO_EXEC_BACKEND``,
``REPRO_CACHE=1``, ``REPRO_TIMEOUT`` and ``REPRO_RETRIES`` configure the
default from the environment (the CI tier-1 job runs the suite under
``REPRO_JOBS=2 REPRO_EXEC_BACKEND=inprocess``); an ``atexit`` hook shuts its
pool down on interpreter exit so ``--jobs N`` runs never leak workers.
"""

from __future__ import annotations

import atexit
import collections
import concurrent.futures
import contextlib
import dataclasses
import os
import time
import traceback

from repro.errors import BatchExecutionError, BudgetExceededError, ConfigurationError
from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.exec.governor import (
    ResourceBudget,
    address_space_cap,
    budget_from_env,
    env_float,
    env_int,
    guard_for_spec,
)
from repro.exec.serialize import (
    error_envelope,
    ok_envelope,
    result_from_wire,
    result_to_wire,
)
from repro.exec.spec import RunSpec
from repro.exec.supervisor import (
    NON_QUARANTINE_KINDS,
    BatchOutcome,
    CircuitBreaker,
    RetryPolicy,
    RunFailure,
)
from repro.pipeline.scheduler_base import RunResult
from repro.telemetry import runtime as telemetry_runtime

BACKENDS = ("inprocess", "process")

#: Batch failure policies: ``fail-fast`` raises a BatchExecutionError that
#: carries the failure records (siblings are still salvaged and cached);
#: ``keep-going`` returns partial results with ``None`` holes.
POLICIES = ("fail-fast", "keep-going")


def execute_spec(spec: RunSpec) -> RunResult:
    """Instantiate and run the scheduler a spec describes (no cache, no pool).

    This is the only place the execution layer turns a spec into a live
    scheduler; everything above it deals in specs and results.
    Scheduler and fault imports happen at call time: this module sits below
    ``repro.experiments`` in the import graph, while the fault drill sits
    above it.
    """
    from repro.core.config import DVSyncConfig
    from repro.core.dvsync import DVSyncScheduler
    from repro.fastpath.engine import fastpath_attempt, resolve_requested_engine
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule
    from repro.faults.watchdog import DegradationWatchdog
    from repro.vsync.scheduler import VSyncScheduler

    driver = None
    requested = resolve_requested_engine(spec)
    if requested != "event":
        result, driver, reason = fastpath_attempt(spec)
        if result is not None:
            return result
        if requested == "fastpath":
            raise ConfigurationError(
                f"engine='fastpath' cannot replay this spec: {reason}"
            )
    if driver is None:
        driver = spec.driver.build()
    # spec.telemetry / spec.verify force a session or checker even when this
    # process (a pool worker, say) never flipped the corresponding
    # process-wide switch; False defers to it.
    telemetry = True if spec.telemetry else None
    verify = True if spec.verify else None
    if spec.architecture == "vsync":
        scheduler = VSyncScheduler(
            driver,
            spec.device,
            buffer_count=spec.buffer_count,
            telemetry=telemetry,
            verify=verify,
        )
    elif spec.architecture == "dvsync":
        config = spec.dvsync or DVSyncConfig(buffer_count=spec.buffer_count or 4)
        scheduler = DVSyncScheduler(
            driver, spec.device, config=config, telemetry=telemetry, verify=verify
        )
    else:  # pragma: no cover - RunSpec.__post_init__ already rejects this
        raise ConfigurationError(f"unknown architecture {spec.architecture!r}")
    if spec.faults:
        schedule = FaultSchedule.parse(spec.faults)
        FaultInjector(schedule, seed=spec.fault_seed).attach(scheduler)
    if spec.watchdog:
        scheduler.attach_watchdog(DegradationWatchdog())
    # Resource governance: the guard (the spec's budget, or an installed
    # counting probe) trips BudgetExceededError at a deterministic event.
    # The fastpath branch above attaches its own guard inside replay_spec.
    guard = guard_for_spec(spec)
    if guard is not None:
        scheduler.sim.budget_guard = guard
    return scheduler.run(start_time=spec.start_time, horizon=spec.horizon)


def _oom_message(memory_mb: int | None) -> str:
    # Deliberately free of allocation sizes and addresses: oom records must
    # be byte-identical across backends and reruns.
    if memory_mb is not None:
        return f"run exhausted its {memory_mb} MB address-space budget"
    return "run exhausted available memory"


def _timeout_message(timeout_s: float) -> str:
    # Deliberately free of measured wall times: failure records must be
    # byte-identical across reruns with the same retry seed.
    return f"run exceeded its {timeout_s:g}s deadline"


#: The in-process attempt's stand-in for :func:`address_space_cap`.
_UNCAPPED = contextlib.nullcontext()


def _attempt(spec: RunSpec | dict) -> dict:
    """Run one attempt of a spec: a tagged envelope out, never an exception.

    Both backends run every attempt through here, so a failure's envelope,
    traceback included, is byte-identical whichever backend ran it. A spec
    that raises comes back as an error envelope with its taxonomy kind.

    A pool worker passes the spec's wire form: it is decoded inside the
    envelope, the result leaves as its wire, and a spec budget's
    ``memory_mb`` is applied as ``RLIMIT_AS`` for the duration of the run
    (restored afterwards — workers are reused), turning a runaway allocation
    into a clean ``MemoryError`` → kind ``oom`` instead of an OS OOM-kill
    that would break the whole pool. In-process, the envelope carries the
    ``RunResult`` itself, and ``memory_mb`` is NOT applied — an RLIMIT_AS
    clamp there would endanger the host process — but a genuine MemoryError
    still maps to the taxonomy.
    Budget trips (``BudgetExceededError``) and ooms carry no traceback:
    their envelopes are deterministic functions of spec + budget,
    byte-identical across backends and engines.
    ``spec.timeout_s``, the effective deadline, is enforced post-hoc: an
    attempt that overran it is a timeout and evicts the replay driver its
    own build cached, so a retry in this process builds, and overruns, again.
    """
    from repro.fastpath.profile import evict_profile, profile_cached

    started = time.perf_counter()
    in_pool = isinstance(spec, dict)
    memory_mb = None
    try:
        if in_pool:
            spec = RunSpec.from_wire(spec)
        if spec.budget is not None:
            memory_mb = spec.budget.memory_mb
        built_here = not profile_cached(spec.driver)
        with address_space_cap(memory_mb) if in_pool else _UNCAPPED:
            result = execute_spec(spec)
            if in_pool:
                result = result_to_wire(result)
        seconds = time.perf_counter() - started
        if spec.timeout_s is not None and seconds > spec.timeout_s:
            if built_here:
                evict_profile(spec.driver)
            return error_envelope("timeout", _timeout_message(spec.timeout_s), None)
        return ok_envelope(result, seconds)
    except BudgetExceededError as exc:
        return error_envelope("budget", str(exc), None)
    except MemoryError:
        return error_envelope("oom", _oom_message(memory_mb), None)
    except ConfigurationError as exc:
        return error_envelope("config", str(exc), traceback.format_exc())
    except Exception as exc:
        return error_envelope(
            "crash", f"{type(exc).__name__}: {exc}", traceback.format_exc()
        )


def _pool_worker(wire_spec: dict) -> dict:
    """Process-pool entry point: wire spec in, tagged envelope out.

    Exceptions never cross the pool boundary raw (see :func:`_attempt`), so
    the supervisor can classify and retry without the pool protocol ever
    seeing an unpicklable exception. ``BaseException`` (SIGKILL, interpreter
    death) still breaks the pool; that path is the supervisor's
    crash-containment job.
    """
    return _attempt(wire_spec)


@dataclasses.dataclass
class ExecStats:
    """Cumulative executor observability counters.

    The one store for supervision and governance events: the CLI's
    ``exec:`` lines read it, with telemetry on or off.
    """

    runs_executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    # Submissions whose identical twin (same content hash, across any cells
    # of any studies in the batch) already ran or was queued in the batch.
    deduplicated: int = 0
    batches: int = 0
    run_seconds: float = 0.0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    pool_respawns: int = 0
    failures: int = 0
    quarantined: int = 0
    cache_evictions: int = 0
    cache_write_errors: int = 0
    budget_trips: int = 0
    ooms: int = 0
    # Never incremented: a batch streams through one queue. Kept only
    # because the benchmark harness still reads it.
    admission_deferred: int = 0
    cache_gc_evictions: int = 0

    def snapshot(self) -> "ExecStats":
        return dataclasses.replace(self)

    def since(self, earlier: "ExecStats") -> "ExecStats":
        """Counter deltas accumulated after *earlier* was snapshotted."""
        return ExecStats(
            **{
                field.name: getattr(self, field.name) - getattr(earlier, field.name)
                for field in dataclasses.fields(self)
            }
        )

    @property
    def total_requests(self) -> int:
        return self.runs_executed + self.cache_hits + self.deduplicated

    def describe(self) -> str:
        """One-line summary for reports and the CLI."""
        line = (
            f"{self.total_requests} runs: {self.runs_executed} simulated "
            f"({self.run_seconds:.2f}s), {self.cache_hits} cache hits, "
            f"{self.deduplicated} deduplicated"
        )
        if self.failures or self.retries or self.pool_respawns:
            line += (
                f"; supervision: {self.failures} failed, {self.retries} retries, "
                f"{self.timeouts} timeouts, {self.crashes} crashes, "
                f"{self.pool_respawns} pool respawns"
            )
        if self.budget_trips or self.ooms or self.cache_gc_evictions:
            line += (
                f"; governance: {self.budget_trips} budget trips, "
                f"{self.ooms} ooms, "
                f"{self.cache_gc_evictions} cache GC evictions"
            )
        return line


class _Task:
    """Mutable per-spec supervision state for one batch."""

    __slots__ = ("key", "spec", "attempts", "suspect", "resume_at")

    def __init__(self, key: str, spec: RunSpec) -> None:
        self.key = key
        self.spec = spec  # carries the effective deadline and budget
        self.attempts = 0
        self.suspect = False  # was in flight when a pool broke
        self.resume_at = 0.0  # monotonic instant the next attempt may start


class Executor:
    """Maps batches of RunSpecs to RunResults, in parallel, cached, supervised.

    A batch streams through one queue into at most ``jobs`` worker slots
    (one slot in-process): a freed slot takes the next runnable task at
    once, and a retry rejoins the queue behind its backoff.

    Args:
        jobs: Worker count for the process backend; defaults to
            ``os.cpu_count()``.
        backend: ``"process"`` or ``"inprocess"``; defaults to the process
            pool when ``jobs > 1`` and in-process otherwise.
        cache: ``True`` for the default on-disk cache, ``False``/``None`` to
            disable, or a :class:`ResultCache` instance.
        cache_dir: Directory for the default cache (``.repro-cache/``).
        timeout_s: Default per-run deadline in seconds (``None`` = no
            deadline); an individual ``RunSpec.timeout_s`` overrides it.
            The deadline covers execution only, on both backends: the
            process backend caps in-flight submissions at the pool width so
            a task's clock starts when it holds a worker slot (time queued
            behind batch siblings never counts), and enforces preemptively;
            the in-process backend enforces post-hoc (a single-threaded run
            cannot be preempted, but an overdue result is still discarded
            and recorded honestly).
        retries: Retry budget for transient (crash/timeout) failures — an
            int (extra attempts), a full :class:`RetryPolicy`, or ``None``
            for the default policy (1 retry, seeded jittered backoff).
        policy: ``"fail-fast"`` (default — :meth:`map` raises
            :class:`~repro.errors.BatchExecutionError` when anything failed,
            after salvaging and caching every healthy sibling) or
            ``"keep-going"`` (:meth:`map` returns partial results with
            ``None`` holes; failures accumulate on :attr:`last_failures`).
        breaker_threshold: Consecutive pool breaks, with no pool attempt
            returning an envelope in between, before the circuit breaker
            degrades this executor to in-process execution.
        budget: Default :class:`~repro.exec.governor.ResourceBudget` applied
            to every spec that does not carry its own; like ``timeout_s`` it
            is execution policy (excluded from content hashes). Its
            ``cache_quota_mb`` also sizes the default on-disk cache's LRU
            quota when ``cache=True``.
    """

    def __init__(
        self,
        jobs: int | None = None,
        backend: str | None = None,
        cache: bool | ResultCache | None = False,
        cache_dir: str | os.PathLike = DEFAULT_CACHE_DIR,
        timeout_s: float | None = None,
        retries: int | RetryPolicy | None = None,
        policy: str = "fail-fast",
        breaker_threshold: int = 3,
        budget: ResourceBudget | None = None,
    ) -> None:
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if backend is None:
            backend = "process" if self.jobs > 1 else "inprocess"
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown executor backend {backend!r}; known: {', '.join(BACKENDS)}"
            )
        self.backend = backend
        self.budget = budget
        if cache is True:
            quota = budget.cache_quota_bytes if budget is not None else None
            self.cache: ResultCache | None = ResultCache(
                cache_dir, quota_bytes=quota
            )
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        if timeout_s is not None and not timeout_s > 0:
            raise ConfigurationError(f"timeout_s must be > 0, got {timeout_s!r}")
        self.timeout_s = timeout_s
        if retries is None:
            self.retry = RetryPolicy()
        elif isinstance(retries, RetryPolicy):
            self.retry = retries
        elif isinstance(retries, int) and not isinstance(retries, bool):
            self.retry = RetryPolicy(retries=retries)
        else:
            raise ConfigurationError(
                f"retries must be an int, a RetryPolicy, or None; got {retries!r}"
            )
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown batch policy {policy!r}; known: {', '.join(POLICIES)}"
            )
        self.policy = policy
        self.breaker = CircuitBreaker(breaker_threshold)
        self.stats = ExecStats()
        #: RunFailure records from the most recent map/map_outcome call.
        self.last_failures: list[RunFailure] = []
        self._quarantine: dict[str, RunFailure] = {}
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    # ------------------------------------------------------------- lifecycle
    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs
            )
        return self._pool

    def _respawn_pool(self, terminate: bool = False) -> None:
        """Discard the current pool (terminating its workers if asked)."""
        pool, self._pool = self._pool, None
        if terminate:
            # A timed-out or poisoned worker can occupy its slot arbitrarily
            # long; terminate() reclaims it so the respawned pool starts
            # clean. _processes is internal, hence the defensive getattr.
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                with contextlib.suppress(Exception):
                    process.terminate()
        with contextlib.suppress(Exception):
            pool.shutdown(wait=False, cancel_futures=True)
        self.stats.pool_respawns += 1

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def clear_quarantine(self) -> int:
        """Forget quarantined specs so they may run again; returns the count."""
        count = len(self._quarantine)
        self._quarantine.clear()
        return count

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ submission
    def run(self, spec: RunSpec) -> RunResult:
        """Execute (or fetch) a single spec.

        Under ``keep-going`` a failed spec yields ``None``; under
        ``fail-fast`` (the default) it raises :class:`BatchExecutionError`.
        """
        return self.map([spec])[0]

    def map(self, specs) -> list[RunResult]:
        """Execute a batch of specs, preserving order, applying the policy.

        Healthy siblings of a failed spec are always salvaged (and cached);
        the policy only controls how failures surface — as a raised
        :class:`~repro.errors.BatchExecutionError` carrying the records
        (``fail-fast``) or as ``None`` holes in the returned list
        (``keep-going``).
        """
        outcome = self.map_outcome(specs)
        if outcome.failures and self.policy == "fail-fast":
            outcome.raise_for_failures()
        return outcome.results

    def map_outcome(self, specs) -> BatchOutcome:
        """Supervised batch execution; never raises for per-spec failures.

        Cache hits are served without touching a scheduler; identical specs
        within the batch simulate once and share one result object, which
        callers must treat as read-only; the remainder runs supervised on
        the configured backend. Each fresh result's wire is checkpointed
        into the cache the moment it completes, so an interrupted batch
        resumes from where it died.
        """
        specs = list(specs)
        self.stats.batches += 1
        results: list[RunResult | None] = [None] * len(specs)
        failures_by_key: dict[str, RunFailure] = {}
        tasks: list[_Task] = []
        key_indices: dict[str, list[int]] = {}
        for index, spec in enumerate(specs):
            key_indices.setdefault(spec.content_hash(), []).append(index)
        self.stats.deduplicated += len(specs) - len(key_indices)

        def fan_out(key: str, result: RunResult) -> None:
            for index in key_indices[key]:
                results[index] = result

        for key, indices in key_indices.items():
            spec = specs[indices[0]]
            quarantined = self._quarantine.get(key)
            if quarantined is not None:
                failures_by_key[key] = quarantined
                continue
            cached = self._cache_get(spec)
            if cached is not None:
                self.stats.cache_hits += 1
                fan_out(key, cached)
                continue
            if self.cache is not None:
                self.stats.cache_misses += 1
            # The executor defaults ride the wire like a spec's own; both
            # are excluded from content_hash, so the key computed above
            # still addresses the result.
            timeout_s = spec.timeout_s if spec.timeout_s is not None else self.timeout_s
            budget = spec.budget if spec.budget is not None else self.budget
            if (timeout_s, budget) != (spec.timeout_s, spec.budget):
                spec = dataclasses.replace(spec, timeout_s=timeout_s, budget=budget)
            tasks.append(_Task(key, spec))

        if tasks:
            def on_success(task: _Task, result, seconds: float) -> None:
                # A pool worker's wire is decoded first: one that fails to
                # decode settles as cache-corrupt and is never cached. An
                # in-process result is encoded only to be cached.
                wire = None
                if not isinstance(result, RunResult):
                    wire, result = result, result_from_wire(result)
                self.stats.runs_executed += 1
                self.stats.run_seconds += seconds
                if self.cache is not None:
                    if wire is None:
                        wire = result_to_wire(result)
                    before_gc = self.cache.stats.quota_evictions
                    try:
                        # Checkpoint immediately: a later crash in this batch
                        # (or of this process) never re-simulates this spec.
                        self.cache.put(task.spec, wire)
                    except OSError:
                        # A full disk or permission flip must not abort the
                        # batch: the result stands, merely uncached.
                        self.stats.cache_write_errors += 1
                    evicted = self.cache.stats.quota_evictions - before_gc
                    if evicted:
                        self.stats.cache_gc_evictions += evicted
                fan_out(task.key, result)

            failures_by_key.update(self._execute_batch(tasks, on_success))

        index_failures: dict[int, RunFailure] = {}
        failures: list[RunFailure] = []
        for key, indices in key_indices.items():
            failure = failures_by_key.get(key)
            if failure is not None:
                failures.append(failure)
                for index in indices:
                    index_failures[index] = failure
                continue
            telemetry_runtime.collect(results[indices[0]].telemetry)

        self.last_failures = failures
        return BatchOutcome(
            results=results, failures=failures, index_failures=index_failures
        )

    # ----------------------------------------------------------- supervision
    def _cache_get(self, spec: RunSpec) -> RunResult | None:
        if self.cache is None:
            return None
        before = self.cache.stats.evictions
        hit = self.cache.get(spec)
        evicted = self.cache.stats.evictions - before
        if evicted:
            self.stats.cache_evictions += evicted
        return hit

    def _settle_failure_or_retry(
        self,
        task: _Task,
        kind: str,
        message: str,
        traceback_text: str | None,
        failures: dict[str, RunFailure],
        allow_retry: bool = True,
    ) -> bool:
        """Record a failed attempt; True schedules a retry, False settles it.

        ``allow_retry=False`` forces the failure to settle into a record
        even when the task's retry budget is not exhausted (the breaker-trip
        path: there is no pool left to retry on, and dropping the task would
        lose it without a result *or* a failure).
        """
        if kind == "timeout":
            self.stats.timeouts += 1
        elif kind == "crash":
            self.stats.crashes += 1
        elif kind == "budget":
            self.stats.budget_trips += 1
        elif kind == "oom":
            self.stats.ooms += 1
        max_attempts = self.retry.max_attempts
        if kind == "oom":
            # oom retries once, without cap escalation: the first failure may
            # be a reused worker's fragmented address space, but a second
            # identical one under the same cap is the spec's own appetite.
            max_attempts = min(max_attempts, 2)
        if (
            allow_retry
            and self.retry.retryable(kind)
            and task.attempts < max_attempts
        ):
            self.stats.retries += 1
            task.resume_at = time.monotonic() + self.retry.delay_s(
                task.key, task.attempts
            )
            return True
        failure = RunFailure(
            spec_hash=task.key,
            description=task.spec.describe(),
            kind=kind,
            attempts=max(1, task.attempts),
            message=message,
            traceback=traceback_text,
        )
        failures[task.key] = failure
        self.stats.failures += 1
        # Policy-knob failures (timeout/budget/oom) never quarantine: the
        # quarantine key (content_hash) is deliberately blind to timeout_s
        # and budget, so a failure caused by an allowance must not outlive
        # the allowance that produced it — the same spec resubmitted under a
        # larger deadline, event budget, or memory cap deserves a fresh run.
        # The spec-deterministic kinds (crash/config/cache-corrupt) do
        # quarantine.
        if kind not in NON_QUARANTINE_KINDS and task.key not in self._quarantine:
            self._quarantine[task.key] = failure
            self.stats.quarantined += 1
        return False

    def _settle_envelope(self, task, envelope, failures, on_success) -> bool:
        """Classify one completed attempt; True means a retry is scheduled."""
        task.attempts += 1
        if not envelope["ok"]:
            return self._settle_failure_or_retry(
                task,
                envelope["kind"],
                envelope["message"],
                envelope["traceback"],
                failures,
            )
        try:
            on_success(task, envelope["result"], envelope["seconds"])
            return False
        except (KeyError, TypeError, ValueError) as exc:
            return self._settle_failure_or_retry(
                task,
                "cache-corrupt",
                f"result wire form rejected: {exc}",
                None,
                failures,
            )

    # ---------------------------------------------------- the supervision loop
    def _execute_batch(self, tasks, on_success) -> dict[str, RunFailure]:
        """Supervise *tasks* from one queue until each ends as a result or failure.

        The process backend keeps at most ``jobs`` futures in flight and
        refills a freed slot before it settles the attempt that freed it,
        unless crash suspects are waiting. The in-process backend, and a
        tripped breaker, are the same loop at width one with no pool: each
        attempt settles before the next one starts. A retry rejoins the
        queue and runs once its backoff has elapsed. After a pool break or a
        stuck worker the loop submits nothing more, lets the in-flight
        futures drain and respawns the pool; crash suspects run one at a
        time, each alone on the pool, once the queue is empty.
        """
        failures: dict[str, RunFailure] = {}
        queue: collections.deque[_Task] = collections.deque(tasks)
        suspects: collections.deque[_Task] = collections.deque()
        in_flight: dict[concurrent.futures.Future, _Task] = {}
        deadlines: dict[concurrent.futures.Future, float] = {}
        broken: list[_Task] = []  # in flight when the pool died
        broke = False  # the pool died: drain, then respawn
        stuck = False  # a timed-out worker still occupies a slot: likewise

        def requeue(task: _Task) -> None:
            (suspects if task.suspect else queue).append(task)

        def fill(pool) -> None:
            # In-flight submissions are capped at the pool width, so a
            # submitted task holds a worker slot immediately: its deadline
            # clock starts when it can actually execute, never while queued
            # behind batch siblings — the same semantics as the in-process
            # backend, which measures only execution time.
            nonlocal broke
            width = 1 if pool is None else self.jobs
            while len(in_flight) < width and not (broke or stuck):
                now = time.monotonic()
                task = next((task for task in queue if task.resume_at <= now), None)
                if task is not None:
                    queue.remove(task)
                elif pool is not None and suspects and not queue and not in_flight:
                    # A suspect runs alone, so a pool that breaks under it
                    # attributes the crash to exactly one spec.
                    task = suspects.popleft()
                else:
                    return
                if pool is None:
                    envelope = _attempt(task.spec)
                    if self._settle_envelope(task, envelope, failures, on_success):
                        requeue(task)
                    continue
                try:
                    future = pool.submit(_pool_worker, task.spec.to_wire())
                except Exception:
                    # The pool broke before this task ever ran: it is
                    # innocent — requeue it and let the in-flight futures
                    # identify the culprit.
                    broke = True
                    requeue(task)
                    return
                in_flight[future] = task
                if task.spec.timeout_s is not None:
                    deadlines[future] = time.monotonic() + task.spec.timeout_s

        while queue or suspects or in_flight or broke or stuck:
            if (broke or stuck) and not in_flight:
                if broke:
                    self.breaker.record_failure()
                self._respawn_pool(terminate=True)
                if broke and len(broken) == 1:
                    # Exactly one spec was in flight when the pool died —
                    # that is the culprit; charge the crash to it.
                    task = broken[0]
                    task.suspect = True
                    task.attempts += 1
                    if self._settle_failure_or_retry(
                        task,
                        "crash",
                        "worker process died while executing this spec "
                        "(killed or crashed outside Python)",
                        None,
                        failures,
                    ):
                        suspects.append(task)
                else:
                    for task in broken:
                        task.suspect = True
                        suspects.append(task)
                broken.clear()
                broke = stuck = False
            pooled = (
                self.backend == "process"
                and self.jobs > 1
                and not self.breaker.tripped
            )
            if not pooled:
                # Degraded mode (the §4.5 fallback, applied to the harness):
                # stop respawning pools. Unexonerated crash suspects are
                # quarantined — re-running a potential worker-killer
                # in-process would take the whole harness down with it.
                for task in suspects:
                    # allow_retry=False: there is no pool left to retry on,
                    # and a scheduled-then-dropped retry would lose the spec
                    # without a result or a failure record.
                    self._settle_failure_or_retry(
                        task,
                        "crash",
                        "quarantined by the circuit breaker: the worker pool "
                        "broke repeatedly with this spec in flight",
                        None,
                        failures,
                        allow_retry=False,
                    )
                suspects.clear()
            pool = self._ensure_pool() if pooled else None
            fill(pool)
            if not in_flight:
                if queue and not (broke or stuck):
                    # Every queued task is backing off: sleep to the first.
                    resume_at = min(task.resume_at for task in queue)
                    time.sleep(max(0.0, resume_at - time.monotonic()))
                continue
            wake = list(deadlines.values())
            if queue and not (broke or stuck) and len(in_flight) < self.jobs:
                wake.append(min(task.resume_at for task in queue))
            done, _ = concurrent.futures.wait(
                in_flight,
                timeout=max(0.0, min(wake) - time.monotonic()) if wake else None,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            finished = []
            for future in done:
                task = in_flight.pop(future)
                deadlines.pop(future, None)
                try:
                    finished.append((task, future.result()))
                except concurrent.futures.BrokenExecutor:
                    broke = True
                    broken.append(task)
                    continue
                # The breaker's unit of success: a pool attempt that came
                # back as an envelope, whatever the envelope says.
                self.breaker.record_success()
            now = time.monotonic()
            for future in [f for f, deadline in deadlines.items() if deadline <= now]:
                task = in_flight.pop(future)
                del deadlines[future]
                if not future.cancel():
                    # The worker is mid-run and cannot be preempted; the
                    # pool is terminated and respawned once it drains.
                    stuck = True
                task.attempts += 1
                message = _timeout_message(task.spec.timeout_s)
                if self._settle_failure_or_retry(task, "timeout", message, None, failures):
                    requeue(task)
            # Refill the freed slots first: the workers run while this
            # process decodes and checkpoints what they handed back. Not
            # while suspects wait: one may run only once these attempts
            # have settled, or a retry they requeue would run beside it.
            if not suspects:
                fill(pool)
            for task, envelope in finished:
                if self._settle_envelope(task, envelope, failures, on_success):
                    requeue(task)
        return failures


# ---------------------------------------------------------- default executor
_default_executor: Executor | None = None


def _executor_from_env() -> Executor:
    jobs = env_int("REPRO_JOBS", minimum=1, default=1)
    backend = os.environ.get("REPRO_EXEC_BACKEND") or (
        "process" if jobs > 1 else "inprocess"
    )
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"REPRO_EXEC_BACKEND must be one of {', '.join(BACKENDS)}; "
            f"got {backend!r}"
        )
    cache = os.environ.get("REPRO_CACHE", "") == "1"
    cache_dir = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    timeout_s = env_float("REPRO_TIMEOUT")
    retries = env_int("REPRO_RETRIES", minimum=0)
    return Executor(
        jobs=jobs,
        backend=backend,
        cache=cache,
        cache_dir=cache_dir,
        timeout_s=timeout_s,
        retries=retries,
        budget=budget_from_env(),
    )


def get_default_executor() -> Executor:
    """The process-wide executor experiments submit through.

    First use builds one from ``REPRO_JOBS`` / ``REPRO_EXEC_BACKEND`` /
    ``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` / ``REPRO_TIMEOUT`` /
    ``REPRO_RETRIES`` / ``REPRO_MAX_EVENTS`` / ``REPRO_MEMORY_MB`` /
    ``REPRO_CACHE_QUOTA_MB``; absent those, a hermetic in-process executor
    with the cache disabled. Malformed values raise
    :class:`~repro.errors.ConfigurationError` here, at construction time.
    """
    global _default_executor
    if _default_executor is None:
        _default_executor = _executor_from_env()
    return _default_executor


def set_default_executor(executor: Executor | None) -> Executor | None:
    """Install (or, with ``None``, reset) the default executor."""
    global _default_executor
    previous = _default_executor
    _default_executor = executor
    return previous


def _close_default_executor() -> None:
    """atexit hook: never leak pool workers past interpreter exit."""
    if _default_executor is not None:
        _default_executor.close()


atexit.register(_close_default_executor)


@contextlib.contextmanager
def using_executor(executor: Executor):
    """Scope *executor* as the default for a ``with`` block."""
    previous = set_default_executor(executor)
    try:
        yield executor
    finally:
        set_default_executor(previous)
