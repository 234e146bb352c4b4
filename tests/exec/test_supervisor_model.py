"""Model-based check of the executor's supervision loop.

A Hypothesis state machine drives :meth:`Executor.map_outcome` against a
scripted fake process pool. Every spec carries a script: on each attempt
the run succeeds (``ok``), raises (``raise``), is rejected (``config``),
trips its event budget (``budget``), exhausts memory (``oom``), kills its
worker and so breaks the pool (``break``), or never finishes (``hang``).
``config`` and ``budget`` are deterministic, as in the real harness: a
spec scripted with one fails that way on every attempt. A transient script
mixes the other outcomes, and attempts past its end succeed.

The fakes are installed for the life of one machine run by patching
``concurrent.futures.ProcessPoolExecutor``, ``concurrent.futures.wait`` and
``repro.exec.executor.execute_spec``. The executor's ``time`` module is
swapped for a fake clock that moves only when the executor sleeps out a
backoff, when a ``wait`` with nothing finished runs to its timeout, and
when an in-process attempt is scripted to overrun its deadline, so backoffs
and deadline overruns are exact on both backends and cost no real time.
Pool futures resolve when submitted, except a ``hang``, which stays running
until its deadline expires.

Half the machines run with a result cache: a real :class:`ResultCache` in
a scratch directory whose ``put`` raises ``OSError`` for specs scripted to
fail their write. Half of those caches have a disk quota that holds two
entries, so stores evict older entries. A rule overwrites a stored entry
with a corrupt one (torn JSON, a wrong schema, a malformed frame row). The
model tracks which specs hold a valid entry: those are hits and never run,
a corrupt entry is evicted and its spec re-runs and is re-stored, a failed
write keeps the result but leaves no entry, and an entry the quota evicted
reads as a miss the next time its spec is submitted.

After every batch, a reference model states what each spec must end as,
given the attempts the fakes served it:

* every submitted index ends as exactly one result or one failure;
* a result is byte-identical to the wire its script produced;
* a failure's kind and attempt count follow the retry rules: ``budget``,
  ``config`` and ``cache-corrupt`` get one attempt, ``oom`` is attempted
  at most twice, and ``crash`` and ``timeout`` at most ``retries + 1``
  times;
* at most ``jobs`` futures are in flight, and a crash suspect (a spec in
  flight when a pool broke) is only ever in flight alone;
* the loop is work-conserving: with a free slot, it never waits on its
  futures while a queued task that is not a suspect is past its backoff,
  nor past the instant one will be, unless it is draining a broken or stuck
  pool;
* ``timeout``, ``budget`` and ``oom`` failures are never quarantined, while
  ``crash`` and ``config`` failures are, and a quarantined spec never runs;
* the executor's cache counters (hits, misses, evictions, write errors)
  match the model's, the cache holds exactly the entries the model expects
  less those the quota evicted, each the wire of its spec's result, its
  quota evictions equal the entries that vanished, and it stays within its
  quota.
"""

import concurrent.futures
import json
import shutil
import tempfile
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.display.device import PIXEL_5
from repro.errors import BudgetExceededError, ConfigurationError, WorkloadError
from repro.exec import executor as executor_module
from repro.exec.cache import ResultCache
from repro.exec.executor import Executor
from repro.exec.serialize import result_to_wire
from repro.exec.spec import DriverSpec, RunSpec
from repro.exec.supervisor import RetryPolicy
from repro.pipeline.scheduler_base import RunResult

TRANSIENT = ("ok", "raise", "oom", "break", "hang")
DETERMINISTIC = ("config", "budget")
KIND_OF = {
    "raise": "crash",
    "break": "crash",
    "config": "config",
    "budget": "budget",
    "oom": "oom",
    "hang": "timeout",
}
RETRYABLE = frozenset({"crash", "timeout", "oom"})
QUARANTINED = frozenset({"crash", "config", "cache-corrupt"})
BREAKER_MESSAGE = "quarantined by the circuit breaker"

#: Every spec's deadline. A pool ``hang`` runs the fake clock to it; an
#: in-process ``hang`` moves the fake clock far past it instead.
TIMEOUT_S = 0.002
#: A cache quota that holds two of the model's entries (about 415 bytes).
QUOTA_BYTES = 1000

SCRIPTS = st.one_of(
    st.lists(st.sampled_from(TRANSIENT), min_size=1, max_size=4),
    st.sampled_from(DETERMINISTIC).map(lambda kind: [kind]),
)
PICKS = st.integers(min_value=0, max_value=63)
#: A batch entry: a new spec (its script, and whether its cache write
#: fails), any earlier spec again, or a spec that holds a cache entry.
ENTRIES = st.one_of(
    st.tuples(SCRIPTS, st.booleans()).map(lambda value: ("new", value)),
    PICKS.map(lambda pick: ("again", pick)),
    PICKS.map(lambda pick: ("stored", pick)),
)

#: Ways a stored entry goes bad; each must read as a miss and be evicted.
CORRUPTIONS = {
    "torn": lambda text: text[: len(text) // 2],
    "schema": lambda text: text.replace('"schema":', '"schema":-1,"was":', 1),
    "frame-row": lambda text: text.replace('"frames":[]', '"frames":[[0]]', 1),
}


class _Clock:
    """The executor's ``time`` module: one fake clock for every reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now

    perf_counter = monotonic

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class _Future(concurrent.futures.Future):
    """A future that reports to the model when the executor lets go of it."""

    def __init__(self, pool: "_FakePool", name: str, record: list) -> None:
        super().__init__()
        self.pool = pool
        self.name = name
        self.record = record
        self.released = False  # result() or cancel() was called

    def result(self, timeout=None):
        self.released = True
        self.pool.machine.note_release(self)
        return super().result(timeout)

    def cancel(self) -> bool:
        self.released = True
        cancelled = super().cancel()
        if not cancelled:
            self.pool.stuck = True  # the worker stays busy until a respawn
        self.pool.machine.note_release(self)
        return cancelled


class _FakePool:
    """Stands in for ``ProcessPoolExecutor``; runs its script per submit."""

    def __init__(self, machine: "SupervisorMachine", max_workers: int) -> None:
        self.machine = machine
        self.max_workers = max_workers
        self.futures: list[_Future] = []
        self.broken = False
        self.stuck = False

    def submit(self, fn, wire_spec):
        machine = self.machine
        if self.broken:
            raise BrokenProcessPool("a worker died; the pool is unusable")
        name = wire_spec["driver"]["params"]["name"]
        in_flight = [future.name for future in self.futures if not future.released]
        if len(in_flight) >= self.max_workers:
            machine.violations.append(
                f"submit with {len(in_flight)} futures in flight, "
                f"jobs={self.max_workers}"
            )
        if in_flight and machine.suspects & {name, *in_flight}:
            machine.violations.append(
                f"{name} submitted beside {in_flight}, with a suspect among them"
            )
        record = machine.serve(name, via_pool=True)
        future = _Future(self, name, record)
        self.futures.append(future)
        outcome = record[0]
        if outcome == "hang":
            future.set_running_or_notify_cancel()
        elif outcome == "break":
            self.broken = True
            doomed = [
                other
                for other in self.futures
                if not other.done() and not other.released
            ]
            if len(doomed) > 1:
                # Several specs were in flight: the executor cannot tell the
                # culprit, so it charges none of them an attempt.
                for other in doomed:
                    other.record[1] = False
            for other in doomed:
                other.set_exception(BrokenProcessPool("worker killed"))
        else:
            machine.pool_outcome = outcome
            try:
                future.set_result(fn(wire_spec))
            finally:
                machine.pool_outcome = None
        return future

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        pass


class _ScriptedCache(ResultCache):
    """A real cache whose ``put`` fails for specs scripted to fail it."""

    def __init__(
        self, machine: "SupervisorMachine", root: str, quota_bytes: int | None
    ) -> None:
        super().__init__(root, salt="model", quota_bytes=quota_bytes)
        self.machine = machine

    def put(self, spec, wire) -> None:
        name = spec.driver.params["name"]
        if self.machine.put_fails[name]:
            raise OSError(f"scripted write failure for {name}")
        super().put(spec, wire)


class SupervisorMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = _Clock()
        self.patches = [
            mock.patch("concurrent.futures.ProcessPoolExecutor", self.make_pool),
            mock.patch("concurrent.futures.wait", self.wait),
            mock.patch.object(executor_module, "execute_spec", self.execute),
            mock.patch.object(executor_module, "time", self.clock),
        ]
        for patch in self.patches:
            patch.start()
        self.executor = None
        self.cache_dir = None
        self.scripts: dict[str, list[str]] = {}
        self.put_fails: dict[str, bool] = {}
        self.stored: set[str] = set()  # names with a valid cache entry
        self.corrupt: set[str] = set()  # names whose entry was corrupted
        self.served: dict[str, int] = {}
        self.wires: dict[str, str] = {}
        self.results: dict[str, RunResult] = {}
        self.quarantine: dict[str, object] = {}
        self.log: dict[str, list[list]] = {}
        self.violations: list[str] = []
        self.pool_outcome = None
        self.pools: list[_FakePool] = []
        # The batch in progress, as the model sees it: the specs it must
        # run, and which of them are settled, crash suspects, or backing
        # off until a given instant before their next attempt.
        self.tasks: set[str] = set()
        self.settled: set[str] = set()
        self.suspects: set[str] = set()
        self.resume_at: dict[str, float] = {}

    def teardown(self) -> None:
        if self.executor is not None:
            self.executor.close()
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        for patch in reversed(self.patches):
            patch.stop()

    # ---------------------------------------------------------------- fakes
    def make_pool(self, max_workers):
        self.pools.append(_FakePool(self, max_workers))
        return self.pools[-1]

    def note_release(self, future: _Future) -> None:
        """The executor took *future*'s attempt back: settle or back off."""
        name = future.name
        if future.done() and not future.cancelled() and future.exception():
            self.suspects.add(name)  # in flight when the pool broke
            return
        outcome = future.record[0]
        if outcome == "ok":
            self.settled.add(name)
            return
        kind = KIND_OF[outcome]
        attempts = sum(record[1] for record in self.log[name])
        if self._retries(kind, attempts):
            self.resume_at[name] = self.clock.now + self.executor.retry.delay_s(
                _spec(name).content_hash(), attempts
            )
        else:
            self.settled.add(name)

    def wait(self, futures, timeout=None, return_when=None):
        """``concurrent.futures.wait`` on the fake clock."""
        futures = set(futures)
        done = {future for future in futures if future.done()}
        pool = self.pools[-1]
        if len(futures) < self.executor.jobs and not (pool.broken or pool.stuck):
            flying = {future.name for future in pool.futures if not future.released}
            queued = self.tasks - self.settled - self.suspects - flying
            ready_at = min(
                (self.resume_at.get(name, 0.0) for name in queued), default=None
            )
            # A free slot must be filled by the time a queued task may run:
            # it is filled already, or this wait ends no later than that.
            # Raised here, not collected: a loop that idles on a runnable
            # task may never return on a clock that only waits move.
            assert ready_at is None or not (
                ready_at <= self.clock.now
                or not done
                and (timeout is None or self.clock.now + timeout > ready_at + 1e-9)
            ), (
                f"waited on {len(futures)} futures, jobs={self.executor.jobs}, "
                f"timeout={timeout}, while {sorted(queued)} may run at "
                f"{ready_at} (now {self.clock.now})"
            )
        if not done:
            assert timeout is not None, "the executor would wait forever"
            self.clock.now += timeout
        return done, futures - done

    def serve(self, name: str, via_pool: bool) -> list:
        """Hand out the next scripted attempt: ``[outcome, charged, via_pool]``."""
        script = self.scripts[name]
        count = self.served[name]
        self.served[name] = count + 1
        if count < len(script):
            outcome = script[count]
        else:
            outcome = script[-1] if script[-1] in DETERMINISTIC else "ok"
        record = [outcome, True, via_pool]
        self.log.setdefault(name, []).append(record)
        return record

    def execute(self, spec):
        name = spec.driver.params["name"]
        outcome = self.pool_outcome
        if outcome is None:
            outcome = self.serve(name, via_pool=False)[0]
        if outcome == "hang":
            self.clock.now += 1.0  # in-process: the run overran its deadline
        elif outcome in ("raise", "break"):
            # A worker killer cannot kill the harness; it raises instead.
            raise WorkloadError(f"scripted crash in {name}")
        elif outcome == "config":
            raise ConfigurationError(f"scripted rejection of {name}")
        elif outcome == "budget":
            raise BudgetExceededError(f"scripted budget trip in {name}")
        elif outcome == "oom":
            raise MemoryError()
        return self.results[name]

    # ---------------------------------------------------------------- rules
    @initialize(
        jobs=st.integers(min_value=1, max_value=3),
        # Weighted toward the pool, which has more states to reach.
        backend=st.sampled_from(["process", "process", "inprocess"]),
        retries=st.integers(min_value=0, max_value=2),
        threshold=st.integers(min_value=1, max_value=4),
        cached=st.booleans(),
        quota=st.booleans(),
    )
    def build(self, jobs, backend, retries, threshold, cached, quota):
        self.retries = retries
        cache = None
        if cached:
            self.cache_dir = tempfile.mkdtemp(prefix="supervisor-model-")
            cache = _ScriptedCache(
                self, self.cache_dir, QUOTA_BYTES if quota else None
            )
        self.executor = Executor(
            jobs=jobs,
            backend=backend,
            policy="keep-going",
            retries=RetryPolicy(
                retries=retries, base_delay_s=0.0002, max_delay_s=0.0005
            ),
            breaker_threshold=threshold,
            cache=cache,
        )

    @rule(entries=st.lists(ENTRIES, min_size=1, max_size=6))
    def submit(self, entries):
        names = []
        for kind, value in entries:
            if kind == "new":
                name = f"spec-{len(self.scripts)}"
                self.scripts[name], self.put_fails[name] = value
                self.served[name] = 0
                self.results[name] = _result(name)
                self.wires[name] = _dump(result_to_wire(self.results[name]))
                names.append(name)
            elif kind == "stored" and self.stored:
                names.append(sorted(self.stored)[value % len(self.stored)])
            elif self.scripts:
                names.append(sorted(self.scripts)[value % len(self.scripts)])
        if not names:
            return
        executor = self.executor
        pooled = (
            executor.backend == "process"
            and executor.jobs > 1
            and not executor.breaker.tripped
        )
        was_tripped = executor.breaker.tripped
        before = executor.stats.snapshot()
        self.log = {}
        self.violations = []
        self.tasks = {
            name
            for name in names
            if name not in self.quarantine
            and not (executor.cache is not None and name in self.stored)
        }
        self.settled, self.suspects, self.resume_at = set(), set(), {}
        outcome = executor.map_outcome([_spec(name) for name in names])
        tripped_here = executor.breaker.tripped and not was_tripped
        delta = executor.stats.since(before)

        assert self.violations == []
        if not pooled:
            assert not any(
                record[2] for records in self.log.values() for record in records
            ), "a batch that starts unpooled never submits to a pool"

        expected_retries = 0
        new_quarantine = 0
        cache = executor.cache
        hits = misses = evictions = write_errors = 0
        for name in dict.fromkeys(names):
            indices = [index for index, other in enumerate(names) if other == name]
            records = self.log.get(name, [])
            charged = [record for record in records if record[1]]
            for index in indices:
                has_result = outcome.results[index] is not None
                assert has_result != (index in outcome.index_failures), (
                    f"index {index} ({name}) must end as one result or one failure"
                )
            hit = False
            if cache is not None and name not in self.quarantine:
                hit = name in self.stored
                hits += hit
                misses += not hit
                if name in self.corrupt:
                    evictions += 1
                    self.corrupt.discard(name)
            if outcome.results[indices[0]] is not None:
                for index in indices:
                    assert _dump(result_to_wire(outcome.results[index])) == (
                        self.wires[name]
                    )
                if hit:
                    assert records == [], "a cache hit never runs"
                    continue
                if cache is not None:
                    if self.put_fails[name]:
                        write_errors += 1
                    else:
                        self.stored.add(name)
                assert records and records[-1][0] == "ok" and records[-1][1]
                self._check_retried(charged[:-1])
                expected_retries += len(charged) - 1
                continue
            failure = outcome.index_failures[indices[0]]
            for index in indices:
                assert outcome.index_failures[index] == failure
            if name in self.quarantine:
                assert records == [], "a quarantined spec never runs"
                assert failure == self.quarantine[name]
                continue
            if failure.message.startswith(BREAKER_MESSAGE):
                assert tripped_here
                assert failure.kind == "crash" and failure.traceback is None
                assert failure.attempts == max(1, len(charged))
                self._check_retried(charged)
                expected_retries += len(charged)
            else:
                assert charged and records[-1] is charged[-1]
                last, _, via_pool = charged[-1]
                assert failure.kind == KIND_OF[last]
                assert failure.attempts == len(charged)
                self._check_retried(charged[:-1])
                assert not self._retries(failure.kind, len(charged))
                expected_retries += len(charged) - 1
                has_traceback = last in ("raise", "config") or (
                    last == "break" and not via_pool
                )
                assert (failure.traceback is not None) == has_traceback
            self._check_attempt_bounds(failure, charged)
            if failure.kind in QUARANTINED:
                self.quarantine[name] = failure
                new_quarantine += 1
        assert delta.retries == expected_retries
        assert delta.quarantined == new_quarantine
        assert (delta.cache_hits, delta.cache_misses) == (hits, misses)
        assert delta.cache_evictions == evictions
        assert delta.cache_write_errors == write_errors
        if cache is not None:
            self._check_cache(delta)
        assert len(outcome.failures) == len(
            {failure.spec_hash for failure in outcome.index_failures.values()}
        )

    @rule(pick=PICKS, how=st.sampled_from(sorted(CORRUPTIONS)))
    def corrupt_entry(self, pick, how):
        if self.executor is None or self.executor.cache is None or not self.stored:
            return
        name = sorted(self.stored)[pick % len(self.stored)]
        path = self._entry(name)
        path.write_text(CORRUPTIONS[how](path.read_text()))
        self.stored.discard(name)
        self.corrupt.add(name)

    @rule()
    def clear_quarantine(self):
        assert self.executor.clear_quarantine() == len(self.quarantine)
        self.quarantine.clear()

    @rule()
    def reset_breaker(self):
        # Re-arm the pool after a trip, so later batches exercise it again.
        self.executor.breaker.reset()

    @invariant()
    def quarantine_holds_no_policy_failures(self):
        if self.executor is None:
            return
        kinds = {failure.kind for failure in self.executor._quarantine.values()}
        assert not kinds & {"timeout", "budget", "oom"}

    # ---------------------------------------------------------------- model
    def _entry(self, name: str):
        cache = self.executor.cache
        return cache._path(cache.key(_spec(name)))

    def _check_cache(self, delta) -> None:
        cache = self.executor.cache
        expected = self.stored | self.corrupt
        vanished = {name for name in expected if not self._entry(name).exists()}
        assert delta.cache_gc_evictions == len(vanished)
        if cache.quota_bytes is None:
            assert not vanished, "a cache without a quota evicts nothing"
        else:
            assert cache.total_bytes() <= cache.quota_bytes
        self.stored -= vanished
        self.corrupt -= vanished
        assert len(cache.entries()) == len(expected) - len(vanished)
        for name in self.stored:
            stored = json.loads(self._entry(name).read_text())
            assert _dump(stored) == self.wires[name]

    def _retries(self, kind: str, attempts: int) -> bool:
        """Whether the model retries a *kind* failure after *attempts*."""
        cap = self.retries + 1
        if kind == "oom":
            cap = min(cap, 2)
        return self.retries > 0 and kind in RETRYABLE and attempts < cap

    def _check_retried(self, charged: list) -> None:
        for attempts, record in enumerate(charged, start=1):
            assert self._retries(KIND_OF[record[0]], attempts), (
                f"attempt {attempts} ({record[0]}) should have settled"
            )

    def _check_attempt_bounds(self, failure, charged: list) -> None:
        ooms = sum(record[0] == "oom" for record in charged)
        assert ooms <= 2, "oom is retried at most once"
        if failure.kind in ("budget", "config", "cache-corrupt"):
            assert failure.attempts == 1
        else:
            assert failure.attempts <= self.retries + 1


def _spec(name: str) -> RunSpec:
    return RunSpec(
        driver=DriverSpec.of("repro.exec.builders:burst_animation", name=name),
        device=PIXEL_5,
        architecture="vsync",
        buffer_count=3,
        timeout_s=TIMEOUT_S,
    )


def _result(name: str) -> RunResult:
    return RunResult(
        scheduler="vsync",
        scenario=name,
        device=PIXEL_5,
        buffer_count=3,
        frames=[],
        drops=[],
        presents=[],
        start_time=0,
        end_time=len(name),
        ui_busy_ns=0,
        render_busy_ns=0,
        gpu_busy_ns=0,
    )


def _dump(wire: dict) -> str:
    return json.dumps(wire, sort_keys=True)


SupervisorMachine.TestCase.settings = settings(
    max_examples=300,
    stateful_step_count=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    # The explain phase replays the shrunk failure many times to annotate
    # it, which takes most of a failing run's wall time; the shrunk
    # counterexample alone is what a failure report needs.
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
test_supervisor_model = SupervisorMachine.TestCase


def test_suspect_never_runs_beside_a_retry_of_its_batch():
    """Regression: a suspect waits until the attempts just returned settle.

    Two specs break the pool together and become suspects; the sibling that
    then runs returns a retryable failure. Its retry must be queued before a
    suspect may run, or it later runs beside that suspect, and a second
    break would be charged to both. Random exploration rarely reaches this
    interleaving, so it is replayed here step by step. Both suspects hang
    when they rerun, since ``wait`` hands back finished futures in no set
    order and either may rerun first.
    """
    machine = SupervisorMachine()
    try:
        machine.build(
            jobs=2,
            backend="process",
            retries=1,
            threshold=2,
            cached=False,
            quota=False,
        )
        machine.submit(
            entries=[
                ("new", (["hang", "hang"], False)),
                ("new", (["break", "hang"], False)),
                ("new", (["raise", "ok"], False)),
            ]
        )
    finally:
        machine.teardown()
