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
``concurrent.futures.ProcessPoolExecutor`` and
``repro.exec.executor.execute_spec``. The executor's ``time`` module is
swapped for a clock whose ``perf_counter`` only moves when an in-process
attempt is scripted to overrun its deadline, so deadline overruns are exact
on both backends. Pool futures resolve when submitted, except a ``hang``,
which stays running until its deadline expires. Each pool wave starts with
``Executor._ensure_pool``, so the machine wraps that method on its executor
to count a wave's submissions.

Half the machines run with a result cache: a real :class:`ResultCache` in
a scratch directory whose ``put`` raises ``OSError`` for specs scripted to
fail their write. A rule overwrites a stored entry with a corrupt one (torn
JSON, a wrong schema, a malformed frame row). The model tracks which specs
hold a valid entry: those are hits and never run, a corrupt entry is evicted
and its spec re-runs and is re-stored, and a failed write keeps the result
but leaves no entry.

After every batch, a reference model states what each spec must end as,
given the attempts the fakes served it:

* every submitted index ends as exactly one result or one failure;
* a result is byte-identical to the wire its script produced;
* a failure's kind and attempt count follow the retry rules: ``budget``,
  ``config`` and ``cache-corrupt`` get one attempt, ``oom`` is attempted
  at most twice, and ``crash`` and ``timeout`` at most ``retries + 1``
  times;
* at most ``jobs`` futures are in flight and a wave submits at most
  ``admission`` specs;
* ``timeout``, ``budget`` and ``oom`` failures are never quarantined, while
  ``crash`` and ``config`` failures are, and a quarantined spec never runs;
* the executor's cache counters (hits, misses, evictions, write errors)
  match the model's, and the cache holds exactly the entries the model
  expects, each the wire of its spec's result.
"""

import concurrent.futures
import json
import shutil
import tempfile
import time
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

#: Every spec's deadline. A pool ``hang`` costs this much real time; an
#: in-process ``hang`` moves the fake clock far past it instead.
TIMEOUT_S = 0.002

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
    """The executor's ``time`` module, with a scripted ``perf_counter``."""

    monotonic = staticmethod(time.monotonic)
    sleep = staticmethod(time.sleep)

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


class _Future(concurrent.futures.Future):
    """A future that knows when the executor has let go of it."""

    def __init__(self, record: list) -> None:
        super().__init__()
        self.record = record
        self.released = False  # result() or cancel() was called

    def result(self, timeout=None):
        self.released = True
        return super().result(timeout)

    def cancel(self) -> bool:
        self.released = True
        return super().cancel()


class _FakePool:
    """Stands in for ``ProcessPoolExecutor``; runs its script per submit."""

    def __init__(self, machine: "SupervisorMachine", max_workers: int) -> None:
        self.machine = machine
        self.max_workers = max_workers
        self.futures: list[_Future] = []
        self.broken = False

    def submit(self, fn, wire_spec):
        machine = self.machine
        machine.note_submit()
        if self.broken:
            raise BrokenProcessPool("a worker died; the pool is unusable")
        in_flight = sum(not future.released for future in self.futures)
        if in_flight >= self.max_workers:
            machine.violations.append(
                f"submit with {in_flight} futures in flight, jobs={self.max_workers}"
            )
        record = machine.serve(wire_spec["driver"]["params"]["name"], via_pool=True)
        future = _Future(record)
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

    def __init__(self, machine: "SupervisorMachine", root: str) -> None:
        super().__init__(root, salt="model")
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
        self.wave_submits = 0

    def teardown(self) -> None:
        if self.executor is not None:
            self.executor.close()
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        for patch in reversed(self.patches):
            patch.stop()

    # ---------------------------------------------------------------- fakes
    def make_pool(self, max_workers):
        return _FakePool(self, max_workers)

    def note_submit(self) -> None:
        self.wave_submits += 1
        if self.wave_submits > self.executor.admission:
            self.violations.append(
                f"wave submitted {self.wave_submits} specs, "
                f"admission={self.executor.admission}"
            )

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
        admission=st.integers(min_value=1, max_value=4),
        threshold=st.integers(min_value=1, max_value=4),
        cached=st.booleans(),
    )
    def build(self, jobs, backend, retries, admission, threshold, cached):
        self.retries = retries
        cache = None
        if cached:
            self.cache_dir = tempfile.mkdtemp(prefix="supervisor-model-")
            cache = _ScriptedCache(self, self.cache_dir)
        self.executor = Executor(
            jobs=jobs,
            backend=backend,
            policy="keep-going",
            retries=RetryPolicy(
                retries=retries, base_delay_s=0.0002, max_delay_s=0.0005
            ),
            breaker_threshold=threshold,
            admission=admission,
            cache=cache,
        )
        ensure_pool = self.executor._ensure_pool

        def wave_start():
            self.wave_submits = 0
            return ensure_pool()

        self.executor._ensure_pool = wave_start

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
            self._check_cache_holds_stored_wires()
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

    def _check_cache_holds_stored_wires(self) -> None:
        expected = self.stored | self.corrupt
        assert len(self.executor.cache.entries()) == len(expected)
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
    max_examples=100,
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
