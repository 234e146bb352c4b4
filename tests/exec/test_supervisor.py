"""Tests for the supervised execution layer: chaos batches, retries, breaker.

The acceptance scenario lives here: a process-backend batch where one spec
raises, one exceeds its deadline, and one SIGKILLs its worker must still
return results for every healthy spec, in order, plus one structured
:class:`RunFailure` per failed spec — and reruns with the same retry seed
must salvage byte-identical results.
"""

import json

import pytest

from repro.display.device import PIXEL_5
from repro.errors import (
    BatchExecutionError,
    ConfigurationError,
    ExecutionError,
    WorkloadError,
)
from repro.exec.cache import ResultCache
from repro.exec.executor import (
    Executor,
    _close_default_executor,
    get_default_executor,
    set_default_executor,
)
from repro.exec.serialize import result_to_wire
from repro.exec.spec import DriverSpec, RunSpec
from repro.exec.supervisor import (
    FAILURE_KINDS,
    BatchOutcome,
    CircuitBreaker,
    RetryPolicy,
    RunFailure,
)
from repro.telemetry import runtime as telemetry_runtime

FAST_RETRY = RetryPolicy(retries=1, base_delay_s=0.01, max_delay_s=0.05)


def _chaos(name, mode="ok", timeout_s=None, **params):
    return RunSpec(
        driver=DriverSpec.of(
            "repro.exec.builders:chaos_driver", name=name, mode=mode, **params
        ),
        device=PIXEL_5,
        architecture="vsync",
        buffer_count=3,
        timeout_s=timeout_s,
    )


# --------------------------------------------------------------- acceptance
def test_chaos_batch_salvages_healthy_specs_on_process_backend():
    specs = [
        _chaos("healthy-1"),
        _chaos("raiser", mode="raise"),
        _chaos("healthy-2"),
        _chaos("sleeper", mode="sleep", delay_s=5.0, timeout_s=0.5),
        _chaos("killer", mode="kill"),
        _chaos("healthy-3"),
    ]
    with Executor(
        jobs=2,
        backend="process",
        policy="keep-going",
        retries=FAST_RETRY,
        breaker_threshold=10,
    ) as executor:
        outcome = executor.map_outcome(specs)

        assert [r is not None for r in outcome.results] == [
            True, False, True, False, False, True,
        ]
        assert outcome.salvaged == 3
        kinds = {f.spec_hash: f.kind for f in outcome.failures}
        assert kinds[specs[1].content_hash()] == "crash"
        assert kinds[specs[3].content_hash()] == "timeout"
        assert kinds[specs[4].content_hash()] == "crash"
        # one retry each: transient kinds get max_attempts = 2
        assert all(f.attempts == 2 for f in outcome.failures)
        assert {1, 3, 4} == set(outcome.index_failures)
        assert executor.stats.failures == 3
        assert executor.stats.retries == 3
        assert executor.stats.timeouts >= 1
        assert executor.stats.pool_respawns >= 1
        # the raiser carries its traceback across the pool wire
        raiser = next(
            f for f in outcome.failures
            if f.spec_hash == specs[1].content_hash()
        )
        assert "WorkloadError" in (raiser.traceback or "")


def test_salvaged_results_byte_identical_across_reruns():
    def run_once():
        specs = [
            _chaos("stable"),
            _chaos("rr", mode="raise"),
            _chaos("tt", mode="sleep", delay_s=3.0, timeout_s=0.4),
        ]
        with Executor(
            jobs=2,
            backend="process",
            policy="keep-going",
            retries=RetryPolicy(retries=1, base_delay_s=0.01, seed=7),
        ) as executor:
            outcome = executor.map_outcome(specs)
        payload = {
            "results": [
                result_to_wire(r) if r is not None else None
                for r in outcome.results
            ],
            "failures": [f.to_wire() for f in outcome.failures],
        }
        return json.dumps(payload, sort_keys=True)

    assert run_once() == run_once()


# ------------------------------------------------------- containment pieces
def test_circuit_breaker_degrades_to_inprocess():
    with Executor(
        jobs=2,
        backend="process",
        policy="keep-going",
        retries=0,
        breaker_threshold=2,
    ) as executor:
        for index in range(2):
            outcome = executor.map_outcome([_chaos(f"boom-{index}", mode="kill")])
            assert outcome.failures[0].kind == "crash"
        assert executor.breaker.tripped
        respawns = executor.stats.pool_respawns
        # post-trip work runs in-process: no new pools, results still flow
        outcome = executor.map_outcome([_chaos("post-trip")])
        assert outcome.results[0] is not None
        assert executor.stats.pool_respawns == respawns


def test_breaker_streak_resets_on_any_returned_pool_attempt():
    """The breaker counts pool breaks, and a returned attempt clears them.

    Its unit of success is one pool attempt that comes back as an envelope,
    so a healthy batch between two worker kills restarts the streak, while
    two kills in a row trip it. The unit is the attempt, not the batch: a
    healthy spec that returns before its batch sibling kills the pool also
    restarts it, so that kill counts one, not a second in a row.
    """

    def run(*batches):
        with Executor(
            jobs=2,
            backend="process",
            policy="keep-going",
            retries=0,
            breaker_threshold=2,
        ) as executor:
            for batch in batches:
                executor.map_outcome(batch)
            return executor.breaker

    def kill(name, **params):
        return _chaos(name, mode="kill", **params)

    breaker = run([kill("kill-1")], [_chaos("healthy")], [kill("kill-2")])
    assert not breaker.tripped
    assert breaker.consecutive_failures == 1
    assert run([kill("kill-1")], [kill("kill-2")]).tripped
    # The delay lets the healthy sibling return well before the kill fires.
    breaker = run([kill("kill-1")], [_chaos("healthy"), kill("kill-2", delay_s=2.0)])
    assert not breaker.tripped
    assert breaker.consecutive_failures == 1


def test_breaker_trip_settles_all_suspects_with_retry_budget_left():
    """Every spec in flight at breaker trip yields a failure, never a hole.

    Regression: with ``retries >= 1``, a tripped breaker used to *schedule*
    a retry for each unexonerated suspect and then drop the suspect list —
    the spec produced neither a result nor a RunFailure, and under
    fail-fast the batch returned silently with results missing.
    """
    specs = [
        _chaos("trip-kill-1", mode="kill"),
        _chaos("trip-kill-2", mode="kill"),
        _chaos("trip-healthy"),
    ]
    with Executor(
        jobs=2,
        backend="process",
        policy="keep-going",
        retries=FAST_RETRY,
        breaker_threshold=1,
    ) as executor:
        outcome = executor.map_outcome(specs)
        assert executor.breaker.tripped
    for index in range(len(specs)):
        assert (
            outcome.results[index] is not None or index in outcome.index_failures
        ), f"spec {index} vanished: no result and no failure record"
    assert outcome.results[2] is not None  # healthy sibling still salvaged
    assert all(
        outcome.index_failures[index].kind == "crash" for index in (0, 1)
    )
    assert len(outcome.failures) == 2


def test_timeout_failure_is_not_quarantined():
    """A blown deadline must not outlive the deadline that produced it."""
    slow = _chaos("deadline-retry", mode="sleep", delay_s=0.2, timeout_s=0.05)
    relaxed = _chaos("deadline-retry", mode="sleep", delay_s=0.2, timeout_s=5.0)
    assert slow.content_hash() == relaxed.content_hash()
    with Executor(jobs=1, policy="keep-going", retries=0) as executor:
        first = executor.map_outcome([slow])
        assert first.failures[0].kind == "timeout"
        assert executor.stats.quarantined == 0
        # Same content, bigger budget: the spec really runs (and succeeds)
        # instead of being served the stale timeout record.
        second = executor.map_outcome([relaxed])
        assert second.results[0] is not None
        # only the relaxed run completed; the timed-out attempt's result
        # was discarded before it could count as executed
        assert executor.stats.runs_executed == 1


def test_process_deadline_excludes_queue_time():
    """A healthy spec queued behind batch siblings keeps its full deadline.

    Six 0.3s runs share two workers, so the last pair waits ~0.6s before a
    slot frees up — longer than the 0.5s deadline. The deadline clock must
    start at dispatch to a worker, so every run finishes with zero timeout
    attempts (and zero retry budget burned).
    """
    with Executor(jobs=2, backend="process", policy="keep-going") as executor:
        executor.map_outcome([_chaos("warm-1"), _chaos("warm-2")])  # spawn workers
        specs = [
            _chaos(f"queued-{index}", mode="sleep", delay_s=0.3, timeout_s=0.5)
            for index in range(6)
        ]
        outcome = executor.map_outcome(specs)
    assert all(result is not None for result in outcome.results)
    assert executor.stats.timeouts == 0
    assert executor.stats.retries == 0


def test_cache_write_failure_degrades_to_uncached(tmp_path):
    """A failing checkpoint write (full disk) never aborts the batch."""

    class DiskFullCache(ResultCache):
        def put(self, spec, wire):
            raise OSError(28, "No space left on device")

    with Executor(jobs=1, cache=DiskFullCache(tmp_path)) as executor:
        result = executor.run(_chaos("full-disk"))  # fail-fast would raise
        assert result is not None
        assert executor.stats.cache_write_errors == 1
        assert executor.stats.failures == 0
        assert executor.stats.runs_executed == 1


def test_quarantined_spec_is_not_rerun():
    spec = _chaos("repeat-offender", mode="raise")
    with Executor(jobs=1, policy="keep-going", retries=0) as executor:
        first = executor.map_outcome([spec])
        executed = executor.stats.runs_executed
        second = executor.map_outcome([spec])
        assert executor.stats.runs_executed == executed  # served from quarantine
        assert second.failures[0] == first.failures[0]
        assert executor.stats.quarantined == 1
        assert executor.clear_quarantine() == 1
        third = executor.map_outcome([spec])
        assert third.failures[0].kind == "crash"  # really ran again


def test_inprocess_backend_enforces_deadline_post_hoc():
    spec = _chaos("slow", mode="sleep", delay_s=0.3, timeout_s=0.05)
    with Executor(jobs=1, policy="keep-going", retries=0) as executor:
        outcome = executor.map_outcome([spec])
    failure = outcome.failures[0]
    assert failure.kind == "timeout"
    assert failure.attempts == 1
    assert "0.05s deadline" in failure.message


def test_config_failures_are_never_retried():
    spec = _chaos("rejected", mode="config")
    with Executor(jobs=1, policy="keep-going", retries=FAST_RETRY) as executor:
        outcome = executor.map_outcome([spec])
    failure = outcome.failures[0]
    assert failure.kind == "config"
    assert failure.attempts == 1  # deterministic rejection: one attempt only


def test_fail_fast_raises_after_salvaging_siblings(tmp_path):
    cache = ResultCache(tmp_path)
    specs = [_chaos("sib-ok"), _chaos("sib-bad", mode="raise")]
    with Executor(jobs=1, cache=cache, retries=0) as executor:
        with pytest.raises(BatchExecutionError) as excinfo:
            executor.map(specs)
    assert excinfo.value.salvaged == 1
    assert excinfo.value.failures[0].kind == "crash"
    # the healthy sibling was checkpointed before the batch raised
    assert cache.get(specs[0]) is not None


def test_duplicate_failed_specs_share_one_failure_record():
    bad = _chaos("dup-bad", mode="raise")
    with Executor(jobs=1, policy="keep-going", retries=0) as executor:
        outcome = executor.map_outcome([bad, _chaos("dup-ok"), bad])
    assert len(outcome.failures) == 1
    assert set(outcome.index_failures) == {0, 2}
    assert outcome.results[1] is not None


def test_keep_going_run_returns_none_for_failed_spec():
    with Executor(jobs=1, policy="keep-going", retries=0) as executor:
        assert executor.run(_chaos("single-bad", mode="raise")) is None


def test_timeout_resume_from_checkpoint(tmp_path):
    """A re-submitted batch only re-runs what the first pass lost."""
    cache = ResultCache(tmp_path)
    specs = [_chaos("ck-a"), _chaos("ck-bad", mode="raise"), _chaos("ck-b")]
    with Executor(jobs=1, cache=cache, policy="keep-going", retries=0) as executor:
        executor.map_outcome(specs)
        assert executor.stats.runs_executed == 2  # successes checkpointed
        assert cache.stats.stores == 2
    with Executor(jobs=1, cache=cache, policy="keep-going", retries=0) as resumed:
        outcome = resumed.map_outcome(specs)
        assert resumed.stats.cache_hits == 2  # only the failed spec re-ran
        assert resumed.stats.failures == 1
    assert outcome.salvaged == 2


# ----------------------------------------------------------- configuration
def test_executor_validates_supervision_configuration():
    with pytest.raises(ConfigurationError, match="timeout_s"):
        Executor(jobs=1, timeout_s=0)
    with pytest.raises(ConfigurationError, match="retries"):
        Executor(jobs=1, retries="two")
    with pytest.raises(ConfigurationError, match="policy"):
        Executor(jobs=1, policy="best-effort")
    with pytest.raises(ConfigurationError, match="threshold"):
        Executor(jobs=1, breaker_threshold=0)


def test_run_spec_rejects_nonpositive_timeout():
    with pytest.raises(ConfigurationError, match="timeout_s"):
        _chaos("bad-timeout", timeout_s=-1.0)


def test_content_hash_ignores_timeout_policy():
    assert (
        _chaos("same").content_hash()
        == _chaos("same", timeout_s=5.0).content_hash()
    )
    wire = _chaos("same", timeout_s=5.0).to_wire()
    assert wire["timeout_s"] == 5.0  # still rides the wire
    assert RunSpec.from_wire(wire).timeout_s == 5.0


@pytest.mark.parametrize(
    "env,value,match",
    [
        ("REPRO_JOBS", "two", "REPRO_JOBS.*'two'"),
        ("REPRO_JOBS", "0", "REPRO_JOBS.*0"),
        ("REPRO_EXEC_BACKEND", "threads", "REPRO_EXEC_BACKEND.*'threads'"),
        ("REPRO_TIMEOUT", "soon", "REPRO_TIMEOUT.*'soon'"),
        ("REPRO_RETRIES", "-1", "REPRO_RETRIES.*-1"),
    ],
)
def test_malformed_environment_fails_at_construction(monkeypatch, env, value, match):
    monkeypatch.setenv(env, value)
    previous = set_default_executor(None)
    try:
        with pytest.raises(ConfigurationError, match=match):
            get_default_executor()
    finally:
        set_default_executor(previous)


def test_environment_supervision_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
    monkeypatch.setenv("REPRO_RETRIES", "3")
    previous = set_default_executor(None)
    try:
        default = get_default_executor()
        assert default.timeout_s == 2.5
        assert default.retry.retries == 3
    finally:
        set_default_executor(previous)


def test_atexit_hook_closes_default_executor():
    previous = set_default_executor(Executor(jobs=2, backend="process"))
    try:
        default = get_default_executor()
        default.map([_chaos("atexit-warm")])
        assert default._pool is not None
        _close_default_executor()
        assert default._pool is None
    finally:
        set_default_executor(previous)


# ----------------------------------------------------------- cache healing
def test_corrupt_cache_entry_evicts_and_counts(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _chaos("heal-me")
    with Executor(jobs=1, cache=cache) as executor:
        executor.run(spec)
        (entry,) = cache.entries()
        entry.write_text("{truncated")
        rerun = executor.run(spec)  # corrupt entry heals transparently
        assert rerun is not None
        assert cache.stats.evictions == 1
        assert executor.stats.cache_evictions == 1
        assert executor.stats.runs_executed == 2
    assert "1 evictions" in cache.describe()


# ------------------------------------------------------ supervisor pieces
def test_retry_policy_delays_are_deterministic_and_bounded():
    policy = RetryPolicy(
        retries=3, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3, jitter=0.5
    )
    spec_hash = "ab" * 32
    delays = [policy.delay_s(spec_hash, attempt) for attempt in (1, 2, 3)]
    assert delays == [policy.delay_s(spec_hash, a) for a in (1, 2, 3)]
    for attempt, delay in zip((1, 2, 3), delays):
        base = min(0.3, 0.1 * 2.0 ** (attempt - 1))
        assert base * 0.5 <= delay <= base * 1.5
    # a different seed decorrelates the jitter stream
    other = RetryPolicy(
        retries=3, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3,
        jitter=0.5, seed=99,
    )
    assert delays != [other.delay_s(spec_hash, a) for a in (1, 2, 3)]


def test_retry_policy_validates_and_classifies():
    with pytest.raises(ConfigurationError):
        RetryPolicy(retries=-1)
    with pytest.raises(ConfigurationError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(jitter=2.0)
    policy = RetryPolicy(retries=2)
    assert policy.max_attempts == 3
    assert policy.retryable("crash") and policy.retryable("timeout")
    assert not policy.retryable("config")
    assert not policy.retryable("cache-corrupt")
    assert not RetryPolicy(retries=0).retryable("crash")


def test_run_failure_wire_round_trip_and_validation():
    failure = RunFailure(
        spec_hash="cd" * 32,
        description="vsync Pixel test",
        kind="timeout",
        attempts=2,
        message="run exceeded its 1s deadline",
    )
    assert RunFailure.from_wire(failure.to_wire()) == failure
    assert "timeout after 2 attempt(s)" in failure.describe()
    with pytest.raises(ConfigurationError, match="kind"):
        RunFailure("x", "d", "melted", 1, "m")
    with pytest.raises(ConfigurationError, match="attempt"):
        RunFailure("x", "d", "crash", 0, "m")
    assert set(FAILURE_KINDS) == {
        "crash", "timeout", "config", "cache-corrupt", "budget", "oom",
    }


def test_circuit_breaker_trips_and_resets():
    breaker = CircuitBreaker(threshold=2)
    assert not breaker.record_failure()
    assert not breaker.tripped
    assert breaker.record_failure()  # True exactly when it trips
    assert breaker.tripped
    assert breaker.trips == 1
    breaker.reset()
    assert not breaker.tripped
    breaker.record_failure()
    breaker.record_success()  # any success clears the streak
    assert breaker.consecutive_failures == 0
    with pytest.raises(ConfigurationError):
        CircuitBreaker(threshold=0)


def test_batch_outcome_raise_for_failures():
    failure = RunFailure("ee" * 32, "spec", "crash", 1, "boom")
    outcome = BatchOutcome(
        results=["r", None], failures=[failure], index_failures={1: failure}
    )
    assert not outcome.ok
    assert outcome.salvaged == 1
    with pytest.raises(BatchExecutionError):
        outcome.raise_for_failures()
    assert BatchOutcome(results=["r"], failures=[], index_failures={}).ok


def test_chaos_driver_refuses_kill_outside_pool_worker():
    from repro.exec.builders import chaos_driver

    with pytest.raises(WorkloadError, match="refuses kill mode"):
        chaos_driver("stray", mode="kill")
    with pytest.raises(ConfigurationError, match="chaos mode"):
        chaos_driver("stray", mode="explode")


# ---------------------------------------------------------------- telemetry
def test_supervision_counters_reach_telemetry():
    telemetry_runtime.reset()
    telemetry_runtime.set_enabled(True)
    try:
        with Executor(jobs=1, policy="keep-going", retries=FAST_RETRY) as executor:
            executor.map_outcome([_chaos("tele-bad", mode="raise")])
        assert executor.stats.retries == 1
        assert executor.stats.failures == 1
        assert executor.stats.crashes == 2
    finally:
        telemetry_runtime.reset()


def test_keep_going_pairs_dropped_in_compare_scenario(tmp_path):
    """compare_scenario drops failed pairs and raises once nothing is left."""
    from repro.experiments import runner
    from repro.workloads.scenarios import Scenario

    scenario = Scenario(
        name="resilience-pair",
        description="supervisor pair-drop test",
        refresh_hz=60,
        target_vsync_fdps=2.0,
        duration_ms=60.0,
        bursts=1,
    )
    with Executor(jobs=1, policy="keep-going", timeout_s=1e-9, retries=0) as doomed:
        previous = set_default_executor(doomed)
        try:
            with pytest.raises(ExecutionError, match="every repetition pair"):
                runner.compare_scenario(scenario, PIXEL_5, runs=1)
        finally:
            set_default_executor(previous)
