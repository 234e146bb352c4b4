"""Containment suite for the resource-governance layer.

The acceptance scenarios live here: a budget trip is *deterministic* (the
same spec + budget fails at the identical simulator event on every backend
and both engines, with byte-identical failure records), an OOM under the
worker address-space cap settles into a structured ``oom`` failure without
killing the pool or poisoning batch siblings, and the cache disk quota holds
after every store with LRU eviction that never evicts the entry just
written.
"""

import dataclasses
import json
import os

import pytest

from repro.display.device import PIXEL_5
from repro.errors import BudgetExceededError, ConfigurationError, WorkloadError
from repro.exec.cache import ResultCache
from repro.exec.executor import Executor, execute_spec
from repro.exec.governor import (
    BudgetGuard,
    ResourceBudget,
    address_space_cap,
    budget_from_env,
    counting_probe,
    measure_run_events,
)
from repro.exec.serialize import result_to_wire
from repro.exec.spec import DriverSpec, RunSpec
from repro.exec.supervisor import RetryPolicy

FAST_RETRY = RetryPolicy(retries=1, base_delay_s=0.01, max_delay_s=0.05)


def _burst(name, budget=None, **params):
    params.setdefault("target_fdps", 3.0)
    params.setdefault("duration_ms", 150.0)
    return RunSpec(
        driver=DriverSpec.of(
            "repro.exec.builders:burst_animation", name=name, **params
        ),
        device=PIXEL_5,
        architecture="vsync",
        buffer_count=3,
        budget=budget,
    )


def _storm(name, budget=None):
    return RunSpec(
        driver=DriverSpec.of(
            "repro.exec.builders:event_storm", name=name, duration_ms=1000.0
        ),
        device=PIXEL_5,
        architecture="vsync",
        buffer_count=3,
        budget=budget,
    )


# ------------------------------------------------------------ budget object
def test_resource_budget_validates_and_describes():
    with pytest.raises(ConfigurationError, match="max_events"):
        ResourceBudget(max_events=0)
    with pytest.raises(ConfigurationError, match="max_sim_ns"):
        ResourceBudget(max_sim_ns=-5)
    with pytest.raises(ConfigurationError, match="memory_mb"):
        ResourceBudget(memory_mb=True)
    with pytest.raises(ConfigurationError, match="cache_quota_mb"):
        ResourceBudget(cache_quota_mb=0.0)
    budget = ResourceBudget(max_events=100, cache_quota_mb=1.5)
    assert budget.governs_sim and not budget.is_noop
    assert budget.cache_quota_bytes == int(1.5 * 1024 * 1024)
    assert ResourceBudget.from_wire(budget.to_wire()) == budget
    assert "max_events=100" in budget.describe()
    assert ResourceBudget().is_noop
    assert not ResourceBudget(memory_mb=64).governs_sim
    assert "unlimited" in ResourceBudget().describe()


def test_budget_rides_wire_but_not_content_hash():
    spec = _burst("hash-neutral")
    capped = dataclasses.replace(spec, budget=ResourceBudget(max_events=9))
    assert spec.content_hash() == capped.content_hash()
    wire = capped.to_wire()
    assert wire["budget"]["max_events"] == 9
    assert RunSpec.from_wire(wire).budget == capped.budget
    assert RunSpec.from_wire(spec.to_wire()).budget is None


def test_budget_from_env_knobs(monkeypatch):
    for name in ("REPRO_MAX_EVENTS", "REPRO_MEMORY_MB", "REPRO_CACHE_QUOTA_MB"):
        monkeypatch.delenv(name, raising=False)
    assert budget_from_env() is None
    monkeypatch.setenv("REPRO_MAX_EVENTS", "500")
    monkeypatch.setenv("REPRO_MEMORY_MB", "256")
    monkeypatch.setenv("REPRO_CACHE_QUOTA_MB", "1.5")
    assert budget_from_env() == ResourceBudget(
        max_events=500, memory_mb=256, cache_quota_mb=1.5
    )
    monkeypatch.setenv("REPRO_MAX_EVENTS", "lots")
    with pytest.raises(ConfigurationError, match="REPRO_MAX_EVENTS"):
        budget_from_env()
    monkeypatch.setenv("REPRO_MAX_EVENTS", "0")
    with pytest.raises(ConfigurationError, match="REPRO_MAX_EVENTS"):
        budget_from_env()
    monkeypatch.setenv("REPRO_MAX_EVENTS", "500")
    monkeypatch.setenv("REPRO_CACHE_QUOTA_MB", "-1")
    with pytest.raises(ConfigurationError, match="REPRO_CACHE_QUOTA_MB"):
        budget_from_env()


# -------------------------------------------------------------- guard logic
def test_budget_guard_trips_at_exact_event_and_deadline():
    guard = BudgetGuard(max_events=3)
    guard.on_event(10, 1)
    guard.on_event(20, 2)
    with pytest.raises(BudgetExceededError, match=r"max_events=3 at t=30 ns"):
        guard.on_event(30, 3)
    timed = BudgetGuard(max_sim_ns=100, start_time=50)
    timed.on_event(150, 1)  # exactly at the deadline: still executes
    with pytest.raises(BudgetExceededError, match=r"deadline t=150 ns"):
        timed.on_event(151, 2)
    assert timed.events == 1  # the over-deadline event was never counted


def _replay_tick_run(guard, first_time, period, count, first_seq, seq_counter):
    """The live engine's event-by-event accounting of one drained tick run."""
    for j in range(1, count + 1):
        time = first_time + (j - 1) * period
        seq = first_seq if j == 1 else seq_counter + j - 2
        guard.on_event(time, seq)


def test_on_tick_run_matches_event_by_event_accounting():
    budgets = (
        [ResourceBudget(max_events=n) for n in range(1, 10)]
        + [
            ResourceBudget(max_sim_ns=ns)
            for ns in (900, 1000, 1049, 1100, 1250, 1500, 2000)
        ]
        + [ResourceBudget(max_events=5, max_sim_ns=1200)]
    )
    for budget in budgets:
        bulk = BudgetGuard.for_budget(budget)
        single = BudgetGuard.for_budget(budget)
        bulk_msg = single_msg = None
        try:
            bulk.on_tick_run(1000, 100, 6, 7, 40)
        except BudgetExceededError as exc:
            bulk_msg = str(exc)
        try:
            _replay_tick_run(single, 1000, 100, 6, 7, 40)
        except BudgetExceededError as exc:
            single_msg = str(exc)
        assert bulk_msg == single_msg, budget.describe()
        assert bulk.events == single.events, budget.describe()


# ---------------------------------------------------------- engine parity
def test_measure_run_events_equal_on_both_engines():
    spec = _burst("count-parity")
    with counting_probe() as probe:
        execute_spec(dataclasses.replace(spec, engine="event"))
    event_count = probe.events
    with counting_probe() as probe:
        execute_spec(dataclasses.replace(spec, engine="fastpath"))
    assert probe.events == event_count
    assert measure_run_events(spec) == event_count
    assert event_count > 4


def test_budget_trip_byte_identical_across_engines():
    spec = _burst("engine-trip", duration_ms=200.0, target_fdps=6.0)
    natural = measure_run_events(spec)
    for budget in (
        ResourceBudget(max_events=natural // 2),
        ResourceBudget(max_sim_ns=100_000_000),  # 100ms of a 200ms run
    ):
        messages = {}
        for engine in ("event", "fastpath"):
            with pytest.raises(BudgetExceededError) as excinfo:
                execute_spec(
                    dataclasses.replace(spec, budget=budget, engine=engine)
                )
            messages[engine] = str(excinfo.value)
        assert messages["event"] == messages["fastpath"], budget.describe()


# ------------------------------------------------------- executor containment
def _chaos(name, mode, timeout_s=None, **params):
    return RunSpec(
        driver=DriverSpec.of(
            "repro.exec.builders:chaos_driver", name=name, mode=mode, **params
        ),
        device=PIXEL_5,
        architecture="vsync",
        buffer_count=3,
        timeout_s=timeout_s,
    )


@pytest.mark.parametrize(
    "spec, kind, attempts, has_traceback",
    [
        (_storm("backend-parity", ResourceBudget(max_events=40)), "budget", 1, False),
        (_chaos("backend-raise", "raise"), "crash", 2, True),
        (_chaos("backend-config", "config"), "config", 1, True),
        (
            _chaos("backend-sleep", "sleep", timeout_s=0.05, delay_s=0.3),
            "timeout",
            2,
            False,
        ),
    ],
    ids=["budget", "raise", "config", "sleep"],
)
def test_budget_failure_identical_across_backends_and_never_retried(
    spec, kind, attempts, has_traceback
):
    """Both backends record one failure byte for byte, tracebacks included.

    Only the transient kinds (a crash, a blown deadline) are retried; a
    budget trip is deterministic, so a retry would be waste.
    """

    def run(executor):
        with executor:
            outcome = executor.map_outcome([spec])
            assert executor.stats.budget_trips == (kind == "budget")
            assert executor.stats.retries == attempts - 1
            assert executor.stats.quarantined == (kind in ("crash", "config"))
        (failure,) = outcome.failures
        assert failure.kind == kind
        assert failure.attempts == attempts
        assert (failure.traceback is not None) == has_traceback
        return json.dumps(failure.to_wire(), sort_keys=True)

    options = dict(policy="keep-going", retries=FAST_RETRY)
    inprocess = run(Executor(jobs=1, **options))
    assert inprocess == run(Executor(jobs=2, backend="process", **options))


def test_overdue_attempt_evicts_the_replay_driver_it_cached():
    """A retry of an overdue spec builds again, in-process or in a worker."""
    from repro.exec.executor import _attempt
    from repro.fastpath.profile import clear_profile_cache, profile_cached

    slow = _chaos("evict-slow", "sleep", timeout_s=0.05, delay_s=0.1)
    clear_profile_cache()
    for attempt_spec in (slow, slow.to_wire()):  # in-process and pool forms
        envelope = _attempt(attempt_spec)
        assert envelope["kind"] == "timeout"
        assert envelope["message"] == "run exceeded its 0.05s deadline"
        assert not profile_cached(slow.driver)
    relaxed = dataclasses.replace(slow, timeout_s=None)
    assert _attempt(relaxed)["ok"]
    assert profile_cached(relaxed.driver)
    clear_profile_cache()


def test_executor_default_deadline_rides_the_spec():
    spec = _chaos("default-deadline", "sleep", delay_s=0.3)
    options = dict(policy="keep-going", retries=FAST_RETRY, timeout_s=0.05)
    with Executor(jobs=1, **options) as executor:
        (failure,) = executor.map_outcome([spec]).failures
    assert (failure.kind, failure.attempts) == ("timeout", 2)


def test_budget_failure_does_not_poison_the_unbudgeted_spec():
    capped = _burst("relax", budget=ResourceBudget(max_events=5))
    uncapped = dataclasses.replace(capped, budget=None)
    assert capped.content_hash() == uncapped.content_hash()
    with Executor(jobs=1, policy="keep-going", retries=0) as executor:
        first = executor.map_outcome([capped])
        assert first.failures[0].kind == "budget"
        assert executor.stats.quarantined == 0
        # Same content, no budget: the spec really runs (and succeeds)
        # instead of being served the stale budget record.
        second = executor.map_outcome([uncapped])
        assert second.results[0] is not None


def test_executor_default_budget_applies_to_uncapped_specs():
    with Executor(
        jobs=1,
        policy="keep-going",
        retries=0,
        budget=ResourceBudget(max_events=5),
    ) as executor:
        outcome = executor.map_outcome([_burst("inherit")])
    assert outcome.failures[0].kind == "budget"
    # a spec's own budget outranks the executor default
    with Executor(
        jobs=1,
        policy="keep-going",
        retries=0,
        budget=ResourceBudget(max_events=5),
    ) as executor:
        generous = _burst("own-budget", budget=ResourceBudget(max_events=10_000))
        assert executor.run(generous) is not None


def test_oom_under_address_space_cap_is_contained():
    hog = RunSpec(
        driver=DriverSpec.of(
            "repro.exec.builders:memory_hog",
            name="oom-hog",
            allocate_mb=8192,
            chunk_mb=64,
        ),
        device=PIXEL_5,
        architecture="vsync",
        buffer_count=3,
        budget=ResourceBudget(memory_mb=1024),
    )
    specs = [_burst("oom-sib-1"), hog, _burst("oom-sib-2")]
    with Executor(
        jobs=2, backend="process", policy="keep-going", retries=FAST_RETRY
    ) as executor:
        outcome = executor.map_outcome(specs)
        assert outcome.results[0] is not None
        assert outcome.results[2] is not None
        (failure,) = outcome.failures
        assert failure.kind == "oom"
        assert failure.attempts == 2  # retried once, under the same cap
        assert "1024 MB address-space budget" in failure.message
        assert failure.traceback is None
        assert executor.stats.ooms == 2  # both attempts hit the cap
        assert executor.stats.quarantined == 0
        # a clean MemoryError settles in-worker: the pool survives intact
        assert executor.stats.pool_respawns == 0


def test_governed_wave_salvage_is_byte_identical_across_reruns():
    def run_once():
        specs = [
            _burst("wave-ok-1"),
            _storm("wave-budget", budget=ResourceBudget(max_events=33)),
            _burst("wave-ok-2"),
        ]
        with Executor(
            jobs=2,
            backend="process",
            policy="keep-going",
            retries=RetryPolicy(retries=1, base_delay_s=0.01, seed=7),
        ) as executor:
            outcome = executor.map_outcome(specs)
            assert executor.stats.pool_respawns == 0
        payload = {
            "results": [
                result_to_wire(r) if r is not None else None
                for r in outcome.results
            ],
            "failures": [f.to_wire() for f in outcome.failures],
        }
        return json.dumps(payload, sort_keys=True)

    assert run_once() == run_once()


def test_memory_hog_refuses_outside_pool_worker():
    from repro.exec.builders import memory_hog

    with pytest.raises(WorkloadError, match="refuses to allocate"):
        memory_hog("stray", allocate_mb=1)


def test_address_space_cap_restores_limit():
    resource = pytest.importorskip("resource")
    before = resource.getrlimit(resource.RLIMIT_AS)
    with address_space_cap(4096) as applied:
        if applied:
            soft, hard = resource.getrlimit(resource.RLIMIT_AS)
            assert soft != resource.RLIM_INFINITY
            assert hard == before[1]
    assert resource.getrlimit(resource.RLIMIT_AS) == before
    with address_space_cap(None) as applied:
        assert applied is False


# ------------------------------------------------------------- cache quota
def test_cache_quota_gc_evicts_oldest_never_live(tmp_path):
    specs = [_burst(f"gc-{index}", duration_ms=60.0) for index in range(3)]
    wires = [result_to_wire(execute_spec(spec)) for spec in specs]
    probe = ResultCache(tmp_path / "probe")
    probe.put(specs[0], wires[0])
    (entry,) = probe.entries()
    entry_size = entry.stat().st_size
    quota = int(entry_size * 2.5)  # room for two entries, never three

    cache = ResultCache(tmp_path / "quota", quota_bytes=quota)
    paths = {}
    for index, (spec, wire) in enumerate(zip(specs[:2], wires[:2])):
        cache.put(spec, wire)
        (paths[index],) = set(cache.entries()) - set(paths.values())
        stamp = (index + 1) * 10**9  # deterministic ages: gc-0 oldest
        os.utime(paths[index], ns=(stamp, stamp))
    # touching gc-0 via get() marks it live: now *gc-1* is the LRU entry
    assert cache.get(specs[0]) is not None
    cache.put(specs[2], wires[2])  # forces GC; the fresh store is protected
    assert cache.stats.quota_evictions == 1
    assert cache.get(specs[0]) is not None  # recently used: survived
    assert cache.get(specs[1]) is None  # least recently used: evicted
    assert cache.get(specs[2]) is not None  # just stored: never evicted
    assert sum(path.stat().st_size for path in cache.entries()) <= quota
    assert "quota" in cache.describe()


def test_cache_quota_holds_after_every_put(tmp_path):
    specs = [_burst(f"hold-{index}", duration_ms=60.0) for index in range(4)]
    wires = [result_to_wire(execute_spec(spec)) for spec in specs]
    probe = ResultCache(tmp_path / "probe")
    probe.put(specs[0], wires[0])
    quota = int(probe.entries()[0].stat().st_size * 1.5)  # one entry only
    cache = ResultCache(tmp_path / "quota", quota_bytes=quota)
    for spec, wire in zip(specs, wires):
        cache.put(spec, wire)
        total = sum(path.stat().st_size for path in cache.entries())
        assert total <= quota
        assert cache.get(spec) is not None  # the fresh store always survives
    assert cache.stats.quota_evictions == 3


def test_cache_scrub_removes_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    good = _burst("scrub-ok", duration_ms=60.0)
    bad = _burst("scrub-bad", duration_ms=60.0)
    cache.put(good, result_to_wire(execute_spec(good)))
    survivors = set(cache.entries())
    cache.put(bad, result_to_wire(execute_spec(bad)))
    (victim,) = set(cache.entries()) - survivors
    victim.write_text("{truncated")
    assert cache.scrub() == 1
    assert cache.stats.scrubbed == 1
    assert cache.get(good) is not None
    assert cache.get(bad) is None
