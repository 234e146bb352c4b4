"""Benchmarks of the execution layer itself.

Not a paper artifact — these quantify what the RunSpec/Executor machinery
costs (hashing, wire round-trips) and what it buys (warm-cache reruns that
skip the scheduler entirely), so regressions in either direction are visible.
"""

from repro.display.device import PIXEL_5
from repro.exec.executor import Executor, execute_spec
from repro.exec.serialize import result_from_wire, result_to_wire
from repro.exec.spec import DriverSpec, RunSpec


def _spec(name: str) -> RunSpec:
    return RunSpec(
        driver=DriverSpec.of(
            "repro.exec.builders:burst_animation",
            name=name,
            target_fdps=2.0,
            duration_ms=1000.0,
            burst_period_ms=None,
        ),
        device=PIXEL_5,
        architecture="vsync",
        buffer_count=3,
    )


def test_bench_spec_content_hash(benchmark):
    spec = _spec("bench-hash")
    digest = benchmark(spec.content_hash)
    assert len(digest) == 64


def test_bench_result_wire_round_trip(benchmark):
    result = execute_spec(_spec("bench-wire"))

    def round_trip():
        return result_from_wire(result_to_wire(result))

    clone = benchmark(round_trip)
    assert clone == result


def test_bench_executor_fanout_inprocess(benchmark):
    specs = [_spec(f"bench-fan#{index}") for index in range(4)]

    def fan_out():
        with Executor(jobs=1) as executor:
            return executor.map(specs)

    results = benchmark.pedantic(fan_out, rounds=1, iterations=1)
    assert len(results) == 4


def test_bench_warm_cache_rerun(benchmark, tmp_path):
    spec = _spec("bench-cache")
    with Executor(jobs=1, cache=True, cache_dir=tmp_path) as cold:
        cold.run(spec)

    def warm_run():
        with Executor(jobs=1, cache=True, cache_dir=tmp_path) as warm:
            result = warm.run(spec)
            assert warm.stats.runs_executed == 0
            return result

    result = benchmark.pedantic(warm_run, rounds=1, iterations=1)
    assert len(result.frames) >= 50


def test_bench_supervised_overhead():
    """Supervision gate: < 3% happy-path overhead vs the bare execution path.

    The control arm is what an unsupervised batch costs per spec — content
    hash, :func:`execute_spec`, and the normalizing wire round-trip, exactly
    the seed executor's in-process loop. The measured arm submits the same
    specs through the supervised ``Executor.map`` (deadline bookkeeping,
    retry/breaker state, failure classification). Rounds interleave the two
    arms in alternating order and the gate compares per-arm *minimums* — the
    floor is the honest cost estimate, robust to scheduling noise — with one
    escalation retry to absorb pathological machine load.
    """
    import time

    specs = [_spec(f"bench-sup#{index}") for index in range(4)]

    def control_once() -> float:
        started = time.perf_counter()
        for spec in specs:
            spec.content_hash()
            result_from_wire(result_to_wire(execute_spec(spec)))
        return time.perf_counter() - started

    def measured_once() -> float:
        with Executor(jobs=1) as executor:
            started = time.perf_counter()
            results = executor.map(specs)
            elapsed = time.perf_counter() - started
        assert len(results) == 4
        return elapsed

    def measure(rounds: int) -> tuple[float, float]:
        control, measured = [], []
        control_once()  # warm both paths
        measured_once()
        for index in range(rounds):
            arms = [(control_once, control), (measured_once, measured)]
            if index % 2:
                arms.reverse()
            for run, samples in arms:
                samples.append(run())
        return min(control), min(measured)

    for attempt, rounds in enumerate((8, 16)):
        control_floor, measured_floor = measure(rounds)
        overhead = measured_floor / control_floor - 1.0
        print(
            f"\nsupervised-executor overhead (attempt {attempt}, {rounds} "
            f"rounds): {overhead * 100:+.2f}% (control "
            f"{control_floor * 1000:.2f} ms, measured "
            f"{measured_floor * 1000:.2f} ms)"
        )
        if measured_floor < control_floor * 1.03:
            return
    raise AssertionError(
        f"supervised happy path costs {overhead * 100:.2f}% (gate: < 3%)"
    )
