"""The per-layer table of a traced run.

Besides the spans, two passes run in the traced child after the workload:

- the *engine pass* replays, in-process and serially, every unique spec the
  process backend simulated, so engine, profile and driver-build time show
  up in this process's spans (pool workers keep theirs). Each replayed
  result must equal the pool's result for the same spec;
- the *eligibility probe* asks, for each unique spec, whether the fastpath
  would replay it as submitted without observers, and with telemetry and
  verification on.

The *governor probe* times ``execute_spec`` on one spec with and without an
armed, never-tripping ``ResourceBudget``, on each engine. It does not depend
on the workload, so it runs once per invocation in a child of its own.
"""

from __future__ import annotations

import dataclasses
import time

from repro.display.device import PIXEL_5
from repro.exec.executor import execute_spec
from repro.exec.governor import ResourceBudget
from repro.exec.serialize import result_to_wire
from repro.exec.spec import DriverSpec, RunSpec
from repro.fastpath.engine import spec_ineligibility
from repro.fastpath.profile import load_compiled

from harness.definition import GOVERNOR_METRICS
from harness.stats import median, percentile
from harness.tracing import split_around_child

#: Never trips: far beyond anything a governor-probe run consumes.
ARMED = ResourceBudget(max_events=10**9, max_sim_ns=10**15)

#: (interleaved rounds, runs timed per sample) of the governor probe.
GOVERNOR_ROUNDS = 12
GOVERNOR_RUNS = {"event": 1, "fastpath": 8}


def engine_pass(log) -> int:
    """Replay every unique submitted spec in-process; return mismatches."""
    expected = log.result_by_hash()
    mismatches = 0
    for spec in log.unique_specs():
        result = execute_spec(spec)
        if result_to_wire(result) != result_to_wire(expected[spec.content_hash()]):
            mismatches += 1
    return mismatches


def _replayable(spec: RunSpec) -> bool:
    if spec_ineligibility(spec) is not None:
        return False
    _, compiled = load_compiled(spec.driver)
    return compiled is not None and compiled.frame_times.shape[0] > 0


def eligibility(specs: list[RunSpec]) -> tuple[float, float]:
    """Shares of *specs* the fastpath replays without and with observers."""
    if not specs:
        return 0.0, 0.0
    plain = [dataclasses.replace(s, telemetry=False, verify=False) for s in specs]
    observed = [dataclasses.replace(s, telemetry=True, verify=True) for s in specs]
    return (
        sum(map(_replayable, plain)) / len(specs),
        sum(map(_replayable, observed)) / len(specs),
    )


def governor_overhead_pct(engine: str, rounds: int = GOVERNOR_ROUNDS) -> float:
    """Median slowdown (%) of an armed budget over none, arms interleaved."""
    spec = RunSpec(
        driver=DriverSpec.of(
            "repro.exec.builders:burst_animation",
            name="governor-bench",
            target_fdps=4.0,
            duration_ms=1200.0,
            burst_period_ms=2400.0,
        ),
        device=PIXEL_5,
        architecture="vsync",
        buffer_count=3,
        engine=engine,
    )
    arms = {"none": spec, "armed": dataclasses.replace(spec, budget=ARMED)}
    samples: dict[str, list[float]] = {"none": [], "armed": []}
    for arm in arms.values():
        execute_spec(arm)
    for round_index in range(rounds):
        order = ("none", "armed") if round_index % 2 == 0 else ("armed", "none")
        for name in order:
            started = time.perf_counter()
            for _ in range(GOVERNOR_RUNS[engine]):
                execute_spec(arms[name])
            samples[name].append(time.perf_counter() - started)
    base = median(samples["none"])
    return (median(samples["armed"]) - base) / base * 100.0


def governor_rows(rounds: int = GOVERNOR_ROUNDS) -> dict[str, float]:
    """The governor probe's rows, keyed by their metric names."""
    return {
        name: governor_overhead_pct(name.rsplit(".", 1)[1], rounds)
        for name in GOVERNOR_METRICS
    }


def layer_metrics(table: dict, spans: list, log, run, extra: dict) -> dict[str, float]:
    """The traced repetition's rows: every name in ``LAYER_METRICS``."""

    def busy(name: str) -> float:
        return table.get(name, {}).get("busy_s", 0.0)

    def calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    def spec_ms(name: str, pct: float) -> float:
        durations = table.get(name, {}).get("durations_s")
        return percentile(durations, pct) * 1000.0 if durations else 0.0

    stats = run.executor.stats
    unique = len(log.unique_specs())
    to_calls = calls("exec.serialize.to_wire")
    from_calls = calls("exec.serialize.from_wire")
    batch_s = busy("exec.executor.map_outcome")
    study_head_s, live_cells_s = split_around_child(
        spans, "study.execute", "exec.executor.map_outcome"
    )
    cache = run.executor.cache
    return {
        "fastpath.replay_s": busy("fastpath.replay"),
        "fastpath.replays": calls("fastpath.replay"),
        "fastpath.spec_ms.p50": spec_ms("fastpath.replay", 50.0),
        "fastpath.spec_ms.p95": spec_ms("fastpath.replay", 95.0),
        "fastpath.profile.compile_s": busy("fastpath.profile.load_compiled"),
        "fastpath.profile.compiles": calls("fastpath.profile.compile"),
        "fastpath.eligible_ratio": extra["eligible_ratio"],
        "fastpath.eligible_ratio_observed": extra["eligible_ratio_observed"],
        "sim.event_run_s": busy("sim.event_run"),
        "sim.event_runs": calls("sim.event_run"),
        "sim.spec_ms.p50": spec_ms("sim.event_run", 50.0),
        "sim.spec_ms.max": spec_ms("sim.event_run", 100.0),
        "workloads.driver_build_s": busy("workloads.driver_build"),
        "exec.serialize.to_wire_s": busy("exec.serialize.to_wire"),
        "exec.serialize.from_wire_s": busy("exec.serialize.from_wire"),
        "exec.serialize.to_wire_calls": to_calls,
        "exec.serialize.from_wire_calls": from_calls,
        "exec.serialize.calls_per_unique_spec": (
            (to_calls + from_calls) / unique if unique else 0.0
        ),
        "exec.cache.get_s": busy("exec.cache.get"),
        "exec.cache.hits": stats.cache_hits,
        "exec.cache.put_s": busy("exec.cache.put"),
        "exec.cache.misses": stats.cache_misses,
        "exec.cache.bytes": cache.total_bytes() if cache is not None else 0,
        "exec.executor.map_outcome_s": batch_s,
        "exec.executor.self_s": table.get("exec.executor.map_outcome", {}).get("self_s", 0.0),
        "exec.executor.worker_run_s": stats.run_seconds,
        "exec.executor.worker_utilization": (
            stats.run_seconds / (run.executor.jobs * batch_s) if batch_s else 0.0
        ),
        "exec.executor.deduplicated": stats.deduplicated,
        "exec.executor.admission_deferred": stats.admission_deferred,
        "exec.executor.retries": stats.retries,
        "study.self_s": study_head_s,
        "study.cells": log.study.cells,
        "study.unique_specs": log.study.unique_specs,
        "study.dedup_hits": log.study.dedup_hits,
        "study.live_cells_s": live_cells_s,
        "experiments.analyze_s": busy("experiments.analyze"),
        "experiments.render_s": busy("experiments.render"),
        "telemetry.export_s": busy("telemetry.export"),
        "telemetry.trace_events": run.trace_events,
    }
