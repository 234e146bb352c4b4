"""Shared harness for running scenarios under both architectures.

Experiments describe *what* to run (scenario, device, buffer configuration);
this module owns the mechanics: describing runs as content-hashable
:class:`~repro.exec.spec.RunSpec`\\ s (:func:`scenario_spec`), averaging
over repetitions the way the paper averages over five runs (Appendix A.2),
and pairing VSync/D-VSync arms over the same workloads.

The paired comparison is a :class:`~repro.study.Study`:
:func:`add_comparison_arms` lays the ``2 × runs`` arms of one scenario into
any study's grid (so a whole figure's scenarios batch together),
:func:`comparison_from_study` extracts a :class:`ScenarioComparison` from
the keyed result with pair-drop semantics, and :func:`compare_scenario` runs
one scenario's 2-arm study on the spot. A single run goes through
:func:`repro.simulate`.
"""

from __future__ import annotations

import dataclasses
import statistics

from repro.core.config import DVSyncConfig
from repro.display.device import DeviceProfile
from repro.errors import ExecutionError
from repro.exec.spec import DriverSpec, RunSpec
from repro.metrics.fdps import fdps
from repro.metrics.latency import latency_summary
from repro.pipeline.scheduler_base import RunResult
from repro.study import Study, StudyResult
from repro.telemetry import runtime as telemetry_runtime
from repro.workloads.scenarios import Scenario

#: Repetitions per scenario — the paper averages five runs to mitigate
#: fluctuations (Appendix A.2). The CLI's ``--runs`` defaults to this value;
#: ``--quick`` additionally lets each experiment trim its own repetitions.
DEFAULT_RUNS = 5


def scenario_spec(
    scenario: Scenario,
    device: DeviceProfile,
    architecture: str = "vsync",
    run: int = 0,
    buffer_count: int | None = None,
    dvsync_config: DVSyncConfig | None = None,
    telemetry: bool | None = None,
    verify: bool | None = None,
    timeout_s: float | None = None,
    engine: str = "auto",
) -> RunSpec:
    """Describe one repetition of a scenario as a RunSpec.

    ``telemetry=None`` / ``verify=None`` read the process-wide switches at
    description time, so a ``--trace``/``--profile`` invocation records (and
    an enabled checker verifies) every run the experiments submit —
    including runs that execute in pool workers. ``timeout_s`` bounds the
    run's wall clock under the supervised executor (``None`` defers to the
    executor's default deadline).
    """
    if telemetry is None:
        telemetry = telemetry_runtime.enabled()
    if verify is None:
        from repro.verify import runtime as verify_runtime

        verify = verify_runtime.enabled()
    return RunSpec(
        driver=DriverSpec.from_scenario(scenario, run=run),
        device=device,
        architecture=architecture,
        buffer_count=buffer_count,
        dvsync=dvsync_config,
        telemetry=telemetry,
        verify=verify,
        timeout_s=timeout_s,
        engine=engine,
    )


@dataclasses.dataclass
class ScenarioComparison:
    """Paired VSync / D-VSync measurements for one scenario."""

    scenario: str
    vsync_fdps: float
    dvsync_fdps: float
    vsync_latency_ms: float
    dvsync_latency_ms: float
    vsync_results: list[RunResult]
    dvsync_results: list[RunResult]

    @property
    def fdps_reduction_percent(self) -> float:
        if self.vsync_fdps <= 0:
            return 0.0
        return (self.vsync_fdps - self.dvsync_fdps) / self.vsync_fdps * 100.0

    @property
    def latency_reduction_percent(self) -> float:
        if self.vsync_latency_ms <= 0:
            return 0.0
        return (
            (self.vsync_latency_ms - self.dvsync_latency_ms)
            / self.vsync_latency_ms
            * 100.0
        )


def add_comparison_arms(
    matrix: Study,
    workload: Scenario,
    device: DeviceProfile,
    vsync_buffers: int | None = None,
    dvsync_config: DVSyncConfig | None = None,
    runs: int = DEFAULT_RUNS,
    **coords,
) -> Study:
    """Lay one scenario's paired ``2 × runs`` arms into *matrix*'s grid.

    Each repetition describes two specs from the same seed, so both arms see
    the exact same series of workloads (Fig 10's premise). Extra *coords*
    (``scenario=...``, ``buffers=...``) distinguish this comparison's cells
    from the study's other comparisons — a whole figure's scenarios batch
    into one matrix and fan out together. (The positional parameters are
    deliberately not named after common axis names, so coordinates like
    ``scenario=...`` pass through ``**coords`` unobstructed.)
    """
    for run in range(runs):
        matrix.add(
            scenario_spec(
                workload, device, "vsync", run=run, buffer_count=vsync_buffers
            ),
            architecture="vsync",
            rep=run,
            **coords,
        )
    for run in range(runs):
        matrix.add(
            scenario_spec(
                workload, device, "dvsync", run=run, dvsync_config=dvsync_config
            ),
            architecture="dvsync",
            rep=run,
            **coords,
        )
    return matrix


def comparison_from_study(
    result: StudyResult, scenario_name: str, **coords
) -> ScenarioComparison:
    """Extract one scenario's paired comparison from a keyed study result.

    Repetitions pair positionally across the two architecture slices
    (within *coords*). Under the keep-going policy a failed repetition
    leaves a hole; the whole *pair* is dropped so both arms still average
    identical workloads.
    """
    requested = len(result.cells(architecture="vsync", **coords))
    pairs = result.pairs(
        {"architecture": "vsync"}, {"architecture": "dvsync"}, **coords
    )
    if not pairs:
        raise ExecutionError(
            f"scenario {scenario_name!r}: every repetition pair failed "
            f"({requested} requested); see the executor's failure records"
        )
    vsync_results = [vsync for vsync, _ in pairs]
    dvsync_results = [dvsync for _, dvsync in pairs]
    return ScenarioComparison(
        scenario=scenario_name,
        vsync_fdps=statistics.fmean(fdps(r) for r in vsync_results),
        dvsync_fdps=statistics.fmean(fdps(r) for r in dvsync_results),
        vsync_latency_ms=statistics.fmean(
            latency_summary(r).mean_ms for r in vsync_results
        ),
        dvsync_latency_ms=statistics.fmean(
            latency_summary(r).mean_ms for r in dvsync_results
        ),
        vsync_results=vsync_results,
        dvsync_results=dvsync_results,
    )


def compare_scenario(
    scenario: Scenario,
    device: DeviceProfile,
    vsync_buffers: int | None = None,
    dvsync_config: DVSyncConfig | None = None,
    runs: int = DEFAULT_RUNS,
) -> ScenarioComparison:
    """Run a scenario under both architectures, averaged over *runs* seeds.

    This is a self-contained 2-arm :class:`~repro.study.Study` executed on
    the spot: the ``2 × runs`` arms go out as one supervised executor batch.
    """
    study = Study(
        f"compare:{scenario.name}",
        analyze=lambda result: comparison_from_study(result, scenario.name),
    )
    add_comparison_arms(study, scenario, device, vsync_buffers, dvsync_config, runs)
    return study.run()
