"""The fault drill: VSync vs D-VSync under a fault schedule.

One call runs a scenario twice — classic VSync and D-VSync with the
degradation watchdog attached — under the same declarative fault schedule,
and reports jank (FDPS), latency, injections, containment, and watchdog
activity side by side. This is the executable answer to "does decoupling
still win when the world misbehaves?", and the engine behind the CLI's
``--faults`` knob and the chaos benchmark suite.
"""

from __future__ import annotations

from repro.core.config import DVSyncConfig
from repro.display.device import PIXEL_5, DeviceProfile
from repro.errors import ExecutionError, WorkloadError
from repro.exec.executor import get_default_executor
from repro.exec.spec import DriverSpec, RunSpec
from repro.experiments.base import ExperimentResult
from repro.faults.schedule import FaultSchedule
from repro.metrics.fdps import fdps
from repro.metrics.latency import latency_summary
from repro.pipeline.driver import ScenarioDriver
from repro.pipeline.scheduler_base import RunResult
from repro.units import ms
from repro.workloads.composite import CompositeDriver
from repro.workloads.distributions import params_for_target_fdps
from repro.workloads.drivers import AnimationDriver, InteractionDriver
from repro.workloads.touch import PinchGesture

#: Scenario names the drill can build (see :func:`drill_driver`).
DRILL_SCENARIOS = ("composite", "animation", "interaction")


def _animation_segment(name: str, target_fdps: float, duration_ms: float) -> AnimationDriver:
    params = params_for_target_fdps(target_fdps, 60)
    return AnimationDriver(name, params, duration_ns=ms(duration_ms))


def _interaction_segment(name: str, duration_ms: float) -> InteractionDriver:
    params = params_for_target_fdps(2.0, 60)

    def factory(start: int, _d=ms(duration_ms), _n=name):
        return PinchGesture(start, _d, name=_n)

    return InteractionDriver(name, params, factory)


def drill_driver(scenario: str = "composite", run: int = 0) -> ScenarioDriver:
    """Build a fresh, seeded driver for one drill scenario.

    ``composite`` chains an app-open animation, a pinch interaction (IPL
    territory), and a feed-scroll animation on one timeline — the scenario
    the acceptance drill exercises. ``animation`` and ``interaction`` expose
    the individual segment families for focused regimes.
    """
    suffix = "" if run == 0 else f"#run{run}"
    if scenario == "composite":
        return CompositeDriver(
            f"fault-composite{suffix}",
            [
                _animation_segment(f"fc-open{suffix}", 3.0, 400),
                _interaction_segment(f"fc-pinch{suffix}", 400),
                _animation_segment(f"fc-scroll{suffix}", 2.0, 400),
            ],
            gap_ns=ms(150),
        )
    if scenario == "animation":
        return _animation_segment(f"fault-anim{suffix}", 3.0, 600)
    if scenario == "interaction":
        return _interaction_segment(f"fault-touch{suffix}", 600)
    raise WorkloadError(
        f"unknown drill scenario {scenario!r}; known: {', '.join(DRILL_SCENARIOS)}"
    )


def run_drill_pair(
    schedule: FaultSchedule,
    scenario: str = "composite",
    seed: int = 0,
    device: DeviceProfile = PIXEL_5,
    timeout_s: float | None = None,
) -> tuple[RunResult, RunResult]:
    """Run *scenario* under *schedule* on both architectures.

    Returns ``(vsync_result, dvsync_result)``. Each run gets its own driver,
    injector, and (for D-VSync) watchdog; the two runs draw from independent
    fault rngs, so this compares architectures, not one shared fault trace.

    The pair is described as RunSpecs and submitted as one executor batch
    (parallel under ``--jobs``, individually cached, supervised under
    *timeout_s* when given).

    Raises :class:`~repro.errors.ExecutionError` if either arm produced no
    result under a keep-going executor — the drill's side-by-side comparison
    is meaningless with one arm missing.
    """
    driver = DriverSpec.of("repro.faults.drill:drill_driver", scenario=scenario)
    faults = schedule.describe()
    vsync_result, dvsync_result = get_default_executor().map(
        [
            RunSpec(
                driver=driver,
                device=device,
                architecture="vsync",
                buffer_count=3,
                faults=faults,
                fault_seed=seed,
                timeout_s=timeout_s,
            ),
            RunSpec(
                driver=driver,
                device=device,
                architecture="dvsync",
                dvsync=DVSyncConfig(buffer_count=4),
                faults=faults,
                fault_seed=seed,
                watchdog=True,
                timeout_s=timeout_s,
            ),
        ]
    )
    if vsync_result is None or dvsync_result is None:
        missing = "vsync" if vsync_result is None else "dvsync"
        raise ExecutionError(
            f"fault drill lost its {missing} arm (run failed under the "
            "keep-going policy); the side-by-side comparison needs both"
        )
    return vsync_result, dvsync_result


def run_fault_drill(
    faults: str | FaultSchedule,
    scenario: str = "composite",
    seed: int = 0,
    device: DeviceProfile = PIXEL_5,
    timeout_s: float | None = None,
) -> ExperimentResult:
    """Execute the drill and package the comparison as a printable report."""
    schedule = (
        faults if isinstance(faults, FaultSchedule) else FaultSchedule.parse(faults)
    )
    vsync_result, dvsync_result = run_drill_pair(
        schedule, scenario=scenario, seed=seed, device=device, timeout_s=timeout_s
    )

    rows = []
    for result in (vsync_result, dvsync_result):
        latency = latency_summary(result)
        fault_info = result.extra.get("faults", {})
        watchdog_info = result.extra.get("watchdog", {})
        rows.append(
            [
                result.scheduler,
                f"{fdps(result):.2f}",
                f"{latency.mean_ms:.2f}",
                f"{latency.p95_ms:.2f}",
                fault_info.get("injected_total", 0),
                fault_info.get("sim_contained", 0) + fault_info.get("hal_contained", 0),
                watchdog_info.get("degradations", "-"),
                watchdog_info.get("repromotions", "-"),
                round(watchdog_info.get("time_in_degraded_ns", 0) / 1e6)
                if watchdog_info
                else "-",
            ]
        )

    comparisons = [
        ("fdps vsync", "-", f"{fdps(vsync_result):.2f}"),
        ("fdps dvsync", "-", f"{fdps(dvsync_result):.2f}"),
        (
            "faults injected",
            "-",
            dvsync_result.extra.get("faults", {}).get("injected_total", 0),
        ),
    ]
    return ExperimentResult(
        experiment_id="faults",
        title=f"fault drill: {scenario} under [{schedule.describe()}] (seed {seed})",
        headers=[
            "scheduler",
            "fdps",
            "lat mean ms",
            "lat p95 ms",
            "injected",
            "contained",
            "degrades",
            "repromotes",
            "degraded ms",
        ],
        rows=rows,
        comparisons=comparisons,
        notes=(
            "Both architectures ran the same scenario under independent seeded "
            "instances of the same fault schedule; the D-VSync run carries the "
            "degradation watchdog."
        ),
    )
