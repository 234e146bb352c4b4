"""§6.7: power consumption and CPU instructions.

End-to-end device power rises only 0.13 % for the map-app animation under
D-VSync (0.37 % when 10 % of frames additionally run the ZDP curve fitting),
because D-VSync merely shifts load forward plus renders the frames VSync
would have dropped. Render-service instructions: 10.849 vs 10.793 M per
frame (+0.52 %).
"""

from __future__ import annotations

from repro.core.config import DVSyncConfig
from repro.core.ipl import ZoomingDistancePredictor
from repro.display.device import PIXEL_5
from repro.exec.spec import DriverSpec, RunSpec
from repro.experiments.base import ExperimentResult, mean
from repro.metrics.power import instructions_per_frame, power_increase_percent
from repro.study import Study, StudyResult
from repro.units import ms
from repro.workloads.distributions import params_for_target_fdps
from repro.workloads.drivers import AnimationDriver

PAPER_POWER_INCREASE = 0.13
PAPER_POWER_INCREASE_ZDP = 0.37
PAPER_INSTR_DVSYNC = 10.849
PAPER_INSTR_VSYNC = 10.793
PAPER_INSTR_OVERHEAD = 0.52


def build_power_driver(run_index: int, bursts: int) -> AnimationDriver:
    """RunSpec builder: the §6.7 map-animation reference workload.

    Light, with only occasional drops — the extra power is dominated by the
    scheduler modules, not by recovered frames.
    """
    params = params_for_target_fdps(0.5, PIXEL_5.refresh_hz)
    return AnimationDriver(
        f"power-map-anim#{run_index}",
        params,
        duration_ns=ms(400),
        bursts=bursts,
        burst_period_ns=ms(600),
    )


def study(runs: int = 3, quick: bool = False) -> Study:
    """The §6.7 matrix: architecture × repetition, one batch."""
    effective_runs = 2 if quick else runs
    bursts = 6 if quick else 20
    matrix = Study(
        "power", analyze=lambda result: _analyze(result, effective_runs)
    )
    drivers = [
        DriverSpec.of(
            "repro.experiments.power_case:build_power_driver",
            run_index=repetition,
            bursts=bursts,
        )
        for repetition in range(effective_runs)
    ]
    for repetition, driver in enumerate(drivers):
        matrix.add(
            RunSpec(driver=driver, device=PIXEL_5, architecture="vsync", buffer_count=3),
            architecture="vsync",
            rep=repetition,
        )
    for repetition, driver in enumerate(drivers):
        matrix.add(
            RunSpec(
                driver=driver,
                device=PIXEL_5,
                architecture="dvsync",
                dvsync=DVSyncConfig(buffer_count=4),
            ),
            architecture="dvsync",
            rep=repetition,
        )
    return matrix


def _analyze(result: StudyResult, effective_runs: int) -> ExperimentResult:
    increases, increases_zdp = [], []
    instr_vsync, instr_dvsync = [], []
    for baseline, improved in result.pairs(
        {"architecture": "vsync"}, {"architecture": "dvsync"}
    ):
        increases.append(power_increase_percent(baseline, improved))
        # ZDP arm: 10 % of frames additionally run the curve fitting (§6.7).
        zdp_frames = round(0.10 * len(improved.frames))
        zdp_extra_ns = zdp_frames * ZoomingDistancePredictor.overhead_ns
        increases_zdp.append(
            power_increase_percent(baseline, improved, improved_extra_ns=zdp_extra_ns)
        )
        instr_vsync.append(instructions_per_frame(baseline) / 1e6)
        instr_dvsync.append(instructions_per_frame(improved) / 1e6)
    instr_overhead = (
        (mean(instr_dvsync) - mean(instr_vsync)) / mean(instr_vsync) * 100
        if mean(instr_vsync)
        else 0.0
    )
    rows = [
        ["power increase, D-VSync (%)", round(mean(increases), 3)],
        ["power increase, D-VSync + ZDP on 10% frames (%)", round(mean(increases_zdp), 3)],
        ["instructions/frame, VSync (M)", round(mean(instr_vsync), 3)],
        ["instructions/frame, D-VSync (M)", round(mean(instr_dvsync), 3)],
        ["instruction overhead (%)", round(instr_overhead, 2)],
    ]
    return ExperimentResult(
        experiment_id="power",
        title="Power and CPU-instruction overhead of D-VSync",
        headers=["metric", "value"],
        rows=rows,
        comparisons=[
            ("end-to-end power increase (%)", PAPER_POWER_INCREASE, round(mean(increases), 2)),
            (
                "power increase with ZDP (%)",
                PAPER_POWER_INCREASE_ZDP,
                round(mean(increases_zdp), 2),
            ),
            ("instruction overhead (%)", PAPER_INSTR_OVERHEAD, round(instr_overhead, 2)),
        ],
        notes=(
            "The increase is the work of frames VSync would have dropped plus "
            "the little-core scheduler overhead, against the device baseline."
        ),
    )
