"""Extension study: DVFS governing inside D-VSync's larger time window (§8).

The related work adjusts CPU/GPU frequency so each frame finishes just before
its VSync deadline. The paper's position: such governors compose with
D-VSync, which "gives a bigger time window for frame execution". This
experiment quantifies that claim: the same prediction-guided governor runs
with a 1-period budget under VSync and with the pre-render window under
D-VSync, reporting drops, mean clock level, and dynamic-energy savings.

The governor is a live object wrapped around the driver (its stats are read
back after the run), so the arm × repetition grid runs as live thunks on the
study layer, each returning the ``(fdps, level, saving)`` payload the
analysis aggregates.
"""

from __future__ import annotations

from repro.core.api import SimConfig
from repro.display.device import PIXEL_5
from repro.experiments.base import ExperimentResult, mean
from repro.extensions.dvfs import FrequencyGovernor, GovernedDriver
from repro.facade import simulate
from repro.metrics.fdps import fdps
from repro.study import Study, StudyResult
from repro.units import ms
from repro.workloads.distributions import SCATTERED, params_for_target_fdps
from repro.workloads.drivers import AnimationDriver

ARMS = {
    # (architecture, governor window in periods)
    "vsync, no DVFS": ("vsync", None),
    "vsync + DVFS (1-period window)": ("vsync", 1.0),
    "dvsync + DVFS (3-period window)": ("dvsync", 3.0),
}


def _base_driver(repetition: int, bursts: int) -> AnimationDriver:
    params = params_for_target_fdps(1.5, PIXEL_5.refresh_hz, profile=SCATTERED)
    return AnimationDriver(
        f"dvfs-case#{repetition}",
        params,
        duration_ns=ms(400),
        bursts=bursts,
        burst_period_ns=ms(600),
    )


def _run_arm(architecture: str, window: float | None, repetition: int, bursts: int):
    """One governed repetition; returns (fdps, mean level, energy saving)."""
    period = PIXEL_5.vsync_period
    driver = _base_driver(repetition, bursts)
    governor = None
    if window is not None:
        governor = FrequencyGovernor(window_periods=window, period_ns=period)
        driver = GovernedDriver(driver, governor)
    buffers = 3 if architecture == "vsync" else 4
    result = simulate(
        driver, PIXEL_5, architecture=architecture,
        config=SimConfig(buffer_count=buffers),
    )
    if governor is None:
        return fdps(result), None, None
    return fdps(result), governor.stats.mean_level, governor.stats.energy_saving_percent


def study(runs: int = 3, quick: bool = False) -> Study:
    """The §8 matrix: arm × repetition as live (governed) cells."""
    effective_runs = 2 if quick else runs
    bursts = 8 if quick else 16
    matrix = Study(
        "dvfs", analyze=lambda result: _analyze(result, effective_runs)
    )
    for label, (architecture, window) in ARMS.items():
        for repetition in range(effective_runs):
            matrix.add_live(
                lambda architecture=architecture, window=window, repetition=repetition: (
                    _run_arm(architecture, window, repetition, bursts)
                ),
                arm=label,
                rep=repetition,
            )
    return matrix


def _analyze(result: StudyResult, effective_runs: int) -> ExperimentResult:
    rows = []
    results = {}
    for label in ARMS:
        fdps_values, levels, savings = [], [], []
        for repetition in range(effective_runs):
            payload = result.get(arm=label, rep=repetition)
            if payload is None:
                continue
            fdps_value, level, saving = payload
            fdps_values.append(fdps_value)
            if level is not None:
                levels.append(level)
                savings.append(saving)
        results[label] = {
            "fdps": mean(fdps_values),
            "level": mean(levels) if levels else 1.0,
            "saving": mean(savings) if savings else 0.0,
        }
        rows.append(
            [label, round(results[label]["fdps"], 2),
             round(results[label]["level"], 2), round(results[label]["saving"], 1)]
        )
    vsync_gov = results["vsync + DVFS (1-period window)"]
    dvsync_gov = results["dvsync + DVFS (3-period window)"]
    return ExperimentResult(
        experiment_id="dvfs",
        title="DVFS governing composed with D-VSync's larger execution window",
        headers=["arm", "FDPS", "mean clock level", "dynamic energy saved (%)"],
        rows=rows,
        comparisons=[
            (
                "D-VSync lets the governor clock lower",
                "level(dvsync) < level(vsync)",
                f"{dvsync_gov['level']:.2f} < {vsync_gov['level']:.2f}"
                if dvsync_gov["level"] < vsync_gov["level"]
                else "NOT OBSERVED",
            ),
            (
                "extra energy saved by the larger window (pp)",
                "> 0",
                round(dvsync_gov["saving"] - vsync_gov["saving"], 1),
            ),
            (
                "drops stay lower than governed VSync",
                "yes",
                "yes" if dvsync_gov["fdps"] <= vsync_gov["fdps"] else "no",
            ),
        ],
        notes=(
            "Execution stretches as 1/f, dynamic energy scales as f² for "
            "fixed work; a 50 FPS-style down-clock under plain VSync janks "
            "(§8's critique of Pathania et al.), while D-VSync's window "
            "absorbs the stretched frames."
        ),
    )
