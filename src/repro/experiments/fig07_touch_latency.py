"""Figure 7: visualization of rendering latency with the touch-follow ball.

A fast upward swipe draws a ball at the latest touch position every frame;
under VSync with ~45 ms latency the ball trails the fingertip by up to
~394 px (2.4 cm). D-VSync with the IPL keeps the ball close to the finger —
the paper's motivation for latency mattering more than frame rate.

Both arms × repetitions batch as one :class:`~repro.study.Study`; the
analysis step rebuilds the (deterministic, seeded) swipe driver to recover
the fingertip's true position curve.
"""

from __future__ import annotations

from repro.apps.touch_ball import TouchBallApp
from repro.core.config import DVSyncConfig
from repro.display.device import PIXEL_5
from repro.exec.spec import DriverSpec, RunSpec
from repro.experiments.base import ExperimentResult, mean
from repro.study import Study, StudyResult
from repro.workloads.drivers import InteractionDriver

PAPER_MAX_LAG_PX = 394
PAPER_VSYNC_LATENCY_MS = 45


def build_touch_driver(repetition: int) -> InteractionDriver:
    """RunSpec builder: one seeded touch-follow swipe repetition."""
    return TouchBallApp(PIXEL_5).build_driver(repetition)


def study(runs: int = 4, quick: bool = False) -> Study:
    """The Fig 7 matrix: architecture × repetition, one batch."""
    effective_runs = 2 if quick else runs
    matrix = Study(
        "fig07", analyze=lambda result: _analyze(result, effective_runs)
    )
    for arch in ("vsync", "dvsync"):
        for repetition in range(effective_runs):
            driver = DriverSpec.of(
                "repro.experiments.fig07_touch_latency:build_touch_driver",
                repetition=repetition,
            )
            if arch == "vsync":
                spec = RunSpec(
                    driver=driver, device=PIXEL_5, architecture="vsync", buffer_count=3
                )
            else:
                spec = RunSpec(
                    driver=driver,
                    device=PIXEL_5,
                    architecture="dvsync",
                    dvsync=DVSyncConfig(buffer_count=4),
                )
            matrix.add(spec, architecture=arch, rep=repetition)
    return matrix


def _analyze(result: StudyResult, effective_runs: int) -> ExperimentResult:
    app = TouchBallApp(PIXEL_5)
    rows = []
    stats: dict[str, dict[str, list[float]]] = {}
    for arch in ("vsync", "dvsync"):
        agg = {"max": [], "mean": [], "latency": []}
        for repetition in range(effective_runs):
            run_result = result.get(architecture=arch, rep=repetition)
            if run_result is None:
                continue
            # The spec's driver ran in a worker; rebuild the same seeded
            # swipe here and start it at the run's origin so true_value
            # reports the fingertip's actual path.
            driver = app.build_driver(repetition)
            driver.begin(0)
            lag = app.lag_result(run_result, driver)
            agg["max"].append(lag.max_lag_px)
            agg["mean"].append(mean(lag.lags_px))
            agg["latency"].append(lag.mean_latency_ms)
        stats[arch] = agg
        rows.append(
            [
                arch,
                round(mean(agg["latency"]), 1),
                round(mean(agg["mean"]), 0),
                round(mean(agg["max"]), 0),
            ]
        )
    return ExperimentResult(
        experiment_id="fig07",
        title="Touch-follow ball: how far the content trails the fingertip",
        headers=["architecture", "mean latency (ms)", "mean lag (px)", "max lag (px)"],
        rows=rows,
        comparisons=[
            ("VSync max lag (px)", PAPER_MAX_LAG_PX, round(mean(stats["vsync"]["max"]), 0)),
            (
                "VSync mean latency (ms)",
                PAPER_VSYNC_LATENCY_MS,
                round(mean(stats["vsync"]["latency"]), 1),
            ),
        ],
        notes=(
            "The D-VSync arm predicts the touch position at display time via "
            "the IPL; its residual max lag comes from the first frames of the "
            "gesture, before the input history supports a fit."
        ),
    )
