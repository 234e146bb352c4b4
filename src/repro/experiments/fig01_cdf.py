"""Figure 1: CDF of frame rendering time (the power-law distribution).

Samples the aggregate frame-time model on a 60 Hz timebase and reports the
CDF at the figure's landmarks: ~78.3 % of frames finish within one VSync
period, and ~5 % exceed two periods — the frames triple buffering cannot
save.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.study import Study
from repro.units import to_ms
from repro.workloads.distributions import fig1_model

PAPER_WITHIN_ONE_PERIOD = 78.3
PAPER_BEYOND_TWO_PERIODS = 5.0
SAMPLE_COUNT = 40_000
PERIOD_MS = 1000 / 60


def study(runs: int = 1, quick: bool = False) -> Study:
    """Fig 1 is pure computation: a zero-cell study whose analysis samples
    the frame-time model directly."""
    count = 5_000 if quick else SAMPLE_COUNT
    return Study("fig01", analyze=lambda _result: _build(count))


def _build(count: int) -> ExperimentResult:
    model = fig1_model()
    times_ms = sorted(to_ms(w.total_ns) for w in model.generate(count))

    def cdf_at(x_ms: float) -> float:
        import bisect

        return bisect.bisect_right(times_ms, x_ms) / len(times_ms) * 100.0

    landmarks = [PERIOD_MS * k for k in (0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4)]
    rows = [[f"{x:.1f} ms", f"{cdf_at(x):.1f} %"] for x in landmarks]
    within_one = cdf_at(PERIOD_MS)
    beyond_two = 100.0 - cdf_at(2 * PERIOD_MS)
    return ExperimentResult(
        experiment_id="fig01",
        title="CDF of frame rendering time on a 60 Hz screen",
        headers=["rendering time", "cumulative probability"],
        rows=rows,
        comparisons=[
            ("frames within 1 VSync period (%)", PAPER_WITHIN_ONE_PERIOD, round(within_one, 1)),
            ("frames beyond 2 VSync periods (%)", PAPER_BEYOND_TWO_PERIODS, round(beyond_two, 1)),
        ],
        notes=(
            "Most frames are short; the ~5 % beyond two periods are the key "
            "frames that cause stutters despite triple buffering."
        ),
    )
