"""Figure 3: trend in pixels rendered per second across flagship phones.

Regenerates the scatter series (year, model, height x width x refresh) and
the headline ~25x growth factor since the iPhone 4 / Galaxy S era.
"""

from __future__ import annotations

from repro.display.trend import growth_factor, pixels_per_second_series
from repro.experiments.base import ExperimentResult
from repro.study import Study

PAPER_GROWTH_FACTOR = 25.0


def study(runs: int = 1, quick: bool = False) -> Study:
    """Fig 3 is static data: a zero-cell study."""
    return Study("fig03", analyze=lambda _result: _build())


def _build() -> ExperimentResult:
    rows = [
        [year, model, f"{pixels / 1e6:.1f} M"]
        for year, model, pixels in pixels_per_second_series()
    ]
    return ExperimentResult(
        experiment_id="fig03",
        title="Pixels to render per second, flagship phones 2010-2024",
        headers=["year", "model", "pixels/s"],
        rows=rows,
        comparisons=[
            ("growth factor since 2010", f"~{PAPER_GROWTH_FACTOR:.0f}x", f"{growth_factor():.1f}x"),
        ],
    )
