"""Table 1: platform configuration.

Static regeneration of the device table from the profiles the simulator uses,
verifying the derived quantities (VSync period per refresh rate).
"""

from __future__ import annotations

from repro.display.device import ALL_DEVICES
from repro.experiments.base import ExperimentResult
from repro.study import Study
from repro.units import to_ms


def study(runs: int = 1, quick: bool = False) -> Study:
    """Table 1 is static data: a zero-cell study."""
    return Study("tab01", analyze=lambda _result: _build())


def _build() -> ExperimentResult:
    rows = []
    for device in ALL_DEVICES:
        rows.append(
            [
                device.name,
                device.release,
                device.os.value,
                device.backend.value,
                f"{device.width} x {device.height}",
                f"{device.refresh_hz}Hz / {to_ms(device.vsync_period):.1f}ms",
            ]
        )
    return ExperimentResult(
        experiment_id="tab01",
        title="Platform configuration",
        headers=["device", "release", "OS", "backend", "screen", "refresh rate"],
        rows=rows,
        comparisons=[
            ("Pixel 5 period (ms)", 16.7, round(to_ms(ALL_DEVICES[0].vsync_period), 1)),
            ("Mate 40 Pro period (ms)", 11.1, round(to_ms(ALL_DEVICES[1].vsync_period), 1)),
            ("Mate 60 Pro period (ms)", 8.3, round(to_ms(ALL_DEVICES[2].vsync_period), 1)),
        ],
    )
