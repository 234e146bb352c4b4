"""Calibration-band tests (DESIGN.md §6).

These pin the contract between the workload inversion and the simulated
VSync baseline: a scenario built for a target drop rate must land within a
band of it, and the D-VSync arm must then reproduce the paper's reduction
shape. Bands are deliberately loose — they catch regressions in the
scheduler or the yield tables, not sampling noise.
"""

import statistics

import pytest

from repro import SimConfig, simulate
from repro.display.device import MATE_60_PRO, PIXEL_5
from repro.metrics.fdps import fdps
from repro.workloads.scenarios import Scenario

RUNS = 3


def measure(scenario, device, architecture, buffers):
    values = []
    for repetition in range(RUNS):
        result = simulate(
            scenario.build_driver(repetition),
            device,
            architecture=architecture,
            config=SimConfig(buffer_count=buffers),
        )
        values.append(fdps(result))
    return statistics.fmean(values)


@pytest.mark.parametrize(
    "profile,target,hz",
    [
        ("scattered", 2.0, 60),
        ("moderate", 3.0, 60),
        ("fluctuation", 8.0, 120),
        ("fluctuation-deep", 6.0, 120),
    ],
)
def test_vsync_baseline_lands_near_target(profile, target, hz):
    device = PIXEL_5 if hz == 60 else MATE_60_PRO
    buffers = 3 if hz == 60 else 4
    scenario = Scenario(
        name=f"cal-{profile}", description="", refresh_hz=hz,
        target_vsync_fdps=target, profile=profile, bursts=20,
    )
    measured = measure(scenario, device, "vsync", buffers)
    assert measured == pytest.approx(target, rel=0.6), (
        f"{profile}: baseline {measured:.2f} vs target {target}"
    )


def test_dvsync_reduces_scattered_heavily():
    scenario = Scenario(
        name="cal-red-scattered", description="", refresh_hz=60,
        target_vsync_fdps=3.0, profile="scattered", bursts=20,
    )
    baseline = measure(scenario, PIXEL_5, "vsync", 3)
    improved = measure(scenario, PIXEL_5, "dvsync", 4)
    assert improved < 0.45 * baseline  # paper band: ~70-95 % reduction


def test_dvsync_barely_improves_skewed():
    scenario = Scenario(
        name="cal-red-skewed", description="", refresh_hz=60,
        target_vsync_fdps=3.0, profile="skewed", bursts=20,
    )
    baseline = measure(scenario, PIXEL_5, "vsync", 3)
    improved = measure(scenario, PIXEL_5, "dvsync", 4)
    assert improved > 0.5 * baseline  # QQMusic-like resistance


def test_more_buffers_reduce_more():
    scenario = Scenario(
        name="cal-sweep", description="", refresh_hz=60,
        target_vsync_fdps=3.0, profile="moderate", bursts=20,
    )
    four = measure(scenario, PIXEL_5, "dvsync", 4)
    seven = measure(scenario, PIXEL_5, "dvsync", 7)
    assert seven <= four
