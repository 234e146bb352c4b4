"""D-VSync x LTPO co-design (§5.3) on a decelerating fling.

A fling starts fast (120 Hz) and decelerates; the LTPO governor steps the
panel down through 90/60/30 Hz tiers. The co-design defers each switch until
D-VSync's accumulated buffers — rendered for the old rate — have been
consumed, so no frame is ever displayed at the wrong rate. Run with the
drain rule disabled to see the mismatches it prevents.

Run:  python examples/ltpo_fling.py
"""

from repro import (
    DVSyncConfig,
    DVSyncScheduler,
    LTPOCoDesign,
    LTPOController,
    MATE_60_PRO,
    SimConfig,
    simulate,
)
from repro.units import ms, to_ms
from repro.workloads.animations import DecelerateCurve
from repro.workloads.distributions import FrameTimeParams
from repro.workloads.drivers import AnimationDriver


def build_fling() -> AnimationDriver:
    params = FrameTimeParams(refresh_hz=120, key_prob=0.0)
    return AnimationDriver(
        "ltpo-fling",
        params,
        duration_ns=ms(1500),
        curve=DecelerateCurve(rate=4.0),
    )


def run_fling(enforce_drain: bool):
    # simulate() is the one way to run a simulation, but the co-design bridge
    # must attach to the scheduler *before* the run, so this arm composes a
    # scheduler by hand (constructors take a plain DVSyncConfig).
    scheduler = DVSyncScheduler(
        build_fling(), MATE_60_PRO, DVSyncConfig(buffer_count=4)
    )
    ltpo = LTPOController(scheduler.hw_vsync, max_hz=120)
    bridge = LTPOCoDesign(scheduler, ltpo, enforce_drain=enforce_drain)
    result = scheduler.run()
    return result, ltpo, bridge


def main() -> None:
    pinned = simulate(
        build_fling(), MATE_60_PRO, config=SimConfig(buffer_count=4)
    )
    print("== fling with the panel pinned at 120 Hz (no LTPO) ==")
    print(f"  frame drops            : {len(pinned.effective_drops)}\n")
    for enforce in (True, False):
        label = "with co-design" if enforce else "WITHOUT co-design"
        result, ltpo, bridge = run_fling(enforce)
        print(f"== fling {label} ==")
        for when, old_hz, new_hz in ltpo.switch_log:
            print(f"  t={to_ms(when):7.1f} ms: {old_hz:3d} Hz -> {new_hz:3d} Hz")
        print(f"  deferred switches      : {bridge.deferred_switches}")
        print(f"  rate-mismatched frames : {bridge.rate_mismatched_presents}")
        print(f"  frame drops            : {len(result.effective_drops)}\n")


if __name__ == "__main__":
    main()
