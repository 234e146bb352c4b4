"""The fuzzer's spec space as one Hypothesis strategy.

:func:`run_specs` draws :class:`~repro.exec.spec.RunSpec` values across the
knob space the relations are meant to cover: every device profile, both
driver families with their parameter sets, the five fault templates (one
clause or two of distinct kinds), the ``DVSyncConfig`` space, start times,
horizons, the two observers and the two batch-executable engines.

Every spec is valid by construction: the strategy never draws a combination
``RunSpec`` would reject (a watchdog off the dvsync architecture, a
pre-render limit outside the queue), because a configuration error in a
generated spec would be a finding about the strategy, not the library.

Each choice lists its default first (``None``, ``False``, ``"auto"``,
``"vsync"``, no faults), and Hypothesis shrinks a choice toward its first
entry, so a failing spec shrinks toward the default spec.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.config import DVSyncConfig
from repro.display.device import ALL_DEVICES
from repro.exec.spec import DriverSpec, RunSpec
from repro.units import ms

#: Longest animation burst a generated driver runs; short workloads keep
#: 150 examples per relation inside the tier-1 budget.
MAX_DURATION_MS = 260.0

#: Fault clause templates: (kind, {param: candidate values}).
FAULT_TEMPLATES = (
    ("vsync-jitter", {"sigma_us": (150.0, 400.0, 900.0)}),
    ("thermal", {"factor": (1.6, 2.4), "start_ms": (50.0,), "end_ms": (250.0,)}),
    ("buffer-pressure", {"deny_prob": (0.1, 0.3), "retry_us": (400.0,)}),
    ("input-loss", {"drop_prob": (0.01, 0.05)}),
    ("callback-crash", {"prob": (0.01, 0.03)}),
)


def _names(prefix: str) -> st.SearchStrategy[str]:
    """Driver names; a name seeds its workload trace, so it varies content."""
    return st.integers(min_value=0, max_value=2**16).map(lambda n: f"{prefix}-{n}")


#: Refresh rates a driver's workload is calibrated for, whatever the panel's.
REFRESH_RATES = (60, 90, 120)


@st.composite
def burst_drivers(draw) -> DriverSpec:
    bursts = draw(st.sampled_from((1, 2)))
    period = (None, 400.0) if bursts == 1 else (350.0, 500.0)
    return DriverSpec.of(
        "repro.exec.builders:burst_animation",
        name=draw(_names("fuzz")),
        target_fdps=draw(st.sampled_from((0.5, 2.0, 4.0, 7.0))),
        refresh_hz=draw(st.sampled_from(REFRESH_RATES)),
        duration_ms=draw(st.sampled_from((60.0, 120.0, 180.0, MAX_DURATION_MS))),
        bursts=bursts,
        burst_period_ms=draw(st.sampled_from(period)),
    )


@st.composite
def scenario_drivers(draw) -> DriverSpec:
    interactive = draw(st.booleans())
    fields: dict = {
        "name": draw(_names("fuzz-scn")),
        "description": "fuzz-generated scenario",
        "refresh_hz": draw(st.sampled_from(REFRESH_RATES)),
        "target_vsync_fdps": draw(st.sampled_from((1.0, 3.0, 6.0))),
        "profile": draw(st.sampled_from(("moderate", "scattered", "skewed"))),
        "duration_ms": draw(st.sampled_from((80.0, 150.0, MAX_DURATION_MS))),
        "bursts": draw(st.sampled_from((1, 2))),
        "burst_period_ms": draw(st.sampled_from((None, 300.0, 450.0))),
        "curve": draw(
            st.sampled_from(("ease-in-out", "linear", "decelerate", "spring"))
        ),
        "interactive": interactive,
        "base_fraction": draw(st.sampled_from((0.42, 0.3, 0.55))),
    }
    if interactive:
        fields["gesture"] = draw(st.sampled_from(("swipe", "pinch")))
    else:
        fields["gpu_fraction"] = draw(st.sampled_from((0.0, 0.25)))
        key_zone = draw(st.sampled_from((None, 100.0, 200.0)))
        if key_zone is not None:
            fields["key_zone_period_ms"] = key_zone
    return DriverSpec.of("repro.exec.builders:scenario_driver", run=0, **fields)


@st.composite
def fault_clauses(draw) -> tuple[str, str]:
    """One ``(kind, clause)`` pair in ``FaultSchedule.parse`` syntax."""
    kind, params = draw(st.sampled_from(FAULT_TEMPLATES))
    chosen = ",".join(
        f"{key}={draw(st.sampled_from(values)):g}"
        for key, values in sorted(params.items())
    )
    return kind, f"{kind}({chosen})"


#: A fault schedule: one clause, or two clauses of distinct kinds.
fault_schedules = st.lists(
    fault_clauses(), min_size=1, max_size=2, unique_by=lambda pair: pair[0]
).map(lambda pairs: ";".join(clause for _, clause in pairs))


@st.composite
def dvsync_configs(draw) -> DVSyncConfig:
    buffers = draw(st.sampled_from((4, 3, 5, 7)))
    limit = draw(st.sampled_from((None, 1, 2, buffers - 1)))
    return DVSyncConfig(
        buffer_count=buffers,
        prerender_limit=None if limit is None else min(limit, buffers - 1),
        enabled=draw(st.sampled_from((True, False))),
        dtv_enabled=draw(st.sampled_from((True, False))),
        ipl_enabled=draw(st.sampled_from((True, False))),
        pipeline_depth_periods=draw(st.sampled_from((2, 1, 3))),
    )


@st.composite
def run_specs(
    draw,
    architectures: tuple[str, ...] = ("vsync", "dvsync"),
    faults: st.SearchStrategy[str | None] = st.none() | fault_schedules,
) -> RunSpec:
    """A valid spec; *architectures* and *faults* narrow the space for a
    relation whose domain the full space would rarely hit."""
    device = draw(st.sampled_from(ALL_DEVICES))
    driver = draw(burst_drivers() | scenario_drivers())
    architecture = draw(st.sampled_from(architectures))
    schedule = draw(faults)
    dvsync = buffer_count = None
    watchdog = False
    if architecture == "dvsync":
        dvsync = draw(st.none() | dvsync_configs())
        if dvsync is None:
            buffer_count = draw(st.sampled_from((None, 4, 5)))
        watchdog = bool(schedule) and draw(st.booleans())
    else:
        buffer_count = draw(st.sampled_from((None, 2, 3, 4)))
    return RunSpec(
        driver=driver,
        device=device,
        architecture=architecture,
        buffer_count=buffer_count,
        dvsync=dvsync,
        faults=schedule,
        fault_seed=draw(st.sampled_from((0, 1, 7))) if schedule else 0,
        watchdog=watchdog,
        start_time=draw(st.sampled_from((0, 3_000_000, int(ms(11.0))))),
        horizon=draw(st.sampled_from((None, int(ms(140.0))))),
        telemetry=draw(st.booleans()),
        verify=draw(st.booleans()),
        engine=draw(st.sampled_from(("auto", "event"))),
    )
