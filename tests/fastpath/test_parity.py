"""Dual-engine parity: the replay engine must be byte-exact, not just close.

Every test here compares canonical wire-form results (``result_to_wire`` →
``canonical_json``) between ``engine="event"`` and ``engine="fastpath"`` —
the same equivalence the CI bench gate (``scripts/check_fastpath.py``)
enforces over the full quick matrix, kept small enough to run on every
pytest invocation.

The suite turns the process-wide invariant checker *off* (overriding the
suite-wide strict fixture), so most cases compare unverified runs; the
verified cases set ``verify=True`` and compare the checker's verdict too.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_60_PRO, PIXEL_5
from repro.exec.executor import execute_spec
from repro.exec.serialize import result_to_wire
from repro.exec.spec import DriverSpec, RunSpec, canonical_json
from repro.verify.oracle import ORACLE_SCENARIOS


@pytest.fixture(autouse=True)
def _verification_off():
    """Unverified unless a case asks for the checker itself."""
    from repro.verify import runtime

    runtime.set_enabled(False)
    yield
    runtime.reset()


def wire_text(result) -> str:
    """Canonical wire form; a telemetry snapshot's profile blocks keep their
    keys and counts, while their wall-clock seconds are zeroed."""
    wire = result_to_wire(result)
    if wire.get("telemetry") is not None:
        for block in wire["telemetry"]["profile"].values():
            block["seconds"] = 0.0
    return canonical_json(wire)


def run_both(spec: RunSpec) -> tuple[str, str]:
    """Wire forms under both engines; auto-fallback for non-trace-pure specs.

    A spec whose driver declares no replay profile cannot be *forced* onto
    the fastpath; for those the contract under test is that ``engine="auto"``
    falls back to the event engine and still matches it byte-for-byte.
    """
    from repro.errors import ConfigurationError

    event = execute_spec(dataclasses.replace(spec, engine="event"))
    try:
        fast = execute_spec(dataclasses.replace(spec, engine="fastpath"))
    except ConfigurationError:
        fast = execute_spec(dataclasses.replace(spec, engine="auto"))
    return wire_text(event), wire_text(fast)


def _oracle_cases():
    for name, scenario in ORACLE_SCENARIOS.items():
        for spec in scenario.spec_pair():
            for horizon in (None, 300_000_000):
                label = (
                    f"{name}/{spec.architecture}"
                    f"/h={'inf' if horizon is None else horizon}"
                )
                yield pytest.param(
                    dataclasses.replace(spec, verify=False, horizon=horizon),
                    id=label,
                )


def _telemetry_off_and_on(cases):
    """Each case as given, then again recording a telemetry session."""
    for case in cases:
        (spec,) = case.values
        yield case
        yield pytest.param(
            dataclasses.replace(spec, telemetry=True), id=f"{case.id}/telemetry"
        )


@pytest.mark.parametrize("spec", _telemetry_off_and_on(_oracle_cases()))
def test_oracle_corpus_is_byte_identical_under_both_engines(spec):
    event_wire, fast_wire = run_both(spec)
    assert event_wire == fast_wire


def _stress_specs():
    stress = DriverSpec.of(
        "repro.exec.builders:burst_animation",
        name="parity-stress",
        target_fdps=9.0,
        refresh_hz=120,
        duration_ms=400,
        bursts=3,
        burst_period_ms=700,
    )
    return [
        pytest.param(
            RunSpec(
                driver=stress,
                device=MATE_60_PRO,
                architecture="vsync",
                buffer_count=2,
                start_time=7_000_000,
            ),
            id="vsync/offset-start/2-buffers",
        ),
        pytest.param(
            RunSpec(
                driver=stress,
                device=MATE_60_PRO,
                architecture="dvsync",
                dvsync=DVSyncConfig(buffer_count=3, prerender_limit=2),
                start_time=7_000_000,
            ),
            id="dvsync/offset-start/tight-limit",
        ),
        pytest.param(
            RunSpec(
                driver=stress,
                device=PIXEL_5,
                architecture="dvsync",
                dvsync=DVSyncConfig(buffer_count=7, dtv_enabled=False),
            ),
            id="dvsync/dtv-ablated/7-buffers",
        ),
        pytest.param(
            RunSpec(
                driver=stress,
                device=PIXEL_5,
                architecture="vsync",
                buffer_count=3,
                horizon=550_000_000,
            ),
            # The fastpath fast-forwards idle gaps; ticks past the horizon
            # must not count (the snapshot's janks.ticks and sim.events).
            id="vsync/horizon-in-idle-gap",
        ),
    ]


@pytest.mark.parametrize("spec", _telemetry_off_and_on(_stress_specs()))
def test_stress_shapes_are_byte_identical(spec):
    """Offset start times, tight pre-render limits, DTV ablation, a horizon
    inside an idle gap."""
    event_wire, fast_wire = run_both(spec)
    assert event_wire == fast_wire


def test_game_trace_spec_parity():
    """A recorded game trace (TraceDriver) replays byte-identically."""
    driver = DriverSpec.of(
        "repro.experiments.fig14_games:build_game_driver",
        game="Survive",
        repetition=0,
    )
    device = MATE_60_PRO.at_refresh(60)
    for spec in (
        RunSpec(driver=driver, device=device, architecture="vsync", buffer_count=3),
        RunSpec(
            driver=driver,
            device=device,
            architecture="dvsync",
            dvsync=DVSyncConfig(buffer_count=5),
        ),
    ):
        event_wire, fast_wire = run_both(spec)
        assert event_wire == fast_wire


def test_looping_trace_driver_parity():
    """``loop=True`` wraps workload indexes; both engines must agree."""
    from repro import simulate
    from repro.core.api import SimConfig
    from repro.workloads.drivers import TraceDriver
    from repro.workloads.frametrace import FrameTrace
    from repro.pipeline.frame import FrameWorkload

    def build():
        workloads = [
            FrameWorkload(ui_ns=4_000_000, render_ns=5_000_000, gpu_ns=2_000_000),
            FrameWorkload(ui_ns=9_000_000, render_ns=8_000_000, gpu_ns=0),
            FrameWorkload(ui_ns=2_000_000, render_ns=3_000_000, gpu_ns=1_000_000),
        ]
        # 3 recorded frames at 60 Hz, replayed on a 120 Hz panel: demand
        # outpaces the recording, so frame indexes must wrap around.
        trace = FrameTrace(name="loop-parity", refresh_hz=60, workloads=workloads)
        return TraceDriver(trace, loop=True)

    device = MATE_60_PRO.at_refresh(120)
    for arch in ("vsync", "dvsync"):
        results = []
        for engine in ("event", "fastpath"):
            result = simulate(
                build(),
                device,
                architecture=arch,
                config=SimConfig(engine=engine),
                verify=False,
            )
            results.append(wire_text(result))
        assert results[0] == results[1], arch


def test_golden_corpus_digests_are_engine_independent():
    """Golden-trace digests come out identical from either engine.

    The committed corpus digests the run *with* the invariant checker's
    verdict riding in ``extra``; every trace-pure golden spec must produce
    that digest under both engines.
    """
    from repro.fastpath.engine import spec_ineligibility
    from repro.fastpath.profile import load_compiled
    from repro.verify.golden import golden_specs, run_digest

    covered = 0
    for name, spec in golden_specs().items():
        assert spec.verify, name
        if spec_ineligibility(spec) is not None:
            continue
        if load_compiled(spec.driver)[1] is None:
            continue
        event = execute_spec(dataclasses.replace(spec, engine="event"))
        fast = execute_spec(dataclasses.replace(spec, engine="fastpath"))
        assert run_digest(fast) == run_digest(event), name
        covered += 1
    assert covered >= 4  # the steady/droppy pairs at minimum


def _verified_cases():
    """The oracle corpus and the golden specs, each with the checker on."""
    from repro.verify.golden import golden_specs

    for case in _oracle_cases():
        (spec,) = case.values
        yield pytest.param(
            dataclasses.replace(spec, verify=True), id=f"{case.id}/verified"
        )
    for name, spec in golden_specs().items():
        yield pytest.param(
            dataclasses.replace(spec, verify=True), id=f"golden/{name}"
        )


@pytest.mark.parametrize("spec", _verified_cases())
def test_verified_runs_are_byte_identical_under_both_engines(spec):
    """The checker's verdict, read from either engine's log, is the same."""
    event_wire, fast_wire = run_both(spec)
    assert '"invariants"' in event_wire
    assert event_wire == fast_wire


def _expand_idle(log):
    """The replay's idle entries as the ticks the event engine logs."""
    from repro.verify.invariants import V_IDLE, V_TICK

    expanded = []
    for kind, data in log:
        if kind != V_IDLE:
            expanded.append((kind, data))
            continue
        (time, period, *state) = expanded[-1][1]
        for skipped in range(1, data + 1):
            expanded.append((V_TICK, (time + skipped * period, period, *state)))
    return expanded


@pytest.mark.parametrize("arch", ["vsync", "dvsync"])
def test_verified_log_matches_the_event_engine(arch):
    """Both engines write the same emission log, idle gaps expanded."""
    from repro import simulate
    from repro.core.api import SimConfig
    from repro.verify.invariants import InvariantChecker

    class Capture(InvariantChecker):
        def check(self, result, log):
            self.log = list(log)
            super().check(result, log)

    stress = _stress_specs()[0].values[0].driver
    logs = []
    for engine in ("event", "fastpath"):
        checker = Capture()
        simulate(
            stress.build(),
            PIXEL_5,
            architecture=arch,
            config=SimConfig(engine=engine),
            telemetry=True,
            verify=checker,
        )
        logs.append(_expand_idle(checker.log))
    event_log, fast_log = logs
    assert len(event_log) > 100
    assert event_log == fast_log
