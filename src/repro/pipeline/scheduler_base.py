"""Common machinery shared by the VSync and D-VSync schedulers.

:class:`SchedulerBase` wires one scenario run together: the simulator, the
HW-VSync source, software VSync channels, the buffer queue sized for the
architecture under test, the two-stage render pipeline, the compositor, and
the HAL. Subclasses implement exactly one thing — the *frame triggering
policy* — which is the entire difference between VSync and D-VSync (§4.1).

A run produces a :class:`RunResult`: the raw material every metric in
:mod:`repro.metrics` is computed from.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Callable

from repro.display.device import DeviceProfile
from repro.display.hal import PresentRecord, ScreenHAL
from repro.display.vsync import HWVsyncSource, VsyncChannel, VsyncOffsets
from repro.errors import ConfigurationError
from repro.graphics.buffer import BufferState
from repro.graphics.bufferqueue import BufferQueue
from repro.pipeline.compositor import Compositor, DropEvent
from repro.pipeline.driver import ScenarioDriver
from repro.pipeline.frame import FrameCategory, FrameRecord, FrameWorkload
from repro.pipeline.stages import RenderPipeline
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.session import NullTelemetry, Telemetry, TelemetrySnapshot
    from repro.verify.invariants import InvariantChecker

# Safety valve for run(); generous enough for hours of simulated 120 Hz.
_MAX_EVENTS = 20_000_000


@dataclasses.dataclass
class RunResult:
    """Everything observed during one scenario run."""

    scheduler: str
    scenario: str
    device: DeviceProfile
    buffer_count: int
    frames: list[FrameRecord]
    drops: list[DropEvent]
    presents: list[PresentRecord]
    start_time: int
    end_time: int
    ui_busy_ns: int
    render_busy_ns: int
    gpu_busy_ns: int
    scheduler_overhead_ns: int = 0
    extra: dict = dataclasses.field(default_factory=dict)
    telemetry: "TelemetrySnapshot | None" = None

    @property
    def presented_frames(self) -> list[FrameRecord]:
        """Frames that reached the panel."""
        return [f for f in self.frames if f.presented]

    @property
    def first_present_time(self) -> int | None:
        """Present-fence time of the first displayed frame."""
        return self.presents[0].present_time if self.presents else None

    @property
    def last_present_time(self) -> int | None:
        """Present-fence time of the last displayed frame."""
        return self.presents[-1].present_time if self.presents else None

    @property
    def display_span_ns(self) -> int:
        """Active display span: first present to one period past the last.

        This is the denominator of FDPS, matching the industrial "drops per
        second of display time" metric (§3.2).
        """
        if not self.presents:
            return 0
        return (
            self.presents[-1].present_time
            - self.presents[0].present_time
            + self.presents[-1].refresh_period
        )

    @property
    def effective_drops(self) -> list[DropEvent]:
        """Drops within the active display span (pipeline-fill edges excluded).

        The first frame of any run necessarily spends the pipeline depth
        without content on screen; industrial counters start once content is
        up, so we exclude janks before the first latch.
        """
        first = self.first_present_time
        if first is None:
            return list(self.drops)
        first_latch = self.presents[0].present_time - self.presents[0].refresh_period
        return [d for d in self.drops if d.time >= first_latch]


class SchedulerBase(abc.ABC):
    """One scenario run under a specific frame-triggering architecture.

    The construction contract is shared by every scheduler: positional
    ``(driver, device)``, one positional-or-keyword architecture knob
    (``buffer_count`` here and on the VSync subclasses, ``config`` on
    D-VSync), and keyword-only ``offsets`` / ``sim`` / ``telemetry`` /
    ``verify``.
    Likewise :meth:`run` is defined once, here — subclasses customize the
    result through :meth:`_finalize_result`, never by overriding ``run``.
    """

    scheduler_name = "base"
    #: Telemetry session for this run; ``None`` until construction installs
    #: one (the null session when telemetry is off).
    telemetry: "Telemetry | NullTelemetry | None" = None
    #: Invariant checker for this run; stays ``None`` when verification is
    #: disabled (the zero-cost default — no hooks are registered).
    verifier: "InvariantChecker | None" = None
    #: The run's emission log (see :meth:`_emission_log`), if anything reads it.
    _emissions: list | None = None

    def __init__(
        self,
        driver: ScenarioDriver,
        device: DeviceProfile,
        buffer_count: int | None = None,
        *,
        offsets: VsyncOffsets | None = None,
        sim: Simulator | None = None,
        telemetry: "Telemetry | NullTelemetry | bool | None" = None,
        verify: "InvariantChecker | bool | None" = None,
    ) -> None:
        self.driver = driver
        self.device = device
        self.buffer_count = buffer_count or device.default_buffer_count
        if self.buffer_count < 2:
            raise ConfigurationError("buffer_count must be at least 2")
        self.sim = sim or Simulator()
        self.offsets = offsets or VsyncOffsets()
        self.hw_vsync = HWVsyncSource(self.sim, device.vsync_period)
        self.buffer_queue = BufferQueue(self.buffer_count, device.framebuffer_bytes)
        self.pipeline = RenderPipeline(self.sim, self.buffer_queue)
        self.pipeline.render_rate_hz = device.refresh_hz
        self.hal = ScreenHAL()
        # The compositor registers on HW-VSync *before* the app channel so
        # that, on any given edge, buffer consumption (and the jank check)
        # happens before new frames are triggered — a frame spawned at edge T
        # must not count as content that edge T was waiting for.
        self.compositor = Compositor(
            self.hw_vsync,
            self.buffer_queue,
            self.hal,
            self._frame_by_id,
            self._expects_content,
            lambda: self.pipeline.frames_in_flight,
        )
        self.app_channel = VsyncChannel(self.hw_vsync, self.offsets.app_offset, "vsync-app")
        self.frames: list[FrameRecord] = []
        self._frames_by_id: dict[int, FrameRecord] = {}
        self._frame_counter = 0
        self._driver_done = False
        self._started = False
        self.scheduler_overhead_ns = 0
        # Fault-injection seams (repro.faults): workload filters transform
        # each spawned frame's demand (thermal throttling), input filters
        # transform the observed input stream (sample loss/staleness), and
        # result hooks annotate the RunResult (fault/watchdog summaries).
        self.workload_filters: list[Callable[[FrameWorkload, int], FrameWorkload]] = []
        self.input_filters: list[
            Callable[[list[tuple[int, float]], int], list[tuple[int, float]]]
        ] = []
        self.result_hooks: list[Callable[[RunResult], None]] = []
        # Observability seam: fires after a frame is created and handed to the
        # pipeline. Telemetry registers here; the list stays empty otherwise.
        self.on_frame_spawned: list[Callable[[FrameRecord], None]] = []
        self.compositor.after_tick.append(self._after_tick)
        self._install_telemetry(telemetry)
        self._install_verifier(verify)

    # ---------------------------------------------------------- emission log
    def _emission_log(self) -> list:
        """The run's emission log, read by telemetry and the checker alike.

        Created on first use with the ``QUEUED`` hook both readers need; a
        run that neither records nor verifies keeps no log.
        """
        if self._emissions is None:
            from repro.telemetry.session import QUEUED

            log = self._emissions = []
            self.pipeline.on_frame_queued.append(
                lambda frame: log.append((QUEUED, frame.frame_id))
            )
        return self._emissions

    def _queue_state(self) -> tuple:
        """The buffer queue's state as a verification log entry carries it."""
        queue = self.buffer_queue
        states = [buffer.state for buffer in queue.slots]
        return (
            states.count(BufferState.QUEUED), queue.queued_depth,
            states.count(BufferState.ACQUIRED), queue.front is not None,
            queue.total_queued, queue.total_acquired,
        )

    # -------------------------------------------------------------- telemetry
    def _install_telemetry(
        self, telemetry: "Telemetry | NullTelemetry | bool | None"
    ) -> None:
        """Resolve the telemetry argument and, when enabled, log the run.

        Disabled telemetry registers **nothing**, so a run without telemetry
        executes the same code paths as one built before the subsystem
        existed. Enabled telemetry appends ``(kind, index)`` pairs to the
        emission log and counts compositor ticks; :meth:`run` builds the
        session's trace and metrics from them once the run is over.
        """
        from repro.telemetry.session import DROP, PRESENT, SPAWN, UI_COMPLETE
        from repro.telemetry.session import resolve_telemetry

        session = resolve_telemetry(
            telemetry, name=f"{self.scheduler_name}@{self.driver.name}"
        )
        self.telemetry = session
        if not session.enabled:
            return
        log = self._emission_log()
        self._ticks = 0
        presents, drops = self.hal.presents, self.compositor.drops
        logged_drops = 0

        def after_tick(timestamp: int, index: int) -> None:
            nonlocal logged_drops
            self._ticks += 1
            while logged_drops < len(drops):
                log.append((DROP, logged_drops))
                logged_drops += 1

        for hooks, kind in (
            (self.on_frame_spawned, SPAWN),
            (self.pipeline.on_ui_complete, UI_COMPLETE),
        ):
            hooks.append(lambda frame, kind=kind: log.append((kind, frame.frame_id)))
        self.hal.add_listener(lambda record: log.append((PRESENT, len(presents) - 1)))
        self.compositor.after_tick.append(after_tick)

    # ----------------------------------------------------------- verification
    def _install_verifier(self, verify: "InvariantChecker | bool | None") -> None:
        """Resolve the verify argument; when enabled, log for the checker.

        Disabled verification (the default) registers **nothing**. An
        enabled checker reads the emission log in a result hook, ahead of
        the fault and watchdog annotations.
        """
        from repro.verify.invariants import resolve_checker

        checker = resolve_checker(verify)
        if checker is not None:
            self.verifier = checker
            self._emission_log()
            self.result_hooks.append(self._check_invariants)

    def _log_for_verification(self) -> None:
        """Log presents and ticks behind every other listener (run start)."""
        from repro.verify.invariants import V_PRESENT, V_TICK

        log, presents = self._emissions, self.hal.presents
        self.hal.add_listener(lambda record: log.append((V_PRESENT, len(presents) - 1)))
        self.compositor.after_tick.append(
            lambda time, index: log.append(
                (V_TICK, (time, self.hw_vsync.period, *self._queue_state()))
            )
        )

    def _check_invariants(self, result: RunResult) -> None:
        from repro.verify.invariants import V_END

        dtv = getattr(self, "dtv", None)
        pending = None if dtv is None else dtv.pending_frame_ids
        self._emissions.append((V_END, (*self._queue_state(), pending)))
        self.verifier.check(result, self._emissions)

    # ------------------------------------------------------------------ hooks
    def _frame_by_id(self, frame_id: int) -> FrameRecord | None:
        return self._frames_by_id.get(frame_id)

    def _expects_content(self) -> bool:
        return self.pipeline.frames_in_flight > 0

    def _after_tick(self, timestamp: int, index: int) -> None:
        if (
            self._driver_done
            and self.pipeline.frames_in_flight == 0
            and self.buffer_queue.queued_depth == 0
        ):
            self.hw_vsync.stop()

    # -------------------------------------------------------------- frame ops
    def _next_frame_index(self) -> int:
        return self._frame_counter

    def _mark_driver_done(self) -> None:
        self._driver_done = True

    def _spawn_frame(self, content_timestamp: int, decoupled: bool) -> FrameRecord:
        """Create frame records and hand the frame to the pipeline."""
        index = self._frame_counter
        self._frame_counter += 1
        workload = self.driver.make_workload(index, content_timestamp)
        for workload_filter in self.workload_filters:
            workload = workload_filter(workload, self.sim.now)
        frame = FrameRecord(
            frame_id=index,
            workload=workload,
            trigger_time=self.sim.now,
            content_timestamp=content_timestamp,
            decoupled=decoupled,
        )
        frame.content_value = self._content_value_for(frame)
        self.frames.append(frame)
        self._frames_by_id[index] = frame
        self.pipeline.start_frame(frame)
        for hook in list(self.on_frame_spawned):
            hook(frame)
        return frame

    def _content_value_for(self, frame: FrameRecord) -> float | None:
        """What the app draws in this frame.

        Animations sample their motion curve at the content timestamp (they
        are deterministic functions of time). Interactions can only use input
        observed by *now*; the D-VSync scheduler overrides this to route
        interactive frames through the IPL.
        """
        if frame.workload.category is FrameCategory.PREDICTABLE_INTERACTION:
            samples = self._observe_input(self.sim.now)
            return samples[-1][1] if samples else None
        return self.driver.true_value(frame.content_timestamp)

    def _observe_input(self, up_to: int) -> list[tuple[int, float]]:
        """Driver input stream as the scheduler sees it, after fault filters."""
        samples = self.driver.observe_input(up_to)
        for input_filter in self.input_filters:
            samples = input_filter(samples, up_to)
        return samples

    # --------------------------------------------------------------- run loop
    @abc.abstractmethod
    def _kick(self) -> None:
        """Arm the first frame trigger; subclasses define the policy."""

    def _finalize_result(self, result: RunResult) -> None:
        """Attach subclass-specific statistics to a finished result.

        The template-method half of the unified :meth:`run` contract:
        subclasses override this (not ``run``) to annotate ``result.extra``.
        """

    def run(self, start_time: int = 0, horizon: int | None = None) -> RunResult:
        """Execute the scenario to completion and return the run result.

        This is the one run signature every scheduler shares; subclasses
        inherit it unchanged and customize via :meth:`_finalize_result`.
        """
        telemetry = self.telemetry
        recording = telemetry is not None and telemetry.enabled
        if self.verifier is not None:
            self._log_for_verification()
        self.driver.begin(start_time)
        self._started = True
        self.hw_vsync.start(start_time)
        self._kick()
        events_before = self.sim.events_processed
        self.sim.run(until=horizon, max_events=_MAX_EVENTS)
        self.hw_vsync.stop()
        result = RunResult(
            scheduler=self.scheduler_name,
            scenario=self.driver.name,
            device=self.device,
            buffer_count=self.buffer_count,
            frames=self.frames,
            drops=list(self.compositor.drops),
            presents=list(self.hal.presents),
            start_time=start_time,
            end_time=self.sim.now,
            ui_busy_ns=self.pipeline.ui_thread.total_busy_ns,
            render_busy_ns=self.pipeline.render_thread.total_busy_ns,
            gpu_busy_ns=self.pipeline.gpu.total_busy_ns,
            scheduler_overhead_ns=self.scheduler_overhead_ns,
        )
        if self.hal.contained_errors:
            result.extra["contained_exceptions"] = [
                [c.time, c.listener, c.error] for c in self.hal.contained_errors
            ]
        self._finalize_result(result)
        if recording:
            from repro.telemetry.session import record_emissions

            events = self.sim.events_processed - events_before
            record_emissions(telemetry, result, self._emissions, self._ticks, events)
            result.telemetry = telemetry.snapshot(
                f"{self.scheduler_name}@{self.driver.name}"
            )
        for hook in list(self.result_hooks):
            hook(result)
        if self.verifier is not None:
            self.verifier.enforce(result)
        return result
