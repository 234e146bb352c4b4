"""The D-VSync scheduler: FPE + DTV + runtime controller + IPL glued onto the
shared rendering pipeline (§4.1, Fig 8).

The only structural difference from :class:`repro.vsync.VSyncScheduler` is
*when frames start*: the Frame Pre-Executor triggers decoupled frames as soon
as resources allow (accumulation stage) or as the screen consumes buffers
(sync stage), and the Display Time Virtualizer stamps each frame with the
D-Timestamp its content must represent. Frames the runtime controller routes
to the traditional channel (REALTIME category, or D-VSync switched off) are
triggered by VSync-app ticks exactly as in the baseline.
"""

from __future__ import annotations

from repro.core.api import DecouplingAPI
from repro.core.config import DVSyncConfig
from repro.core.controller import RuntimeController, TimingMode
from repro.core.dtv import DisplayTimeVirtualizer
from repro.core.fpe import FramePreExecutor
from repro.core.ipl import InputPredictionLayer
from repro.display.device import DeviceProfile
from repro.display.vsync import VsyncOffsets
from repro.pipeline.driver import ScenarioDriver
from repro.pipeline.frame import FrameCategory, FrameRecord
from repro.pipeline.scheduler_base import RunResult, SchedulerBase
from repro.sim.engine import Simulator


class DVSyncScheduler(SchedulerBase):
    """Decoupled rendering and displaying."""

    scheduler_name = "dvsync"

    def __init__(
        self,
        driver: ScenarioDriver,
        device: DeviceProfile,
        config: DVSyncConfig | None = None,
        *,
        offsets: VsyncOffsets | None = None,
        sim: Simulator | None = None,
        telemetry=None,
        verify=None,
    ) -> None:
        self.config = config or DVSyncConfig()
        super().__init__(
            driver,
            device,
            buffer_count=self.config.buffer_count,
            offsets=offsets,
            sim=sim,
            telemetry=telemetry,
            verify=verify,
        )
        self.controller = RuntimeController(
            enabled=self.config.enabled, ipl_enabled=self.config.ipl_enabled
        )
        self.dtv = DisplayTimeVirtualizer(
            self.hw_vsync,
            self.buffer_queue,
            self.pipeline,
            pipeline_depth_periods=self.config.pipeline_depth_periods,
        )
        self.ipl = InputPredictionLayer()
        self.fpe = FramePreExecutor(
            self.buffer_queue,
            self.pipeline,
            self.config.resolved_prerender_limit,
            self._trigger_decoupled,
        )
        self.api = DecouplingAPI(self)
        self.watchdog = None
        self._vsync_armed = False
        self.pipeline.on_ui_complete.append(lambda frame: self._pump())
        self.pipeline.on_frame_queued.append(self._on_frame_queued)
        self.compositor.after_tick.append(lambda t, i: self._pump())
        self.hal.add_listener(self.dtv.on_present)

    # ---------------------------------------------------------------- faults
    def attach_watchdog(self, watchdog) -> None:
        """Wire a :class:`repro.faults.DegradationWatchdog` into this run.

        The watchdog observes pipeline health once per HW-VSync edge and
        drives the §4.5 runtime switch: degrade to classic VSync when the
        decoupled channel misbehaves, re-promote once it is healthy again.
        """
        self.watchdog = watchdog
        watchdog.bind(self)

    # ------------------------------------------------------------- triggering
    def _kick(self) -> None:
        self._pump()

    def _pump(self) -> None:
        """Give the FPE (or the VSync fallback) a trigger opportunity."""
        if self._driver_done or not self._started:
            return
        if self.driver.finished(self.sim.now):
            self._mark_driver_done()
            return
        category = self.driver.frame_category(self._next_frame_index())
        mode = self.controller.mode_for(category)
        if mode is TimingMode.VSYNC:
            self._arm_vsync_fallback()
        else:
            self.fpe.try_trigger()

    def _trigger_decoupled(self) -> bool:
        """FPE trigger body: stamp a D-Timestamp and start the next frame."""
        now = self.sim.now
        prediction = self.dtv.preview(now)
        content_timestamp = prediction.d_timestamp if self.config.dtv_enabled else now
        if not self.driver.wants_frame(content_timestamp, now):
            # Idle gap (or the next burst's input has not arrived): stay
            # armed; the compositor's tick hook pumps again next period.
            return False
        self.dtv.commit(prediction)
        frame = self._spawn_frame(content_timestamp=content_timestamp, decoupled=True)
        if self.verifier is not None:
            self._log_trigger(now, prediction, frame)
        self.dtv.track(frame.frame_id, prediction)
        self.controller.note_routed(TimingMode.DVSYNC)
        self.scheduler_overhead_ns += self.config.per_frame_overhead_ns
        return True

    def _log_trigger(self, now: int, prediction, frame: FrameRecord) -> None:
        """Log a decoupled trigger's DTV commit and FPE state for the checker."""
        from repro.verify.invariants import V_COMMIT, V_SPAWN

        log, fpe = self._emissions, self.fpe
        committed = prediction.predicted_present, prediction.d_timestamp
        depth_ns = self.dtv.pipeline_depth_periods * self.hw_vsync.period
        log.append((V_COMMIT, (now, *committed, depth_ns)))
        log.append((V_SPAWN, (frame.frame_id, fpe.occupancy, fpe.prerender_limit)))

    # ------------------------------------------------------ vsync-path frames
    def _arm_vsync_fallback(self) -> None:
        if self._vsync_armed or self._driver_done or not self._started:
            return
        self._vsync_armed = True
        self.app_channel.request_callback(self._on_vsync_app)

    def _on_vsync_app(self, timestamp: int, index: int) -> None:
        self._vsync_armed = False
        if self._driver_done:
            return
        if self.driver.finished(self.sim.now):
            self._mark_driver_done()
            return
        category = self.driver.frame_category(self._next_frame_index())
        if self.controller.mode_for(category) is TimingMode.DVSYNC:
            # The controller flipped back (runtime switch): resume decoupling.
            self._pump()
            return
        if (
            self.driver.wants_frame(timestamp, self.sim.now)
            and self.pipeline.ui_idle
            and self.pipeline.render_backlog <= 1
        ):
            # Traditional-path frames obey the same lockstep rule as the
            # baseline VSync scheduler.
            self._spawn_frame(content_timestamp=timestamp, decoupled=False)
            self.controller.note_routed(TimingMode.VSYNC)
        else:
            self._arm_vsync_fallback()

    # ----------------------------------------------------------------- hooks
    def _on_frame_queued(self, frame: FrameRecord) -> None:
        # Feed DTV the frame's pure execution critical path. The trigger-to-
        # queue span would double-count waiting behind other frames, which
        # DTV's occupancy term already models.
        self.dtv.observe_execution(frame.workload.total_ns)
        self._pump()

    def _content_value_for(self, frame: FrameRecord) -> float | None:
        if (
            frame.decoupled
            and frame.workload.category is FrameCategory.PREDICTABLE_INTERACTION
        ):
            # IPL corrects the input to its anticipated state at the frame's
            # *display* time (§4.6) — the D-Timestamp plus the architecture's
            # content-to-display convention.
            display_time = frame.content_timestamp + (
                self.config.pipeline_depth_periods * self.hw_vsync.period
            )
            samples = self._observe_input(self.sim.now)
            value = self.ipl.predict(samples, display_time)
            frame.input_predicted = value is not None
            return value
        return super()._content_value_for(frame)

    # ------------------------------------------------------------- finalize
    def _finalize_result(self, result: RunResult) -> None:
        """Attach D-VSync component statistics to a finished run.

        Called by the inherited :meth:`SchedulerBase.run` — this scheduler
        does not override ``run`` (the unified contract).
        """
        result.extra.update(
            {
                "fpe_triggers_accumulation": self.fpe.triggers_in_accumulation,
                "fpe_triggers_sync": self.fpe.triggers_in_sync,
                "prerender_limit": self.fpe.prerender_limit,
                "dtv_predictions": self.dtv.predictions_made,
                "dtv_calibrations": self.dtv.calibrations,
                "dtv_skipped_periods": self.dtv.skipped_periods,
                "dtv_mean_abs_pacing_error_ns": self.dtv.mean_abs_pacing_error_ns(),
                "ipl_predictions": self.ipl.predictions,
                "ipl_fallbacks": self.ipl.fallbacks,
                "ipl_overhead_ns": self.ipl.total_overhead_ns,
                "routed_dvsync": self.controller.routed_dvsync,
                "routed_vsync": self.controller.routed_vsync,
            }
        )
        if self.watchdog is not None:
            result.extra["watchdog"] = self.watchdog.summary(self.sim.now)
