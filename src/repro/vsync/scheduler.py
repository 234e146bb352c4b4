"""The baseline VSync rendering architecture (§2, Fig 2).

Every frame is triggered by a software VSync-app signal derived from the
screen's HW-VSync: the app requests the next callback while its animation is
live, and a frame's content timestamp is the VSync tick that triggered it.
If the UI thread is still busy with the previous frame when the tick arrives,
the tick is skipped (Android's "Skipped frames!" behaviour). Backpressure
from the triple-buffered queue stalls the render thread, producing the buffer
stuffing of §3.3.

This scheduler is the control arm of every experiment.
"""

from __future__ import annotations

from repro.display.device import DeviceProfile
from repro.display.vsync import VsyncOffsets
from repro.pipeline.driver import ScenarioDriver
from repro.pipeline.scheduler_base import SchedulerBase
from repro.sim.engine import Simulator


class VSyncScheduler(SchedulerBase):
    """Classic VSync frame scheduling: one trigger opportunity per tick."""

    scheduler_name = "vsync"

    def __init__(
        self,
        driver: ScenarioDriver,
        device: DeviceProfile,
        buffer_count: int | None = None,
        *,
        offsets: VsyncOffsets | None = None,
        sim: Simulator | None = None,
        telemetry=None,
        verify=None,
    ) -> None:
        super().__init__(
            driver,
            device,
            buffer_count,
            offsets=offsets,
            sim=sim,
            telemetry=telemetry,
            verify=verify,
        )
        self.skipped_ticks = 0

    def _kick(self) -> None:
        self.app_channel.request_callback(self._on_vsync_app)

    def _on_vsync_app(self, timestamp: int, index: int) -> None:
        if self._driver_done:
            return
        if self.driver.finished(self.sim.now):
            self._mark_driver_done()
            return
        if self.driver.wants_frame(timestamp, self.sim.now):
            if self.pipeline.ui_idle and self.pipeline.render_backlog <= 1:
                self._spawn_frame(content_timestamp=timestamp, decoupled=False)
            else:
                # Lockstep pipeline: either the UI thread is still on the
                # previous frame, or the render stage is more than one frame
                # behind (the UI thread would block in syncAndDrawFrame).
                # This tick produces no frame and animation time advances.
                self.skipped_ticks += 1
        # Idle gaps between animation bursts produce no frame; keep listening
        # for the next burst's input until the scenario ends.
        self.app_channel.request_callback(self._on_vsync_app)
