"""Display Time Virtualizer (DTV, §4.4).

DTV answers one question for every frame the FPE triggers: *when will this
frame actually reach the screen?* It models the deterministic behaviour of
the rendering system — the HAL consumes the queue in FIFO order once per
VSync period, the queue occupancy and the period are always known — and
predicts the frame's present time. The frame then renders its content against
the **D-Timestamp**: the present prediction back-dated by the architecture's
steady pipeline depth, so apps keep the exact content-time convention they
had under VSync (a frame's content always represents "present minus two
periods"). Animations sampled at D-Timestamps therefore pace uniformly no
matter how far ahead the frame was rendered.

The model is calibrated against real present fences every frame to avoid
error accumulation, and skips VSync periods after residual frame drops
(elasticity, §5.1).
"""

from __future__ import annotations

import dataclasses

from repro.display.hal import PresentRecord
from repro.display.vsync import HWVsyncSource
from repro.graphics.bufferqueue import BufferQueue
from repro.pipeline.stages import RenderPipeline


@dataclasses.dataclass(frozen=True)
class DisplayPrediction:
    """DTV's output for one triggered frame."""

    d_timestamp: int
    predicted_present: int


class DisplayTimeVirtualizer:
    """Predicts per-frame display times and calibrates against present fences."""

    # EWMA smoothing for the execution-time estimate used to pick the first
    # reachable latch tick.
    _EWMA_ALPHA = 0.25

    def __init__(
        self,
        source: HWVsyncSource,
        buffer_queue: BufferQueue,
        pipeline: RenderPipeline,
        pipeline_depth_periods: int = 2,
    ) -> None:
        self.source = source
        self.buffer_queue = buffer_queue
        self.pipeline = pipeline
        self.pipeline_depth_periods = pipeline_depth_periods
        self._exec_estimate_ns = source.period // 2
        self._last_committed_present: int | None = None
        # Calibration may move the committed slot backward (a frame displayed
        # earlier than predicted), but issued content time must never run
        # backward — an animation that jumps back is exactly the "chaotic
        # content" failure §7 warns about. Instead of jumping, the issued
        # D-Timestamp slews: it advances by at least a quarter period per
        # frame until the model converges.
        self._last_issued_d_ts: int | None = None
        self._pending: dict[int, int] = {}  # frame_id -> predicted present
        self.pacing_errors_ns: list[int] = []
        self.calibrations = 0
        self.skipped_periods = 0
        self.predictions_made = 0

    @property
    def exec_estimate_ns(self) -> int:
        """Current EWMA estimate of trigger-to-queue execution time."""
        return self._exec_estimate_ns

    def preview(self, now: int) -> DisplayPrediction:
        """Predict display timing for a frame triggered at *now* (no commit).

        The prediction walks the deterministic consumption model: the frame's
        buffer joins the FIFO behind every currently undisplayed frame, the
        HAL latches one buffer per tick, and the content becomes visible one
        period after its latch.
        """
        period = self.source.period
        next_tick = self.source.next_tick_time()
        if next_tick <= now:
            next_tick += period
        ready = now + self._exec_estimate_ns
        first_latch = next_tick
        while first_latch <= ready:
            first_latch += period
        occupancy = self.buffer_queue.queued_depth + self.pipeline.frames_in_flight
        predicted_latch = first_latch + occupancy * period
        predicted_present = predicted_latch + period
        if self._last_committed_present is not None:
            predicted_present = max(
                predicted_present, self._last_committed_present + period
            )
        d_timestamp = predicted_present - self.pipeline_depth_periods * period
        if self._last_issued_d_ts is not None:
            d_timestamp = max(d_timestamp, self._last_issued_d_ts + period // 4)
        return DisplayPrediction(d_timestamp=d_timestamp, predicted_present=predicted_present)

    @property
    def pending_frame_ids(self) -> tuple[int, ...]:
        """Frames tracked for calibration whose present fence has not landed."""
        return tuple(self._pending)

    def commit(self, prediction: DisplayPrediction) -> None:
        """Reserve the predicted slot so later frames pace behind it."""
        self._last_committed_present = prediction.predicted_present
        self._last_issued_d_ts = prediction.d_timestamp
        self.predictions_made += 1

    def predict(self, now: int) -> DisplayPrediction:
        """Preview and immediately commit (convenience for simple callers)."""
        prediction = self.preview(now)
        self.commit(prediction)
        return prediction

    def track(self, frame_id: int, prediction: DisplayPrediction) -> None:
        """Remember a prediction so the matching present fence calibrates it."""
        self._pending[frame_id] = prediction.predicted_present

    def on_present(self, record: PresentRecord) -> None:
        """Calibrate the model with an actual present fence.

        A positive error means the frame displayed later than predicted
        (a residual drop pushed it back); the model shifts its committed slot
        forward so future D-Timestamps skip the lost periods.
        """
        predicted = self._pending.pop(record.frame_id, None)
        if predicted is None:
            return
        error = record.present_time - predicted
        self.pacing_errors_ns.append(error)
        if error != 0:
            self.calibrations += 1
            if self._last_committed_present is not None:
                self._last_committed_present += error
            if error > 0:
                self.skipped_periods += round(error / record.refresh_period)

    def observe_execution(self, execution_ns: int) -> None:
        """Fold a completed frame's execution time into the EWMA estimate."""
        if execution_ns <= 0:
            return
        self._exec_estimate_ns = round(
            (1 - self._EWMA_ALPHA) * self._exec_estimate_ns + self._EWMA_ALPHA * execution_ns
        )

    def on_rate_change(self, old_period: int, new_period: int) -> None:
        """Re-anchor the model when LTPO switches the refresh rate.

        Committed slots are absolute times and remain valid; future
        predictions pick up the new period from the VSync source. The
        monotonic floor is reset so the first post-switch frame aligns to the
        new tick grid rather than the old ``last + old_period`` spacing.
        """
        del old_period, new_period
        self._last_committed_present = None

    def mean_abs_pacing_error_ns(self) -> float:
        """Mean |present - predicted| across calibrated frames."""
        if not self.pacing_errors_ns:
            return 0.0
        return sum(abs(e) for e in self.pacing_errors_ns) / len(self.pacing_errors_ns)
