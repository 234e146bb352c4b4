"""Per-frame records and workload descriptions.

A :class:`FrameWorkload` is what a scenario *demands* for one frame: stage
durations and the frame's category (Fig 9 taxonomy). A :class:`FrameRecord`
is what the pipeline *observed*: every timestamp from trigger to present
fence. All analysis in :mod:`repro.metrics` is computed from these records,
the same way the paper's scripts post-process Perfetto traces.
"""

from __future__ import annotations

import dataclasses
import enum


class FrameCategory(enum.Enum):
    """Frame taxonomy from the paper's scope study (Fig 9).

    - ``DETERMINISTIC_ANIMATION`` (~85 % of frames): animations following a
      click; pre-renderable with no app changes (oblivious channel).
    - ``PREDICTABLE_INTERACTION`` (~10 %): a fingertip is on the screen and
      its motion is predictable; pre-renderable via the IPL (aware channel).
    - ``REALTIME`` (~5 %): sensor/online data (camera, PvP games); D-VSync
      stays off and frames take the traditional VSync path.
    """

    DETERMINISTIC_ANIMATION = "deterministic_animation"
    PREDICTABLE_INTERACTION = "predictable_interaction"
    REALTIME = "realtime"

    @property
    def decouplable(self) -> bool:
        """True if the FPE may pre-render frames of this category at all."""
        return self is not FrameCategory.REALTIME

    @property
    def needs_input_prediction(self) -> bool:
        """True if pre-rendering requires the Input Prediction Layer."""
        return self is FrameCategory.PREDICTABLE_INTERACTION


@dataclasses.dataclass(frozen=True, slots=True)
class FrameWorkload:
    """Execution demand of one frame.

    Attributes:
        ui_ns: App UI-thread logic duration (input handling, layout, anims).
        render_ns: Render-thread / render-service CPU duration.
        gpu_ns: GPU duration after CPU submission (games trace both, §6.1).
        category: Fig 9 category of this frame.
    """

    ui_ns: int
    render_ns: int
    gpu_ns: int = 0
    category: FrameCategory = FrameCategory.DETERMINISTIC_ANIMATION

    def __post_init__(self) -> None:
        if self.ui_ns < 0 or self.render_ns < 0 or self.gpu_ns < 0:
            raise ValueError("stage durations must be non-negative")

    @property
    def total_ns(self) -> int:
        """Critical-path duration of the frame (UI + render + GPU)."""
        return self.ui_ns + self.render_ns + self.gpu_ns


@dataclasses.dataclass(slots=True)
class FrameRecord:
    """Observed lifecycle of one frame through the pipeline.

    Timestamps are ns, None until the stage happens. ``content_timestamp`` is
    the time the frame's *content* represents: the VSync-app tick under VSync,
    the DTV-issued D-Timestamp under D-VSync. ``content_value`` optionally
    stores what the app drew (e.g. a scroll offset sampled from the motion
    curve at the content timestamp) so experiments can check correctness of
    pacing and input prediction, not just timing.
    """

    frame_id: int
    workload: FrameWorkload
    trigger_time: int
    content_timestamp: int
    decoupled: bool = False
    ui_start: int | None = None
    ui_end: int | None = None
    render_start: int | None = None
    render_end: int | None = None
    gpu_end: int | None = None
    queued_time: int | None = None
    latch_time: int | None = None
    present_time: int | None = None
    buffer_slot: int | None = None
    render_rate_hz: int | None = None
    buffer_wait_ns: int = 0
    content_value: float | None = None
    input_predicted: bool = False

    @property
    def presented(self) -> bool:
        """True once the frame reached the panel."""
        return self.present_time is not None

    @property
    def queue_wait_ns(self) -> int:
        """Time the rendered buffer waited in the queue before latch."""
        if self.queued_time is None or self.latch_time is None:
            return 0
        return self.latch_time - self.queued_time

    @property
    def execution_ns(self) -> int:
        """Trigger-to-queue execution span (includes buffer-wait stalls)."""
        if self.queued_time is None:
            return 0
        return self.queued_time - self.trigger_time

    @property
    def latency_ns(self) -> int:
        """The paper's §6.3 rendering latency for this frame.

        Duration from the frame's execution anchor to its final display: the
        trigger (VSync-app tick) under VSync, the D-Timestamp issue under
        D-VSync — which is ``content_timestamp`` in both cases for decoupled
        frames and ``trigger_time`` otherwise. Falls back to 0 when the frame
        never displayed (end-of-run truncation).
        """
        if self.present_time is None:
            return 0
        anchor = self.content_timestamp if self.decoupled else self.trigger_time
        return max(0, self.present_time - anchor)
