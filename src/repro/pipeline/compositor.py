"""The compositor: buffer consumption at HW-VSync (SurfaceFlinger's role).

At every HW-VSync edge the compositor latches the **oldest** queued buffer
(FIFO, §4.4) as the new front buffer and signals its present fence one period
later, when the panel scan-out actually makes the content visible — this is
the two-period pipeline floor of Fig 2. If nothing is queued while the
producer side still owes frames, the edge is a **jank**: the panel re-displays
the previous frame and a :class:`DropEvent` is recorded.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.display.hal import PresentRecord, ScreenHAL
from repro.display.vsync import HWVsyncSource
from repro.graphics.bufferqueue import BufferQueue
from repro.pipeline.frame import FrameRecord


@dataclasses.dataclass(frozen=True, slots=True)
class DropEvent:
    """One frame drop: a VSync edge with no new content to display."""

    time: int
    vsync_index: int
    queued_depth: int
    frames_in_flight: int


class Compositor:
    """Latches buffers from the queue on each HW-VSync edge."""

    def __init__(
        self,
        source: HWVsyncSource,
        buffer_queue: BufferQueue,
        hal: ScreenHAL,
        frame_lookup: Callable[[int], FrameRecord | None],
        expects_content: Callable[[], bool],
        frames_in_flight: Callable[[], int] = lambda: 0,
    ) -> None:
        self.source = source
        self.buffer_queue = buffer_queue
        self.hal = hal
        self._frame_lookup = frame_lookup
        self._expects_content = expects_content
        self._frames_in_flight = frames_in_flight
        self.drops: list[DropEvent] = []
        self.latches = 0
        self.after_tick: list[Callable[[int, int], None]] = []
        source.add_listener(self._on_hw_vsync)

    @property
    def drop_count(self) -> int:
        """Total janks recorded so far."""
        return len(self.drops)

    def _on_hw_vsync(self, timestamp: int, index: int) -> None:
        head = self.buffer_queue.peek_queued()
        # A buffer queued exactly on the edge misses this latch (strictly
        # earlier arrivals only), matching real swap-in deadline semantics.
        if head is not None and head.queued_at is not None and head.queued_at < timestamp:
            buffer = self.buffer_queue.acquire()
            self.latches += 1
            frame = self._frame_lookup(buffer.frame_id) if buffer.frame_id is not None else None
            present_time = timestamp + self.source.period
            if frame is not None:
                frame.latch_time = timestamp
                frame.present_time = present_time
            self.hal.signal_present(
                PresentRecord(
                    frame_id=buffer.frame_id if buffer.frame_id is not None else -1,
                    present_time=present_time,
                    vsync_index=index,
                    content_timestamp=buffer.content_timestamp or 0,
                    queue_depth_after=self.buffer_queue.queued_depth,
                    refresh_period=self.source.period,
                )
            )
        elif head is not None or self._expects_content():
            # Either a buffer arrived too late for this edge (queued on/after
            # it) or frames are still executing: the producer owed this edge
            # content and the panel repeats the previous frame — a jank.
            self.drops.append(
                DropEvent(
                    time=timestamp,
                    vsync_index=index,
                    queued_depth=self.buffer_queue.queued_depth,
                    frames_in_flight=max(0, self._frames_in_flight()),
                )
            )
        for hook in list(self.after_tick):
            hook(timestamp, index)
