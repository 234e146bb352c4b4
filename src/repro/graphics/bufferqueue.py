"""The producer–consumer BufferQueue (§2).

The buffer queue is the contract between the rendering service (producer) and
the screen (consumer): a FIFO of rendered buffers plus a pool of free slots.
Capacity is the knob both architectures turn —

- VSync triple buffering: 3 slots (1 front + 2 back) on Android/iOS;
- OpenHarmony default: 4 slots;
- D-VSync: up to 5 or 7 slots so short frames can accumulate (§4.3, Fig 11).

The queue itself is policy-free: *when* buffers are dequeued and queued is
decided by the schedulers in :mod:`repro.vsync` and :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import BufferQueueError
from repro.graphics.buffer import BufferState, FrameBuffer


class BufferQueue:
    """FIFO frame-buffer queue with a fixed slot pool.

    The ``on_slot_freed`` hooks fire when a slot returns to the pool (the
    event the FPE's sync stage waits on), so producers need not poll.
    """

    def __init__(self, capacity: int, buffer_bytes: int) -> None:
        if capacity < 2:
            raise BufferQueueError(f"capacity must be >= 2 (front + back), got {capacity}")
        if buffer_bytes <= 0:
            raise BufferQueueError(f"buffer_bytes must be positive, got {buffer_bytes}")
        self.capacity = capacity
        self.buffer_bytes = buffer_bytes
        self._slots = [FrameBuffer(slot=i, size_bytes=buffer_bytes) for i in range(capacity)]
        self._queued_fifo: list[FrameBuffer] = []
        self._front: FrameBuffer | None = None
        self.on_slot_freed: list[Callable[[], None]] = []
        self.max_queued_depth = 0
        self.total_queued = 0
        self.total_acquired = 0
        # Fault-injection seam (repro.faults): when set, ``try_dequeue``
        # consults the gate first and reports allocation failure (returns
        # None) whenever it answers False — gralloc/ion allocation pressure.
        # Whoever denies the dequeue is responsible for scheduling a retry
        # via :meth:`poke_producers`.
        self.dequeue_gate: Callable[[], bool] | None = None
        self.denied_dequeues = 0

    # ------------------------------------------------------------------ state
    @property
    def slots(self) -> tuple[FrameBuffer, ...]:
        """All buffer slots (for inspection and memory accounting)."""
        return tuple(self._slots)

    @property
    def queued_depth(self) -> int:
        """Number of rendered buffers waiting for display."""
        return len(self._queued_fifo)

    @property
    def front(self) -> FrameBuffer | None:
        """The buffer currently on screen, if any."""
        return self._front

    @property
    def free_count(self) -> int:
        """Number of FREE slots available to producers."""
        return sum(1 for b in self._slots if b.state is BufferState.FREE)

    @property
    def dequeued_count(self) -> int:
        """Number of slots currently being rendered into."""
        return sum(1 for b in self._slots if b.state is BufferState.DEQUEUED)

    @property
    def memory_bytes(self) -> int:
        """Total graphics memory pinned by this queue (§6.4)."""
        return self.capacity * self.buffer_bytes

    def peek_queued(self) -> FrameBuffer | None:
        """The oldest queued buffer (next to be latched), without removing it."""
        return self._queued_fifo[0] if self._queued_fifo else None

    # --------------------------------------------------------------- producer
    def try_dequeue(self) -> FrameBuffer | None:
        """Hand a FREE slot to the producer, or None if the pool is empty.

        A configured :attr:`dequeue_gate` may also deny the allocation even
        while free slots exist (injected buffer pressure); denials are counted
        in :attr:`denied_dequeues`.
        """
        if self.dequeue_gate is not None and not self.dequeue_gate():
            self.denied_dequeues += 1
            return None
        for buffer in self._slots:
            if buffer.state is BufferState.FREE:
                buffer.mark_dequeued()
                return buffer
        return None

    def poke_producers(self) -> None:
        """Fire the slot-freed hooks so stalled producers retry a dequeue.

        Used by fault models after a denied allocation: the pipeline parks in
        its dequeue-wait state and only wakes on this notification.
        """
        self._notify_freed()

    def queue(
        self,
        buffer: FrameBuffer,
        frame_id: int,
        content_timestamp: int,
        render_rate_hz: int,
        now: int,
    ) -> None:
        """Publish a rendered buffer to the display FIFO."""
        if buffer not in self._slots:
            raise BufferQueueError(f"buffer slot {buffer.slot} does not belong to this queue")
        buffer.mark_queued(frame_id, content_timestamp, render_rate_hz, now)
        self._queued_fifo.append(buffer)
        self.total_queued += 1
        self.max_queued_depth = max(self.max_queued_depth, len(self._queued_fifo))

    def cancel(self, buffer: FrameBuffer) -> None:
        """Return a DEQUEUED buffer to the pool without queueing it."""
        if buffer.state is not BufferState.DEQUEUED:
            raise BufferQueueError(
                f"only dequeued buffers can be cancelled, slot {buffer.slot} is "
                f"{buffer.state.value}"
            )
        buffer.mark_free()
        self._notify_freed()

    # --------------------------------------------------------------- consumer
    def acquire(self) -> FrameBuffer:
        """Latch the oldest queued buffer as the new front buffer.

        The previous front buffer (if any) is released back to the pool, which
        is exactly the swap that happens on a HW-VSync edge (§2). Raises if
        nothing is queued — the consumer must check :attr:`queued_depth` (that
        situation is a jank, handled by the compositor, not the queue).
        """
        if not self._queued_fifo:
            raise BufferQueueError("acquire() with an empty queue: this VSync is a jank")
        buffer = self._queued_fifo.pop(0)
        buffer.mark_acquired()
        previous = self._front
        self._front = buffer
        self.total_acquired += 1
        if previous is not None:
            previous.mark_free()
            self._notify_freed()
        return buffer

    def _notify_freed(self) -> None:
        for hook in list(self.on_slot_freed):
            hook()
