"""Tests for the BufferQueue producer-consumer contract."""

import pytest

from repro.errors import BufferQueueError
from repro.graphics.buffer import BufferState
from repro.graphics.bufferqueue import BufferQueue


def make_queue(capacity=3):
    return BufferQueue(capacity=capacity, buffer_bytes=1024)


def test_capacity_minimum():
    with pytest.raises(BufferQueueError):
        make_queue(capacity=1)


def test_buffer_bytes_positive():
    with pytest.raises(BufferQueueError):
        BufferQueue(capacity=3, buffer_bytes=0)


def test_dequeue_until_empty():
    queue = make_queue(capacity=3)
    assert queue.try_dequeue() is not None
    assert queue.try_dequeue() is not None
    assert queue.try_dequeue() is not None
    assert queue.try_dequeue() is None
    assert queue.free_count == 0
    assert queue.dequeued_count == 3


def test_queue_and_acquire_fifo():
    queue = make_queue(capacity=3)
    first = queue.try_dequeue()
    second = queue.try_dequeue()
    queue.queue(first, frame_id=1, content_timestamp=10, render_rate_hz=60, now=10)
    queue.queue(second, frame_id=2, content_timestamp=20, render_rate_hz=60, now=20)
    assert queue.queued_depth == 2
    assert queue.acquire().frame_id == 1
    assert queue.acquire().frame_id == 2


def test_acquire_releases_previous_front():
    queue = make_queue(capacity=2)
    a = queue.try_dequeue()
    queue.queue(a, frame_id=1, content_timestamp=0, render_rate_hz=60, now=0)
    front = queue.acquire()
    assert queue.front is front
    b = queue.try_dequeue()
    queue.queue(b, frame_id=2, content_timestamp=1, render_rate_hz=60, now=1)
    queue.acquire()
    assert a.state is BufferState.FREE
    assert queue.front is b


def test_acquire_empty_raises():
    with pytest.raises(BufferQueueError):
        make_queue().acquire()


def test_foreign_buffer_rejected():
    queue_a = make_queue()
    queue_b = make_queue()
    stranger = queue_b.try_dequeue()
    with pytest.raises(BufferQueueError):
        queue_a.queue(stranger, frame_id=1, content_timestamp=0, render_rate_hz=60, now=0)


def test_cancel_returns_slot():
    queue = make_queue(capacity=2)
    buffer = queue.try_dequeue()
    assert queue.free_count == 1
    queue.cancel(buffer)
    assert queue.free_count == 2


def test_cancel_queued_buffer_raises():
    queue = make_queue()
    buffer = queue.try_dequeue()
    queue.queue(buffer, frame_id=1, content_timestamp=0, render_rate_hz=60, now=0)
    with pytest.raises(BufferQueueError):
        queue.cancel(buffer)


def test_on_slot_freed_hook_fires_on_acquire_release():
    queue = make_queue(capacity=2)
    freed = []
    queue.on_slot_freed.append(lambda: freed.append(True))
    a = queue.try_dequeue()
    queue.queue(a, frame_id=1, content_timestamp=0, render_rate_hz=60, now=0)
    queue.acquire()  # no previous front: nothing freed
    assert freed == []
    b = queue.try_dequeue()
    queue.queue(b, frame_id=2, content_timestamp=1, render_rate_hz=60, now=1)
    queue.acquire()  # releases a
    assert freed == [True]


def test_on_slot_freed_hook_fires_on_cancel():
    queue = make_queue()
    freed = []
    queue.on_slot_freed.append(lambda: freed.append(True))
    queue.cancel(queue.try_dequeue())
    assert freed == [True]


def test_stats_track_depth_and_totals():
    queue = make_queue(capacity=4)
    for frame_id in range(3):
        buffer = queue.try_dequeue()
        queue.queue(buffer, frame_id=frame_id, content_timestamp=0, render_rate_hz=60, now=0)
    assert queue.max_queued_depth == 3
    assert queue.total_queued == 3
    queue.acquire()
    assert queue.total_acquired == 1


def test_memory_accounting():
    queue = BufferQueue(capacity=5, buffer_bytes=10 * 1024 * 1024)
    assert queue.memory_bytes == 5 * 10 * 1024 * 1024


def test_peek_does_not_remove():
    queue = make_queue()
    buffer = queue.try_dequeue()
    queue.queue(buffer, frame_id=1, content_timestamp=0, render_rate_hz=60, now=0)
    assert queue.peek_queued() is buffer
    assert queue.queued_depth == 1
