"""Screen hardware-abstraction layer: present fences.

The HAL is the boundary the paper's latency script measures against: a frame's
*present fence* signals when its buffer actually reached the panel (§6.3).
:class:`ScreenHAL` records every present and fans the event out to listeners
(DTV calibration, metrics collectors, LTPO rate logic).
"""

from __future__ import annotations

import dataclasses
from typing import Callable

PresentListener = Callable[["PresentRecord"], None]


@dataclasses.dataclass(frozen=True, slots=True)
class PresentRecord:
    """One buffer reaching the panel.

    Attributes:
        frame_id: Producer-assigned frame identifier.
        present_time: Present-fence timestamp (ns) — the HW-VSync edge at
            which the panel latched the buffer.
        vsync_index: Index of that HW-VSync tick.
        content_timestamp: The timestamp the frame's content represents
            (VSync-app tick under VSync; D-Timestamp under D-VSync).
        queue_depth_after: Buffers still waiting in the queue after the latch.
        refresh_period: Panel period (ns) in effect at this present.
    """

    frame_id: int
    present_time: int
    vsync_index: int
    content_timestamp: int
    queue_depth_after: int
    refresh_period: int


@dataclasses.dataclass(frozen=True)
class ContainedException:
    """One listener exception caught and recorded by the HAL.

    Attributes:
        time: Present-fence timestamp (ns) of the record being dispatched.
        listener: Best-effort name of the raising listener.
        error: ``repr`` of the exception (the object itself is not retained so
            run results stay picklable/comparable).
    """

    time: int
    listener: str
    error: str


class ScreenHAL:
    """Collects present fences and notifies interested components.

    Listener dispatch is *contained*: one raising listener cannot prevent
    later listeners (DTV calibration, metrics collectors) from observing the
    present fence. Contained exceptions are never swallowed silently — each is
    recorded in :attr:`contained_errors` and fanned out to
    :attr:`on_contained` hooks, and schedulers surface the tally in
    ``RunResult.extra``.
    """

    def __init__(self) -> None:
        self.presents: list[PresentRecord] = []
        self._listeners: list[PresentListener] = []
        self.contained_errors: list[ContainedException] = []
        self.on_contained: list[Callable[[PresentRecord, Exception], None]] = []

    def add_listener(self, listener: PresentListener, prepend: bool = False) -> None:
        """Register a callback invoked on every present fence.

        ``prepend`` places the listener ahead of already-registered ones —
        used by crash-injection faults so containment of an early listener is
        actually exercised against the real consumers behind it.
        """
        if prepend:
            self._listeners.insert(0, listener)
        else:
            self._listeners.append(listener)

    def signal_present(self, record: PresentRecord) -> None:
        """Record a present fence and notify listeners (exceptions contained)."""
        self.presents.append(record)
        for listener in list(self._listeners):
            try:
                listener(record)
            except Exception as exc:
                name = getattr(listener, "__qualname__", None) or repr(listener)
                self.contained_errors.append(
                    ContainedException(
                        time=record.present_time, listener=name, error=repr(exc)
                    )
                )
                for hook in list(self.on_contained):
                    hook(record, exc)

    @property
    def presented_count(self) -> int:
        """Total number of distinct buffers presented so far."""
        return len(self.presents)

    def last_present(self) -> PresentRecord | None:
        """The most recent present fence, or None before the first frame."""
        return self.presents[-1] if self.presents else None
