"""The discrete-event simulator that drives every experiment.

The :class:`Simulator` is a classic event-queue kernel: components schedule
callbacks at absolute or relative nanosecond times, and :meth:`Simulator.run`
pops them in timestamp order, advancing the clock instantaneously between
events. There is no notion of wall-clock time; "CPU work" is modelled by
scheduling a completion event ``duration`` nanoseconds ahead (see
:class:`repro.pipeline.threads.SimThread`).

Determinism guarantees:

- events at the same timestamp fire in scheduling order (FIFO tie-break);
- the queue holds integer times only, so no float rounding can reorder edges;
- all randomness flows through seeded :class:`repro.sim.rng.SeededRng`
  instances, never the global ``random`` module.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.events import Event, EventHandle


def max_events_diagnostic(limit: int, time: int, seq: int) -> str:
    """Shared trip diagnostic naming the offending event.

    Used by both the :meth:`Simulator.run` safety valve (a
    :class:`SimulationError`) and the resource governor's
    :class:`~repro.exec.governor.BudgetGuard` (a
    :class:`~repro.errors.BudgetExceededError`), so every caller reports the
    tripping event's sim-time and scheduling seq — the coordinates that make
    a trip reproducible and cross-engine comparable.
    """
    return f"exceeded max_events={limit} at t={time} ns (event seq {seq})"


class Simulator:
    """A deterministic discrete-event simulation kernel.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule_at(100, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [100]
    """

    def __init__(self, start_time: int = 0) -> None:
        self._now = start_time
        self._queue: list[Event] = []
        self._seq = 0
        self._running = False
        self._events_processed = 0
        # Opt-in containment: when set, a callback exception is passed to the
        # handler as (time, exception); returning True swallows it and the
        # event loop continues. None (the default) preserves fail-fast
        # semantics — any callback exception aborts the run.
        self.exception_handler: Callable[[int, Exception], bool] | None = None
        # Opt-in governance: any object with on_event(time, seq) — in
        # practice a repro.exec.governor.BudgetGuard (duck-typed so this
        # kernel never imports the execution layer). run()/step() call it
        # once per executed event, before the callback fires; it raises
        # BudgetExceededError at a deterministic trip point.
        self.budget_guard = None

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled tombstones)."""
        return len(self._queue)

    def schedule_at(self, time: int, callback: Callable[[], Any]) -> EventHandle:
        """Schedule *callback* at absolute *time* (ns) and return its handle.

        Scheduling strictly in the past raises :class:`SimulationError`;
        scheduling at the current instant is allowed and fires after the
        currently-executing event returns.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} ns: simulation time is already {self._now} ns"
            )
        event = Event(time=time, seq=self._seq, callback=callback)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def schedule(self, delay: int, callback: Callable[[], Any]) -> EventHandle:
        """Schedule *callback* to fire *delay* nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def call_soon(self, callback: Callable[[], Any]) -> EventHandle:
        """Schedule *callback* at the current instant, after pending same-time events."""
        return self.schedule_at(self._now, callback)

    def run(self, until: int | None = None, max_events: int | None = None) -> None:
        """Run the event loop.

        Args:
            until: Stop once the clock would pass this absolute time; events
                at exactly ``until`` still fire, and the clock is left at
                ``until`` if the queue drains earlier.
            max_events: Safety valve — raise :class:`SimulationError` after
                this many callbacks, catching accidental infinite feedback
                loops in scheduler logic.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        self._running = True
        executed = 0
        try:
            while self._queue:
                event = self._queue[0]
                if event.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and event.time > until:
                    break
                heapq.heappop(self._queue)
                self._now = event.time
                if self.budget_guard is not None:
                    self.budget_guard.on_event(event.time, event.seq)
                self._execute(event)
                self._events_processed += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        "run() "
                        + max_events_diagnostic(max_events, event.time, event.seq)
                        + "; likely a scheduling feedback loop"
                    )
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns True if an event ran, False if the queue was empty. Like
        :meth:`run`, ``step`` is not re-entrant: calling it from inside a
        callback (while ``run()`` or another ``step()`` is executing) would
        advance ``now`` underneath the outer loop, so it raises
        :class:`SimulationError` instead.
        """
        if self._running:
            raise SimulationError(
                "simulator is already running (re-entrant step() call)"
            )
        self._running = True
        try:
            while self._queue:
                event = heapq.heappop(self._queue)
                if event.cancelled:
                    continue
                self._now = event.time
                if self.budget_guard is not None:
                    self.budget_guard.on_event(event.time, event.seq)
                self._execute(event)
                self._events_processed += 1
                return True
            return False
        finally:
            self._running = False

    def _execute(self, event: Event) -> None:
        """Run one event's callback, containing the exception if a handler
        accepts it; the event counts as fired either way."""
        try:
            event.callback()
        except Exception as exc:
            if self.exception_handler is None or not self.exception_handler(
                self._now, exc
            ):
                raise
        finally:
            event.fired = True

    def drain_cancelled(self) -> int:
        """Remove cancelled tombstones from the queue; returns how many."""
        before = len(self._queue)
        live = [e for e in self._queue if not e.cancelled]
        heapq.heapify(live)
        self._queue = live
        return before - len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self._now} ns, pending={len(self._queue)})"
