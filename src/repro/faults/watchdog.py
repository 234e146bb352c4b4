"""Graceful-degradation watchdog for the D-VSync runtime switch (§4.5).

The paper exposes a runtime switch so aware apps can fall back to classic
VSync; the watchdog automates that switch for *system health*. Once per
HW-VSync edge it inspects three signals of the decoupled channel:

- **DTV pacing** — mean absolute present-prediction error over a trailing
  window. Persistent error means the D-Timestamp convention is broken and
  content pacing is visibly wrong (the §7 "chaotic content" failure).
- **IPL starvation** — consecutive predictor fallbacks with no successful
  prediction in between: the input stream is too damaged to pre-render
  interactions.
- **Pipeline stall** — no present fence for longer than the stall threshold
  while frames are committed: the pipeline is wedged, not just slow.

Any signal unhealthy for ``trip_after`` consecutive checks demotes the run to
classic VSync via :meth:`RuntimeController.set_enabled`; ``recover_after``
consecutive healthy checks re-promote it (hysteresis, so a borderline run
does not flap every edge). Health while degraded is judged on *new* evidence
only — stale pacing errors from before the demotion cannot pin the run in
VSync forever.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.units import ms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dvsync import DVSyncScheduler


@dataclasses.dataclass(frozen=True)
class WatchdogThresholds:
    """Tunable limits for the degradation decision.

    Attributes:
        pacing_error_ns: Demote when the trailing-window mean absolute DTV
            pacing error exceeds this (default 4 ms — a quarter 60 Hz period).
        pacing_window: Number of trailing pacing errors in the window.
        max_consecutive_ipl_fallbacks: Demote after this many IPL fallbacks
            with no successful prediction in between.
        stall_ns: Demote when no present fence lands for this long while
            frames are committed to the pipeline.
        trip_after: Consecutive unhealthy checks (one per VSync edge) before
            demoting — absorbs single-edge glitches.
        recover_after: Consecutive healthy checks before re-promoting —
            the hysteresis that prevents mode flapping.
    """

    pacing_error_ns: int = ms(4)
    pacing_window: int = 6
    max_consecutive_ipl_fallbacks: int = 4
    stall_ns: int = ms(60)
    trip_after: int = 2
    recover_after: int = 8

    def __post_init__(self) -> None:
        if self.pacing_error_ns <= 0 or self.stall_ns <= 0:
            raise ConfigurationError("watchdog thresholds must be positive durations")
        if self.pacing_window < 1:
            raise ConfigurationError("pacing_window must be >= 1")
        if self.max_consecutive_ipl_fallbacks < 1:
            raise ConfigurationError("max_consecutive_ipl_fallbacks must be >= 1")
        if self.trip_after < 1 or self.recover_after < 1:
            raise ConfigurationError("trip_after and recover_after must be >= 1")


@dataclasses.dataclass(frozen=True)
class DegradationEvent:
    """One watchdog-driven mode change."""

    time: int
    action: str  # "degrade" or "repromote"
    reason: str


class DegradationWatchdog:
    """Monitors a D-VSync run and drives the runtime switch on ill health."""

    def __init__(self, thresholds: WatchdogThresholds | None = None) -> None:
        self.thresholds = thresholds or WatchdogThresholds()
        self.events: list[DegradationEvent] = []
        self.degradations = 0
        self.repromotions = 0
        self.checks = 0
        self.time_in_degraded_ns = 0
        self._scheduler: "DVSyncScheduler | None" = None
        self._degraded_since: int | None = None
        self._unhealthy_streak = 0
        self._healthy_streak = 0
        self._seen_pacing = 0
        self._seen_predictions = 0
        self._seen_fallbacks = 0
        self._consecutive_fallbacks = 0
        self._last_present_count = 0
        self._last_progress_time = 0

    @property
    def degraded(self) -> bool:
        """True while the watchdog has the run demoted to classic VSync."""
        return self._degraded_since is not None

    def bind(self, scheduler: "DVSyncScheduler") -> None:
        """Attach to *scheduler*: one health check per HW-VSync edge."""
        if self._scheduler is not None:
            raise ConfigurationError("a DegradationWatchdog serves exactly one run")
        self._scheduler = scheduler
        self._last_progress_time = scheduler.sim.now
        scheduler.compositor.after_tick.append(self._on_tick)

    # ------------------------------------------------------------- health
    def _unhealthy_reason(self, now: int) -> str | None:
        """New-evidence health verdict; None when everything looks fine."""
        scheduler = self._scheduler
        assert scheduler is not None
        thresholds = self.thresholds

        # DTV pacing: only judged when fresh errors arrived since last check.
        errors = scheduler.dtv.pacing_errors_ns
        if len(errors) > self._seen_pacing:
            self._seen_pacing = len(errors)
            window = errors[-thresholds.pacing_window :]
            mean_abs = sum(abs(e) for e in window) / len(window)
            if mean_abs > thresholds.pacing_error_ns:
                return f"dtv-pacing mean |error| {round(mean_abs)} ns over window"

        # IPL starvation: fallbacks with no successful prediction in between.
        predictions = scheduler.ipl.predictions
        fallbacks = scheduler.ipl.fallbacks
        if predictions > self._seen_predictions:
            self._consecutive_fallbacks = 0
        if fallbacks > self._seen_fallbacks:
            self._consecutive_fallbacks += fallbacks - self._seen_fallbacks
        self._seen_predictions = predictions
        self._seen_fallbacks = fallbacks
        if self._consecutive_fallbacks >= thresholds.max_consecutive_ipl_fallbacks:
            return f"ipl-starvation: {self._consecutive_fallbacks} consecutive fallbacks"

        # Pipeline stall: committed frames but no present for too long.
        presented = scheduler.hal.presented_count
        work_pending = (
            scheduler.pipeline.frames_in_flight > 0
            or scheduler.buffer_queue.queued_depth > 0
        )
        if presented != self._last_present_count or not work_pending:
            self._last_present_count = presented
            self._last_progress_time = now
        elif now - self._last_progress_time > thresholds.stall_ns:
            return f"fpe-stall: no present for {now - self._last_progress_time} ns"

        return None

    # ------------------------------------------------------------- decision
    def _on_tick(self, timestamp: int, index: int) -> None:
        scheduler = self._scheduler
        assert scheduler is not None
        self.checks += 1
        reason = self._unhealthy_reason(timestamp)
        if reason is None:
            self._healthy_streak += 1
            self._unhealthy_streak = 0
        else:
            self._unhealthy_streak += 1
            self._healthy_streak = 0

        if not self.degraded:
            # Respect an app-driven switch-off: only demote a channel we own.
            if (
                reason is not None
                and self._unhealthy_streak >= self.thresholds.trip_after
                and scheduler.controller.enabled
            ):
                self._degrade(timestamp, reason)
        else:
            if self._healthy_streak >= self.thresholds.recover_after:
                self._repromote(timestamp)

    def _degrade(self, now: int, reason: str) -> None:
        scheduler = self._scheduler
        assert scheduler is not None
        scheduler.controller.set_enabled(False, now)
        self._degraded_since = now
        self.degradations += 1
        self.events.append(DegradationEvent(time=now, action="degrade", reason=reason))
        self._healthy_streak = 0
        # Frames must keep flowing on the traditional path immediately.
        scheduler._pump()

    def _repromote(self, now: int) -> None:
        scheduler = self._scheduler
        assert scheduler is not None
        scheduler.controller.set_enabled(True, now)
        if self._degraded_since is not None:
            self.time_in_degraded_ns += now - self._degraded_since
        self._degraded_since = None
        self.repromotions += 1
        self.events.append(
            DegradationEvent(time=now, action="repromote", reason="healthy again")
        )
        self._unhealthy_streak = 0
        self._consecutive_fallbacks = 0
        scheduler._pump()

    # -------------------------------------------------------------- summary
    def summary(self, now: int) -> dict:
        """Watchdog statistics for ``RunResult.extra`` (run-end time *now*)."""
        time_degraded = self.time_in_degraded_ns
        if self._degraded_since is not None:
            time_degraded += now - self._degraded_since
        return {
            "checks": self.checks,
            "degradations": self.degradations,
            "repromotions": self.repromotions,
            "time_in_degraded_ns": time_degraded,
            "degraded_at_end": self.degraded,
            "events": [[e.time, e.action, e.reason] for e in self.events],
        }
