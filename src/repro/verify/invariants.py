"""Invariant checker for finished scheduler runs.

The paper's correctness claims are structural, not statistical: buffers are
conserved through the queue (§2), the compositor consumes it FIFO (§4.4),
D-Timestamps are monotone and bounded by the content-time convention (§4.4,
§7), the FPE never accumulates past the pre-render limit (§4.3, §5.1), and
LTPO rate-bound buffers never let a frame rendered at X Hz display at Y Hz
(§5.3). :class:`InvariantChecker` checks those properties once a run is
over, as a function of the finished :class:`RunResult` and the run's ordered
emission log — the log :func:`repro.telemetry.session.record_emissions`
reads. A verified run adds the ``V_*`` entries below to that log, and either
engine writes them, so a verified run replays. A run without a checker
writes none of them.

Violations are structured :class:`Violation` records attached to
``RunResult.extra["invariants"]``; a *strict* checker additionally raises
:class:`~repro.errors.InvariantViolationError` at the end of the run.
Components that intentionally break an invariant declare it: the fault
injector :meth:`relax`\\ es the checker (violations are expected evidence, not
bugs), and the LTPO co-design ablation :meth:`waive`\\ s the rate-bound check
it exists to violate.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigurationError, InvariantViolationError
from repro.units import period_to_hz

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.compositor import DropEvent
    from repro.pipeline.scheduler_base import RunResult

#: Every invariant the checker can enforce, with its paper anchor. The ids are
#: stable — they appear in violation records, waiver maps, and golden traces.
INVARIANTS = {
    "buffer-conservation": (
        "Queue bookkeeping conserves buffers: slot states partition the pool "
        "and total_queued == total_acquired + queued_depth (§2)."
    ),
    "queue-fifo": (
        "The compositor latches buffers in exactly the order they were "
        "queued (§4.4's FIFO consumption model)."
    ),
    "present-monotone": (
        "Present-fence times strictly increase — the panel never latches two "
        "buffers on one edge (§2)."
    ),
    "present-once": "No frame reaches the panel twice.",
    "content-monotone": (
        "Displayed content timestamps never run backward within a trigger "
        "channel — the §7 'chaotic content' failure."
    ),
    "dts-monotone": (
        "Committed D-Timestamps strictly increase; the DTV slew floor "
        "guarantees forward-only content time (§4.4)."
    ),
    "dts-future-slot": (
        "Every committed display prediction targets a future present slot, "
        "back-dated by at most the pipeline depth (§4.4's content-time "
        "convention)."
    ),
    "accumulation-limit": (
        "The FPE never holds more undisplayed frames than the pre-render "
        "limit when it triggers (§4.3, §5.1)."
    ),
    "rate-bound-display": (
        "A frame rendered for X Hz never presents on a Y Hz panel — the "
        "LTPO co-design drain rule (§5.3)."
    ),
    "dtv-grid-calibration": (
        "With a constant refresh rate, DTV pacing errors are whole VSync "
        "periods: calibration never drifts off the display grid (§4.4)."
    ),
    "drop-accounting": (
        "Every recorded drop was owed content: a queued-late buffer or "
        "frames still in flight (§3.2)."
    ),
    "dtv-tracking": (
        "At run end every still-pending DTV prediction belongs to a frame "
        "that never presented — calibration consumed every present fence "
        "(§4.4)."
    ),
}

#: Cap on *recorded* violations per run; the count keeps counting past it.
_MAX_RECORDED = 200

#: Verification kinds of a run's emission log (DESIGN §10); the checker also
#: reads ``QUEUED``, whose order is the buffer queue's FIFO order. Data:
#: ``V_PRESENT`` a present index; ``V_TICK`` ``(time, period, *queue_state)``
#: after every other tick hook; ``V_IDLE`` the count of no-op ticks the
#: replay skipped after the last ``V_TICK``, in its state; ``V_COMMIT``
#: ``(time, predicted_present, d_timestamp, depth_ns)``; ``V_SPAWN``
#: ``(frame_id, fpe_occupancy, prerender_limit)`` per decoupled spawn;
#: ``V_END`` ``(*queue_state, dtv_pending_ids or None)``. A queue state is
#: ``(queued_slots, fifo_depth, acquired_slots, has_front, total_queued,
#: total_acquired)``.
V_PRESENT, V_TICK, V_IDLE, V_COMMIT, V_SPAWN, V_END = (
    "v-present", "v-tick", "v-idle", "v-commit", "v-spawn", "v-end"
)


@dataclasses.dataclass(frozen=True)
class Violation:
    """One observed breach of a runtime invariant."""

    invariant: str
    time: int
    message: str

    def to_wire(self) -> list:
        return [self.invariant, self.time, self.message]


def resolve_checker(verify) -> "InvariantChecker | None":
    """Resolve a scheduler's ``verify`` argument to a checker (or None).

    ``None`` defers to the process-wide switch (:mod:`repro.verify.runtime`),
    ``False`` disables, ``True`` attaches a fresh non-strict checker, and an
    :class:`InvariantChecker` instance is used as given. A checker serves
    exactly one run, so resolving a used one raises.
    """
    # Imported here, not at module top: the package __init__ re-exports this
    # module, so a top-level ``from repro.verify import runtime`` would cycle.
    from repro.verify import runtime

    if verify is False:
        return None
    if verify is None:
        if not runtime.enabled():
            return None
        return InvariantChecker(strict=runtime.strict())
    if verify is True:
        return InvariantChecker()
    if isinstance(verify, InvariantChecker):
        if verify._claimed:
            raise ConfigurationError(
                "an InvariantChecker serves exactly one run; build a fresh one"
            )
        verify._claimed = True
        return verify
    raise ConfigurationError(
        f"verify must be a bool, None, or an InvariantChecker, got {verify!r}"
    )


class InvariantChecker:
    """Checks the paper-derived invariants over one finished run.

    :meth:`check` reads the run's emission log in order, so violations come
    out in the order the run produced them. Violations recorded before the
    check (a test seeding one, say) stay in the verdict.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.violations: list[Violation] = []
        self.violation_count = 0
        self.checks = 0
        self.waived: dict[str, str] = {}
        self.relaxed: str | None = None
        self._claimed = False

    # ------------------------------------------------------------ exemptions
    def waive(self, invariant: str, reason: str) -> None:
        """Skip one invariant for this run (intentional-breakage ablations)."""
        if invariant not in INVARIANTS:
            raise ConfigurationError(f"unknown invariant {invariant!r}")
        self.waived[invariant] = reason

    def relax(self, reason: str) -> None:
        """Keep recording violations but never raise (fault-injection runs).

        Injected faults legitimately break invariants — off-grid presents
        under VSync jitter, for instance. Those violations are *evidence*
        the fault landed, so they stay in the record; they are just not
        treated as library bugs.
        """
        self.relaxed = reason

    # -------------------------------------------------------------- recording
    def _record(self, invariant: str, time: int, message: str) -> None:
        self.violation_count += 1
        if len(self.violations) < _MAX_RECORDED:
            self.violations.append(
                Violation(invariant=invariant, time=time, message=message)
            )

    # ----------------------------------------------------------------- check
    def check(self, result: "RunResult", log: Iterable[tuple]) -> None:
        """Check *result* against its emission *log*; annotate the verdict."""
        from repro.telemetry.session import QUEUED

        waived, record, frames = self.waived, self._record, result.frames
        drops = result.drops
        latch_order: collections.deque[int] = collections.deque()
        presented: set[int] = set()
        last_content: dict[bool, int] = {}
        last_present = last_d_ts = committed = None
        tracked: dict[int, int] = {}  # frame id -> committed present (the DTV's)
        pacing: list[int] = []  # DTV pacing errors since the last tick
        periods: set[int] = set()
        drops_seen = 0
        tick: tuple = ()
        for kind, data in log:
            if kind == QUEUED:
                latch_order.append(data)
            elif kind == V_PRESENT:
                present = result.presents[data]
                time, frame_id = present.present_time, present.frame_id
                if "present-monotone" not in waived:
                    self.checks += 1
                    if last_present is not None and time <= last_present:
                        message = f"present at {time} after present at {last_present}"
                        record("present-monotone", time, message)
                last_present = time
                if "queue-fifo" not in waived:
                    self.checks += 1
                    if not latch_order:
                        message = f"frame {frame_id} presented but nothing was queued"
                        record("queue-fifo", time, message)
                    elif frame_id != (expected := latch_order.popleft()):
                        message = f"frame {frame_id} latched before frame {expected}"
                        record("queue-fifo", time, message)
                if "present-once" not in waived:
                    self.checks += 1
                    if frame_id in presented:
                        message = f"frame {frame_id} presented twice"
                        record("present-once", time, message)
                    presented.add(frame_id)
                # The DTV's calibration: a tracked frame's pacing error.
                if (predicted := tracked.pop(frame_id, None)) is not None:
                    pacing.append(time - predicted)
                if not 0 <= frame_id < len(frames):
                    continue
                frame = frames[frame_id]
                rate = frame.render_rate_hz
                if "rate-bound-display" not in waived and rate:
                    self.checks += 1
                    panel_hz = round(period_to_hz(present.refresh_period))
                    if rate != panel_hz:
                        message = (
                            f"frame {frame_id} rendered at {rate} Hz displayed "
                            f"on a {panel_hz} Hz panel"
                        )
                        record("rate-bound-display", time, message)
                if "content-monotone" not in waived:
                    self.checks += 1
                    content = frame.content_timestamp
                    last = last_content.get(frame.decoupled)
                    if last is not None and content < last:
                        channel = "decoupled" if frame.decoupled else "vsync"
                        message = f"content time ran backward: {content} after {last}"
                        record("content-monotone", time, f"{channel} {message}")
                    last_content[frame.decoupled] = content
            elif kind == V_TICK:
                tick = data
                time, period = data[0], data[1]
                periods.add(period)
                self._check_conservation(time, data[2:])
                while drops_seen < len(drops) and drops[drops_seen].time <= time:
                    self._check_drop(drops[drops_seen])
                    drops_seen += 1
                # A rate switch re-anchors the grid; the modular check only
                # holds while one period has been in effect for the whole run.
                if "dtv-grid-calibration" not in waived and len(periods) == 1:
                    for error in pacing:
                        self.checks += 1
                        if error % period != 0:
                            message = (
                                f"pacing error {error} ns is not a multiple of "
                                f"the {period} ns period"
                            )
                            record("dtv-grid-calibration", time, message)
                pacing = []
            elif kind == V_IDLE:
                time, period = tick[0], tick[1]
                for skipped in range(1, data + 1):
                    self._check_conservation(time + skipped * period, tick[2:])
            elif kind == V_COMMIT:
                time, committed, d_ts, depth_ns = data
                if "dts-future-slot" not in waived:
                    self.checks += 1
                    if committed <= time:
                        message = (
                            f"committed present {committed} is not ahead of "
                            f"commit time {time}"
                        )
                        record("dts-future-slot", time, message)
                    if d_ts < (floor := committed - depth_ns):
                        message = (
                            f"D-Timestamp {d_ts} back-dated past the {depth_ns} ns "
                            f"convention floor {floor}"
                        )
                        record("dts-future-slot", time, message)
                if "dts-monotone" not in waived:
                    self.checks += 1
                    if last_d_ts is not None and d_ts <= last_d_ts:
                        message = f"does not advance past {last_d_ts}"
                        record("dts-monotone", time, f"D-Timestamp {d_ts} {message}")
                last_d_ts = d_ts
            elif kind == V_SPAWN:
                frame_id, occupancy, limit = data
                tracked[frame_id] = committed
                if "accumulation-limit" not in waived:
                    self.checks += 1
                    if occupancy > limit:
                        message = (
                            f"frame {frame_id} triggered at occupancy {occupancy} "
                            f"> pre-render limit {limit}"
                        )
                        trigger_time = frames[frame_id].trigger_time
                        record("accumulation-limit", trigger_time, message)
            elif kind == V_END:
                self._check_conservation(result.end_time, data[:-1])
                for drop in drops[drops_seen:]:
                    self._check_drop(drop)
                if data[-1] is not None and "dtv-tracking" not in waived:
                    for frame_id in data[-1]:  # the DTV's pending frame ids
                        self.checks += 1
                        if (present_time := frames[frame_id].present_time) is not None:
                            message = (
                                f"frame {frame_id} presented at {present_time} but "
                                "its prediction was never calibrated"
                            )
                            record("dtv-tracking", result.end_time, message)
        result.extra["invariants"] = {
            "checked": self.checks,
            "violation_count": self.violation_count,
            "violations": [v.to_wire() for v in self.violations],
            "waived": dict(self.waived),
            "relaxed": self.relaxed,
        }

    def _check_conservation(self, time: int, state: tuple) -> None:
        if "buffer-conservation" in self.waived:
            return
        queued_slots, depth, acquired_slots, has_front, queued, acquired = state
        self.checks += 1
        if queued_slots != depth:
            message = f"{queued_slots} QUEUED slots but FIFO depth {depth}"
            self._record("buffer-conservation", time, message)
        if acquired_slots != (1 if has_front else 0):
            front = "a" if has_front else "no"
            message = f"{acquired_slots} ACQUIRED slots with {front} front buffer"
            self._record("buffer-conservation", time, message)
        if queued != acquired + depth:
            message = f"queued {queued} != acquired {acquired} + depth {depth}"
            self._record("buffer-conservation", time, message)

    def _check_drop(self, drop: "DropEvent") -> None:
        if "drop-accounting" in self.waived:
            return
        self.checks += 1
        if drop.queued_depth == 0 and drop.frames_in_flight == 0:
            message = "drop recorded with nothing queued and nothing in flight"
            self._record("drop-accounting", drop.time, message)

    def enforce(self, result: "RunResult") -> None:
        """Raise on violations when strict (called at the end of a run)."""
        if not self.strict or self.relaxed is not None:
            return
        if self.violation_count == 0:
            return
        preview = "; ".join(
            f"{v.invariant}@{v.time}: {v.message}" for v in self.violations[:5]
        )
        raise InvariantViolationError(
            f"{self.violation_count} invariant violation(s) in "
            f"{result.scheduler}@{result.scenario} — {preview}"
        )
