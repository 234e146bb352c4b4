"""The fastpath replay kernel: exact results without the event-loop machinery.

The kernel re-derives, from the scheduling rules themselves, the handful of
event kinds a trace-pure run can produce — HW-VSync ticks, UI completions,
render completions, GPU completions — and replays them over a minimal tuple
heap with the *same ordering guarantees* as :class:`repro.sim.Simulator`
(time, then scheduling sequence). Every state transition below mirrors a
specific line of the live components (compositor latch/drop, BufferQueue
FIFO + slot pool, SimThread busy-until arithmetic, FPE two-stage gate, DTV
preview/commit/calibrate, VSync-app waiter coalescing), which is what makes
the replay byte-identical on the wire; the dual-engine parity suite and the
golden-trace corpus enforce that equivalence.

What makes it fast:

- no per-event closure allocation and no component/hook indirection — an
  event is a 5-tuple dispatched by integer kind inside one loop whose state
  lives in local/cell variables, not attribute lookups;
- the driver's per-frame policy calls are compiled away where the
  :class:`~repro.pipeline.driver.ReplayProfile` declares them: ``finished``
  is a clock comparison against the profile span, ``wants_frame`` is the
  profile's analytic burst window, ``make_workload`` is a tuple index into
  the profile's pre-normalized workloads, and ``true_value`` goes through the
  driver's ``replay_values`` fast closure when it provides one;
- recorder-only events (``ui_started`` / ``render_started``) are elided and
  their single field write applied analytically at submit time;
- idle spans between animation bursts are fast-forwarded in O(1): when the
  pipeline is completely drained and only the periodic tick remains, the
  next interesting time (next gating input, or the scenario end) is computed
  from the profile's numpy arrival array and the pending tick is relocated
  there — the skipped ticks are provably no-ops;
- the driver (with its pre-generated workload trace) is cached per scenario
  by :mod:`repro.fastpath.profile` and shared across the whole study batch.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dtv import DisplayTimeVirtualizer
from repro.display.hal import PresentRecord
from repro.errors import ConfigurationError, SimulationError
from repro.exec.governor import BudgetGuard, guard_for_spec
from repro.sim.engine import max_events_diagnostic
from repro.pipeline.compositor import DropEvent
from repro.pipeline.frame import FrameRecord
from repro.pipeline.scheduler_base import RunResult
from repro.telemetry.session import DROP, PRESENT, QUEUED, SPAWN, UI_COMPLETE
from repro.telemetry.session import record_emissions, resolve_telemetry
from repro.verify.invariants import V_COMMIT, V_END, V_IDLE, V_PRESENT, V_SPAWN
from repro.verify.invariants import V_TICK, resolve_checker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.spec import RunSpec
    from repro.fastpath.profile import CompiledProfile
    from repro.pipeline.driver import ScenarioDriver

# Mirrors repro.pipeline.scheduler_base._MAX_EVENTS (scheduling-loop valve).
_MAX_EVENTS = 20_000_000

# Event kinds. An event is (time, seq, kind, frame_id, slot); seq preserves
# the simulator's tie-break (scheduling order) at equal times.
_TICK = 0
_UI_END = 1
_RENDER_END = 2
_GPU_END = 3

# Buffer slots are tracked as a free bitmask (bit set ⇔ slot FREE): the only
# state distinction the replay ever *reads* is free vs. not-free — dequeued,
# queued and acquired slots differ only through the FIFO/front bookkeeping.

# Sentinel horizon: far beyond any representable run (ns ≈ 146 years).
_NO_HORIZON = 1 << 62


def replay_spec(
    spec: "RunSpec",
    driver: "ScenarioDriver",
    compiled: "CompiledProfile",
    telemetry=None,
    verify=None,
) -> RunResult:
    """Replay a trace-pure *spec* and return its exact :class:`RunResult`.

    *telemetry* and *verify* follow the scheduler constructors' tri-state
    contracts; a recorded or verified replay logs what the event engine
    logs, and a strict checker raises here as it does there.
    """
    return _Replay(spec, driver, compiled).run(telemetry, verify)


class _Replay:
    """One replay run; state names follow the live components they mirror."""

    def __init__(
        self, spec: "RunSpec", driver: "ScenarioDriver", compiled: "CompiledProfile"
    ) -> None:
        self.spec = spec
        self.driver = driver
        self.compiled = compiled
        device = spec.device
        self.dvsync = spec.architecture == "dvsync"
        if self.dvsync:
            config = spec.dvsync_config()
            capacity = config.buffer_count
        else:
            config = None
            capacity = spec.buffer_count or device.default_buffer_count
        if capacity < 2:
            raise ConfigurationError("buffer_count must be at least 2")
        self.config = config
        self.capacity = capacity
        self.period = device.vsync_period
        self.refresh_hz = device.refresh_hz

    # -------------------------------------------------------------- run loop
    def run(self, telemetry, verify) -> RunResult:  # noqa: C901 - deliberately monolithic hot loop
        spec = self.spec
        driver = self.driver
        scheduler = "dvsync" if self.dvsync else "vsync"
        session = resolve_telemetry(telemetry, name=f"{scheduler}@{driver.name}")
        recording = session.enabled
        checker = resolve_checker(verify)
        log: list[tuple] = []  # telemetry's kinds, the checker's, and QUEUED
        emit = log.append if recording else None
        vemit = None if checker is None else log.append
        emit_queued = log.append if recording or checker is not None else None
        compiled = self.compiled
        dvsync = self.dvsync
        config = self.config
        capacity = self.capacity
        period = self.period
        refresh_hz = self.refresh_hz
        start_time = spec.start_time
        horizon = spec.horizon
        hz = horizon if horizon is not None else _NO_HORIZON

        span = compiled.total_span_ns
        finish_at = start_time + span
        arrivals = compiled.arrival_offsets + np.int64(start_time)
        driver.begin(start_time)

        # Resource governance. The guard (a budget, or the module counting
        # probe) must observe the *live engine's* event stream, so the replay
        # accounts the recorder-only events it elides: every seq below is
        # drawn exactly as the simulator would (ui/render stages consume two
        # seqs — start recorder + completion — GPU completions one, ticks
        # one), and elided (time, seq) pairs sit in the `rec` min-heap until
        # the main loop reaches their position in (time, seq) order.
        guard = guard_for_spec(spec)
        if guard is None and recording:
            guard = BudgetGuard()  # a pure counter, for the snapshot's sim.events
        rec: list[tuple[int, int]] = []

        # Per-frame policy, compiled away where the profile declares it.
        value_of = driver.replay_values() or driver.true_value
        wls = compiled.workloads
        if wls is not None:
            n_wl = len(wls)
            wl_last = n_wl - 1
        loop_wl = compiled.loop
        make_workload = driver.make_workload

        burst_dur = compiled.burst_duration_ns
        burst_stride = None
        if burst_dur is not None:
            offsets = compiled.arrival_offsets
            n_arr = offsets.shape[0]
            if n_arr == 1:
                burst_stride = 0
            else:
                stride = int(offsets[1] - offsets[0])
                if (
                    stride > 0
                    and burst_dur <= stride
                    and bool(np.all(np.diff(offsets) == stride))
                ):
                    burst_stride = stride
        if burst_stride is None:
            wants = driver.wants_frame
        elif burst_stride == 0:
            # Single gating input at start: demand spans [start, start+window).
            def wants(ts: int, now: int) -> bool:
                rel = ts - start_time
                return 0 <= rel < span and rel < burst_dur and now >= start_time

        else:
            bmax = n_arr - 1

            def wants(ts: int, now: int) -> bool:
                rel = ts - start_time
                if rel < 0 or rel >= span:
                    return False
                k = rel // burst_stride
                if k > bmax:
                    k = bmax
                return (
                    rel - k * burst_stride < burst_dur
                    and now >= start_time + k * burst_stride
                )

        # D-VSync component constants.
        if config is not None:
            prerender_limit = config.resolved_prerender_limit
            depth_offset = config.pipeline_depth_periods * period
            quarter_period = period // 4
            per_frame_overhead = config.per_frame_overhead_ns
            dtv_enabled = config.dtv_enabled
            alpha = DisplayTimeVirtualizer._EWMA_ALPHA
            one_minus_alpha = 1 - alpha
        else:
            prerender_limit = 0
            depth_offset = quarter_period = per_frame_overhead = 0
            dtv_enabled = False
            alpha = one_minus_alpha = 0.0

        # Simulator clock + queue.
        now = 0
        seq = 0
        heap: list[tuple[int, int, int, int, int]] = []
        cancelled: set[int] = set()
        heappush_ = heappush
        heappop_ = heappop
        # HW-VSync source.
        tick_index = -1
        hw_running = True
        pending_tick_seq = -1
        next_tick_time = start_time
        # BufferQueue: slot pool + display FIFO (+ front buffer). The
        # per-slot fields below are written at queue time and read at latch
        # time; a dequeued slot's stale fields are never observed.
        free_mask = (1 << capacity) - 1
        slot_frame: list[int | None] = [None] * capacity
        slot_content: list[int | None] = [None] * capacity
        slot_queued_at: list[int | None] = [None] * capacity
        fifo: list[int] = []
        front: int | None = None
        total_queued = 0
        # RenderPipeline + SimThreads (busy-until arithmetic).
        backlog: list[FrameRecord] = []
        render_active = False
        waiting_for_buffer = False
        waiting_since: int | None = None
        in_flight = 0
        ui_busy = 0
        render_busy = 0
        gpu_busy = 0
        ui_total = 0
        render_total = 0
        gpu_total = 0
        # Scheduler state.
        frames: list[FrameRecord] = []
        drops: list[DropEvent] = []
        presents: list[PresentRecord] = []
        frame_counter = 0
        driver_done = False
        vsync_waiter = False
        overhead = 0
        # FPE + DTV.
        dtv_est = period // 2
        dtv_last_committed: int | None = None
        dtv_last_issued: int | None = None
        dtv_pending: dict[int, int] = {}
        dtv_errors: list[int] = []
        dtv_calibrations = 0
        dtv_skipped = 0
        dtv_predictions = 0
        fpe_accum = 0
        fpe_sync = 0
        fpe_blocked = False
        routed_dvsync = 0

        frame_record = FrameRecord
        drop_event = DropEvent
        present_record = PresentRecord

        def spawn(ts: int, decoupled: bool, at: int) -> FrameRecord:
            # Scheduler._spawn_frame + RenderPipeline.start_frame +
            # SimThread.submit(ui): the start recorder event is elided, its
            # field applied analytically.
            nonlocal frame_counter, in_flight, ui_busy, ui_total, seq
            index = frame_counter
            frame_counter = index + 1
            if wls is not None:
                if loop_wl:
                    workload = wls[index % n_wl]
                else:
                    workload = wls[index] if index < n_wl else wls[wl_last]
            else:
                workload = make_workload(index, ts)
            in_flight += 1
            ui_ns = workload.ui_ns
            start = ui_busy if ui_busy > at else at
            end = start + ui_ns
            ui_busy = end
            ui_total += ui_ns
            frame = frame_record(
                frame_id=index,
                workload=workload,
                trigger_time=at,
                content_timestamp=ts,
                decoupled=decoupled,
                ui_start=start if start <= hz else None,
                content_value=value_of(ts),
            )
            frames.append(frame)
            # SimThread.submit schedules the start recorder first: the elided
            # ui_started event owns seq, ui_finished owns seq + 1.
            heappush_(heap, (end, seq + 1, _UI_END, index, 0))
            if guard is not None:
                heappush_(rec, (start, seq))
            seq += 2
            if emit is not None:  # on_frame_spawned
                emit((SPAWN, index))
            return frame

        def pump(at: int) -> None:
            # FramePreExecutor.try_trigger + DTV.preview/commit +
            # DVSyncScheduler._trigger_decoupled. Callers have already
            # applied DVSyncScheduler._pump's gates (not driver_done, not
            # finished, UI idle). Profiled drivers are all-DETERMINISTIC, so
            # the controller always routes decoupled and the VSync fallback
            # never arms.
            nonlocal fpe_blocked, fpe_accum, fpe_sync
            nonlocal dtv_last_committed, dtv_last_issued, dtv_predictions
            nonlocal routed_dvsync, overhead
            occupancy = len(fifo) + (in_flight - 1 if in_flight > 1 else 0)
            if occupancy >= prerender_limit:
                fpe_blocked = True
                return
            nt = next_tick_time
            if nt <= at:
                nt += period
            ready = at + dtv_est
            first_latch = nt
            while first_latch <= ready:
                first_latch += period
            predicted = first_latch + (len(fifo) + in_flight) * period + period
            lc = dtv_last_committed
            if lc is not None and predicted < lc + period:
                predicted = lc + period
            d_timestamp = predicted - depth_offset
            li = dtv_last_issued
            if li is not None and d_timestamp < li + quarter_period:
                d_timestamp = li + quarter_period
            content = d_timestamp if dtv_enabled else at
            if not wants(content, at):
                return
            dtv_last_committed = predicted
            dtv_last_issued = d_timestamp
            dtv_predictions += 1
            frame = spawn(content, True, at)
            if vemit is not None:
                occupancy = len(fifo) + (in_flight - 1 if in_flight > 1 else 0)
                vemit((V_COMMIT, (at, predicted, d_timestamp, depth_offset)))
                vemit((V_SPAWN, (frame.frame_id, occupancy, prerender_limit)))
            dtv_pending[frame.frame_id] = predicted
            routed_dvsync += 1
            overhead += per_frame_overhead
            if fpe_blocked:
                fpe_sync += 1
            else:
                fpe_accum += 1
            fpe_blocked = False

        def pump_render(at: int) -> None:
            # RenderPipeline._pump_render + BufferQueue.try_dequeue. The two
            # hot call sites (UI_END, RENDER_END) inline this body verbatim;
            # this closure serves the rare latch un-stall path and documents
            # the canonical logic.
            nonlocal render_active, waiting_for_buffer, waiting_since
            nonlocal render_busy, render_total, seq, free_mask
            if render_active or not backlog:
                return
            mask = free_mask
            if mask == 0:
                waiting_for_buffer = True
                if waiting_since is None:
                    waiting_since = at
                return
            # try_dequeue scans for the lowest FREE slot index.
            slot = (mask & -mask).bit_length() - 1
            free_mask = mask & (mask - 1)
            frame = backlog[0]
            del backlog[0]
            if waiting_since is not None:
                frame.buffer_wait_ns = at - waiting_since
                waiting_since = None
            render_active = True
            frame.buffer_slot = slot
            render_ns = frame.workload.render_ns
            start = render_busy if render_busy > at else at
            end = start + render_ns
            render_busy = end
            render_total += render_ns
            if start <= hz:
                frame.render_start = start
            heappush_(heap, (end, seq + 1, _RENDER_END, frame.frame_id, slot))
            if guard is not None:
                heappush_(rec, (start, seq))
            seq += 2

        def finish_frame(frame: FrameRecord, slot: int, at: int) -> None:
            # BufferQueue.queue_buffer + on_frame_queued (DTV EWMA fold, then
            # another pump opportunity).
            nonlocal in_flight, dtv_est, driver_done, total_queued
            workload = frame.workload
            gpu_ns = workload.gpu_ns
            frame.gpu_end = at if gpu_ns > 0 else None
            frame.queued_time = at
            frame.render_rate_hz = refresh_hz
            slot_frame[slot] = frame.frame_id
            slot_content[slot] = frame.content_timestamp
            slot_queued_at[slot] = at
            fifo.append(slot)
            total_queued += 1
            in_flight -= 1
            if emit_queued is not None:  # on_frame_queued, ahead of the DTV hook
                emit_queued((QUEUED, frame.frame_id))
            if dvsync:
                execution_ns = workload.ui_ns + workload.render_ns + gpu_ns
                if execution_ns > 0:
                    dtv_est = round(
                        one_minus_alpha * dtv_est + alpha * execution_ns
                    )
                if not driver_done:
                    if at >= finish_at:
                        driver_done = True
                    elif ui_busy <= at:
                        pump(at)

        # hw_vsync.start(start_time) then the scheduler's _kick() — both run
        # at sim time 0, before the first tick event fires.
        heap.append((start_time, 0, _TICK, 0, 0))
        seq = 1
        pending_tick_seq = 0
        if dvsync:
            # DVSyncScheduler._kick → _pump gates at sim time 0.
            if 0 >= finish_at:
                driver_done = True
            elif ui_busy <= 0:
                pump(0)
        else:
            vsync_waiter = True

        executed = 0
        while heap:
            t, eseq, kind, efid, eslot = heappop_(heap)
            if cancelled and eseq in cancelled:
                cancelled.discard(eseq)
                continue
            if guard is not None:
                # Account elided recorder events the live engine would have
                # executed before this one, then this event itself — in the
                # simulator's exact (time, seq) order. Elided events past the
                # horizon never execute live, so they are never accounted.
                while rec and rec[0] < (t, eseq):
                    rt, rs = heappop_(rec)
                    if rt <= hz:
                        guard.on_event(rt, rs)
                if t > hz:
                    break
                guard.on_event(t, eseq)
            elif t > hz:
                break
            now = t
            if kind == _TICK:
                tick_index += 1
                # The source schedules its next tick before listeners run, so
                # at any shared timestamp the tick's seq is lower than
                # listener-spawned work.
                next_tick_time = t + period
                pending_tick_seq = seq
                heappush_(heap, (next_tick_time, seq, _TICK, 0, 0))
                seq += 1
                # Compositor: latch the oldest buffer queued strictly before
                # the edge, else record a jank if the producer side owed this
                # edge content.
                if fifo:
                    head = fifo[0]
                    if slot_queued_at[head] < t:
                        # BufferQueue.acquire(): FIFO pop, front swap,
                        # previous slot freed — which may un-stall the render
                        # stage *before* the present signal.
                        del fifo[0]
                        previous = front
                        front = head
                        if previous is not None:
                            free_mask |= 1 << previous
                            if waiting_for_buffer:
                                waiting_for_buffer = False
                                pump_render(t)
                        fid = slot_frame[head]
                        frame = frames[fid]
                        present_time = t + period
                        frame.latch_time = t
                        frame.present_time = present_time
                        presents.append(
                            present_record(
                                frame_id=fid,
                                present_time=present_time,
                                vsync_index=tick_index,
                                content_timestamp=slot_content[head] or 0,
                                queue_depth_after=len(fifo),
                                refresh_period=period,
                            )
                        )
                        if emit is not None:  # HAL listener, ahead of the DTV's
                            emit((PRESENT, len(presents) - 1))
                        if dvsync:
                            # DTV.on_present: calibrate against the committed
                            # prediction for this frame.
                            predicted = dtv_pending.pop(fid, None)
                            if predicted is not None:
                                error = present_time - predicted
                                dtv_errors.append(error)
                                if error != 0:
                                    dtv_calibrations += 1
                                    if dtv_last_committed is not None:
                                        dtv_last_committed += error
                                    if error > 0:
                                        dtv_skipped += round(error / period)
                        if vemit is not None:  # the last present listener
                            vemit((V_PRESENT, len(presents) - 1))
                    else:
                        drops.append(
                            drop_event(
                                time=t,
                                vsync_index=tick_index,
                                queued_depth=len(fifo),
                                frames_in_flight=in_flight if in_flight > 0 else 0,
                            )
                        )
                        if emit is not None:
                            emit((DROP, len(drops) - 1))
                elif in_flight > 0:
                    drops.append(
                        drop_event(
                            time=t,
                            vsync_index=tick_index,
                            queued_depth=0,
                            frames_in_flight=in_flight,
                        )
                    )
                    if emit is not None:
                        emit((DROP, len(drops) - 1))
                # compositor.after_tick: the base stop-check, then the pump.
                if driver_done and in_flight == 0 and not fifo:
                    hw_running = False
                    cancelled.add(pending_tick_seq)
                if dvsync and not driver_done:
                    if t >= finish_at:
                        driver_done = True
                    elif ui_busy <= t:
                        pump(t)
                if vemit is not None:  # the last tick hook
                    has_front = front is not None
                    state = (len(fifo), len(fifo), int(has_front), has_front)
                    vemit((V_TICK, (t, period, *state, total_queued, len(presents))))
                # app-channel delivery (VSync-app waiters swap out, then
                # fire) — VSyncScheduler._on_vsync_app, one opportunity per
                # tick, re-arming unless the driver finished.
                if vsync_waiter:
                    vsync_waiter = False
                    if not driver_done:
                        if t >= finish_at:
                            driver_done = True
                        else:
                            if wants(t, t):
                                render_backlog = len(backlog) + (
                                    1 if render_active else 0
                                )
                                if ui_busy <= t and render_backlog <= 1:
                                    spawn(t, False, t)
                            vsync_waiter = True
                # Fast-forward: relocate the pending tick past a fully
                # drained idle gap. Sound only when every skipped tick is a
                # no-op: nothing queued or in flight (so no latch, no drop,
                # no stop), and the driver neither wants a frame (the next
                # gating input has not arrived) nor finishes (the scenario
                # end is not reached) strictly before the target time.
                if (
                    not driver_done
                    and hw_running
                    and in_flight == 0
                    and not fifo
                    and len(heap) == 1
                ):
                    head_entry = heap[0]
                    if head_entry[2] == _TICK and head_entry[1] not in cancelled:
                        # With DTV on, the pump's demand query runs in
                        # *content* time: a drained tick t' asks
                        # wants(c(t'), t') with c(t') = max(t' + lead, floor),
                        # where lead and floor are constant across the gap
                        # (no commits, frozen EWMA). The next gating input
                        # must therefore be located on the content timeline
                        # and translated back into now-space through `lead`.
                        # For the default pipeline depth the two timelines
                        # coincide (lead == 0).
                        if dvsync and dtv_enabled:
                            bumps = dtv_est // period + 1
                            lead = (bumps + 1) * period - depth_offset
                            content_now = t + lead
                            lc = dtv_last_committed
                            if lc is not None:
                                floor_c = lc + period - depth_offset
                                if floor_c > content_now:
                                    content_now = floor_c
                            li = dtv_last_issued
                            if li is not None:
                                floor_c = li + quarter_period
                                if floor_c > content_now:
                                    content_now = floor_c
                        else:
                            lead = 0
                            content_now = t
                        # A D-Timestamp running *ahead* of the clock means a
                        # demand window's now-gate can open mid-gap; skipping
                        # is not provably a no-op, so step tick by tick.
                        if content_now <= t:
                            target = finish_at
                            pos = int(
                                np.searchsorted(arrivals, content_now, side="right")
                            )
                            if pos < arrivals.shape[0]:
                                nxt = int(arrivals[pos]) - lead
                                if nxt < target:
                                    target = nxt
                            # Ticks past the horizon never execute live, so
                            # they are neither counted nor skipped.
                            if target > hz:
                                target = hz + 1
                            pending = head_entry[0]
                            skipped = (target - pending + period - 1) // period
                            if skipped > 0:
                                # The live engine executes every skipped tick
                                # (each scheduling its successor, consuming
                                # one seq), so the guard accounts the whole
                                # run in O(1) and the relocated tick takes the
                                # seq the last skipped tick would have drawn.
                                if guard is not None:
                                    guard.on_tick_run(
                                        pending, period, skipped,
                                        head_entry[1], seq,
                                    )
                                if vemit is not None:
                                    vemit((V_IDLE, skipped))
                                relocated = pending + skipped * period
                                pending_tick_seq = seq + skipped - 1
                                heap[0] = (
                                    relocated, pending_tick_seq, _TICK, 0, 0
                                )
                                seq += skipped
                                tick_index += skipped
                                next_tick_time = relocated
            elif kind == _UI_END:
                frame = frames[efid]
                frame.ui_end = t
                if emit is not None:  # on_ui_complete, ahead of the pump
                    emit((UI_COMPLETE, efid))
                # on_ui_complete pumps before submit_render.
                if dvsync and not driver_done:
                    if t >= finish_at:
                        driver_done = True
                    elif ui_busy <= t:
                        pump(t)
                backlog.append(frame)
                if not render_active:
                    # pump_render, inlined (hot; see the closure for the
                    # mirrored component logic). backlog[0] honours FIFO
                    # order when older frames were stalled on buffers.
                    mask = free_mask
                    if mask == 0:
                        waiting_for_buffer = True
                        if waiting_since is None:
                            waiting_since = t
                    else:
                        slot = (mask & -mask).bit_length() - 1
                        free_mask = mask & (mask - 1)
                        rframe = backlog[0]
                        del backlog[0]
                        if waiting_since is not None:
                            rframe.buffer_wait_ns = t - waiting_since
                            waiting_since = None
                        render_active = True
                        rframe.buffer_slot = slot
                        render_ns = rframe.workload.render_ns
                        start = render_busy if render_busy > t else t
                        end = start + render_ns
                        render_busy = end
                        render_total += render_ns
                        if start <= hz:
                            rframe.render_start = start
                        heappush_(
                            heap, (end, seq + 1, _RENDER_END, rframe.frame_id, slot)
                        )
                        if guard is not None:
                            heappush_(rec, (start, seq))
                        seq += 2
            elif kind == _RENDER_END:
                frame = frames[efid]
                frame.render_end = t
                gpu_ns = frame.workload.gpu_ns
                if gpu_ns > 0:
                    start = gpu_busy if gpu_busy > t else t
                    end = start + gpu_ns
                    gpu_busy = end
                    gpu_total += gpu_ns
                    heappush_(heap, (end, seq, _GPU_END, efid, eslot))
                    seq += 1
                else:
                    finish_frame(frame, eslot, t)
                # Render thread frees for the next frame while the GPU
                # finishes — pump_render, inlined again.
                render_active = False
                if backlog:
                    mask = free_mask
                    if mask == 0:
                        waiting_for_buffer = True
                        if waiting_since is None:
                            waiting_since = t
                    else:
                        slot = (mask & -mask).bit_length() - 1
                        free_mask = mask & (mask - 1)
                        rframe = backlog[0]
                        del backlog[0]
                        if waiting_since is not None:
                            rframe.buffer_wait_ns = t - waiting_since
                            waiting_since = None
                        render_active = True
                        rframe.buffer_slot = slot
                        render_ns = rframe.workload.render_ns
                        start = render_busy if render_busy > t else t
                        end = start + render_ns
                        render_busy = end
                        render_total += render_ns
                        if start <= hz:
                            rframe.render_start = start
                        heappush_(
                            heap, (end, seq + 1, _RENDER_END, rframe.frame_id, slot)
                        )
                        if guard is not None:
                            heappush_(rec, (start, seq))
                        seq += 2
            else:
                finish_frame(frames[efid], eslot, t)
            executed += 1
            if executed >= _MAX_EVENTS:
                raise SimulationError(
                    "run() "
                    + max_events_diagnostic(_MAX_EVENTS, t, eseq)
                    + "; likely a scheduling feedback loop"
                )
        if horizon is not None and now < horizon:
            now = horizon

        result = RunResult(
            scheduler=scheduler,
            scenario=driver.name,
            device=spec.device,
            buffer_count=capacity,
            frames=frames,
            drops=drops,
            presents=presents,
            start_time=start_time,
            end_time=now,
            ui_busy_ns=ui_total,
            render_busy_ns=render_total,
            gpu_busy_ns=gpu_total,
            scheduler_overhead_ns=overhead,
        )
        if dvsync:
            errors = dtv_errors
            result.extra.update(
                {
                    "fpe_triggers_accumulation": fpe_accum,
                    "fpe_triggers_sync": fpe_sync,
                    "prerender_limit": prerender_limit,
                    "dtv_predictions": dtv_predictions,
                    "dtv_calibrations": dtv_calibrations,
                    "dtv_skipped_periods": dtv_skipped,
                    "dtv_mean_abs_pacing_error_ns": (
                        sum(abs(e) for e in errors) / len(errors) if errors else 0.0
                    ),
                    "ipl_predictions": 0,
                    "ipl_fallbacks": 0,
                    "ipl_overhead_ns": 0,
                    "routed_dvsync": routed_dvsync,
                    "routed_vsync": 0,
                }
            )
        if recording:
            # tick_index counts fast-forwarded ticks too: each is a no-op
            # compositor tick the live engine executes.
            record_emissions(session, result, log, tick_index + 1, guard.events)
            result.telemetry = session.snapshot(f"{scheduler}@{driver.name}")
        if checker is not None:
            has_front = front is not None
            state = (len(fifo), len(fifo), int(has_front), has_front, total_queued)
            pending = tuple(dtv_pending) if dvsync else None
            log.append((V_END, (*state, len(presents), pending)))
            checker.check(result, log)
            checker.enforce(result)
        return result
