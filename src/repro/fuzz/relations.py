"""Metamorphic relations: the fuzzer's oracle catalog.

A fuzzer without an expected output needs *relations between runs* instead
of golden values. Each :class:`Relation` declares which specs it applies to,
which sibling specs it needs executed (``probes`` — these ride the
campaign's one supervised executor batch), and a ``check`` that judges the
results, optionally re-executing derived specs in-process (forced engines,
repeat runs) through the ``execute`` callable it is handed.

The catalog:

==================== =====================================================
``engine-parity``    event loop and fastpath replay are byte-identical on
                     eligible specs, telemetry snapshots included;
                     ``auto`` falls back consistently.
``seed-determinism`` re-executing the same spec reproduces the same
                     behavioral bytes (cross-backend determinism).
``observer-neutral`` telemetry sessions and invariant checkers observe the
                     run without changing its behavior.
``cache-round-trip`` a result survives serialize → cache → deserialize
                     byte-identically.
``drops-not-worse``  D-VSync never drops more effective frames than the
                     VSync baseline on identical content (§6.2).
``content-order``    presents follow frame generation order — decoupling
                     reorders time, never content (§4.4, §7).
``budget-parity``    an event budget below the spec's natural event count
                     trips both engines at the identical event with
                     byte-identical failure messages.
==================== =====================================================

Checks never embed wall-clock times in their violation details, so a
campaign's findings file is byte-stable across reruns.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.exec.spec import RunSpec, canonical_json
from repro.pipeline.scheduler_base import RunResult

#: Signature of the in-process execution hook ``check`` receives: spec in,
#: result out (a fresh result equals its wire round trip). Exceptions
#: propagate; the campaign converts them into ``evaluation-crash`` findings.
ExecuteFn = Callable[[RunSpec], RunResult]


def behavioral_wire(result: RunResult) -> dict:
    """The wire form reduced to *behavior*: what the run did, not who watched.

    Strips the telemetry snapshot and the invariant checker's verdict, each
    present exactly when its observer rode along. Everything left must be
    identical across observer toggles, engines, backends, and re-runs.
    """
    from repro.exec.serialize import result_to_wire

    wire = result_to_wire(result)
    wire.pop("telemetry", None)
    extra = dict(wire.get("extra") or {})
    extra.pop("invariants", None)
    wire["extra"] = extra
    return wire


def behavioral_text(result: RunResult) -> str:
    """Canonical JSON of :func:`behavioral_wire` — the comparison currency."""
    return canonical_json(behavioral_wire(result))


def _first_difference(a: str, b: str, context: int = 40) -> str:
    """Locate the first differing byte of two canonical JSON texts."""
    limit = min(len(a), len(b))
    for index in range(limit):
        if a[index] != b[index]:
            break
    else:
        index = limit
    lo = max(0, index - context)
    return (
        f"first difference at byte {index}: "
        f"...{a[lo:index + context]!r} vs ...{b[lo:index + context]!r}"
    )


class Relation:
    """One metamorphic relation. Subclasses override the three hooks."""

    #: Stable identifier (CLI ``--relation``, corpus entries, findings).
    name: str = "relation"
    #: One-line description for ``--list-relations`` and DESIGN.md.
    description: str = ""

    def applies(self, spec: RunSpec) -> bool:
        """Whether this relation is meaningful for *spec*."""
        return True

    def probes(self, spec: RunSpec) -> list[RunSpec]:
        """Specs the campaign must execute (they join the one batch)."""
        return [spec]

    def check(
        self,
        spec: RunSpec,
        results: Sequence[RunResult],
        execute: ExecuteFn,
    ) -> str | None:
        """Judge the probe *results*; return a violation detail or ``None``.

        ``results`` aligns with :meth:`probes`; *execute* runs derived specs
        in-process when the relation needs runs that cannot share the batch
        (forced engines collapse to one batch entry because ``engine`` is
        excluded from the content hash; repeat runs deduplicate likewise).
        """
        raise NotImplementedError


class EngineParity(Relation):
    """Both engines produce byte-identical behavior on eligible specs."""

    name = "engine-parity"
    description = (
        "event-loop and fastpath results are byte-identical on trace-pure "
        "specs, telemetry snapshots and invariant verdicts included; auto "
        "falls back to the event engine consistently"
    )

    def applies(self, spec: RunSpec) -> bool:
        from repro.fastpath.engine import spec_ineligibility

        return spec_ineligibility(spec) is None

    def check(self, spec, results, execute) -> str | None:
        event = execute(dataclasses.replace(spec, engine="event"))
        try:
            fast = execute(dataclasses.replace(spec, engine="fastpath"))
        except ConfigurationError:
            # The driver declared no replay profile: forced fastpath refuses
            # (correct), and the contract under test becomes auto-fallback.
            fast = execute(dataclasses.replace(spec, engine="auto"))
        event_text = behavioral_text(event)
        fast_text = behavioral_text(fast)
        if event_text != fast_text:
            return f"engines diverge: {_first_difference(event_text, fast_text)}"
        verdicts = [canonical_json(r.extra.get("invariants")) for r in (event, fast)]
        if verdicts[0] != verdicts[1]:
            return f"invariant verdicts diverge: {_first_difference(*verdicts)}"
        if spec.telemetry:
            snapshots = [canonical_json(r.telemetry.to_dict()) for r in (event, fast)]
            if snapshots[0] != snapshots[1]:
                return f"telemetry snapshots diverge: {_first_difference(*snapshots)}"
        batch_text = behavioral_text(results[0])
        if batch_text != event_text:
            return (
                "batch result diverges from a fresh in-process run: "
                f"{_first_difference(batch_text, event_text)}"
            )
        return None


class SeedDeterminism(Relation):
    """Re-executing a spec reproduces the same behavioral bytes."""

    name = "seed-determinism"
    description = (
        "a second execution of the same spec (fresh drivers, fresh rngs "
        "re-seeded from the spec) is byte-identical to the batch result"
    )

    def check(self, spec, results, execute) -> str | None:
        first = behavioral_text(results[0])
        again = behavioral_text(execute(spec))
        if first != again:
            return f"rerun diverged: {_first_difference(first, again)}"
        return None


class ObserverNeutrality(Relation):
    """Telemetry and verification observe without perturbing."""

    name = "observer-neutral"
    description = (
        "attaching a telemetry session or an invariant checker leaves the "
        "run's behavioral bytes unchanged"
    )

    def probes(self, spec: RunSpec) -> list[RunSpec]:
        base = dataclasses.replace(spec, telemetry=False, verify=False)
        return [
            base,
            dataclasses.replace(base, telemetry=True),
            dataclasses.replace(base, verify=True),
        ]

    def check(self, spec, results, execute) -> str | None:
        base, with_telemetry, with_verify = (behavioral_text(r) for r in results)
        if with_telemetry != base:
            return (
                "telemetry perturbed the run: "
                f"{_first_difference(base, with_telemetry)}"
            )
        if with_verify != base:
            return (
                "the invariant checker perturbed the run: "
                f"{_first_difference(base, with_verify)}"
            )
        return None


class CacheRoundTrip(Relation):
    """Results survive the serializer and the on-disk cache byte-exactly."""

    name = "cache-round-trip"
    description = (
        "result → wire JSON → result and result → ResultCache → result are "
        "both byte-identity round-trips"
    )

    def check(self, spec, results, execute) -> str | None:
        from repro.exec.cache import ResultCache
        from repro.exec.serialize import result_from_wire, result_to_wire

        result = results[0]
        reference = canonical_json(result_to_wire(result))
        rebuilt = result_from_wire(json.loads(reference))
        if canonical_json(result_to_wire(rebuilt)) != reference:
            return "serialize round-trip is not byte-identity"
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as root:
            cache = ResultCache(root, salt="fuzz")
            cache.put(spec, result_to_wire(result))
            hit = cache.get(spec)
            if hit is None:
                return "cache.put followed by cache.get missed"
            if canonical_json(result_to_wire(hit)) != reference:
                return "cache round-trip is not byte-identity"
        return None


class DropsNotWorse(Relation):
    """D-VSync never drops more effective frames than the VSync baseline."""

    name = "drops-not-worse"
    description = (
        "on identical clean content with at least the baseline's buffers, "
        "dvsync's effective drops never exceed vsync's (§6.2)"
    )

    def applies(self, spec: RunSpec) -> bool:
        if spec.architecture != "dvsync" or spec.faults or spec.watchdog:
            return False
        config = spec.dvsync
        if config is not None:
            if not (config.enabled and config.dtv_enabled and config.ipl_enabled):
                return False  # ablations deliberately forfeit the claim
            if config.resolved_prerender_limit < 2:
                return False  # no pre-render window left to absorb misses
            dvsync_buffers = config.buffer_count
        else:
            dvsync_buffers = spec.buffer_count or 4
        baseline_buffers = spec.buffer_count or spec.device.default_buffer_count
        # The paper's claim compares *enlarged* D-VSync queues against the
        # stock baseline; starving D-VSync below the baseline is out of scope.
        return dvsync_buffers >= baseline_buffers

    def probes(self, spec: RunSpec) -> list[RunSpec]:
        baseline = dataclasses.replace(
            spec, architecture="vsync", dvsync=None, watchdog=False
        )
        return [spec, baseline]

    def check(self, spec, results, execute) -> str | None:
        dvsync, vsync = results
        dvsync_drops = len(dvsync.effective_drops)
        vsync_drops = len(vsync.effective_drops)
        if dvsync_drops > vsync_drops:
            return (
                f"dvsync dropped {dvsync_drops} effective frames vs the "
                f"baseline's {vsync_drops}"
            )
        return None


class ContentOrder(Relation):
    """Presents follow frame generation order on clean runs."""

    name = "content-order"
    description = (
        "present fences report strictly increasing frame ids and "
        "non-decreasing content timestamps (§4.4, §7)"
    )

    def applies(self, spec: RunSpec) -> bool:
        return not spec.faults  # injected faults may legitimately skip frames

    def check(self, spec, results, execute) -> str | None:
        result = results[0]
        last_frame = -1
        last_content = None
        for index, present in enumerate(result.presents):
            if present.frame_id <= last_frame:
                return (
                    f"present {index} shows frame {present.frame_id} after "
                    f"frame {last_frame}"
                )
            last_frame = present.frame_id
            if last_content is not None and present.content_timestamp < last_content:
                return (
                    f"present {index} rewinds content time "
                    f"({present.content_timestamp} < {last_content})"
                )
            last_content = present.content_timestamp
        return None


class BudgetParity(Relation):
    """Resource-budget trips are deterministic and engine-agnostic."""

    name = "budget-parity"
    description = (
        "an event budget below the spec's natural event count trips both "
        "engines with byte-identical failure messages"
    )

    def applies(self, spec: RunSpec) -> bool:
        from repro.fastpath.engine import spec_ineligibility

        return spec.budget is None and spec_ineligibility(spec) is None

    def probes(self, spec: RunSpec) -> list[RunSpec]:
        return []  # derived budgeted runs cannot share the batch

    def check(self, spec, results, execute) -> str | None:
        from repro.errors import BudgetExceededError
        from repro.exec.governor import ResourceBudget, measure_run_events

        natural = measure_run_events(spec)
        if natural < 2:
            return None  # too short to squeeze a budget under
        budget = ResourceBudget(max_events=natural // 2)
        budgeted = dataclasses.replace(spec, budget=budget)
        messages = {}
        for engine in ("event", "fastpath"):
            try:
                execute(dataclasses.replace(budgeted, engine=engine))
            except BudgetExceededError as exc:
                messages[engine] = str(exc)
                continue
            except ConfigurationError:
                # The driver declared no replay profile: forced fastpath
                # refuses (correct), leaving no second engine to compare.
                return None
            return (
                f"the {engine} engine completed under "
                f"max_events={budget.max_events} despite a natural event "
                f"count of {natural}"
            )
        if messages["event"] != messages["fastpath"]:
            return (
                "budget trips diverge across engines: "
                f"{_first_difference(messages['event'], messages['fastpath'])}"
            )
        return None


#: The registered catalog, in evaluation (and report) order.
RELATIONS: tuple[Relation, ...] = (
    EngineParity(),
    SeedDeterminism(),
    ObserverNeutrality(),
    CacheRoundTrip(),
    DropsNotWorse(),
    ContentOrder(),
    BudgetParity(),
)


def relations_by_name(names: Sequence[str] | None = None) -> tuple[Relation, ...]:
    """Resolve ``--relation`` selections against the catalog (order kept)."""
    if not names:
        return RELATIONS
    catalog = {relation.name: relation for relation in RELATIONS}
    selected = []
    for name in names:
        if name not in catalog:
            raise ConfigurationError(
                f"unknown relation {name!r}; known: {', '.join(catalog)}"
            )
        if catalog[name] not in selected:
            selected.append(catalog[name])
    return tuple(selected)
