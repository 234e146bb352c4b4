"""The fastpath replay engine: trace-pure specs without the event loop.

``repro.fastpath`` executes a :class:`~repro.exec.spec.RunSpec` by *replaying*
the scheduling rules directly over the driver's precomputed frame-time array
(:class:`~repro.pipeline.driver.ReplayProfile`), instead of stepping
:mod:`repro.sim`'s general discrete-event kernel with its component graph,
hook lists, and per-event closure allocation. The replay is exact — byte
identical results on the wire, telemetry snapshots and invariant verdicts
included — for every *trace-pure* run: no fault injection, no watchdog, and
a driver whose demand is a deterministic function of time (see
:func:`repro.fastpath.engine.spec_ineligibility`). A live driver handed to
``repro.simulate`` takes the same engine choice as a spec.

Engine selection is part of the exec layer: ``RunSpec.engine`` is ``"auto"``
(pick fastpath when eligible), ``"event"`` (always the full simulator), or
``"fastpath"`` (replay or raise). ``engine`` rides the spec wire but is
excluded from ``content_hash`` — both engines compute the same result, so a
cached result is shared across them.
"""

from repro.fastpath.engine import (
    ENGINES,
    fastpath_attempt,
    get_default_engine,
    resolve_engine,
    set_default_engine,
    spec_ineligibility,
)
from repro.fastpath.profile import CompiledProfile, clear_profile_cache, load_compiled

__all__ = [
    "ENGINES",
    "CompiledProfile",
    "clear_profile_cache",
    "fastpath_attempt",
    "get_default_engine",
    "load_compiled",
    "resolve_engine",
    "set_default_engine",
    "spec_ineligibility",
]
