"""Typed simulation API and the dual-channel decoupling surface (§4.5).

Two layers live here:

* the **front-door types** — :class:`Arch` names the architecture under test
  and :class:`SimConfig` collects every per-run knob (buffers, pre-render
  limit, engine, seed, timeout) that :func:`repro.simulate` accepts.
  :meth:`SimConfig.normalize` is the one place that splits a config into the
  ``(buffer_count, dvsync_config)`` pair a :class:`~repro.exec.spec.RunSpec`
  and the scheduler constructors consume;

* the **aware-channel surface** — decoupling-*oblivious* apps need nothing
  from this module: the scheduler applies pre-rendering to their
  deterministic animations automatically. Decoupling-*aware* apps (custom
  rendering engines, interactive scenarios) receive a :class:`DecouplingAPI`
  exposing the four capabilities the paper enumerates:

  1. registering an Input Prediction Layer curve;
  2. configuring the pre-rendering limit (performance vs. memory);
  3. retrieving the frame display time for app-defined animations;
  4. a runtime switch between D-VSync and VSync.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING

from repro.core.config import DVSyncConfig
from repro.core.fpe import FPEStage
from repro.core.ipl import InputPredictor
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dvsync import DVSyncScheduler


class Arch(str, enum.Enum):
    """The rendering architecture under test.

    A ``str`` enum so members compare and hash equal to the wire spellings
    (``Arch.DVSYNC == "dvsync"``): passing either form to :func:`repro.simulate`
    or :class:`~repro.exec.spec.RunSpec` produces byte-identical specs and
    content hashes.
    """

    VSYNC = "vsync"
    DVSYNC = "dvsync"

    @classmethod
    def coerce(cls, value: "Arch | str") -> "Arch":
        """Normalize a member or wire string into an :class:`Arch` member."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            known = ", ".join(member.value for member in cls)
            raise ConfigurationError(
                f"unknown architecture {value!r}; known: {known}"
            ) from None

    def __str__(self) -> str:  # keep f-strings on the wire spelling
        return self.value


@dataclasses.dataclass(frozen=True, kw_only=True)
class SimConfig:
    """One typed bundle of per-run simulation knobs.

    All options are keyword-only and every field defaults to "defer to the
    architecture's defaults", so ``SimConfig()`` is the neutral config.

    Attributes:
        buffer_count: Buffer-queue slots. Under :attr:`Arch.VSYNC` this is
            the queue depth directly; under :attr:`Arch.DVSYNC` it seeds a
            :class:`DVSyncConfig` (mutually exclusive with ``dvsync``).
        prerender_limit: D-VSync pre-rendering window in frames
            (:attr:`Arch.DVSYNC` only; mutually exclusive with ``dvsync``).
        dvsync: A full :class:`DVSyncConfig` for knobs beyond the two above
            (ablation switches, per-frame overhead, pipeline depth).
        engine: Execution engine — ``"auto"`` (fastpath when the run is
            trace-pure, event loop otherwise), ``"event"``, or ``"fastpath"``.
            Excluded from spec content hashes: both engines are byte-exact.
        seed: Repetition index for declarative scenarios (drivers are seeded
            by scenario name + run index).
        timeout_s: Wall-clock deadline under the supervised executor.
    """

    buffer_count: int | None = None
    prerender_limit: int | None = None
    dvsync: DVSyncConfig | None = None
    engine: str = "auto"
    seed: int | None = None
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.buffer_count is not None and not (
            isinstance(self.buffer_count, int)
            and not isinstance(self.buffer_count, bool)
        ):
            raise ConfigurationError(
                f"buffer_count must be an int or None, got {self.buffer_count!r}"
            )
        if self.dvsync is not None and not isinstance(self.dvsync, DVSyncConfig):
            raise ConfigurationError(
                f"dvsync must be a DVSyncConfig or None, got {self.dvsync!r}"
            )
        if self.dvsync is not None and (
            self.buffer_count is not None or self.prerender_limit is not None
        ):
            raise ConfigurationError(
                "pass either a full dvsync=DVSyncConfig(...) or the "
                "buffer_count/prerender_limit shorthands, not both"
            )
        from repro.exec.spec import ENGINES  # lazy: avoids an import cycle

        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: {', '.join(ENGINES)}"
            )

    def normalize(
        self, architecture: "Arch | str"
    ) -> tuple[int | None, DVSyncConfig | None]:
        """Split this config into ``(buffer_count, dvsync_config)``.

        Under :attr:`Arch.DVSYNC` the buffer/pre-render shorthands become a
        :class:`DVSyncConfig`; under
        :attr:`Arch.VSYNC` any D-VSync-only knob is a
        :class:`~repro.errors.ConfigurationError`.
        """
        arch = Arch.coerce(architecture)
        if arch is Arch.DVSYNC:
            if self.dvsync is not None:
                return None, self.dvsync
            if self.buffer_count is None and self.prerender_limit is None:
                return None, None
            kwargs: dict = {}
            if self.buffer_count is not None:
                kwargs["buffer_count"] = self.buffer_count
            if self.prerender_limit is not None:
                kwargs["prerender_limit"] = self.prerender_limit
            return None, DVSyncConfig(**kwargs)
        if self.dvsync is not None:
            raise ConfigurationError(
                "a DVSyncConfig only applies to Arch.DVSYNC; "
                "pass buffer_count for the vsync baseline"
            )
        if self.prerender_limit is not None:
            raise ConfigurationError(
                "prerender_limit only applies to Arch.DVSYNC "
                "(the vsync baseline never pre-renders)"
            )
        return self.buffer_count, None


class DecouplingAPI:
    """The aware-channel surface handed to custom-rendering apps."""

    def __init__(self, scheduler: "DVSyncScheduler") -> None:
        self._scheduler = scheduler

    # (1) Input Prediction Layer -------------------------------------------
    def register_input_predictor(self, predictor: InputPredictor) -> None:
        """Install an app-specific heuristic curve, e.g. the map app's ZDP."""
        self._scheduler.ipl.register(predictor)

    # (2) pre-rendering limit ----------------------------------------------
    def set_prerender_limit(self, limit: int) -> None:
        """Bound how many frames may be pre-rendered ahead of display.

        Higher limits hide longer frames at the cost of buffer memory (§6.4);
        the limit can never exceed the back-buffer count of the queue.
        """
        max_limit = self._scheduler.buffer_count - 1
        if not 1 <= limit <= max_limit:
            raise ConfigurationError(
                f"prerender limit must be in [1, {max_limit}] for a "
                f"{self._scheduler.buffer_count}-buffer queue, got {limit}"
            )
        self._scheduler.fpe.prerender_limit = limit

    @property
    def prerender_limit(self) -> int:
        """The currently effective pre-rendering limit."""
        return self._scheduler.fpe.prerender_limit

    # (3) frame display time ------------------------------------------------
    def get_frame_display_time(self) -> int:
        """Predicted present time of the next frame (for custom animations)."""
        return self._scheduler.dtv.preview(self._scheduler.sim.now).predicted_present

    def get_d_timestamp(self) -> int:
        """Predicted D-Timestamp of the next frame (content-time convention)."""
        return self._scheduler.dtv.preview(self._scheduler.sim.now).d_timestamp

    # (4) runtime switch ------------------------------------------------------
    def set_dvsync_enabled(self, enabled: bool) -> None:
        """Switch between D-VSync and VSync at runtime.

        The map case study enables D-VSync only while the user zooms and
        leaves browsing on the traditional path (§6.5).
        """
        self._scheduler.controller.set_enabled(enabled, now=self._scheduler.sim.now)
        if enabled:
            self._scheduler._pump()
        else:
            self._scheduler._arm_vsync_fallback()

    # introspection -----------------------------------------------------------
    @property
    def stage(self) -> FPEStage:
        """Current FPE stage (accumulation vs sync)."""
        return self._scheduler.fpe.stage

    @property
    def enabled(self) -> bool:
        """Whether the decoupled channel is currently active."""
        return self._scheduler.controller.enabled
