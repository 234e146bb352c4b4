"""Frozen, content-hashable descriptions of one simulation run.

A :class:`DriverSpec` names a *builder* — an importable module-level function
— plus JSON-able keyword arguments; calling :meth:`DriverSpec.build` imports
the builder and constructs a fresh, seeded :class:`ScenarioDriver`. A
:class:`RunSpec` combines a driver spec with everything else that determines
a run: device, architecture, buffer configuration, D-VSync knobs, fault
schedule, and sim-length limits. Both are frozen dataclasses whose canonical
JSON wire form backs equality, hashing, and the executor's cache key.

Builders must be deterministic functions of their parameters (all workload
randomness in this codebase is seeded by name/run index), which is what makes
``RunSpec.content_hash()`` a valid content address for the run's result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from typing import Any, Mapping

from repro.core.config import DVSyncConfig
from repro.display.device import DeviceProfile, GraphicsBackend, OperatingSystem
from repro.errors import ConfigurationError
from repro.exec.governor import ResourceBudget
from repro.pipeline.driver import ScenarioDriver

#: Architectures :func:`repro.exec.executor.execute_spec` can instantiate.
ARCHITECTURES = ("vsync", "dvsync")

#: Engines :func:`repro.exec.executor.execute_spec` can dispatch to.
#: ``"auto"`` resolves to the process default (``--engine`` / ``REPRO_ENGINE``)
#: and falls back to the event engine when the spec is not trace-pure.
ENGINES = ("auto", "event", "fastpath")


def canonical_json(value: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _check_jsonable(params: Mapping[str, Any], context: str) -> None:
    try:
        canonical_json(dict(params))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{context}: parameters must be JSON-serializable ({exc})"
        ) from None


@dataclasses.dataclass(frozen=True)
class DriverSpec:
    """Declarative driver construction: importable builder + JSON params.

    Attributes:
        builder: ``"package.module:function"`` path of a module-level builder.
        params_json: Canonical JSON object of keyword arguments. Stored as a
            string so the spec stays frozen and hashable with nested params.
    """

    builder: str
    params_json: str = "{}"

    @classmethod
    def of(cls, builder: str, **params: Any) -> "DriverSpec":
        """Build a spec, canonicalizing and validating the parameters."""
        if ":" not in builder:
            raise ConfigurationError(
                f"driver builder {builder!r} must be 'module:function'"
            )
        _check_jsonable(params, f"driver builder {builder!r}")
        return cls(builder=builder, params_json=canonical_json(params))

    @classmethod
    def from_scenario(cls, scenario, run: int = 0) -> "DriverSpec":
        """Describe ``scenario.build_driver(run)`` declaratively.

        Works for any :class:`repro.workloads.scenarios.Scenario`, whose
        fields are all JSON primitives.
        """
        return cls.of(
            "repro.exec.builders:scenario_driver",
            run=run,
            **dataclasses.asdict(scenario),
        )

    @property
    def params(self) -> dict:
        """The builder's keyword arguments."""
        return json.loads(self.params_json)

    def resolve(self):
        """Import and return the builder callable."""
        module_name, _, attr = self.builder.partition(":")
        try:
            module = importlib.import_module(module_name)
            builder = getattr(module, attr)
        except (ImportError, AttributeError) as exc:
            raise ConfigurationError(
                f"cannot resolve driver builder {self.builder!r}: {exc}"
            ) from None
        if not callable(builder):
            raise ConfigurationError(
                f"driver builder {self.builder!r} is not callable"
            )
        return builder

    def build(self) -> ScenarioDriver:
        """Construct a fresh driver from the spec."""
        return self.resolve()(**self.params)

    def to_wire(self) -> dict:
        return {"builder": self.builder, "params": self.params}

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "DriverSpec":
        return cls.of(wire["builder"], **wire["params"])


def device_to_wire(device: DeviceProfile) -> dict:
    """Wire form of a device profile (enums by value)."""
    wire = dataclasses.asdict(device)
    wire["os"] = device.os.value
    wire["backend"] = device.backend.value
    return wire


def device_from_wire(wire: Mapping[str, Any]) -> DeviceProfile:
    """Reconstruct a device profile from its wire form."""
    fields = dict(wire)
    fields["os"] = OperatingSystem(fields["os"])
    fields["backend"] = GraphicsBackend(fields["backend"])
    return DeviceProfile(**fields)


def dvsync_config_to_wire(config: DVSyncConfig) -> dict:
    return dataclasses.asdict(config)


def dvsync_config_from_wire(wire: Mapping[str, Any]) -> DVSyncConfig:
    return DVSyncConfig(**wire)


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything that determines one simulation run.

    Attributes:
        driver: Declarative driver construction.
        device: Device profile under test.
        architecture: ``"vsync"`` or ``"dvsync"``.
        buffer_count: Buffer-queue capacity for the VSync baseline (``None``
            uses the device default). Ignored under ``"dvsync"`` when
            ``dvsync`` is given.
        dvsync: D-VSync configuration; ``None`` defaults to
            :meth:`dvsync_config`'s ``DVSyncConfig(buffer_count=buffer_count
            or 4)`` at execution.
        faults: Fault-schedule clause text (``FaultSchedule.parse`` syntax),
            or ``None`` for a clean run.
        fault_seed: Seed for the fault injector's rngs.
        watchdog: Attach the degradation watchdog (D-VSync only).
        start_time: Simulation start timestamp (ns).
        horizon: Optional simulation cutoff (ns).
        telemetry: Record a telemetry session during the run and attach its
            snapshot to ``RunResult.telemetry``. Part of the spec (and its
            content hash) because it must reach process-pool workers, whose
            process-wide telemetry switch is independent of the parent's.
        verify: Attach a (non-strict) invariant checker to the run and record
            its structured verdict in ``RunResult.extra["invariants"]``. In
            the spec for the same reason as ``telemetry``: pool workers have
            their own process-wide verification switch.
        timeout_s: Per-run wall-clock deadline (seconds) enforced by the
            supervised executor; ``None`` defers to the executor's default.
            Execution *policy*, not run content — it rides the wire but is
            excluded from :meth:`content_hash`, so changing a deadline never
            invalidates cached results.
        engine: ``"auto"`` (fastpath when the spec is trace-pure, event
            otherwise), ``"event"`` (always the full discrete-event
            simulator), or ``"fastpath"`` (replay, or raise when the spec is
            ineligible). Like ``timeout_s`` this is execution policy: both
            engines compute byte-identical results, so ``engine`` rides the
            wire (pool workers must honor it) but is excluded from
            :meth:`content_hash` and cached results are shared across
            engines.
        budget: Optional :class:`~repro.exec.governor.ResourceBudget` bounding
            what the run may consume (sim events, sim-time span, worker
            address space, cache disk). Execution policy like ``timeout_s``:
            it rides the wire so pool workers enforce it, but is excluded
            from :meth:`content_hash` — a budget decides whether a run is
            *allowed to finish*, never what the finished result is.
    """

    driver: DriverSpec
    device: DeviceProfile
    architecture: str = "vsync"
    buffer_count: int | None = None
    dvsync: DVSyncConfig | None = None
    faults: str | None = None
    fault_seed: int = 0
    watchdog: bool = False
    start_time: int = 0
    horizon: int | None = None
    telemetry: bool = False
    verify: bool = False
    timeout_s: float | None = None
    engine: str = "auto"
    budget: ResourceBudget | None = None

    def __post_init__(self) -> None:
        architecture = getattr(self.architecture, "value", self.architecture)
        if architecture is not self.architecture:
            object.__setattr__(self, "architecture", architecture)
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: {', '.join(ENGINES)}"
            )
        if self.architecture not in ARCHITECTURES:
            raise ConfigurationError(
                f"unknown architecture {self.architecture!r}; "
                f"known: {', '.join(ARCHITECTURES)}"
            )
        if self.watchdog and self.architecture != "dvsync":
            raise ConfigurationError(
                "the degradation watchdog only attaches to the dvsync architecture"
            )
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ConfigurationError(
                f"timeout_s must be > 0 seconds, got {self.timeout_s!r}"
            )

    def dvsync_config(self) -> DVSyncConfig:
        """The D-VSync configuration a ``"dvsync"`` run executes with."""
        return self.dvsync or DVSyncConfig(buffer_count=self.buffer_count or 4)

    def to_wire(self) -> dict:
        return {
            "driver": self.driver.to_wire(),
            "device": device_to_wire(self.device),
            "architecture": self.architecture,
            "buffer_count": self.buffer_count,
            "dvsync": dvsync_config_to_wire(self.dvsync) if self.dvsync else None,
            "faults": self.faults,
            "fault_seed": self.fault_seed,
            "watchdog": self.watchdog,
            "start_time": self.start_time,
            "horizon": self.horizon,
            "telemetry": self.telemetry,
            "verify": self.verify,
            "timeout_s": self.timeout_s,
            "engine": self.engine,
            "budget": self.budget.to_wire() if self.budget else None,
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "RunSpec":
        return cls(
            driver=DriverSpec.from_wire(wire["driver"]),
            device=device_from_wire(wire["device"]),
            architecture=wire["architecture"],
            buffer_count=wire["buffer_count"],
            dvsync=(
                dvsync_config_from_wire(wire["dvsync"]) if wire["dvsync"] else None
            ),
            faults=wire["faults"],
            fault_seed=wire["fault_seed"],
            watchdog=wire["watchdog"],
            start_time=wire["start_time"],
            horizon=wire["horizon"],
            telemetry=wire.get("telemetry", False),
            verify=wire.get("verify", False),
            timeout_s=wire.get("timeout_s"),
            engine=wire.get("engine", "auto"),
            budget=(
                ResourceBudget.from_wire(wire["budget"])
                if wire.get("budget")
                else None
            ),
        )

    def content_hash(self) -> str:
        """SHA-256 content address of this spec (hex).

        Execution-policy fields (``timeout_s``, ``engine``, ``budget``) are
        excluded: a deadline bounds *how long* the harness waits, the engine
        picks *how* the deterministic result is computed, and a budget
        decides whether the run may finish at all — none changes *what* the
        result is, so the same result stays addressable under any policy.
        """
        wire = self.to_wire()
        del wire["timeout_s"]
        del wire["engine"]
        del wire["budget"]
        return hashlib.sha256(canonical_json(wire).encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One-line human-readable summary (logs, observability)."""
        parts = [self.architecture, self.device.name, self.driver.builder]
        if self.buffer_count is not None:
            parts.append(f"buffers={self.buffer_count}")
        if self.dvsync is not None:
            parts.append(f"dvsync-buffers={self.dvsync.buffer_count}")
        if self.faults:
            parts.append(f"faults=[{self.faults}]")
        return " ".join(parts)
