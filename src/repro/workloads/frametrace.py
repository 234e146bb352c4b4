"""Frame traces: reproducible per-frame workload sequences.

A :class:`FrameTrace` is the simulation analogue of the paper's recorded
runtime traces ("CPU and GPU time of every frame", §6.1): an ordered list of
:class:`FrameWorkload` plus the refresh rate it was captured for. Traces are
what both schedulers replay, guaranteeing the VSync and D-VSync arms see the
exact same series of workloads (Fig 10's premise).
"""

from __future__ import annotations

import dataclasses
import statistics

from repro.errors import WorkloadError
from repro.pipeline.frame import FrameCategory, FrameWorkload
from repro.units import hz_to_period, to_ms


@dataclasses.dataclass
class FrameTrace:
    """An ordered, named sequence of frame workloads."""

    name: str
    refresh_hz: int
    workloads: list[FrameWorkload]

    def __post_init__(self) -> None:
        if self.refresh_hz <= 0:
            raise WorkloadError("refresh_hz must be positive")
        if not self.workloads:
            raise WorkloadError(f"trace {self.name!r} has no frames")

    def __len__(self) -> int:
        return len(self.workloads)

    def __getitem__(self, index: int) -> FrameWorkload:
        return self.workloads[index]

    @property
    def period_ns(self) -> int:
        """VSync period of the capture rate."""
        return hz_to_period(self.refresh_hz)

    @property
    def duration_ns(self) -> int:
        """Nominal duration at full frame rate."""
        return len(self.workloads) * self.period_ns

    def total_times_ms(self) -> list[float]:
        """Critical-path time of every frame in milliseconds."""
        return [to_ms(w.total_ns) for w in self.workloads]

    def long_frame_fraction(self) -> float:
        """Fraction of frames whose critical path exceeds one period."""
        period = self.period_ns
        return sum(1 for w in self.workloads if w.total_ns > period) / len(self.workloads)

    def stats(self) -> dict[str, float]:
        """Summary statistics of the frame times (ms)."""
        times = sorted(self.total_times_ms())
        n = len(times)
        return {
            "mean_ms": statistics.fmean(times),
            "median_ms": times[n // 2],
            "p95_ms": times[min(n - 1, round(0.95 * n))],
            "p99_ms": times[min(n - 1, round(0.99 * n))],
            "max_ms": times[-1],
            "long_fraction": self.long_frame_fraction(),
        }

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """Plain-dict form for JSON round-tripping (see repro.trace.schema)."""
        return {
            "name": self.name,
            "refresh_hz": self.refresh_hz,
            "frames": [
                {
                    "ui_ns": w.ui_ns,
                    "render_ns": w.render_ns,
                    "gpu_ns": w.gpu_ns,
                    "category": w.category.value,
                }
                for w in self.workloads
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FrameTrace":
        """Inverse of :meth:`to_dict`."""
        try:
            workloads = [
                FrameWorkload(
                    ui_ns=f["ui_ns"],
                    render_ns=f["render_ns"],
                    gpu_ns=f.get("gpu_ns", 0),
                    category=FrameCategory(f.get("category", "deterministic_animation")),
                )
                for f in data["frames"]
            ]
            return cls(name=data["name"], refresh_hz=data["refresh_hz"], workloads=workloads)
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkloadError(f"malformed trace payload: {exc}") from exc
