"""Figure 4: the growing list of supported graphics features.

Regenerates the trend from the feature catalog — every OS generation adds
effects, and the heavy (key-frame-dominating) share keeps climbing — plus a
demonstration of what a modern effect stack costs per key frame relative to
the original Android 4 set.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.units import to_ms
from repro.workloads.features import (
    FEATURES,
    CostClass,
    EffectComposer,
    cumulative_feature_count,
)

# Effect stacks representative of the two eras.
ANDROID4_STACK = ["Scene Transition", "Translucent UI", "Full-screen Immersive"]
MODERN_STACK = [
    "Gaussian Blur",
    "Dynamic Lighting",
    "Glass Material",
    "Particle Effect",
    "Motion Blur",
    "Dynamic Shadowing",
]


def study(runs: int = 1, quick: bool = False) -> "Study":
    """Fig 4 is pure computation: a zero-cell study."""
    from repro.study import Study

    samples = 50 if quick else 400
    return Study("fig04", analyze=lambda _result: _build(samples))


def _build(samples: int) -> ExperimentResult:
    rows = [
        [generation, new, cumulative_heavy]
        for generation, new, cumulative_heavy in cumulative_feature_count()
    ]
    legacy = EffectComposer(ANDROID4_STACK)
    modern = EffectComposer(MODERN_STACK)
    legacy_cost = sum(legacy.key_frame_cost_ns() for _ in range(samples)) / samples
    modern_cost = sum(modern.key_frame_cost_ns() for _ in range(samples)) / samples
    heavy_total = sum(1 for f in FEATURES if f.cost is CostClass.HEAVY)
    return ExperimentResult(
        experiment_id="fig04",
        title="Graphics features per OS generation and their key-frame cost",
        headers=["generation", "new features", "cumulative heavy features"],
        rows=rows,
        comparisons=[
            ("catalog size", len(FEATURES), len(FEATURES)),
            ("heavy features in the catalog", ">=10", heavy_total),
            (
                "modern key-frame cost vs Android 4 stack",
                "several x (key frames 'usually over 1 ms')",
                f"{to_ms(int(modern_cost)):.1f} ms vs {to_ms(int(legacy_cost)):.1f} ms",
            ),
        ],
        notes=(
            "Darker Fig 4 entries map to the HEAVY cost class; the modern "
            "stack's key frames dwarf the Android 4 era's, which is the load "
            "growth §3.1 blames for VSync's struggles."
        ),
    )
