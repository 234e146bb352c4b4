"""Summary statistics and the parent-vs-change comparison rule.

``percentile`` interpolates linearly between closest ranks, so a median of
an even sample is the mean of its two middle values and quartiles of small
samples stay inside the observed range.

``judge`` applies the rule a performance claim must meet: at least
``MIN_PAIRS`` parent/change pairs of runs in alternating order, the change
winning at least ``WIN_SHARE`` of them (ties count for neither side), and
the medians differing by more than the parent's interquartile range.
Every metric without a claim is held to its regression bound instead; a
metric whose run-to-run spread exceeds its bound is *unresolved*, unless
every change sample beats every parent sample.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

MIN_PAIRS = 10
WIN_SHARE = 0.9


def percentile(values: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile (0..100) of *values*, linearly interpolated."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {pct}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low, high = math.floor(position), math.ceil(position)
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartiles."""
    return percentile(values, 75.0) - percentile(values, 25.0)


def relative_iqr(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a zero median)."""
    mid = median(values)
    return iqr(values) / abs(mid) if mid else 0.0


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    return {
        "median": median(values),
        "q1": percentile(values, 25.0),
        "q3": percentile(values, 75.0),
        "n": len(values),
    }


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Outcome of comparing one metric on one workload across two commits.

    ``status`` is ``improved`` (the claim rule holds), ``regressed`` (the
    change's median is worse than the parent's by more than the bound),
    ``unresolved`` (the spread is wider than the bound) or ``within-bound``.
    """

    status: str
    pairs: int
    alternating: bool
    wins: int
    losses: int
    parent_median: float
    change_median: float
    parent_iqr: float
    spread: float
    change_worse_by: float


def judge(
    parent: Sequence[tuple[float, Sequence[float]]],
    change: Sequence[tuple[float, Sequence[float]]],
    better: str,
    bound: float,
) -> Verdict:
    """Compare runs of a parent and a change.

    A run is ``(started_at, values)``: one benchmark invocation and its
    samples of the metric. Runs pair up in start order, the i-th parent run
    with the i-th change run, and a pair compares the two runs' medians. The
    pairs alternate when the side that started first flips from each pair
    to the next. Sides with different numbers of runs form no pairs, so a
    missing or extra run cannot shift every later pair. Medians, the
    parent's IQR and the spread are over every sample of a side.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    if not parent or not change or not all(values for _, values in (*parent, *change)):
        raise ValueError("both sides need at least one run, and every run a sample")
    sign = 1.0 if better == "higher" else -1.0
    pairs = []
    if len(parent) == len(change):
        pairs = [
            (p_started < c_started, median(p_values), median(c_values))
            for (p_started, p_values), (c_started, c_values) in zip(sorted(parent), sorted(change))
        ]
    alternating = len(pairs) >= 2 and all(a[0] != b[0] for a, b in zip(pairs, pairs[1:]))
    wins = sum(1 for _, p, c in pairs if (c - p) * sign > 0)
    losses = sum(1 for _, p, c in pairs if (c - p) * sign < 0)

    parent_values = [value for _, values in parent for value in values]
    change_values = [value for _, values in change for value in values]
    parent_median = median(parent_values)
    change_median = median(change_values)
    parent_iqr = iqr(parent_values)
    gain = (change_median - parent_median) * sign
    change_worse_by = -gain / abs(parent_median) if parent_median else 0.0
    spread = max(relative_iqr(parent_values), relative_iqr(change_values))
    if sign > 0:
        all_better = min(change_values) > max(parent_values)
    else:
        all_better = max(change_values) < min(parent_values)

    if (
        len(pairs) >= MIN_PAIRS
        and alternating
        and wins >= WIN_SHARE * len(pairs)
        and gain > parent_iqr
    ):
        status = "improved"
    elif spread > bound and not all_better:
        status = "unresolved"
    elif change_worse_by > bound:
        status = "regressed"
    else:
        status = "within-bound"
    return Verdict(
        status=status,
        pairs=len(pairs),
        alternating=alternating,
        wins=wins,
        losses=losses,
        parent_median=parent_median,
        change_median=change_median,
        parent_iqr=parent_iqr,
        spread=spread,
        change_worse_by=change_worse_by,
    )
