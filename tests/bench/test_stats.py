"""Summary statistics and the comparison rule of the benchmark harness."""

from __future__ import annotations

import pytest

from harness.stats import MIN_PAIRS, iqr, judge, median, percentile, relative_iqr, summarize


def test_percentile_interpolates_between_closest_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 25) == pytest.approx(1.75)
    assert percentile(values, 75) == pytest.approx(3.25)
    assert percentile([0.0, 10.0], 95) == pytest.approx(9.5)
    assert percentile([7.0], 30) == 7.0


def test_median_iqr_and_summary_by_hand():
    values = [1.0, 2.0, 3.0, 4.0]
    assert median(values) == pytest.approx(2.5)
    assert iqr(values) == pytest.approx(1.5)
    assert relative_iqr(values) == pytest.approx(0.6)
    assert median([5.0, 1.0, 3.0]) == 3.0
    assert summarize(values) == {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def _alternating(parent, change):
    """One-sample runs in alternating order: parent first in even pairs."""
    parent_runs, change_runs = [], []
    for index, (p, c) in enumerate(zip(parent, change)):
        parent_first = index % 2 == 0
        parent_runs.append((2 * index + (0 if parent_first else 1), [p]))
        change_runs.append((2 * index + (1 if parent_first else 0), [c]))
    return parent_runs, change_runs


PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def test_claim_holds_at_nine_wins_of_ten():
    change = [value - 10.0 for value in PARENT]
    change[3] = 105.0  # one loss: 9/10 wins
    verdict = judge(*_alternating(PARENT, change), better="lower", bound=0.1)
    assert (verdict.wins, verdict.losses, verdict.pairs) == (9, 1, 10)
    assert verdict.alternating
    assert verdict.status == "improved"


def test_claim_fails_at_eight_wins_of_ten():
    change = [value - 10.0 for value in PARENT]
    change[3] = change[7] = 105.0  # two losses: 8/10 wins
    verdict = judge(*_alternating(PARENT, change), better="lower", bound=0.1)
    assert verdict.wins == 8
    assert verdict.status == "within-bound"


def test_claim_needs_enough_alternating_pairs():
    change = [value - 10.0 for value in PARENT]
    short = judge(*_alternating(PARENT[:9], change[:9]), better="lower", bound=0.1)
    assert short.pairs == MIN_PAIRS - 1 and short.status != "improved"
    same_order = judge(  # P C, P C, ...: the parent always runs first
        [(i, [v]) for i, v in enumerate(PARENT)],
        [(i + 0.5, [v]) for i, v in enumerate(change)],
        better="lower",
        bound=0.1,
    )
    assert not same_order.alternating and same_order.status != "improved"


def test_unequal_run_counts_form_no_pairs():
    change = [value - 10.0 for value in PARENT]
    parent_runs, change_runs = _alternating(PARENT, change)
    verdict = judge(parent_runs, change_runs + [(99, [90.0])], better="lower", bound=0.1)
    assert (verdict.pairs, verdict.wins) == (0, 0)
    assert verdict.status == "within-bound"
    slower = judge(parent_runs[:-1], [(i, [v * 1.2]) for i, [v] in parent_runs], "lower", 0.1)
    assert slower.pairs == 0 and slower.status == "regressed"


def test_a_pair_compares_run_medians_and_statistics_pool_samples():
    parent = [(0, [10.0, 10.0, 40.0]), (3, [10.0])]
    change = [(1, [9.0, 9.0, 1.0]), (2, [9.0])]
    verdict = judge(parent, change, better="lower", bound=0.5)
    assert (verdict.pairs, verdict.wins, verdict.alternating) == (2, 2, True)
    assert verdict.parent_median == 10.0 and verdict.change_median == 9.0


def test_claim_needs_a_gap_wider_than_the_parent_iqr():
    change = [value - 0.5 for value in PARENT]  # wins every pair, by less than the IQR
    verdict = judge(*_alternating(PARENT, change), better="lower", bound=0.1)
    assert verdict.wins == 10
    assert verdict.status == "within-bound"


def test_direction_higher_is_better():
    change = [value + 10.0 for value in PARENT]
    verdict = judge(*_alternating(PARENT, change), better="higher", bound=0.1)
    assert verdict.status == "improved"
    worse = judge(*_alternating(PARENT, [v - 20.0 for v in PARENT]), better="higher", bound=0.1)
    assert worse.status == "regressed"
    assert worse.change_worse_by == pytest.approx(0.2)


def test_regression_beyond_the_bound():
    change = [value * 1.2 for value in PARENT]
    verdict = judge(*_alternating(PARENT, change), better="lower", bound=0.1)
    assert verdict.status == "regressed"
    within = judge(*_alternating(PARENT, [v * 1.05 for v in PARENT]), better="lower", bound=0.1)
    assert within.status == "within-bound"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0, 100.0]
    change = [value * 1.3 for value in noisy]
    verdict = judge(*_alternating(noisy, change), better="lower", bound=0.1)
    assert verdict.spread > 0.1
    assert verdict.status == "unresolved"


def test_wide_spread_but_every_change_run_better_is_not_unresolved():
    noisy = [150.0, 200.0, 250.0, 160.0, 240.0]
    change = [10.0, 30.0, 50.0, 20.0, 40.0]
    verdict = judge(*_alternating(noisy, change), better="lower", bound=0.1)
    assert verdict.spread > 0.1
    assert verdict.status == "within-bound"
