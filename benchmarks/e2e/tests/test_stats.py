"""Percentile and spread arithmetic, and the self-validation rules."""

import pytest

import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))            # 1..100
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile(reversed(values), 0.9) == 90


def test_percentile_refuses_thin_tails():
    # p90 of 99 samples leaves 9.9 beyond it; 100 leave exactly 10.
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(99)), 0.9)
    assert stats.percentile(list(range(100)), 0.9) == 89
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(999)), 0.99)
    assert stats.percentile(list(range(19)), 0.9, checked=False) == 17


def test_iqr_spread_matches_the_drivers_formula():
    import statistics
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert stats.iqr_spread(values) == pytest.approx(
        (third - first) / statistics.median(values))
    assert stats.iqr_spread([5.0]) == 0.0
    assert stats.iqr_spread([3.0] * 8) == 0.0


def test_split_blocks_keeps_order_and_everything():
    blocks = stats.split_blocks(list(range(13)), 5)
    assert [len(block) for block in blocks] == [3, 3, 3, 2, 2]
    assert sum(blocks, []) == list(range(13))
    assert stats.split_blocks([1, 2], 5) == [[1], [2]]


def test_five_equal_classes_keep_p50_and_p90_off_the_boundaries():
    by_class = {f"Q{n}": [10.0 * 2 ** n] * 40 for n in range(5)}
    assert stats.boundary_violations(by_class) == []


def test_twelve_equal_classes_put_p50_on_a_boundary():
    by_class = {f"Q{n}": [10.0 * 2 ** n] * 10 for n in range(12)}
    problems = stats.boundary_violations(by_class)
    assert any(problem.startswith("p50") for problem in problems)


def test_boundaries_between_like_classes_do_not_count():
    # Twelve classes again, but all within 10 % of each other.
    by_class = {f"Q{n}": [100.0 + n * 0.5] * 10 for n in range(12)}
    assert stats.boundary_violations(by_class) == []
