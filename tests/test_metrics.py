import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_tta.metrics import MetricAccumulator, per_sample_scores


def error_rate(preds, labels):
    return 100.0 * float(per_sample_scores(preds, labels)[0].mean())


def nll(preds, labels):
    return float(per_sample_scores(preds, labels)[1].mean())


def brier(preds, labels):
    return float(per_sample_scores(preds, labels)[2].mean())


def one_hot_rows(labels, n_classes):
    rows = np.zeros((len(labels), n_classes))
    rows[np.arange(len(labels)), labels] = 1.0
    return rows


def test_error_rate_extremes():
    preds = one_hot_rows([0, 1, 2, 3], 4)
    assert error_rate(preds, np.array([0, 1, 2, 3])) == 0.0
    assert error_rate(preds, np.array([1, 2, 3, 0])) == 100.0
    assert error_rate(preds, np.array([0, 1, 3, 2])) == 50.0


def test_error_rate_breaks_ties_toward_lowest_index():
    preds = np.full((1, 4), 0.25)
    assert error_rate(preds, np.array([0])) == 0.0
    assert error_rate(preds, np.array([2])) == 100.0


def test_brier_values():
    exact = one_hot_rows([1], 3)
    assert brier(exact, np.array([1])) == 0.0
    assert brier(np.array([[0.5, 0.5]]), np.array([0])) == 0.5
    uniform10 = np.full((1, 10), 0.1)
    assert abs(brier(uniform10, np.array([3])) - 0.90) < 1e-12


def test_nll_values():
    assert nll(one_hot_rows([2], 4), np.array([2])) == 0.0
    uniform10 = np.full((1, 10), 0.1)
    assert abs(nll(uniform10, np.array([0])) - math.log(10.0)) < 1e-12


def test_nll_clamps_tiny_probabilities():
    preds = np.array([[1.0 - 1e-20, 1e-20]])
    value = nll(preds, np.array([1]))
    assert abs(value - (-math.log(1e-12))) < 1e-9
    assert abs(value - 27.631021) < 1e-3


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        error_rate(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_invalid_rows_rejected():
    with pytest.raises(ValueError):
        nll(np.array([[0.9, 0.3]]), np.array([0]))
    with pytest.raises(ValueError):
        brier(np.array([[-0.1, 1.1]]), np.array([0]))


def _simplex_grid(step=0.01):
    ticks = np.arange(0, 101)
    grid = []
    for i in ticks:
        for j in range(0, 101 - i):
            grid.append((i / 100.0, j / 100.0, (100 - i - j) / 100.0))
    return np.array(grid)


def test_properness_grid_probe():
    # expected Brier and NLL over a fixed label distribution are minimized at
    # the distribution itself, up to one grid step
    p = np.array([0.2, 0.3, 0.5])
    grid = _simplex_grid()
    labels = np.array([0, 1, 2])
    expected_brier = np.zeros(len(grid))
    expected_nll = np.zeros(len(grid))
    for weight, label in zip(p, labels):
        expected_brier += weight * np.array(
            [brier(q[None], np.array([label])) for q in grid]
        )
        expected_nll += weight * np.array(
            [nll(q[None], np.array([label])) for q in grid]
        )
    for scores in (expected_brier, expected_nll):
        best = grid[scores.argmin()]
        assert np.abs(best - p).max() <= 0.01 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 30))
def test_metric_bounds(seed, n_classes, n):
    rng = np.random.default_rng(seed)
    preds = rng.random((n, n_classes))
    preds /= preds.sum(axis=1, keepdims=True)
    labels = rng.integers(0, n_classes, n)
    assert 0.0 <= error_rate(preds, labels) <= 100.0
    assert nll(preds, labels) >= 0.0
    assert 0.0 <= brier(preds, labels) <= 2.0


def _random_batch(rng, n, n_classes=5):
    preds = rng.random((n, n_classes))
    preds /= preds.sum(axis=1, keepdims=True)
    return preds, rng.integers(0, n_classes, n)


def test_accumulator_segment_and_overall_means():
    rng = np.random.default_rng(0)
    acc = MetricAccumulator()
    all_preds, all_labels = [], []
    for segment in (0, 0, 1, 2):
        preds, labels = _random_batch(rng, 16)
        acc.update(segment, preds, labels)
        all_preds.append(preds)
        all_labels.append(labels)
    overall = acc.overall()
    assert overall.count == 64
    stacked = np.concatenate(all_preds)
    labels = np.concatenate(all_labels)
    assert abs(overall.error - error_rate(stacked, labels)) < 1e-12
    assert abs(overall.nll - nll(stacked, labels)) < 1e-12
    assert abs(overall.brier - brier(stacked, labels)) < 1e-12


def test_aggregation_linearity():
    rng = np.random.default_rng(1)
    acc = MetricAccumulator()
    for segment in range(3):
        preds, labels = _random_batch(rng, 10 + 7 * segment)
        acc.update(segment, preds, labels)
    overall = acc.overall()
    weighted = {"error": 0.0, "nll": 0.0, "brier": 0.0}
    total = 0
    for segment in acc.segments():
        summary = acc.segment_summary(segment)
        total += summary.count
        for key in weighted:
            weighted[key] += summary.count * getattr(summary, key)
    for key in weighted:
        assert abs(getattr(overall, key) - weighted[key] / total) < 1e-12


def test_accumulator_is_independent_of_batch_order():
    rng = np.random.default_rng(2)
    batches = [(segment, *_random_batch(rng, 12)) for segment in (0, 1, 1, 2, 0, 2)]
    forward, backward = MetricAccumulator(), MetricAccumulator()
    for segment, preds, labels in batches:
        forward.update(segment, preds, labels)
    for segment, preds, labels in reversed(batches):
        backward.update(segment, preds, labels)
    # fsum over the same multiset is order-independent, so equality is exact
    assert forward.overall() == backward.overall()
    assert forward.segments() == backward.segments() == [0, 1, 2]
    for segment in forward.segments():
        assert forward.segment_summary(segment) == backward.segment_summary(segment)
    assert forward.overall().count == len(batches) * 12


def test_update_returns_the_per_sample_scores_it_adds():
    preds, labels = _random_batch(np.random.default_rng(3), 9)
    returned = MetricAccumulator().update(4, preds, labels)
    for got, expected in zip(returned, per_sample_scores(preds, labels), strict=True):
        assert np.array_equal(got, expected)
