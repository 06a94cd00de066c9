"""Proper-scoring evaluation of online predictions.

Per-sample error indicator, negative log-likelihood and Brier score, and an
accumulator that keeps per-segment and overall means (error in percent).
Predicted probabilities are clamped at 1e-12 before taking logs so NLL stays
finite under confident mistakes; argmax ties break toward the lowest class
index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

LOG_CLAMP = 1e-12


def per_sample_scores(preds: Array, labels: Array) -> tuple[Array, Array, Array]:
    """Per-sample (error indicator, NLL, Brier) contributions."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels)
    if preds.ndim != 2 or preds.shape[0] == 0:
        raise ValueError("predictions must be a non-empty (N, C) array")
    if labels.shape != (preds.shape[0],):
        raise ValueError("labels must be (N,)")
    if (preds < 0.0).any() or (np.abs(preds.sum(axis=1) - 1.0) > 1e-6).any():
        raise ValueError("prediction rows must be probability distributions")
    err = (preds.argmax(axis=1) != labels).astype(np.float64)
    picked = np.maximum(preds[np.arange(labels.size), labels], LOG_CLAMP)
    nll_values = -np.log(picked)
    one_hot = np.zeros_like(preds)
    one_hot[np.arange(labels.size), labels] = 1.0
    brier_values = ((preds - one_hot) ** 2).sum(axis=1)
    return err, nll_values, brier_values


@dataclass(frozen=True)
class MetricSummary:
    count: int
    error: float
    nll: float
    brier: float


class MetricAccumulator:
    """Single-writer accumulator of per-sample scores, split by segment.

    Means use ``math.fsum``, so a summary depends only on the multiset of
    samples in it, not on the order in which batches arrived.
    """

    def __init__(self) -> None:
        self._err: dict[int, list[float]] = {}
        self._nll: dict[int, list[float]] = {}
        self._brier: dict[int, list[float]] = {}

    def update(self, segment: int, preds: Array, labels: Array) -> tuple[Array, Array, Array]:
        """Add a batch to ``segment``; returns its ``per_sample_scores``."""
        err, nll_values, brier_values = per_sample_scores(preds, labels)
        self._err.setdefault(segment, []).extend(err.tolist())
        self._nll.setdefault(segment, []).extend(nll_values.tolist())
        self._brier.setdefault(segment, []).extend(brier_values.tolist())
        return err, nll_values, brier_values

    @property
    def count(self) -> int:
        return sum(len(v) for v in self._err.values())

    def segments(self) -> list[int]:
        return sorted(self._err)

    def _summary(self, err, nll_values, brier_values) -> MetricSummary:
        n = len(err)
        if n == 0:
            raise ValueError("no samples accumulated")
        return MetricSummary(
            count=n,
            error=100.0 * math.fsum(err) / n,
            nll=math.fsum(nll_values) / n,
            brier=math.fsum(brier_values) / n,
        )

    def segment_summary(self, segment: int) -> MetricSummary:
        return self._summary(self._err[segment], self._nll[segment], self._brier[segment])

    def overall(self) -> MetricSummary:
        err = [x for s in self.segments() for x in self._err[s]]
        nll_values = [x for s in self.segments() for x in self._nll[s]]
        brier_values = [x for s in self.segments() for x in self._brier[s]]
        return self._summary(err, nll_values, brier_values)
