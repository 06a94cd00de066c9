"""Proper-scoring evaluation of online predictions.

Per-sample error indicator, negative log-likelihood and Brier score, and an
accumulator that keeps per-segment and overall means (error in percent). The
accumulator stores one float64 array of scores per batch and sums them exactly
(``math.fsum``) only when a summary is asked for.
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

    Each segment keeps one (3, B) array per batch: error, NLL and Brier rows.
    Means use ``math.fsum``, so a summary depends only on the multiset of
    samples in it, not on the order in which batches arrived.
    """

    def __init__(self) -> None:
        self._batches: dict[int, list[Array]] = {}

    def update(self, segment: int, preds: Array, labels: Array) -> tuple[Array, Array, Array]:
        """Add a batch to ``segment``; returns its ``per_sample_scores``."""
        scores = per_sample_scores(preds, labels)
        self._batches.setdefault(segment, []).append(np.array(scores))
        return scores

    def segments(self) -> list[int]:
        return sorted(self._batches)

    @staticmethod
    def _summary(batches: list[Array]) -> MetricSummary:
        if not batches:
            raise ValueError("no samples accumulated")
        # fsum is exact, so summing the joined rows gives the same bits in any batch order
        err, nll_values, brier_values = np.concatenate(batches, axis=1).tolist()
        n = len(err)
        return MetricSummary(
            count=n,
            error=100.0 * math.fsum(err) / n,
            nll=math.fsum(nll_values) / n,
            brier=math.fsum(brier_values) / n,
        )

    def segment_summary(self, segment: int) -> MetricSummary:
        return self._summary(self._batches[segment])

    def overall(self) -> MetricSummary:
        return self._summary([batch for s in self.segments() for batch in self._batches[s]])
