"""Diagonal-Gaussian posterior over the model's parameters, fitted from SGD iterates.

The estimator keeps running first and second moments of collected iterates;
the fitted posterior holds the mean ``mu`` (the maximum-a-posteriori
initialization) and the variances ``sigma2`` as plain vectors in the model's
theta layout, and saves and loads them as a checkpoint through the model's
``views``. Its log-density is ``autodiff.gaussian_log_density`` over
``mu``/``sigma2``. Variances are floored at 1e-8 so that density stays finite
and its gradient bounded even when few iterates were collected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, backward, soft_cross_entropy, softmax
from .checkpoint import CheckpointError, read_checkpoint, require_entry, write_checkpoint
from .model import MlpClassifier

Array = np.ndarray

VARIANCE_FLOOR = 1e-8


class SwagDiagEstimator:
    """Accumulates parameter iterates into mean / diagonal-variance moments."""

    def __init__(self, dim: int) -> None:
        self._count = 0
        self._sum = np.zeros(dim)
        self._sum_sq = np.zeros(dim)

    @property
    def count(self) -> int:
        return self._count

    def collect(self, iterate: Array) -> "SwagDiagEstimator":
        if iterate.shape != self._sum.shape:
            raise ValueError("iterate length does not match the estimator")
        self._count += 1
        self._sum += iterate
        self._sum_sq += iterate**2
        return self

    def finalize(self, variance_floor: float = VARIANCE_FLOOR) -> "SwagDiagPosterior":
        if self._count == 0:
            raise RuntimeError("no iterates collected")
        mu = self._sum / self._count
        sigma2 = np.maximum(self._sum_sq / self._count - mu**2, variance_floor)
        return SwagDiagPosterior(mu=mu, sigma2=sigma2, count=self._count)


@dataclass(eq=False)
class SwagDiagPosterior:
    """Fitted per-parameter Gaussian: mean mu, variance sigma2 (floored),
    both vectors in the model's theta layout."""

    mu: Array
    sigma2: Array
    count: int

    def save(self, path, model: MlpClassifier) -> None:
        entries = {f"swag.mu.{name}": view for name, view in model.views(self.mu).items()}
        for name, view in model.views(self.sigma2).items():
            entries[f"swag.sigma2.{name}"] = view
        entries["swag.count"] = np.asarray([float(self.count)])
        write_checkpoint(path, entries)

    @classmethod
    def load(cls, path, model: MlpClassifier) -> "SwagDiagPosterior":
        """Read a posterior of ``model``: exactly one ``swag.mu.``/``swag.sigma2.``
        entry of the registered shape per trainable, plus ``swag.count``."""
        entries = read_checkpoint(path)
        mu, sigma2 = np.zeros(model.theta.size), np.zeros(model.theta.size)
        expected = {"swag.count"}
        for prefix, vector in (("swag.mu.", mu), ("swag.sigma2.", sigma2)):
            for name, view in model.views(vector).items():
                view[...] = require_entry(entries, prefix + name, view.shape)
                expected.add(prefix + name)
        extra = [name for name in entries if name not in expected]
        if extra:
            raise CheckpointError(f"checkpoint entry {extra[0]} has no place in the model")
        count = float(require_entry(entries, "swag.count", (1,))[0])
        if not count.is_integer() or count < 1:
            raise CheckpointError("posterior count must be a positive integer")
        if not np.isfinite(mu).all():
            raise CheckpointError("posterior mean is not finite")
        if not (np.isfinite(sigma2).all() and sigma2.min() >= VARIANCE_FLOOR):
            raise CheckpointError(f"posterior variance must be finite and >= {VARIANCE_FLOOR}")
        return cls(mu=mu, sigma2=sigma2, count=int(count))


def one_hot(labels: Array, n_classes: int) -> Array:
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def train_source(
    model: MlpClassifier,
    images: Array,
    labels: Array,
    *,
    epochs: int,
    lr: float,
    momentum: float = 0.9,
    batch_size: int = 64,
    swag_epochs: int = 5,
    rng: np.random.Generator,
) -> tuple[SwagDiagPosterior, list[dict]]:
    """SGD-with-momentum training on clean data, collecting one posterior
    iterate at the end of each of the final ``swag_epochs`` epochs.

    ``images`` is (N, input_dim) in [0, 1]; ``labels`` is (N,) class ids.
    Returns the fitted posterior and per-epoch loss/accuracy history.
    """
    n = images.shape[0]
    n_classes = model.sizes[-1]
    targets = one_hot(labels, n_classes)
    estimator = SwagDiagEstimator(model.theta.size)
    velocity = np.zeros(model.theta.size)
    history: list[dict] = []
    model.set_bn_mode("train")
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if idx.size < 2:
                continue  # train-mode BN needs at least two samples
            tape = Tape()
            try:
                logits, wrapped = model.taped_forward(images[idx], tape)
                loss = soft_cross_entropy(Tensor(targets[idx]), logits, tape)
            except FloatingPointError as exc:
                raise RuntimeError(f"training diverged at epoch {epoch}") from exc
            if not math.isfinite(loss.item()):
                raise RuntimeError(f"training diverged at epoch {epoch}")
            velocity = momentum * velocity + model.grad_vector(wrapped, backward(loss, tape))
            model.theta -= lr * velocity
            losses.append(loss.item())
        if epoch >= epochs - swag_epochs:
            estimator.collect(model.flatten())
        model.set_bn_mode("eval")
        preds = softmax(model.forward(images)).argmax(axis=1)
        model.set_bn_mode("train")
        history.append(
            {
                "epoch": epoch,
                "loss": float(np.mean(losses)) if losses else float("nan"),
                "train_accuracy": float((preds == labels).mean()),
            }
        )
    return estimator.finalize(), history
