"""Diagonal-Gaussian posterior over flattened parameters, fitted from SGD iterates.

The estimator keeps running first and second moments of collected iterates;
the fitted posterior holds the mean (the maximum-a-posteriori initialization)
and the variances, and saves and loads them as a checkpoint. Its
log-density is ``autodiff.gaussian_log_density`` over ``mu``/``sigma2``.
Variances are floored at 1e-8 so that density stays finite and its gradient
bounded even when few iterates were collected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, backward, soft_cross_entropy, softmax
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .model import FlatParams, MlpClassifier

Array = np.ndarray

VARIANCE_FLOOR = 1e-8


class SwagDiagEstimator:
    """Accumulates parameter iterates into mean / diagonal-variance moments."""

    def __init__(self, template: FlatParams) -> None:
        self._template = template
        self._count = 0
        self._sum = np.zeros(template.dim)
        self._sum_sq = np.zeros(template.dim)

    @property
    def count(self) -> int:
        return self._count

    def collect(self, iterate: FlatParams) -> "SwagDiagEstimator":
        if not iterate.same_layout(self._template):
            raise ValueError("iterate layout does not match the estimator")
        self._count += 1
        self._sum += iterate.values
        self._sum_sq += iterate.values**2
        return self

    def finalize(self, variance_floor: float = VARIANCE_FLOOR) -> "SwagDiagPosterior":
        if self._count == 0:
            raise RuntimeError("no iterates collected")
        mu = self._sum / self._count
        sigma2 = np.maximum(self._sum_sq / self._count - mu**2, variance_floor)
        return SwagDiagPosterior(
            mu=self._template.with_values(mu),
            sigma2=self._template.with_values(sigma2),
            count=self._count,
        )


@dataclass(eq=False)
class SwagDiagPosterior:
    """Fitted per-parameter Gaussian: mean mu, variance sigma2 (floored)."""

    mu: FlatParams
    sigma2: FlatParams
    count: int

    def save(self, path) -> None:
        entries = {}
        for name in self.mu.names:
            entries[f"swag.mu.{name}"] = self.mu.slice(name)
        for name in self.mu.names:
            entries[f"swag.sigma2.{name}"] = self.sigma2.slice(name)
        entries["swag.count"] = np.asarray([float(self.count)])
        write_checkpoint(path, entries)

    @classmethod
    def load(cls, path) -> "SwagDiagPosterior":
        entries = read_checkpoint(path)
        names = [k[len("swag.mu.") :] for k in entries if k.startswith("swag.mu.")]
        if not names or "swag.count" not in entries:
            raise CheckpointError("checkpoint does not hold a fitted posterior")
        shapes, offsets, mu_blocks, s2_blocks = [], [], [], []
        cursor = 0
        for name in names:
            s2_key = f"swag.sigma2.{name}"
            if s2_key not in entries:
                raise CheckpointError(f"checkpoint missing variance for {name}")
            block = entries[f"swag.mu.{name}"]
            shapes.append(block.shape)
            offsets.append(cursor)
            cursor += block.size
            mu_blocks.append(block.ravel())
            s2_blocks.append(entries[s2_key].ravel())
        layout = (tuple(names), tuple(shapes), tuple(offsets))
        mu = FlatParams(*layout, np.concatenate(mu_blocks))
        sigma2 = FlatParams(*layout, np.concatenate(s2_blocks))
        if not np.isfinite(mu.values).all():
            raise CheckpointError("posterior mean is not finite")
        if not (np.isfinite(sigma2.values).all() and sigma2.values.min() >= VARIANCE_FLOOR):
            raise CheckpointError(f"posterior variance must be finite and >= {VARIANCE_FLOOR}")
        return cls(mu=mu, sigma2=sigma2, count=int(entries["swag.count"][0]))


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
    estimator = SwagDiagEstimator(model.flatten())
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
        preds = softmax(model.forward(images)).data.argmax(axis=1)
        model.set_bn_mode("train")
        history.append(
            {
                "epoch": epoch,
                "loss": float(np.mean(losses)) if losses else float("nan"),
                "train_accuracy": float((preds == labels).mean()),
            }
        )
    return estimator.finalize(), history
