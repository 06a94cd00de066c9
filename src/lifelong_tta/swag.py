"""Diagonal-Gaussian posterior over the model's parameters, fitted from SGD iterates.

The estimator keeps running first and second moments of collected iterates;
the fitted posterior holds the mean ``mu`` (the maximum-a-posteriori
initialization) and the variances ``sigma2`` as plain vectors in the model's
theta layout, and saves and loads them as a checkpoint through the model's
``views``. Its log-density is ``autodiff.gaussian_log_density`` of the
model's theta tensor over ``mu``/``sigma2``. ``train_source`` tapes each SGD
step's forward and loss on a fresh list and reads the gradient off it as
one theta vector; it returns the fitted posterior and the trained model's
eval-mode accuracy on its training set, the one training number
``train-source`` reports. Variances are floored at 1e-8 so that density
stays finite and its gradient bounded even when few iterates were
collected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import backward, soft_cross_entropy, softmax
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .model import MlpClassifier

Array = np.ndarray

VARIANCE_FLOOR = 1e-8


class SwagDiagEstimator:
    """Accumulates parameter iterates into mean / diagonal-variance moments."""

    def __init__(self, dim: int) -> None:
        self._count = 0
        self._sum = np.zeros(dim)
        self._sum_sq = np.zeros(dim)

    def collect(self, iterate: Array) -> "SwagDiagEstimator":
        if iterate.shape != self._sum.shape:
            raise ValueError("iterate length does not match the estimator")
        self._count += 1
        self._sum += iterate
        self._sum_sq += iterate**2
        return self

    def finalize(self) -> "SwagDiagPosterior":
        if self._count == 0:
            raise RuntimeError("no iterates collected")
        mu = self._sum / self._count
        sigma2 = np.maximum(self._sum_sq / self._count - mu**2, VARIANCE_FLOOR)
        return SwagDiagPosterior(mu=mu, sigma2=sigma2, count=self._count)


@dataclass(eq=False)
class SwagDiagPosterior:
    """Fitted per-parameter Gaussian: mean mu, variance sigma2 (floored),
    both vectors in the model's theta layout."""

    mu: Array
    sigma2: Array
    count: int

    def state_arrays(self, model: MlpClassifier) -> dict[str, Array]:
        """Checkpoint entries: ``mu``'s and ``sigma2``'s views in ``model``'s layout, then the count."""
        entries = {f"swag.mu.{name}": view for name, view in model.views(self.mu).items()}
        for name, view in model.views(self.sigma2).items():
            entries[f"swag.sigma2.{name}"] = view
        entries["swag.count"] = np.asarray([float(self.count)])
        return entries

    def save(self, path, model: MlpClassifier) -> None:
        write_checkpoint(path, self.state_arrays(model))

    @classmethod
    def load(cls, path, model: MlpClassifier) -> "SwagDiagPosterior":
        """Read a posterior of ``model`` against ``state_arrays``'s shapes; the
        count must be a positive integer and every variance at least the floor."""
        posterior = cls(mu=np.zeros(model.theta.size), sigma2=np.zeros(model.theta.size), count=0)
        expected = posterior.state_arrays(model)
        entries = read_checkpoint(path, {name: view.shape for name, view in expected.items()})
        for name, view in expected.items():
            view[...] = entries[name]
        count = float(entries["swag.count"][0])
        if not count.is_integer() or count < 1:
            raise CheckpointError("posterior count must be a positive integer")
        if posterior.sigma2.min() < VARIANCE_FLOOR:
            raise CheckpointError(f"posterior variance must be >= {VARIANCE_FLOOR}")
        posterior.count = int(count)
        return posterior


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
    momentum: float,
    batch_size: int,
    swag_epochs: int,
    rng: np.random.Generator,
) -> tuple[SwagDiagPosterior, float]:
    """SGD-with-momentum training on clean data, collecting one posterior
    iterate at the end of each of the final ``swag_epochs`` epochs.

    ``images`` is (N, input_dim) in [0, 1]; ``labels`` is (N,) class ids.
    Returns the fitted posterior and the trained model's eval-mode accuracy
    on ``images``, from one forward after the last epoch. A NaN/Inf in any
    forward, the last one included, raises ``RuntimeError`` ("training
    diverged").
    """
    n = images.shape[0]
    targets = one_hot(labels, model.sizes[-1])
    estimator = SwagDiagEstimator(model.theta.size)
    velocity = np.zeros(model.theta.size)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if idx.size < 2:
                continue  # batch-statistics BN needs at least two samples
            tape = []
            try:
                logits, params = model.taped_forward(images[idx], tape)
                loss = soft_cross_entropy(targets[idx], logits, tape)
            except FloatingPointError as exc:  # a Tensor holds no NaN/Inf, so the loss is finite past here
                raise RuntimeError(f"training diverged at epoch {epoch}") from exc
            velocity = momentum * velocity + backward(loss, tape)[params]
            model.theta -= lr * velocity
        if epoch >= epochs - swag_epochs:
            estimator.collect(model.flatten())
    try:  # the last step's update is first read here
        preds = softmax(model.forward(images, "eval")).argmax(axis=1)
    except FloatingPointError as exc:
        raise RuntimeError(f"training diverged at epoch {epochs - 1}") from exc
    return estimator.finalize(), float((preds == labels).mean())
