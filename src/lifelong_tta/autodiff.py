"""Float64 tensors with a minimal reverse-mode tape.

Implements only the operations a batch-normalized MLP and its self-training
objectives need: dense affine maps, ReLU, batch normalization, softmax-based
losses, a diagonal-Gaussian log-density over parameter tensors, and scalar
combination. Passing a ``Tape`` records the op; ``backward`` replays the tape
in reverse and accumulates a gradient per tensor.

Everything is float64 and must stay finite: NaN/Inf raises immediately
instead of propagating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class Tensor:
    """Dense float64 tensor, immutable by convention.

    Construction validates finiteness; ops never write into input data, so
    instances are safe to share across readers.
    """

    __slots__ = ("data",)

    def __init__(self, values) -> None:
        data = np.asarray(values, dtype=np.float64)
        if data.ndim and not data.flags["C_CONTIGUOUS"]:
            data = np.ascontiguousarray(data)
        if not np.isfinite(data).all():
            raise FloatingPointError("tensor contains NaN or Inf")
        self.data = data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


@dataclass(eq=False)
class TapeNode:
    """One recorded operation. ``grad_fn`` maps the output gradient to one
    gradient (or None) per input, in input order."""

    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    grad_fn: Callable[[Array], tuple]


class Tape:
    """Append-only record of ops; append order is a topological order."""

    def __init__(self) -> None:
        self.nodes: list[TapeNode] = []

    def record(self, op: str, inputs, output: Tensor, grad_fn) -> None:
        self.nodes.append(TapeNode(op, tuple(inputs), output, grad_fn))

    def __len__(self) -> int:
        return len(self.nodes)


# Gradients are keyed by tensor identity; values match the tensor's shape.
GradientMap = dict


def backward(root: Tensor, tape: Tape) -> GradientMap:
    """Gradients of a scalar ``root`` w.r.t. every tensor on the tape."""
    if root.shape != ():
        raise ValueError("backward root must be a scalar tensor")
    grads: GradientMap = {root: np.ones(())}
    for node in reversed(tape.nodes):
        g_out = grads.get(node.output)
        if g_out is None:
            continue
        for inp, g_in in zip(node.inputs, node.grad_fn(g_out)):
            if g_in is None:
                continue
            held = grads.get(inp)
            grads[inp] = g_in if held is None else held + g_in
    return grads


# ---------------------------------------------------------------------------
# ops


def linear(x: Tensor, weight: Tensor, bias: Tensor, tape: Tape | None = None) -> Tensor:
    """Affine map: out[b, o] = sum_i x[b, i] * weight[i, o] + bias[o]."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ValueError("linear expects x (B,I), weight (I,O), bias (O,)")
    if x.shape[1] != weight.shape[0] or weight.shape[1] != bias.shape[0]:
        raise ValueError(
            f"linear shape mismatch: x {x.shape}, weight {weight.shape}, bias {bias.shape}"
        )
    out = Tensor(x.data @ weight.data + bias.data)
    if tape is not None:
        def grad_fn(g, x=x, weight=weight):
            return g @ weight.data.T, x.data.T @ g, g.sum(axis=0)

        tape.record("linear", (x, weight, bias), out, grad_fn)
    return out


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise max(0, x); gradient is 0 at x == 0."""
    out = Tensor(np.maximum(x.data, 0.0))
    if tape is not None:
        def grad_fn(g, x=x):
            return (g * (x.data > 0.0),)

        tape.record("relu", (x,), out, grad_fn)
    return out


@dataclass(eq=False)
class RunningStats:
    """Mutable per-feature running mean/variance for batch norm."""

    mean: Array
    var: Array

    def copy(self) -> "RunningStats":
        return RunningStats(self.mean.copy(), self.var.copy())


def batch_norm_arrays(
    x: Array,
    gamma: Array,
    beta: Array,
    stats: RunningStats,
    mode: str = "train",
    update_stats: bool = True,
) -> tuple[Array, Array, Array]:
    """The batch-normalization arithmetic on plain arrays; returns
    (out, x_hat, inv_std).

    ``x`` is one batch (B, F) or a stack of G batches (G, B, F). Train mode
    normalizes each batch by its own mean/variance (biased) and, when
    ``update_stats``, folds them into ``stats`` with momentum 0.1 (variance
    stored unbiased); only a single batch may update them. Eval mode
    normalizes by ``stats``. eps = 1e-5.
    """
    if x.ndim not in (2, 3):
        raise ValueError("batch norm expects a (B, F) or (G, B, F) input")
    n, features = x.shape[-2:]
    if gamma.shape != (features,) or beta.shape != (features,):
        raise ValueError("gamma/beta must be (F,)")
    if mode == "train":
        if n < 2:
            raise ValueError("batch_norm train mode needs a batch of at least 2")
        if update_stats and x.size != n * features:
            raise ValueError("only a single batch may update the running statistics")
        batch_mean = x.mean(axis=-2, keepdims=True)
        x_hat = x - batch_mean
        # numpy's own variance formula, so batch_var equals x.var(axis=-2) bit
        # for bit; the squares' buffer takes the output below
        out = np.multiply(x_hat, x_hat)
        batch_var = out.sum(axis=-2, keepdims=True) / n
        inv_std = 1.0 / np.sqrt(batch_var + BN_EPS)
        x_hat *= inv_std
        if update_stats:
            m = BN_MOMENTUM
            stats.mean = (1.0 - m) * stats.mean + m * batch_mean.reshape(features)
            stats.var = (1.0 - m) * stats.var + m * batch_var.reshape(features) * n / (n - 1)
    elif mode == "eval":
        inv_std = 1.0 / np.sqrt(stats.var + BN_EPS)
        x_hat = x - stats.mean
        x_hat *= inv_std
        out = np.empty_like(x_hat)
    else:
        raise ValueError(f"unknown batch_norm mode {mode!r}")
    # in place where the values allow: the same operations, fewer buffers
    np.multiply(gamma, x_hat, out=out)
    out += beta
    return out, x_hat, inv_std


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: RunningStats,
    mode: str = "train",
    tape: Tape | None = None,
    update_stats: bool = True,
) -> Tensor:
    """Batch normalization of a (B, F) tensor over the batch axis, by
    ``batch_norm_arrays``."""
    if x.data.ndim != 2:
        raise ValueError("batch_norm expects a (B, F) input")
    values, x_hat, inv_std = batch_norm_arrays(
        x.data, gamma.data, beta.data, stats, mode, update_stats
    )
    out = Tensor(values)
    if tape is not None:
        if mode == "train":
            def grad_fn(g, gamma=gamma, x_hat=x_hat, inv_std=inv_std, n=x.shape[0]):
                g_hat = g * gamma.data
                g_x = (inv_std / n) * (
                    n * g_hat - g_hat.sum(axis=0) - x_hat * (g_hat * x_hat).sum(axis=0)
                )
                return g_x, (g * x_hat).sum(axis=0), g.sum(axis=0)
        else:
            def grad_fn(g, gamma=gamma, x_hat=x_hat, inv_std=inv_std):
                return g * gamma.data * inv_std, (g * x_hat).sum(axis=0), g.sum(axis=0)

        tape.record("batch_norm", (x, gamma, beta), out, grad_fn)
    return out


def _log_softmax(logits: Array) -> Array:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction; rows sum to 1 within 1e-9."""
    if logits.data.ndim != 2:
        raise ValueError("softmax expects a (B, C) input")
    shifted = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    return Tensor(shifted / shifted.sum(axis=1, keepdims=True))


def _check_rows_are_distributions(rows: Array, what: str, tol: float = 1e-6) -> None:
    if rows.ndim != 2:
        raise ValueError(f"{what} must be a (B, C) array")
    if (rows < 0.0).any() or (np.abs(rows.sum(axis=1) - 1.0) > tol).any():
        raise ValueError(f"{what} rows must be probability distributions")


def soft_cross_entropy(target: Tensor, logits: Tensor, tape: Tape | None = None) -> Tensor:
    """Batch-mean cross-entropy of softmax(logits) against soft targets.

    The target is a constant: the gradient flows to the logits only and
    equals (softmax(logits) - target) / B.
    """
    _check_rows_are_distributions(target.data, "soft_cross_entropy target")
    if logits.shape != target.shape:
        raise ValueError("target and logits shapes must match")
    n = logits.shape[0]
    log_probs = _log_softmax(logits.data)
    out = Tensor(np.asarray(-(target.data * log_probs).sum() / n))
    if tape is not None:
        probs = np.exp(log_probs)

        def grad_fn(g, probs=probs, target=target, n=n):
            return None, (probs - target.data) * (g / n)

        tape.record("soft_cross_entropy", (target, logits), out, grad_fn)
    return out


def softmax_entropy_mean(logits: Tensor, tape: Tape | None = None) -> Tensor:
    """Batch-mean entropy of the softmax predictions."""
    if logits.data.ndim != 2:
        raise ValueError("softmax_entropy_mean expects a (B, C) input")
    n = logits.shape[0]
    log_probs = _log_softmax(logits.data)
    probs = np.exp(log_probs)
    row_entropy = -(probs * log_probs).sum(axis=1)
    out = Tensor(np.asarray(row_entropy.mean()))
    if tape is not None:
        def grad_fn(g, probs=probs, log_probs=log_probs, row_entropy=row_entropy, n=n):
            return (-(g / n) * probs * (log_probs + row_entropy[:, None]),)

        tape.record("softmax_entropy_mean", (logits,), out, grad_fn)
    return out


def gaussian_log_density(
    thetas: Sequence[Tensor],
    means: Sequence[Array],
    variances: Sequence[Array],
    tape: Tape | None = None,
) -> Tensor:
    """Sum over tensors of independent-Gaussian log-densities.

    value = sum_i [ -(theta_i - mu_i)^2 / (2 sigma2_i) - 0.5 log(2 pi sigma2_i) ]
    with gradient -(theta - mu) / sigma2 per tensor.
    """
    if not (len(thetas) == len(means) == len(variances)):
        raise ValueError("thetas, means, variances must align")
    total = 0.0
    for theta, mu, var in zip(thetas, means, variances):
        if theta.shape != mu.shape or theta.shape != var.shape:
            raise ValueError("gaussian_log_density shape mismatch")
        diff = theta.data - mu
        total += float(-(diff * diff / (2.0 * var)).sum())
        total += float(-0.5 * np.log(2.0 * math.pi * var).sum())
    out = Tensor(np.asarray(total))
    if tape is not None:
        def grad_fn(g, thetas=tuple(thetas), means=tuple(means), variances=tuple(variances)):
            return tuple(
                g * (-(theta.data - mu) / var)
                for theta, mu, var in zip(thetas, means, variances)
            )

        tape.record("gaussian_log_density", tuple(thetas), out, grad_fn)
    return out


def weighted_sum(
    terms: Sequence[tuple[float, Tensor]],
    tape: Tape | None = None,
) -> Tensor:
    """Sum of coefficient * scalar-tensor terms."""
    total = 0.0
    for coef, term in terms:
        if term.shape != ():
            raise ValueError("weighted_sum terms must be scalar tensors")
        total += coef * term.item()
    out = Tensor(np.asarray(total))
    if tape is not None:
        coefs = tuple(coef for coef, _ in terms)

        def grad_fn(g, coefs=coefs):
            return tuple(np.asarray(g * c) for c in coefs)

        tape.record("weighted_sum", tuple(t for _, t in terms), out, grad_fn)
    return out


def finite_diff_gradient(f: Callable[[Array], float], x0: Array, h: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function of a flat vector."""
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        bumped = x0.copy()
        bumped[i] = x0[i] + h
        up = f(bumped)
        bumped[i] = x0[i] - h
        down = f(bumped)
        grad[i] = (up - down) / (2.0 * h)
    return grad
