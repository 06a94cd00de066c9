"""Float64 tensors with a minimal reverse-mode tape.

Implements only what the self-training objectives add to the model, which
records its whole forward as one node on theta: softmax-based losses against
constant array targets, a diagonal-Gaussian log-density of the parameter
vector (whose constant per-piece normalizer sums, ``log_normalizers``, the
caller computes once per posterior and passes in), and scalar combination.
A tape is a plain list: each op appends one ``(op, inputs, output,
grad_fn)`` tuple to the list it is given, where ``grad_fn`` maps the
output's gradient to one gradient per input, in input order, so append
order is a topological order and the list's length is its node count.
``backward`` replays the tape in reverse and accumulates a gradient per
tensor, and every tensor on a tape is differentiated.

Everything is float64 and must stay finite: NaN/Inf raises immediately
instead of propagating.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

Array = np.ndarray


class Tensor:
    """Dense float64 tensor, immutable by convention.

    Construction validates finiteness and copies no C-contiguous float64
    data, so the model's tensor over theta is theta itself; ops never write
    into input data, so instances are safe to share across readers.
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

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))


def backward(root: Tensor, tape: list) -> dict[Tensor, Array]:
    """Gradients of a scalar ``root`` w.r.t. every tensor on the tape, keyed
    by tensor identity, each of its tensor's shape."""
    if root.shape != ():
        raise ValueError("backward root must be a scalar tensor")
    grads = {root: np.ones(())}
    for _, inputs, output, grad_fn in reversed(tape):
        g_out = grads.get(output)
        if g_out is None:
            continue
        for inp, g_in in zip(inputs, grad_fn(g_out)):
            held = grads.get(inp)
            grads[inp] = g_in if held is None else held + g_in
    return grads


# ---------------------------------------------------------------------------
# ops


def _log_softmax(logits: Array) -> Array:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: Array) -> Array:
    """Row-wise softmax of a (B, C) array with max-subtraction; rows sum to 1
    within 1e-9."""
    if logits.ndim != 2:
        raise ValueError("softmax expects a (B, C) input")
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def _check_rows_are_distributions(rows: Array, what: str, tol: float = 1e-6) -> None:
    if rows.ndim != 2:
        raise ValueError(f"{what} must be a (B, C) array")
    if not np.isfinite(rows).all():
        raise FloatingPointError(f"{what} contains NaN or Inf")
    if (rows < 0.0).any() or (np.abs(rows.sum(axis=1) - 1.0) > tol).any():
        raise ValueError(f"{what} rows must be probability distributions")


def soft_cross_entropy(target: Array, logits: Tensor, tape: list) -> Tensor:
    """Batch-mean cross-entropy of softmax(logits) against soft targets.

    The target is a constant array: the gradient flows to the logits only and
    equals (softmax(logits) - target) / B.
    """
    _check_rows_are_distributions(target, "soft_cross_entropy target")
    if logits.shape != target.shape:
        raise ValueError("target and logits shapes must match")
    n = logits.shape[0]
    log_probs = _log_softmax(logits.data)
    out = Tensor(np.asarray(-(target * log_probs).sum() / n))
    probs = np.exp(log_probs)

    def grad_fn(g, probs=probs, target=target, n=n):
        return ((probs - target) * (g / n),)

    tape.append(("soft_cross_entropy", (logits,), out, grad_fn))
    return out


def softmax_entropy_mean(logits: Tensor, tape: list) -> Tensor:
    """Batch-mean entropy of the softmax predictions."""
    if logits.data.ndim != 2:
        raise ValueError("softmax_entropy_mean expects a (B, C) input")
    n = logits.shape[0]
    log_probs = _log_softmax(logits.data)
    probs = np.exp(log_probs)
    row_entropy = -(probs * log_probs).sum(axis=1)
    out = Tensor(np.asarray(row_entropy.mean()))

    def grad_fn(g, probs=probs, log_probs=log_probs, row_entropy=row_entropy, n=n):
        return (-(g / n) * probs * (log_probs + row_entropy[:, None]),)

    tape.append(("softmax_entropy_mean", (logits,), out, grad_fn))
    return out


def log_normalizers(sigma2: Array, pieces: Sequence[slice]) -> tuple[float, ...]:
    """The constant part of ``gaussian_log_density``: for each slice of
    ``pieces``, in order, -0.5 * sum log(2 pi sigma2_i) over it."""
    log_norm = np.log(2.0 * math.pi * sigma2)
    return tuple(float(-0.5 * log_norm[piece].sum()) for piece in pieces)


def gaussian_log_density(
    theta: Tensor,
    mu: Array,
    sigma2: Array,
    pieces: Sequence[slice],
    normalizers: Sequence[float],
    tape: list,
) -> Tensor:
    """Independent-Gaussian log-density of the vector ``theta``.

    value = sum_i [ -(theta_i - mu_i)^2 / (2 sigma2_i) - 0.5 log(2 pi sigma2_i) ]
    with gradient -(theta - mu) / sigma2. The value is accumulated one slice
    of ``pieces`` at a time, in order: the slice's quadratic sum, then its
    normalizer sum (the model's ``pieces`` are one slice per parameter tensor).
    ``normalizers`` are those sums, ``log_normalizers(sigma2, pieces)``, which
    a caller that holds ``sigma2`` fixed computes once.
    """
    if theta.shape != mu.shape or theta.shape != sigma2.shape or theta.data.ndim != 1:
        raise ValueError("gaussian_log_density expects theta, mu and sigma2 vectors of one length")
    diff = theta.data - mu
    quad = diff * diff
    quad /= 2.0 * sigma2
    total = 0.0
    for piece, normalizer in zip(pieces, normalizers, strict=True):
        total += float(-quad[piece].sum())
        total += normalizer
    out = Tensor(np.asarray(total))

    def grad_fn(g, diff=diff, sigma2=sigma2):
        grad = np.negative(diff)
        grad /= sigma2
        grad *= g
        return (grad,)

    tape.append(("gaussian_log_density", (theta,), out, grad_fn))
    return out


def weighted_sum(terms: Sequence[tuple[float, Tensor]], tape: list) -> Tensor:
    """Sum of coefficient * scalar-tensor terms."""
    total = 0.0
    for coef, term in terms:
        if term.shape != ():
            raise ValueError("weighted_sum terms must be scalar tensors")
        total += coef * term.item()
    out = Tensor(np.asarray(total))
    coefs = tuple(coef for coef, _ in terms)

    def grad_fn(g, coefs=coefs):
        return tuple(np.asarray(g * c) for c in coefs)

    tape.append(("weighted_sum", tuple(t for _, t in terms), out, grad_fn))
    return out

