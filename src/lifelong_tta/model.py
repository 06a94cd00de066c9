"""Batch-normalized MLP classifier: one contiguous parameter vector with named views.

All trainables live in one float64 vector ``theta``, and the model is the one
owner of its layout: each stable dotted name (``hidden0.weight``,
``hidden0.gamma``, ..., ``out.bias``, in a deterministic registry order) is
a contiguous slice. ``views`` reshapes any vector of that length into named
views; ``params`` holds theta's own, so an optimizer step, an EMA update or
a restore is one in-place expression on ``theta``, and a posterior's mean and
variances or a gradient are plain vectors read through ``views``. ``flatten``
returns a copied snapshot. BN running statistics are serialized with the
model but are not trainables and are not part of theta.
``forward`` (untaped; one batch or a stack of equal batches) and
``taped_forward`` (one train-mode batch) share one layer loop on plain
arrays; ``taped_forward`` records the network as one tape node whose
backward is the MLP's own.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .autodiff import RunningStats, Tape, Tensor, batch_norm_arrays
from .checkpoint import CheckpointError, read_checkpoint, require_entry, write_checkpoint

Array = np.ndarray


def _registry_layout(sizes: Sequence[int]) -> tuple[tuple[str, tuple[int, ...], int, int], ...]:
    """``(name, shape, start, end)`` of each trainable, in registry order."""
    names: list[str] = []
    shapes: list[tuple[int, ...]] = []
    for i, (fan_in, width) in enumerate(zip(sizes[:-2], sizes[1:-1])):
        names += [f"hidden{i}.weight", f"hidden{i}.bias", f"hidden{i}.gamma", f"hidden{i}.beta"]
        shapes += [(fan_in, width), (width,), (width,), (width,)]
    names += ["out.weight", "out.bias"]
    shapes += [(sizes[-2], sizes[-1]), (sizes[-1],)]
    ends = tuple(accumulate(math.prod(shape) for shape in shapes))
    return tuple(zip(names, shapes, (0,) + ends[:-1], ends))


class MlpClassifier:
    """linear -> batch norm -> ReLU per hidden layer, then a linear head."""

    def __init__(self, sizes: Sequence[int], seed: int = 0) -> None:
        self._allocate(sizes)
        sizes = self.sizes
        rng = np.random.Generator(np.random.PCG64(seed))
        for i, (fan_in, width) in enumerate(zip(sizes[:-2], sizes[1:-1])):
            bound = 1.0 / np.sqrt(fan_in)
            self.params[f"hidden{i}.weight"][...] = rng.uniform(-bound, bound, (fan_in, width))
            self.params[f"hidden{i}.bias"][...] = rng.uniform(-bound, bound, width)
            self.params[f"hidden{i}.gamma"][...] = 1.0
        bound = 1.0 / np.sqrt(sizes[-2])
        self.params["out.weight"][...] = rng.uniform(-bound, bound, (sizes[-2], sizes[-1]))
        self.params["out.bias"][...] = rng.uniform(-bound, bound, sizes[-1])

    def _allocate(self, sizes: Sequence[int]) -> None:
        """Check ``sizes`` and bind a zero theta and running statistics (0, 1)."""
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 3:
            raise ValueError("need at least (input, one hidden, classes)")
        if sizes[-1] < 2:
            raise ValueError("need at least 2 classes")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        self.sizes = sizes
        self.bn_mode = "train"
        self._layout = _registry_layout(sizes)
        self._bind(np.zeros(self._layout[-1][3]))
        self.stats = {i: RunningStats(np.zeros(w), np.ones(w)) for i, w in enumerate(sizes[1:-1])}

    @property
    def n_hidden(self) -> int:
        return len(self.sizes) - 2

    def set_bn_mode(self, mode: str) -> None:
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown BN mode {mode!r}")
        self.bn_mode = mode

    def _bind(self, theta: Array) -> None:
        """Adopt ``theta``; params become views of it."""
        self.theta = theta
        self.params: dict[str, Array] = self.views(theta)

    def views(self, vector: Array) -> dict[str, Array]:
        """Named views, in registry order, of a vector in theta's layout."""
        dim = self._layout[-1][3]
        if vector.shape != (dim,):
            raise ValueError(f"expected a vector of {dim} parameters, got shape {vector.shape}")
        return {name: vector[start:end].reshape(shape) for name, shape, start, end in self._layout}

    # -- forward ------------------------------------------------------------

    def forward(self, x, update_stats: bool | None = None, draws: int = 1) -> Array:
        """Inference logits under the model's BN mode, with no tape.

        ``x`` may stack ``draws`` equal batches along its rows; in train mode
        each is normalized by its own batch statistics, so the logits equal
        those of ``draws`` separate calls, one row per input row. Only a
        single batch may update the running statistics. Raises
        ``FloatingPointError`` on a NaN/Inf in the input, in theta, or in a
        linear, batch-norm or logit output.
        """
        mode = self.bn_mode
        if update_stats is None:
            update_stats = mode == "train"
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ValueError(f"expected input (B, {self.sizes[0]}), got {x.shape}")
        if draws < 1 or x.shape[0] % draws:
            raise ValueError(f"{x.shape[0]} rows do not split into {draws} equal batches")
        # (draws, B, F) throughout: matmul runs one product per batch, so
        # each draw's rows are bit-identical to a call of its own
        logits = self._logits(x.reshape(draws, -1, self.sizes[0]), mode, update_stats)
        return _finite(logits.reshape(x.shape[0], -1), "logits")

    def taped_forward(self, x, tape: Tape, update_stats: bool = True):
        """Train-mode logits of one batch, recorded on ``tape`` as one node
        whose inputs are the parameter tensors and whose backward is
        ``_backward``; returns (logits, the parameter tensors by name)."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ValueError(f"expected input (B, {self.sizes[0]}), got {x.shape}")
        wrapped = {name: Tensor(view) for name, view in self.params.items()}
        saved: list[tuple[Array, Array, Array]] = []
        logits = Tensor(self._logits(x, "train", update_stats, saved))
        tape.record("mlp", tuple(wrapped.values()), logits, lambda g: self._backward(g, x, saved))
        return logits, wrapped

    def _logits(self, h: Array, mode: str, update_stats: bool, saved: list | None = None) -> Array:
        """The one layer loop: linear, batch norm and in-place ReLU per hidden
        layer, then the linear head, on one (B, F) batch or a (G, B, F) stack.
        ``saved``, when given, receives each hidden layer's (x_hat, inv_std,
        output) for the backward; otherwise no layer's buffers outlive it."""
        _finite(h, "input")
        _finite(self.theta, "parameters")
        p = self.params
        for i in range(self.n_hidden):
            h = h @ p[f"hidden{i}.weight"]
            h += p[f"hidden{i}.bias"]
            h, x_hat, inv_std = batch_norm_arrays(
                _finite(h, "linear output"),
                p[f"hidden{i}.gamma"],
                p[f"hidden{i}.beta"],
                self.stats[i],
                mode,
                update_stats,
            )
            np.maximum(_finite(h, "batch norm output"), 0.0, out=h)
            if saved is not None:
                saved.append((x_hat, inv_std, h))
            del x_hat, inv_std
        logits = h @ p["out.weight"]
        logits += p["out.bias"]
        return logits

    def _backward(self, g: Array, x: Array, saved: list) -> tuple:
        """Gradients of one ``taped_forward`` call, one per parameter in
        registry order, from the logits' gradient ``g``: per layer the
        head's, ReLU's, train-mode batch norm's and the linear map's backward.
        The first layer's input gradient is never formed."""
        p = self.params
        grads = {"out.weight": saved[-1][2].T @ g, "out.bias": g.sum(axis=0)}
        g = g @ p["out.weight"].T
        n = x.shape[0]
        for i in reversed(range(self.n_hidden)):
            x_hat, inv_std, out = saved[i]
            g = g * (out > 0.0)
            grads[f"hidden{i}.gamma"] = (g * x_hat).sum(axis=0)
            grads[f"hidden{i}.beta"] = g.sum(axis=0)
            g_hat = g * p[f"hidden{i}.gamma"]
            g = (inv_std / n) * (n * g_hat - g_hat.sum(axis=0) - x_hat * (g_hat * x_hat).sum(axis=0))
            grads[f"hidden{i}.weight"] = (saved[i - 1][2] if i else x).T @ g
            grads[f"hidden{i}.bias"] = g.sum(axis=0)
            if i:
                g = g @ p[f"hidden{i}.weight"].T
        return tuple(grads[name] for name in p)

    # -- parameter registry ---------------------------------------------------

    def flatten(self) -> Array:
        """A copy of ``theta``; later updates never reach it."""
        return self.theta.copy()

    def load(self, values: Array) -> None:
        if values.shape != self.theta.shape:
            raise ValueError(f"expected {self.theta.size} parameters, got shape {values.shape}")
        self.theta[:] = values

    def grad_vector(self, wrapped: dict[str, Tensor], grads: dict) -> Array:
        """The tape's gradients of the ``taped_forward`` parameter tensors as
        one vector in ``theta``'s layout; zeros where no gradient reached."""
        out = np.zeros_like(self.theta)
        views = self.views(out)
        for name, tensor in wrapped.items():
            grad = grads.get(tensor)
            if grad is not None:
                views[name][...] = grad
        return out

    def clone(self) -> "MlpClassifier":
        other = MlpClassifier.__new__(MlpClassifier)  # no random init to overwrite
        other.sizes = self.sizes
        other._layout = self._layout
        other._bind(self.theta.copy())
        other.stats = {i: s.copy() for i, s in self.stats.items()}
        other.bn_mode = self.bn_mode
        return other

    # -- checkpointing ---------------------------------------------------------

    def state_arrays(self) -> dict[str, Array]:
        entries = dict(self.params)
        for i in range(self.n_hidden):
            entries[f"hidden{i}.running_mean"] = self.stats[i].mean
            entries[f"hidden{i}.running_var"] = self.stats[i].var
        return entries

    def save(self, path) -> None:
        write_checkpoint(path, self.state_arrays())

    @classmethod
    def load_checkpoint(cls, path) -> "MlpClassifier":
        entries = read_checkpoint(path)
        shapes = []
        while f"hidden{len(shapes)}.weight" in entries:
            shapes.append(entries[f"hidden{len(shapes)}.weight"].shape)
        if not shapes or "out.weight" not in entries:
            raise CheckpointError("checkpoint does not hold an MLP state")
        shapes.append(entries["out.weight"].shape)
        if any(len(shape) != 2 for shape in shapes):
            raise CheckpointError("checkpoint weights must be matrices")
        model = cls.__new__(cls)  # no random init to overwrite
        model._allocate((shapes[0][0],) + tuple(shape[1] for shape in shapes))
        for name, view in model.params.items():
            view[...] = require_entry(entries, name, view.shape)
        for i, stats in model.stats.items():
            stats.mean[...] = require_entry(entries, f"hidden{i}.running_mean", stats.mean.shape)
            stats.var[...] = require_entry(entries, f"hidden{i}.running_var", stats.var.shape)
        return model


def _finite(values: Array, what: str) -> Array:
    if not np.isfinite(values).all():
        raise FloatingPointError(f"{what} contains NaN or Inf")
    return values


# -- parameter filters ----------------------------------------------------------


def bn_affine_filter(name: str) -> bool:
    return name.endswith(".gamma") or name.endswith(".beta")


def param_mask(model: MlpClassifier, predicate: Callable[[str], bool]) -> Array:
    """Boolean mask over theta selecting parameters by name."""
    mask = np.zeros(model.theta.size, dtype=bool)
    for name, view in model.views(mask).items():
        if predicate(name):
            view[...] = True
    return mask
