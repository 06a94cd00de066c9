"""Batch-normalized MLP classifier: one contiguous parameter vector with named views.

All trainables live in one float64 vector ``theta``. Each stable dotted name
(``hidden0.weight``, ``hidden0.gamma``, ..., ``out.bias``, in a deterministic
registry order) maps to a reshaped view of it in ``params``, so an optimizer
step, an EMA update or a restore is one in-place expression on ``theta``.
``flatten`` returns a copied snapshot. BN running statistics are serialized
with the model but are not trainables and never enter ``FlatParams``.
``forward`` is the untaped inference path on plain arrays, for one batch or
a stack of equal batches; ``taped_forward`` records ``Tensor`` ops for the
gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .autodiff import RunningStats, Tape, Tensor, batch_norm, batch_norm_arrays, linear, relu
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class FlatParams:
    """Ordered, named view of all trainables as one contiguous vector."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    values: Array

    def __post_init__(self) -> None:
        if self.values.ndim != 1 or self.values.dtype != np.float64:
            raise ValueError("FlatParams values must be a 1-D float64 vector")
        total = self.offsets[-1] + math.prod(self.shapes[-1]) if self.names else 0
        if self.values.size != total:
            raise ValueError("FlatParams values length does not match layout")

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def slice(self, name: str) -> Array:
        i = self.names.index(name)
        size = math.prod(self.shapes[i])
        return self.values[self.offsets[i] : self.offsets[i] + size].reshape(self.shapes[i])

    def with_values(self, values: Array) -> "FlatParams":
        values = np.ascontiguousarray(values, dtype=np.float64)
        return FlatParams(self.names, self.shapes, self.offsets, values)

    def copy(self) -> "FlatParams":
        return self.with_values(self.values.copy())

    def same_layout(self, other: "FlatParams") -> bool:
        return self.names == other.names and self.shapes == other.shapes


def _registry_layout(sizes: Sequence[int]) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    names: list[str] = []
    shapes: list[tuple[int, ...]] = []
    for i, (fan_in, width) in enumerate(zip(sizes[:-2], sizes[1:-1])):
        names += [f"hidden{i}.weight", f"hidden{i}.bias", f"hidden{i}.gamma", f"hidden{i}.beta"]
        shapes += [(fan_in, width), (width,), (width,), (width,)]
    names += ["out.weight", "out.bias"]
    shapes += [(sizes[-2], sizes[-1]), (sizes[-1],)]
    return tuple(names), tuple(shapes)


class MlpClassifier:
    """linear -> batch norm -> ReLU per hidden layer, then a linear head."""

    def __init__(self, sizes: Sequence[int], seed: int = 0) -> None:
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 3:
            raise ValueError("need at least (input, one hidden, classes)")
        if sizes[-1] < 2:
            raise ValueError("need at least 2 classes")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        self.sizes = sizes
        self.bn_mode = "train"
        names, shapes = _registry_layout(sizes)
        offsets = tuple(accumulate((math.prod(shape) for shape in shapes), initial=0))
        self._bind(FlatParams(names, shapes, offsets[:-1], np.zeros(offsets[-1])))
        self.stats: dict[int, RunningStats] = {}
        rng = np.random.Generator(np.random.PCG64(seed))
        for i, (fan_in, width) in enumerate(zip(sizes[:-2], sizes[1:-1])):
            bound = 1.0 / np.sqrt(fan_in)
            self.params[f"hidden{i}.weight"][...] = rng.uniform(-bound, bound, (fan_in, width))
            self.params[f"hidden{i}.bias"][...] = rng.uniform(-bound, bound, width)
            self.params[f"hidden{i}.gamma"][...] = 1.0
            self.stats[i] = RunningStats(np.zeros(width), np.ones(width))
        bound = 1.0 / np.sqrt(sizes[-2])
        self.params["out.weight"][...] = rng.uniform(-bound, bound, (sizes[-2], sizes[-1]))
        self.params["out.bias"][...] = rng.uniform(-bound, bound, sizes[-1])

    @property
    def n_hidden(self) -> int:
        return len(self.sizes) - 2

    @property
    def param_names(self) -> tuple[str, ...]:
        return self._flat.names

    def set_bn_mode(self, mode: str) -> None:
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown BN mode {mode!r}")
        self.bn_mode = mode

    def _bind(self, flat: FlatParams) -> None:
        """Adopt ``flat``'s vector as theta; params become views of it."""
        self._flat = flat
        self.theta = flat.values
        self.params: dict[str, Array] = {name: flat.slice(name) for name in flat.names}

    # -- forward ------------------------------------------------------------

    def forward(self, x, update_stats: bool | None = None, draws: int = 1) -> Tensor:
        """Inference logits under the model's BN mode, with no tape.

        ``x`` may stack ``draws`` equal batches along its rows; in train mode
        each is normalized by its own batch statistics, so the logits equal
        those of ``draws`` separate calls, one row per input row. Only a
        single batch may update the running statistics. Raises
        ``FloatingPointError`` on a NaN/Inf in the input, in theta, or in a
        linear or batch-norm output.
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
        h = _finite(x, "input").reshape(draws, -1, self.sizes[0])
        _finite(self.theta, "parameters")
        p = self.params
        for i in range(self.n_hidden):
            h = h @ p[f"hidden{i}.weight"]
            h += p[f"hidden{i}.bias"]
            h, _, _ = batch_norm_arrays(
                _finite(h, "linear output"),
                p[f"hidden{i}.gamma"],
                p[f"hidden{i}.beta"],
                self.stats[i],
                mode,
                update_stats,
            )
            np.maximum(_finite(h, "batch norm output"), 0.0, out=h)
        logits = h @ p["out.weight"]
        logits += p["out.bias"]
        return Tensor(logits.reshape(x.shape[0], -1))

    def taped_forward(self, x, tape: Tape, update_stats: bool = True):
        """Train-mode logits recorded on ``tape``; returns the parameter
        tensors so gradients can be mapped back by name."""
        h = Tensor(x)
        if h.data.ndim != 2 or h.shape[1] != self.sizes[0]:
            raise ValueError(f"expected input (B, {self.sizes[0]}), got {h.shape}")
        wrapped = {name: Tensor(view) for name, view in self.params.items()}
        for i in range(self.n_hidden):
            h = linear(h, wrapped[f"hidden{i}.weight"], wrapped[f"hidden{i}.bias"], tape)
            h = batch_norm(
                h,
                wrapped[f"hidden{i}.gamma"],
                wrapped[f"hidden{i}.beta"],
                self.stats[i],
                tape=tape,
                update_stats=update_stats,
            )
            h = relu(h, tape)
        return linear(h, wrapped["out.weight"], wrapped["out.bias"], tape), wrapped

    # -- parameter registry ---------------------------------------------------

    def flatten(self) -> FlatParams:
        """A copy of ``theta`` with its layout; later updates never reach it."""
        return self._flat.copy()

    def load(self, flat: FlatParams) -> None:
        if not flat.same_layout(self._flat):
            raise ValueError("parameter registry mismatch")
        self.theta[:] = flat.values

    def grad_vector(self, wrapped: dict[str, Tensor], grads: dict) -> Array:
        """The tape's gradients of the ``taped_forward`` parameter tensors as
        one vector in ``theta``'s layout; zeros where no gradient reached."""
        out = self._flat.with_values(np.zeros(self.theta.size))
        for name, tensor in wrapped.items():
            grad = grads.get(tensor)
            if grad is not None:
                out.slice(name)[...] = grad
        return out.values

    def clone(self) -> "MlpClassifier":
        other = MlpClassifier.__new__(MlpClassifier)  # no random init to overwrite
        other.sizes = self.sizes
        other._bind(self._flat.copy())
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
        hidden = []
        i = 0
        while f"hidden{i}.weight" in entries:
            hidden.append(entries[f"hidden{i}.weight"].shape)
            i += 1
        if not hidden or "out.weight" not in entries:
            raise CheckpointError("checkpoint does not hold an MLP state")
        sizes = (hidden[0][0],) + tuple(s[1] for s in hidden) + (entries["out.weight"].shape[1],)
        model = cls(sizes, seed=0)
        for name, view in model.params.items():
            view[...] = _entry(entries, name, view.shape)
        for i, stats in model.stats.items():
            model.stats[i] = RunningStats(
                _entry(entries, f"hidden{i}.running_mean", stats.mean.shape).copy(),
                _entry(entries, f"hidden{i}.running_var", stats.var.shape).copy(),
            )
        return model


def _finite(values: Array, what: str) -> Array:
    if not np.isfinite(values).all():
        raise FloatingPointError(f"{what} contains NaN or Inf")
    return values


def _entry(entries: dict[str, Array], name: str, shape: tuple[int, ...]) -> Array:
    if name not in entries:
        raise CheckpointError(f"checkpoint missing entry {name}")
    if entries[name].shape != shape:
        raise CheckpointError(f"checkpoint shape mismatch for {name}")
    return entries[name]


# -- parameter filters ----------------------------------------------------------


def bn_affine_filter(name: str) -> bool:
    return name.endswith(".gamma") or name.endswith(".beta")


def param_mask(flat: FlatParams, predicate: Callable[[str], bool]) -> Array:
    """Boolean mask over the flat vector selecting parameters by name."""
    mask = np.zeros(flat.dim, dtype=bool)
    for name, shape, offset in zip(flat.names, flat.shapes, flat.offsets):
        if predicate(name):
            mask[offset : offset + math.prod(shape)] = True
    return mask
