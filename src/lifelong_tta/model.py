"""Batch-normalized MLP classifier: one contiguous parameter vector with named views.

All trainables live in one float64 vector ``theta``, and the model is the one
owner of its layout: each stable dotted name (``hidden0.weight``,
``hidden0.gamma``, ..., ``out.bias``, in a deterministic registry order) is
a contiguous slice. ``views`` reshapes any vector of that length into named
views; ``params`` holds theta's own, so an optimizer step, an EMA update or
a restore is one in-place expression on ``theta``, and a posterior's mean and
variances or a gradient are plain vectors read through ``views``. ``flatten``
returns a copied snapshot. BN running statistics are plain arrays in
``running``, serialized with the model but not part of theta.
Each forward names its BN mode: ``"eval"`` normalizes by the running
statistics, ``"batch"`` by each batch's own, and ``"update"`` also folds the
batch's into the running arrays, in place.
``forward`` (untaped; one batch or a stack of equal batches) and
``taped_forward`` (one ``"update"`` batch) share one layer loop on plain
arrays. Each hidden layer writes its linear output into one block, centres
it there and writes batch norm and ReLU into a second, so a stack of G
batches needs two (G, B, width) blocks per layer width. ``forward`` takes
them from a caller's workspace (``scratch``) when it is given one, so a
loop of equal calls allocates no block; ``taped_forward`` always
allocates, since its backward keeps them. ``taped_forward`` appends the
network to a tape (a plain list) as one ``"mlp"`` node whose one input is
a tensor over theta itself and whose backward, the MLP's own, returns the
gradient as one vector in theta's layout. ``affine_only`` limits that
backward to the BN gamma/beta entries, the only ones ``tent`` and
``pseudo_label`` train: it forms no weight or bias product, stops at the
first layer's gamma/beta and leaves every other entry 0.0, so its entries
are the full backward's bits. ``batch_norm_arrays``, BN's arithmetic, sits
beside that backward, which reads its saved values.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint

Array = np.ndarray

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


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
        self._layout = _registry_layout(sizes)
        self._bind(np.zeros(self._layout[-1][3]))
        self.running: dict[str, Array] = {}
        for i, width in enumerate(sizes[1:-1]):
            self.running[f"hidden{i}.running_mean"] = np.zeros(width)
            self.running[f"hidden{i}.running_var"] = np.ones(width)

    @property
    def n_hidden(self) -> int:
        return len(self.sizes) - 2

    def _bind(self, theta: Array) -> None:
        """Adopt ``theta``; params become views of it."""
        self.theta = theta
        self.params: dict[str, Array] = self.views(theta)

    @property
    def pieces(self) -> tuple[slice, ...]:
        """Theta's slice of each trainable, in registry order."""
        return tuple(slice(start, end) for _, _, start, end in self._layout)

    def views(self, vector: Array) -> dict[str, Array]:
        """Named views, in registry order, of a vector in theta's layout."""
        dim = self._layout[-1][3]
        if vector.shape != (dim,):
            raise ValueError(f"expected a vector of {dim} parameters, got shape {vector.shape}")
        return {name: vector[start:end].reshape(shape) for name, shape, start, end in self._layout}

    # -- forward ------------------------------------------------------------

    def forward(self, x, bn: str, draws: int = 1, workspace: dict | None = None) -> Array:
        """Inference logits under BN mode ``bn`` (``"eval"``, ``"batch"`` or
        ``"update"``), with no tape.

        ``x`` may stack ``draws`` equal batches along its rows; under
        ``"batch"`` each is normalized by its own batch statistics, so the
        logits equal those of ``draws`` separate calls, one row per input row.
        Only a single batch may ``"update"`` the running statistics. With a
        ``workspace`` (see ``scratch``) each layer's two blocks are its
        buffers, shared by the hidden layers of one width and reused by the
        next call of the same shape; the logits are always a new array.
        Raises ``FloatingPointError`` on a NaN/Inf in the input, in theta, or
        in a linear, batch-norm or logit output.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ValueError(f"expected input (B, {self.sizes[0]}), got {x.shape}")
        if draws < 1 or x.shape[0] % draws:
            raise ValueError(f"{x.shape[0]} rows do not split into {draws} equal batches")
        _finite(self.theta, "parameters")
        # (draws, B, F) throughout: matmul runs one product per batch, so
        # each draw's rows are bit-identical to a call of its own
        logits = self._logits(x.reshape(draws, -1, self.sizes[0]), bn, workspace=workspace)
        return _finite(logits.reshape(x.shape[0], -1), "logits")

    def taped_forward(self, x, tape: list, affine_only: bool = False) -> tuple[Tensor, Tensor]:
        """``"update"``-mode logits of one batch, appended to ``tape`` as one
        node whose one input is a tensor over ``theta`` (no copy) and whose
        backward is ``_backward``; returns (logits, that tensor). Building
        that tensor is the one check that theta is finite. With
        ``affine_only`` the backward forms only the BN gamma/beta entries."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ValueError(f"expected input (B, {self.sizes[0]}), got {x.shape}")
        params = Tensor(self.theta)
        saved: list[tuple[Array, Array, Array]] = []
        logits = Tensor(self._logits(x, "update", saved))
        tape.append(("mlp", (params,), logits, lambda g: (self._backward(g, x, saved, affine_only),)))
        return logits, params

    def _logits(self, h: Array, bn: str, saved: list | None = None, workspace: dict | None = None) -> Array:
        """The one layer loop: linear, batch norm centred in the linear
        output's block, and in-place ReLU per hidden layer, then the linear
        head, on one (B, F) batch or a (G, B, F) stack. ``saved``, when
        given, receives each hidden layer's (x_hat, inv_std, output) for the
        backward; otherwise no layer's buffers outlive it. A ``workspace``
        hands every layer of one width the same two blocks, so only a
        forward that saves nothing passes one."""
        _finite(h, "input")
        p = self.params
        for i in range(self.n_hidden):
            weight = p[f"hidden{i}.weight"]
            shape = h.shape[:-1] + weight.shape[1:]
            h = np.matmul(h, weight, out=scratch(workspace, "linear", shape))
            h += p[f"hidden{i}.bias"]
            h, x_hat, inv_std = batch_norm_arrays(
                _finite(h, "linear output"),
                p[f"hidden{i}.gamma"],
                p[f"hidden{i}.beta"],
                self.running[f"hidden{i}.running_mean"],
                self.running[f"hidden{i}.running_var"],
                bn,
                out=scratch(workspace, "batch_norm", shape),
            )
            np.maximum(_finite(h, "batch norm output"), 0.0, out=h)
            if saved is not None:
                saved.append((x_hat, inv_std, h))
            del x_hat, inv_std
        logits = h @ p["out.weight"]
        logits += p["out.bias"]
        return logits

    def _backward(self, g: Array, x: Array, saved: list, affine_only: bool = False) -> Array:
        """The gradient of one ``taped_forward`` call, as one vector in
        theta's layout, from the logits' gradient ``g``: per layer the
        head's, ReLU's, batch-statistics batch norm's and the linear map's backward.
        The first layer's input gradient is never formed. With
        ``affine_only`` the gamma/beta entries are the same bits, every other
        entry is 0.0: no weight or bias product is formed, and the pass ends
        at the first layer's gamma/beta."""
        p = self.params
        grad = np.zeros(self.theta.size) if affine_only else np.empty_like(self.theta)
        grads = self.views(grad)
        if not affine_only:
            grads["out.weight"][...] = saved[-1][2].T @ g
            grads["out.bias"][...] = g.sum(axis=0)
        g = g @ p["out.weight"].T
        n = x.shape[0]
        for i in reversed(range(self.n_hidden)):
            x_hat, inv_std, out = saved[i]
            g = g * (out > 0.0)
            grads[f"hidden{i}.gamma"][...] = (g * x_hat).sum(axis=0)
            grads[f"hidden{i}.beta"][...] = g.sum(axis=0)
            if affine_only and not i:
                break
            g_hat = g * p[f"hidden{i}.gamma"]
            g = (inv_std / n) * (n * g_hat - g_hat.sum(axis=0) - x_hat * (g_hat * x_hat).sum(axis=0))
            if not affine_only:
                grads[f"hidden{i}.weight"][...] = (saved[i - 1][2] if i else x).T @ g
                grads[f"hidden{i}.bias"][...] = g.sum(axis=0)
            if i:
                g = g @ p[f"hidden{i}.weight"].T
        return grad

    # -- parameter registry ---------------------------------------------------

    def flatten(self) -> Array:
        """A copy of ``theta``; later updates never reach it."""
        return self.theta.copy()

    def load(self, values: Array) -> None:
        if values.shape != self.theta.shape:
            raise ValueError(f"expected {self.theta.size} parameters, got shape {values.shape}")
        self.theta[:] = values

    def clone(self) -> "MlpClassifier":
        other = MlpClassifier.__new__(MlpClassifier)  # no random init to overwrite
        other.sizes = self.sizes
        other._layout = self._layout
        other._bind(self.theta.copy())
        other.running = {name: values.copy() for name, values in self.running.items()}
        return other

    # -- checkpointing ---------------------------------------------------------

    def state_arrays(self) -> dict[str, Array]:
        return {**self.params, **self.running}

    def save(self, path) -> None:
        write_checkpoint(path, self.state_arrays())

    @classmethod
    def load_checkpoint(cls, path, sizes: Sequence[int]) -> "MlpClassifier":
        """The model of layer ``sizes`` saved at ``path``, read against
        ``state_arrays()``'s names and shapes; each BN running variance must
        also be non-negative."""
        model = cls.__new__(cls)  # no random init to overwrite
        model._allocate(sizes)
        expected = model.state_arrays()
        entries = read_checkpoint(path, {name: view.shape for name, view in expected.items()})
        for name, view in expected.items():
            if name.endswith(".running_var") and (entries[name] < 0.0).any():
                raise CheckpointError(f"checkpoint entry {name} is negative")
            view[...] = entries[name]
        return model


def batch_norm_arrays(
    x: Array,
    gamma: Array,
    beta: Array,
    running_mean: Array,
    running_var: Array,
    bn: str,
    *,
    out: Array,
) -> tuple[Array, Array, Array]:
    """The batch-normalization arithmetic on plain arrays; returns
    (out, x_hat, inv_std).

    ``x`` is one batch (B, F) or a stack of G batches (G, B, F). ``"batch"``
    normalizes each batch by its own mean/variance (biased); ``"update"``
    does the same and folds them into ``running_mean``/``running_var`` in
    place with momentum 0.1 (variance stored unbiased), so only a single
    batch may update them. ``"eval"`` normalizes by the running arrays.
    eps = 1e-5. The centring and scaling run in ``x``'s own buffer, which
    then holds x_hat; ``out``, of ``x``'s shape, receives the output (and
    first the squares of the centred input).
    """
    if x.ndim not in (2, 3):
        raise ValueError("batch norm expects a (B, F) or (G, B, F) input")
    n, features = x.shape[-2:]
    if gamma.shape != (features,) or beta.shape != (features,):
        raise ValueError("gamma/beta must be (F,)")
    if bn in ("batch", "update"):
        if n < 2:
            raise ValueError("batch-statistics batch norm needs a batch of at least 2")
        if bn == "update" and x.size != n * features:
            raise ValueError("only a single batch may update the running statistics")
        batch_mean = x.mean(axis=-2, keepdims=True)
        x_hat = np.subtract(x, batch_mean, out=x)
        # numpy's own variance formula, so batch_var equals x.var(axis=-2) bit
        # for bit; the squares' buffer takes the output below
        np.multiply(x_hat, x_hat, out=out)
        batch_var = out.sum(axis=-2, keepdims=True) / n
        inv_std = 1.0 / np.sqrt(batch_var + BN_EPS)
        x_hat *= inv_std
        if bn == "update":
            m = BN_MOMENTUM
            running_mean[...] = (1.0 - m) * running_mean + m * batch_mean.reshape(features)
            running_var[...] = (1.0 - m) * running_var + m * batch_var.reshape(features) * n / (n - 1)
    elif bn == "eval":
        inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
        x_hat = np.subtract(x, running_mean, out=x)
        x_hat *= inv_std
    else:
        raise ValueError(f"unknown BN mode {bn!r}")
    # in place where the values allow: the same operations, fewer buffers
    np.multiply(gamma, x_hat, out=out)
    out += beta
    return out, x_hat, inv_std


def scratch(workspace: dict | None, name: str, shape: tuple[int, ...], dtype=np.float64) -> Array:
    """An uninitialized buffer of ``shape``: with a ``workspace`` (a dict) its
    own for ``(name, shape)``, made on the first request and handed out again
    on every later one, so the caller overwrites all of it; without one, a
    new array."""
    if workspace is None:
        return np.empty(shape, dtype)
    buffer = workspace.get((name, shape))
    if buffer is None:
        buffer = workspace[name, shape] = np.empty(shape, dtype)
    return buffer


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
