"""Lifelong test-time adaptation engine and baselines.

There are two step kinds. ``adapt_step`` is the one gradient step of every
adapting method: the taped objective of ``_objective`` (the one loss
builder), one optimizer step on the student's parameter vector, and, for the
self-training methods (``petal``, ``cotta``), an exponential-moving-average
teacher update and a restore. Those two keep a teacher that emits
pseudo-label probability rows (averaged over K randomized augmentation draws
when the frozen source model is unconfident on the input); the student
minimizes the cross-entropy to them (``petal`` adds a source-posterior
log-density anchor weighted by alpha), and then a subset of student
parameters is restored to the source values by the row's rule: ``cotta``
picks them at random, as CoTTA does, ``petal`` as the coordinates with the
smallest squared loss gradient, so ``cotta`` is ``petal_sres`` at alpha = 0.
``tent`` (entropy minimization) and ``pseudo_label`` (hard self-labels) have
no teacher and move only the BN affine parameters.
``baseline_step`` is the forward-only step of ``source`` (no adaptation) and
``bn_adapt`` (batch-statistics refresh only); the BN mode it passes to the
forward, ``"eval"`` or ``"update"``, tells them apart.

Every gradient step is an Adam step, and ``petal``/``cotta`` predict from
the teacher. The Adam state covers only the coordinates a method trains
(``AdaptState.trained``): an index array of the BN affine coordinates for
``tent``/``pseudo_label``, so their Adam moments and step touch 2 x width
entries per hidden layer and nothing else; all of theta, as a view, for
``petal``/``cotta``, whose restore works on theta-length vectors and leaves
the moments alone. A step computes only what its update reads: the
BN-affine-only methods run the model's ``affine_only`` backward, which forms
no weight or bias gradient; ``adam_delta`` and ``ema_update`` update the
moments and the teacher in place, with the operations and order of their
textbook expressions and so with those expressions' bits; and ``petal``'s
run state holds its anchor, the posterior with its constant log-density
normalizer sums, so a step computes only the anchor's quadratic part.

A gate-open step takes one chunk, ``(numbers, noise, rows)``: the random
numbers of all K draws (``draw_numbers``, one generator call per draw for its
uniforms), K draws of B samples in draw order whatever the images and theta,
and ``rows``, a (K, B, C) array that receives each draw's teacher
probabilities in draw order. ``_teacher_rows`` fills a range of ``rows`` in
blocks of eight: one ``augment`` call runs each transform once over the
block's draws, one teacher forward normalizes each draw by its own batch
statistics, then a softmax. The pseudo-label average is one reduction,
``rows.sum(axis=0) / K``, which numpy accumulates along axis 0 in draw
order, so the pseudo-labels are bit-identical to those of K one-draw calls.
A run uses a second process for the draws: ``run_lifelong`` gives its
teacher state a ``DrawHelper`` when K leaves the helper whole blocks
(``_helper_share``, K >= 9), which forks (``os.fork``) on the run's first
gate-open step and is reaped when the run ends. The chunk then lives in a
shared mapping: the helper draws the next gate-open step's numbers into it
while main finishes the current step, so main draws none of them. On a
gate-open step main hands over theta and the images, adopts the helper's
generator state, and fills the upper draws' rows while the helper fills the
lowest whole blocks', about half the draws; both run ``_teacher_rows``, so
the helper changes no output bit. While the helper lives, both processes
run one OpenBLAS thread; where numpy's OpenBLAS cannot be set to one thread
and does not already run one, a run forks no helper. A state stepped outside
``run_lifelong`` has no helper, draws each gate-open step's chunk itself,
into its workspace, and fills every row. The blocks live in the run's
workspace (``AdaptState.workspace``, petal/cotta only): the chunk where main
draws it, the augmentation block, the bilinear resampling's scratch and the
teacher forward's two activation blocks, one set per chunk and block shape,
made on the first gate-open step and overwritten on every later one, so a
step allocates no block and faults no page in. ``augment``,
``_affine_batch`` and ``MlpClassifier.forward`` write into the buffers they
are given with the operations, in the order, of their allocating form, which
is the same code called without a workspace.

Only the student's objective is taped, on a plain list, the model as one
node and each loss op as its own; its one parameter input is a tensor over
the student's theta, so the gradient is one vector in theta's layout. The
gate, the teacher, the forward-only step and evaluation run the untaped
``forward`` on plain arrays. A ``Tensor`` holds no NaN or Inf, so a
forward or loss that leaves the finite range raises inside the step, which
aborts with ``NonFiniteLossError``.

One frozen, eval-BN source model holds the posterior mode theta_0: it gates
augmentation and is the restore target. ``METHODS`` is the one table of
methods: each name the CLI and a config's ``adapt.method`` accept is one
``Method`` row of what the engine reads (the objective, the anchor, the
forward-only BN mode, the restore rule, the segment reset), and
``method_config`` turns a name into its config, which keeps the name. Only
the methods whose row calls for a teacher, Adam moments or an anchor get
them, and a step reads those fields and its row, not the method's name:
moments make a gradient step, a teacher makes pseudo-labels, an EMA update
and a restore, an anchor adds the posterior term at alpha != 0.
``init_adapt_state`` is the one constructor of a run's state; a row's
oracle segment reset (CoTTA's TENT-online baseline is the one row with it)
is a second call of it at each segment boundary, on the generators the run
already holds, so the random streams continue across the reset.

``run_lifelong`` appends one row per step, keyed by ``STEP_COLUMNS``; the
rows are ``steps.csv``, and the per-segment and overall summaries are the
metric summaries plus the mean of the rows' ``restored``.

All per-batch predictions are emitted before the update that uses that
batch's gradient; evaluation is strictly online.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import os
import pickle
import signal
import sys
import traceback
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .autodiff import (
    backward,
    gaussian_log_density,
    log_normalizers,
    soft_cross_entropy,
    softmax,
    softmax_entropy_mean,
    weighted_sum,
)
from .metrics import MetricAccumulator, MetricSummary, per_sample_scores
from .model import MlpClassifier, bn_affine_filter, param_mask, scratch
from .streams import IMAGE_SIDE, StreamSchedule, SyntheticDataset, _box_blur, stream_batches
from .swag import SwagDiagPosterior, one_hot

Array = np.ndarray

# winner of the regularizer-weight grid on the held-out tuning corruption
DEFAULT_ALPHA = 1e-6


class NonFiniteLossError(RuntimeError):
    """A forward or the adaptation objective left the finite range; the run must abort."""


# ---------------------------------------------------------------------------
# configuration


def ranged(default, ok, must: str):
    """A config field whose usable values are those where ``ok(value)``
    holds; ``must`` names them in the message ``config.<path> must be <must>, got <value>``."""
    return field(default=default, metadata={"ok": ok, "must": must})


def at_least(low, default):
    return ranged(default, lambda v: v >= low, f">= {low}")


def unit(default):
    return ranged(default, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def one_of(names, default):
    return ranged(default, lambda v: v in names, "one of " + ", ".join(names))


@dataclass(frozen=True)
class AugmentParams:
    """Magnitudes for the randomized input augmentations (zero disables one), each with its range."""

    brightness: float = at_least(0, 0.1)
    contrast: float = unit(0.2)  # a contrast above 1 would draw negative contrast factors
    max_shift_px: float = at_least(0, 1.0)
    max_rot_deg: float = at_least(0, 10.0)
    blur_prob: float = unit(0.3)
    flip_prob: float = unit(0.5)
    noise_std: float = at_least(0, 0.02)


@dataclass(frozen=True)
class Method:
    """What the engine reads of one method name, a row of ``METHODS``.

    ``objective`` is what the gradient step minimizes: None for a
    forward-only method, ``"entropy"`` (the mean prediction entropy),
    ``"self_label"`` (the cross-entropy to the one-hot argmax of the
    student's own prediction) or ``"teacher_ce"`` (the cross-entropy to the
    teacher's pseudo-labels). The rest of a run's state follows from it:
    every objective gets Adam moments, and ``"teacher_ce"`` a teacher, its
    workspace, the EMA update, the restore and all of theta to train; the
    other objectives train only the BN affine coordinates. A teacher row's
    ``restore`` is ``"fim"`` (the coordinates of smallest squared gradient),
    ``"stochastic"`` (at random, CoTTA's rule) or ``"none"``. ``reset`` is
    the oracle segment reset: the run starts each segment from a fresh state.
    """

    objective: str | None = None
    anchor: bool = False  # the source-posterior log-density term, at alpha != 0
    bn_mode: str | None = None  # the forward-only step's BN mode
    restore: str | None = None  # set on every teacher row, None on the others
    reset: bool = False  # a fresh state at each change of segment id


# every method name the CLI and a config accept, and report.json's "method"
METHODS = {
    "petal": Method("teacher_ce", anchor=True, restore="fim"),
    "cotta": Method("teacher_ce", restore="stochastic"),
    "source": Method(bn_mode="eval"),
    "bn_adapt": Method(bn_mode="update"),
    "pseudo_label": Method("self_label"),
    "tent": Method("entropy"),
    "petal_fim": Method("teacher_ce", anchor=True, restore="fim"),
    "petal_sres": Method("teacher_ce", anchor=True, restore="stochastic"),
    "petal_none": Method("teacher_ce", anchor=True, restore="none"),
    "tent_online": Method("entropy", reset=True),
}


@dataclass(frozen=True)
class PetalConfig:
    """Knobs of the adaptation step; ``method`` names the ``METHODS`` row
    that owns every rule, the restore rule too, and the rest are magnitudes.

    Each field declares its range. ``cli.validate_config`` checks every
    config read from a file or a flag; code that builds a ``PetalConfig``
    directly is not checked, which tests use to drive ``tau`` to 2.0 and so
    hold the augmentation gate fully open.
    """

    method: str = one_of(tuple(METHODS), "petal")
    k_aug: int = at_least(1, 32)
    tau: float = unit(0.72)
    alpha: float = at_least(0, DEFAULT_ALPHA)
    pi: float = unit(0.999)
    eta: float = at_least(0, 1e-3)
    rho: float = unit(0.01)  # the "stochastic" restore's rate
    delta: float = unit(0.03)  # the "fim" restore's share
    augment: AugmentParams = field(default_factory=AugmentParams)


def method_config(cfg: PetalConfig, name: str) -> PetalConfig:
    """``cfg`` set to run the method ``name``, a key of ``METHODS``."""
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}")
    return replace(cfg, method=name)


# ---------------------------------------------------------------------------
# augmentation


# output-pixel offsets from the image center, along a row or a column
_CENTER = (IMAGE_SIDE - 1) / 2.0
_OFFSETS = np.arange(IMAGE_SIDE) - _CENTER


def _affine_batch(images: Array, dx: Array, dy: Array, theta: Array, workspace: dict | None = None) -> Array:
    """Per-sample rotation + shift with bilinear resampling, replicate border.

    ``images`` is (B, IMAGE_SIDE, IMAGE_SIDE) and stays intact. The scratch
    and the returned output are ``workspace`` buffers (see ``scratch``),
    reused by the next call of the same shape, or new arrays without one.
    """
    b, side, _ = images.shape
    shape = images.shape
    cos = np.cos(theta)[:, None]
    sin = np.sin(theta)[:, None]
    # the grid is separable: cos * row offset + sin * column offset, one
    # (B, side) product copied down the grid and the other added across it
    src_r = scratch(workspace, "affine.rows", shape)
    src_r[...] = (cos * _OFFSETS)[:, :, None]
    src_r += (sin * _OFFSETS)[:, None, :]
    src_r += _CENTER
    src_r -= dy[:, None, None]
    src_c = scratch(workspace, "affine.cols", shape)
    src_c[...] = (-sin * _OFFSETS)[:, :, None]
    src_c += (cos * _OFFSETS)[:, None, :]
    src_c += _CENTER
    src_c -= dx[:, None, None]
    np.clip(src_r, 0.0, side - 1.0, out=src_r)
    np.clip(src_c, 0.0, side - 1.0, out=src_c)
    # the clip leaves every coordinate in [0, side - 1], where r1 = r0 +
    # (r0 < side - 1), c1 likewise: one flat index (pixel (i, r, c) sits at
    # i*side^2 + r*side + c) and two 0/1 steps give all four taps; the floors
    # and the index are small whole numbers, exact in float, so the index is
    # formed in float and cast to integers once; the floors borrow the weight
    # and tap buffers, which the taps below overwrite
    r0 = np.floor(src_r, out=scratch(workspace, "affine.weight", shape))
    c0 = np.floor(src_c, out=scratch(workspace, "affine.tap", shape))
    src_r -= r0  # fr
    src_c -= c0  # fc
    row_step = np.less(r0, side - 1, out=scratch(workspace, "affine.row_step", shape, np.int8))
    row_step *= side
    col_step = np.less(c0, side - 1, out=scratch(workspace, "affine.col_step", shape, np.int8))
    r0 *= side
    r0 += c0
    r0 += (np.arange(b) * (side * side))[:, None, None]
    index = scratch(workspace, "affine.index", shape, np.intp)
    np.copyto(index, r0, casting="unsafe")
    # top = v00 * (1 - fc) + v01 * fc, bottom likewise one row down, and
    # top * (1 - fr) + bottom * fr, each product and sum as written; every
    # index is in range, so take's mode="clip" never acts, and it spares take
    # the buffer its default mode puts behind out=
    flat = images.reshape(-1)
    weight = np.subtract(1.0, src_c, out=scratch(workspace, "affine.weight", shape))  # 1 - fc
    tap = scratch(workspace, "affine.tap", shape)
    top = flat.take(index, out=scratch(workspace, "affine.out", shape), mode="clip")
    top *= weight
    index += col_step
    top += np.multiply(flat.take(index, out=tap, mode="clip"), src_c, out=tap)
    index += row_step
    index -= col_step
    bottom = flat.take(index, out=tap, mode="clip")
    bottom *= weight
    index += col_step
    bottom += np.multiply(flat.take(index, out=weight, mode="clip"), src_c, out=weight)
    np.subtract(1.0, src_r, out=weight)
    top *= weight
    bottom *= src_r
    top += bottom
    return top


# the per-sample random numbers of one draw, in the order a draw takes them;
# the noise, B x 64 standard normals, comes last and is held apart
_NUMBERS = ("contrast", "brightness", "dx", "dy", "rotation", "blur", "flip")


def draw_numbers(rng: np.random.Generator, params: AugmentParams, numbers: Array, noise: Array | None) -> None:
    """The random numbers of ``numbers.shape[0]`` draws of B samples each,
    written in place.

    Draw by draw they are taken in the pipeline's order (contrast,
    brightness, dx, dy, rotation, blur and flip uniforms, noise), each only
    when its magnitude is non-zero: draw k's go to ``numbers[k]`` (rows named
    by ``_NUMBERS``) and its standard normals to rows k*B to (k+1)*B of
    ``noise``, which is None at zero noise. A draw's uniforms are one
    ``random`` call, which takes the numbers a ``uniform`` or ``random``
    call per row would take; after the last draw each row is scaled over all
    draws at once with ``Generator.uniform``'s own arithmetic,
    low + (high - low) * u, so the numbers and the generator's final state
    are those of the per-row calls, bit for bit. A row whose magnitude is
    zero holds no number of the draw and is never read."""
    shifted = params.max_shift_px or params.max_rot_deg
    # (on, low, high) per row of _NUMBERS; blur and flip keep the plain uniforms in [0, 1)
    table = (
        (params.contrast, 1.0 - params.contrast, 1.0 + params.contrast),
        (params.brightness, -params.brightness, params.brightness),
        (shifted, -params.max_shift_px, params.max_shift_px),
        (shifted, -params.max_shift_px, params.max_shift_px),
        (shifted, -params.max_rot_deg, params.max_rot_deg),
        (params.blur_prob, None, None),
        (params.flip_prob, None, None),
    )
    rows = [(row, low, high) for row, (on, low, high) in enumerate(table) if on]
    draws, _, b = numbers.shape
    taken = numbers[:, : len(rows)]  # each draw's uniforms, packed at the top of its rows
    for k in range(draws):
        if rows:
            rng.random(out=taken[k])
        if params.noise_std:
            # the standard normals z that rng.normal(0.0, std) would scale
            rng.standard_normal(out=noise[k * b : (k + 1) * b])
    places = [row for row, _, _ in rows]
    if places != list(range(len(rows))):  # a zero magnitude above an active row: move each row to its place
        numbers[:, places] = taken.copy()
    for row, low, high in rows:
        if low is not None:
            # uniform converts both bounds to float and draws low + (high - low) * u
            low, high = float(low), float(high)
            numbers[:, row] *= high - low
            numbers[:, row] += low


def augment(
    images: Array, params: AugmentParams, numbers: Array, noise: Array | None, workspace: dict | None = None
) -> Array:
    """The randomized draws of the augmentation pipeline whose random numbers
    ``draw_numbers`` wrote into ``numbers`` and ``noise``, clipped to [0, 1].

    ``images`` is (B, 64), one row per sample of the draws, and stays intact.
    The draws are stacked along the first axis, draw k in rows k*B to
    (k+1)*B. Each transform runs once over every draw, in place on the block,
    and ``noise`` is scaled in place, so one call equals one call per draw
    on that draw's numbers. With all magnitudes zero every draw is the input,
    bit-identical. The block and its scratch are ``workspace`` buffers (see
    ``scratch``), so the result is valid until the next call of the same
    shape; without a workspace they are new arrays."""
    draws, _, b = numbers.shape
    if images.shape != (b, IMAGE_SIDE * IMAGE_SIDE):
        raise ValueError(f"augment expects ({b}, 64) flattened images, one row per drawn sample, got {images.shape}")
    batch = images.reshape(b, IMAGE_SIDE, IMAGE_SIDE)
    out = scratch(workspace, "augment", (draws * b, IMAGE_SIDE, IMAGE_SIDE))
    out.reshape(draws, b, IMAGE_SIDE, IMAGE_SIDE)[...] = batch

    def column(name: str) -> Array:  # one number per row of the block
        return numbers[:, _NUMBERS.index(name)].reshape(-1)

    if params.contrast:
        out -= 0.5
        out *= column("contrast")[:, None, None]
        out += 0.5
    if params.brightness:
        out += column("brightness")[:, None, None]
    if params.max_shift_px or params.max_rot_deg:
        theta = np.deg2rad(column("rotation"))
        out = _affine_batch(out, column("dx"), column("dy"), theta, workspace)
    if params.blur_prob:
        flags = column("blur") < params.blur_prob
        if flags.any():
            out[flags] = _box_blur(out[flags], 3, 1)
    if params.flip_prob:
        flags = column("flip") < params.flip_prob
        out[flags] = out[flags, :, ::-1]
    if noise is not None:
        # rng.normal's own arithmetic, 0.0 + std * z, so the same bits
        noise *= params.noise_std
        noise += 0.0
        out += noise
    if any(vars(params).values()):  # some magnitude is non-zero
        np.clip(out, 0.0, 1.0, out=out)
    return out.reshape(draws * b, IMAGE_SIDE * IMAGE_SIDE)


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(eq=False)
class AdamState:
    m: Array
    v: Array
    step: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(np.zeros(dim), np.zeros(dim))


def adam_delta(opt: AdamState, grad: Array, lr: float) -> Array:
    """Advance the Adam moments in place and return the step to subtract, a
    new array. The operations and their order are those of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    lr m_hat / (sqrt(v_hat) + eps), so the bits are too; only the buffers
    are reused."""
    opt.step += 1
    scratch = np.multiply(grad, 1.0 - ADAM_BETA1)
    opt.m *= ADAM_BETA1
    opt.m += scratch
    np.multiply(grad, grad, out=scratch)
    scratch *= 1.0 - ADAM_BETA2
    opt.v *= ADAM_BETA2
    opt.v += scratch
    np.divide(opt.v, 1.0 - ADAM_BETA2**opt.step, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    delta = opt.m / (1.0 - ADAM_BETA1**opt.step)
    delta *= lr
    delta /= scratch
    return delta


# ---------------------------------------------------------------------------
# state


@dataclass(eq=False)
class AdaptState:
    """What a run carries between steps, and what its steps read to know what
    to do. ``method`` is the run's row of ``METHODS``. ``source_model``
    (frozen, eval BN) is the only theta_0: the gate's weights and the restore
    target. ``teacher`` is None except for a ``"teacher_ce"`` objective;
    ``opt``, the Adam moments of the ``trained`` coordinates, is None for a
    forward-only method. ``anchor``, the posterior and its constant per-piece
    log-density normalizer sums, is None unless the row's ``anchor`` is on.
    ``workspace``, the teacher blocks' buffers keyed by (name, shape), is
    None without a teacher; it holds nothing until the first gate-open
    step. ``helper``, the process that runs part of the teacher's draws, is
    a ``DrawHelper`` only while ``run_lifelong`` runs a teacher state, and
    None otherwise."""

    method: Method
    student: MlpClassifier
    teacher: MlpClassifier | None
    source_model: MlpClassifier
    trained: Array | slice  # the coordinates the optimizer moves; Adam's moments cover only these
    step: int
    opt: AdamState | None
    rng_augment: np.random.Generator
    rng_restore: np.random.Generator
    anchor: tuple[SwagDiagPosterior, tuple[float, ...]] | None
    workspace: dict | None
    helper: DrawHelper | None = None


def init_adapt_state(
    source_model: MlpClassifier,
    posterior: SwagDiagPosterior,
    cfg: PetalConfig,
    *,
    rng_augment: np.random.Generator,
    rng_restore: np.random.Generator,
) -> AdaptState:
    """The state of a run of ``cfg.method``, whose ``METHODS`` row it looks up
    once and keeps. The frozen source model, the student and (for a
    ``"teacher_ce"`` objective) the teacher all start from the posterior
    mode, with zero Adam moments. The state draws augmentations from
    ``rng_augment`` and stochastic restores from ``rng_restore``; with the
    anchor on it holds ``posterior`` with its ``log_normalizers``, so a step
    computes only the parameter-dependent part of the log-density."""
    method = METHODS[cfg.method]
    frozen_source = source_model.clone()
    frozen_source.load(posterior.mu)
    student = frozen_source.clone()
    teacher = frozen_source.clone() if method.objective == "teacher_ce" else None
    # the teacher objective trains all of theta, as a basic slice, so theta[trained] is a view and the
    # step copies nothing; the others move only the BN affine parameters (unread without an objective)
    trained = slice(None) if teacher is not None else np.flatnonzero(param_mask(frozen_source, bn_affine_filter))
    # no moments for the methods that take no gradient step
    opt = None if method.objective is None else AdamState.zeros(student.theta[trained].size)
    anchor = (posterior, log_normalizers(posterior.sigma2, student.pieces)) if method.anchor else None
    return AdaptState(
        method=method,
        student=student,
        teacher=teacher,
        source_model=frozen_source,
        trained=trained,
        step=0,
        opt=opt,
        rng_augment=rng_augment,
        rng_restore=rng_restore,
        anchor=anchor,
        workspace=None if teacher is None else {},
    )


# ---------------------------------------------------------------------------
# step report


@dataclass(eq=False)
class StepReport:
    predictions: Array  # (B, C) probability rows, emitted online
    restored: int
    loss: float


# ---------------------------------------------------------------------------
# pseudo-labels and losses


# Augmentation draws per teacher block: one augment call and one teacher
# forward each, in the run's workspace (or the helper's). Sweep with the
# helper drawing every number a gate-open step ahead and running 16 of the 32
# draws, one generator call per draw's uniforms and the bilinear warp's index
# formed in float, on a 2-core VM (numpy 2.4.6, one BLAS thread),
# `perfbench/run.py --workload petal_long --seconds 20 --trace 0`, seed 0,
# medians of 3 alternating pairs:
#   draws  step_ms_p50  peak_rss_mb
#   4      9.82         48.04
#   8      9.44         49.54 (+3.1%)
# 8 draws are 3.9% faster than 4; main's workspace grows with the block.
_DRAW_BLOCK = 8


def _helper_share(k_aug: int) -> int:
    """How many of the K draws, the lowest, a step hands the helper: the
    whole blocks nearest half of them, leaving main at least one draw. So
    each side's blocks are blocks of the in-process loop, and the first
    block that meets a NaN raises the in-process message."""
    blocks = (k_aug + _DRAW_BLOCK) // (2 * _DRAW_BLOCK)
    return _DRAW_BLOCK * min(blocks, (k_aug - 1) // _DRAW_BLOCK)


class DrawHelper:
    """A forked process that draws a teacher run's augmentation numbers one
    gate-open step ahead, and fills the lowest draws' rows of each such step.

    ``run_lifelong`` makes one for a teacher run whose K hands the helper
    draws (``_helper_share``), with the run's K and ``AugmentParams``, and
    closes it when the run ends. The first ``submit`` forks it, with a copy
    of the run's augmentation generator, and sizes its shared mapping for
    that step's B, once per run: theta, the images and the step's chunk
    (numbers, noise, rows). After the fork, and each time main's rows of a
    step are filled, the helper draws all K draws' numbers and noise for the
    next gate-open step into the mapping and replies with its generator's
    state. Main writes theta and the images into the mapping (a batch of
    another size does not fit, and the step is refused before anything is
    sent), adopts the state and says "go"; the helper fills its share of the
    rows with ``_teacher_rows`` and replies None, or the message of its first
    failing block's ``FloatingPointError``. Both processes run one OpenBLAS
    thread while the helper lives. It ignores SIGINT and leaves by
    ``os._exit`` once main closes the pipe or dies.
    """

    def __init__(self, k_aug: int, params: AugmentParams) -> None:
        self.k_aug, self.params = k_aug, params
        self.pid: int | None = None

    @staticmethod
    def may_fork() -> bool:
        """Whether a helper can run here on one BLAS thread: the system forks,
        and numpy's OpenBLAS can be set to one thread or reports one."""
        get_threads = _openblas("get") if hasattr(os, "fork") else None
        return get_threads is not None and (_openblas("set") is not None or get_threads() == 1)

    def submit(
        self, teacher: MlpClassifier, images: Array, rng: np.random.Generator
    ) -> tuple[Array, Array | None, Array]:
        """Start the helper on its share of this step's rows and move ``rng`` past all K draws;
        the step's chunk (numbers, noise, rows), mapping views: the numbers and noise hold until
        ``collect``, the rows until the next ``submit``."""
        if self.pid is None:
            self._fork(teacher, rng, images.shape[0])
        self.images[...] = images  # raises for a batch of another size, with the pipe untouched
        self.theta[...] = teacher.theta  # the helper reads neither until "go"
        rng.bit_generator.state = self._ask()
        self._ask("go", reply=False)
        return self.chunk

    def collect(self) -> None:
        """Wait for the helper's rows, raising the ``FloatingPointError`` of its first failing
        block. Main calls it once its own rows are filled: the helper then draws the next step's
        numbers over this step's."""
        error = self._ask("done")
        if error is not None:
            raise FloatingPointError(error)

    def _ask(self, request=None, reply: bool = True):
        """Send ``request`` down the pipe unless it is None, then return the next reply if ``reply``."""
        try:
            if request is not None:
                os.write(self._requests, pickle.dumps(request))  # under PIPE_BUF bytes: one atomic write
            return pickle.load(self._replies) if reply else None
        except (OSError, EOFError):
            raise RuntimeError(f"the teacher draw helper process {self.pid} exited mid-run") from None

    def close(self) -> None:
        """End the helper, if it was forked, reap it and put main's BLAS thread count back."""
        if self.pid is None:
            return
        os.close(self._requests)
        self._replies.close()
        os.waitpid(self.pid, 0)
        self.pid = None
        self._set_threads(self._threads)
        self.theta = self.images = self.chunk = None  # unmaps once no view is left

    def _fork(self, teacher: MlpClassifier, rng: np.random.Generator, b: int) -> None:
        k_aug = self.k_aug
        noise = k_aug * b * IMAGE_SIDE**2 if self.params.noise_std else 0
        sizes = (teacher.theta.size, b * IMAGE_SIDE**2, k_aug * len(_NUMBERS) * b, noise, k_aug * b * teacher.sizes[-1])
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), np.float64)
        theta, images, numbers, noise, rows = np.split(flat, np.cumsum(sizes)[:-1])
        self.theta, self.images = theta, images.reshape(b, -1)
        noise = noise.reshape(k_aug * b, IMAGE_SIDE, IMAGE_SIDE) if self.params.noise_std else None
        self.chunk = numbers.reshape(k_aug, len(_NUMBERS), b), noise, rows.reshape(k_aug, b, -1)
        requests, self._requests = os.pipe()
        replies_in, replies = os.pipe()
        # where OpenBLAS exports no setter, ``may_fork`` saw it run one thread
        self._set_threads = _openblas("set") or (lambda count: None)
        self._threads = _openblas("get")()  # main's count, put back at close
        self._set_threads(1)  # before the fork, so the helper starts on one thread too
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests, self._requests, replies_in, replies):
                os.close(fd)
            self._set_threads(self._threads)
            raise
        if self.pid:
            os.close(requests)
            os.close(replies)
            self._replies = os.fdopen(replies_in, "rb")
            return
        try:  # the helper: never returns into the caller's code
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            os.close(self._requests)
            os.close(replies_in)
            self._serve(teacher, rng, os.fdopen(requests, "rb"), replies)
        except (BrokenPipeError, EOFError):  # main closed the pipe, or stopped reading mid-step
            pass
        except Exception:  # a fault of the helper's own: main sees its exit
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(0)

    def _serve(self, teacher: MlpClassifier, rng: np.random.Generator, requests, replies: int) -> None:
        workspace: dict = {}
        numbers, noise, _ = self.chunk
        share = _helper_share(self.k_aug)
        while True:
            draw_numbers(rng, self.params, numbers, noise)
            os.write(replies, pickle.dumps(rng.bit_generator.state))
            pickle.load(requests)  # "go": theta and the images are in the mapping
            teacher.load(self.theta)
            error = None
            try:
                _teacher_rows(teacher, self.images, self.params, self.chunk, 0, share, workspace)
            except FloatingPointError as exc:
                error = str(exc)
            os.write(replies, pickle.dumps(error))
            pickle.load(requests)  # "done": main reads none of this step's numbers any more


def _teacher_rows(
    teacher: MlpClassifier,
    images: Array,
    params: AugmentParams,
    chunk: tuple[Array, Array | None, Array],
    start: int,
    stop: int,
    workspace: dict | None,
) -> None:
    """Fill draws ``start`` to ``stop`` of a step's ``chunk``, (numbers, noise,
    rows), with the teacher's probability rows, in blocks of ``_DRAW_BLOCK``
    draws from ``start`` (a multiple of it): per block one ``augment`` call,
    one ``"batch"`` forward, each draw normalized by its own batch
    statistics, and a softmax. The first failing block raises its
    ``FloatingPointError``."""
    numbers, noise, rows = chunk
    b = images.shape[0]
    for first in range(start, stop, _DRAW_BLOCK):
        last = min(first + _DRAW_BLOCK, stop)
        block_noise = None if noise is None else noise[first * b : last * b]
        block = augment(images, params, numbers[first:last], block_noise, workspace)
        logits = teacher.forward(block, "batch", last - first, workspace)
        rows[first:last] = softmax(logits).reshape(last - first, b, -1)


def _openblas(action: str):
    """The ``"get"`` or ``"set"`` thread-count function of the OpenBLAS numpy
    links, as ``_multiarray_umath`` exports it, or None where it does not."""
    lib = ctypes.CDLL((getattr(np, "_core", None) or np.core)._multiarray_umath.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        fn = getattr(lib, name.format(action), None)
        if fn is not None:
            fn.argtypes, fn.restype = ([], ctypes.c_int) if action == "get" else ([ctypes.c_int], None)
            return fn
    return None


def teacher_pseudo_label(state: AdaptState, images: Array, cfg: PetalConfig) -> Array:
    """Per-sample soft pseudo-labels from the teacher.

    When the frozen source model's max softmax probability on a sample is
    below tau, that sample's label is the teacher's prediction averaged over
    k_aug augmentation draws; otherwise it is the direct teacher prediction.
    A step whose gate opens takes one chunk (numbers, noise, rows): from
    ``state.rng_augment`` by one ``draw_numbers`` call into
    ``state.workspace``, or, for a state with a ``DrawHelper`` (a run's, in
    ``run_lifelong``), from the helper, which drew the numbers a step ahead,
    while ``state.rng_augment`` moves as if it had drawn them.
    ``_teacher_rows`` fills the (K, B, C) rows, and the teacher's running
    statistics stay untouched. With a helper, it fills the lowest
    ``_helper_share`` draws' rows while main fills the rest, and the first
    failing block, the helper's before main's, raises. The random numbers and
    the rows' sum run in draw order either way, so the labels equal those of
    one augment call and one forward per draw, bit for bit. The returned rows
    are a new array, never a workspace or mapping buffer.
    """
    source_probs = softmax(state.source_model.forward(images, "eval"))
    confidence = source_probs.max(axis=1)
    direct = softmax(state.teacher.forward(images, "batch"))
    needs_averaging = confidence < cfg.tau
    if not needs_averaging.any():
        return direct
    if state.helper is None:
        start, b, noise = 0, images.shape[0], None
        numbers = scratch(state.workspace, "augment.numbers", (cfg.k_aug, len(_NUMBERS), b))
        if cfg.augment.noise_std:
            noise = scratch(state.workspace, "augment.noise", (cfg.k_aug * b, IMAGE_SIDE, IMAGE_SIDE))
        draw_numbers(state.rng_augment, cfg.augment, numbers, noise)
        chunk = numbers, noise, scratch(state.workspace, "teacher.rows", (cfg.k_aug, *direct.shape))
    else:
        start = _helper_share(cfg.k_aug)
        chunk = state.helper.submit(state.teacher, images, state.rng_augment)
    try:
        _teacher_rows(state.teacher, images, cfg.augment, chunk, start, cfg.k_aug, state.workspace)
    finally:  # the helper's error, whose draws come first, replaces main's
        if state.helper is not None:
            state.helper.collect()
    averaged = chunk[2].sum(axis=0) / cfg.k_aug
    return np.where(needs_averaging[:, None], averaged, direct)


def ema_update(teacher: MlpClassifier, student: MlpClassifier, pi: float) -> None:
    """theta' <- pi * theta' + (1 - pi) * theta over trainables, in place,
    with the bits of that expression; a shape mismatch raises ``ValueError``
    before anything is written. The teacher's BN running statistics are left
    alone: its ``"batch"`` forwards normalize by batch statistics and never
    read or update them."""
    if teacher.theta.shape != student.theta.shape:
        raise ValueError(f"teacher has {teacher.theta.size} parameters, student {student.theta.size}")
    pulled = np.multiply(student.theta, 1.0 - pi)
    teacher.theta *= pi
    teacher.theta += pulled


# ---------------------------------------------------------------------------
# restoration


def fim_diag(grad: Array) -> Array:
    """Diagonal of grad grad^T: the elementwise square."""
    return np.asarray(grad, dtype=np.float64) ** 2


def fim_mask(fim: Array, delta: float) -> Array:
    """Select exactly floor(delta * D) coordinates with the smallest values;
    ties break toward the lower index.

    O(D): a partition finds the keep-th smallest value ``cut``; every value
    below it is selected, then the lowest-index values equal to it fill the
    rest. For input without NaN this is the mask of
    ``argsort(fim, kind="stable")[:keep]``.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    keep = int(math.floor(delta * fim.size))
    if not keep:
        return np.zeros(fim.size, dtype=bool)
    cut = np.partition(fim, keep - 1)[keep - 1]
    mask = fim < cut
    ties = np.flatnonzero(fim == cut)
    mask[ties[: keep - int(mask.sum())]] = True
    return mask


def stochastic_mask(dim: int, rho: float, rng: np.random.Generator) -> Array:
    """I.i.d. Bernoulli(rho) mask from the restore stream."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    return rng.random(dim) < rho


def restore(theta: Array, theta0: Array, mask: Array) -> None:
    """In place: the coordinates mask selects are reset to theta0; the rest
    keep theta."""
    if theta.shape != theta0.shape or mask.shape != theta.shape:
        raise ValueError("restore dimension mismatch")
    np.copyto(theta, theta0, where=mask)


def _apply_restore(state: AdaptState, grad_vec: Array, cfg: PetalConfig) -> int:
    if state.method.restore == "none":
        return 0
    if state.method.restore == "fim":
        mask = fim_mask(fim_diag(grad_vec), cfg.delta)
    else:
        mask = stochastic_mask(grad_vec.size, cfg.rho, state.rng_restore)
    restore(state.student.theta, state.source_model.theta, mask)
    return int(mask.sum())


# ---------------------------------------------------------------------------
# adaptation steps


def _objective(state: AdaptState, images: Array, pseudo: Array | None, cfg: PetalConfig, tape: list):
    """The state's objective, taped; returns (loss node, theta tensor, logits).

    The student's taped forward runs ``"update"`` BN and adapts its statistics.
    ``"entropy"`` takes the mean prediction entropy; the other objectives the
    cross-entropy to their targets: the teacher's ``pseudo`` rows, or for
    ``"self_label"`` the one-hot argmax of the student's own prediction. A
    state with an anchor (``petal``'s) subtracts, at alpha != 0, alpha times
    the source-posterior log-density of the student parameters, so
    ``cotta``'s objective is ``petal``'s at alpha = 0. A state without a
    teacher trains only the BN affine coordinates, so its backward forms
    only their entries.
    """
    logits, params = state.student.taped_forward(images, tape, affine_only=state.teacher is None)
    if state.method.objective == "entropy":
        return softmax_entropy_mean(logits, tape), params, logits
    if state.method.objective == "self_label":
        pseudo = one_hot(softmax(logits.data).argmax(axis=1), logits.shape[1])
    loss = soft_cross_entropy(pseudo, logits, tape)
    if state.anchor is not None and cfg.alpha != 0.0:
        posterior, normalizers = state.anchor
        log_q = gaussian_log_density(params, posterior.mu, posterior.sigma2, state.student.pieces, normalizers, tape)
        loss = weighted_sum([(1.0, loss), (-cfg.alpha, log_q)], tape)
    return loss, params, logits


def adapt_step(state: AdaptState, images: Array, cfg: PetalConfig) -> StepReport:
    """The one gradient step, of ``petal``, ``cotta``, ``tent`` and
    ``pseudo_label``; its predictions are computed before the update that
    uses this batch's gradient.

    Every method takes one Adam step on the coordinates it trains.
    ``petal``/``cotta`` learn from teacher pseudo-labels, which are also
    their predictions, then EMA-update the teacher and restore;
    ``tent``/``pseudo_label`` have no teacher, predict from the student and
    move only the BN affine parameters. A state without Adam moments
    (``source``/``bn_adapt``) is refused.
    """
    if state.opt is None:
        raise ValueError(f"adapt_step does not handle method {cfg.method!r}, which takes no gradient step")
    has_teacher = state.teacher is not None
    tape = []
    try:
        pseudo = teacher_pseudo_label(state, images, cfg) if has_teacher else None
        loss, params, logits = _objective(state, images, pseudo, cfg, tape)
    except FloatingPointError as exc:  # a Tensor holds no NaN/Inf, so the loss is finite past here
        raise NonFiniteLossError(f"non-finite forward at step {state.step}: {exc}") from exc
    grad_vec = backward(loss, tape)[params]
    state.student.theta[state.trained] -= adam_delta(state.opt, grad_vec[state.trained], cfg.eta)
    restored = 0
    if has_teacher:
        ema_update(state.teacher, state.student, cfg.pi)
        restored = _apply_restore(state, grad_vec, cfg)
    state.step += 1
    preds = pseudo if has_teacher else softmax(logits.data)
    return StepReport(preds, restored, loss.item())


def baseline_step(state: AdaptState, images: Array, cfg: PetalConfig) -> StepReport:
    """The forward-only step of ``source`` and ``bn_adapt``, in the BN mode of
    the state's ``METHODS`` row: ``"eval"`` (``source``) leaves the running
    statistics alone, ``"update"`` (``bn_adapt``) refreshes them. A state
    with Adam moments is refused."""
    if state.opt is not None:
        raise ValueError(f"baseline_step does not handle method {cfg.method!r}, which takes a gradient step")
    try:
        preds = softmax(state.student.forward(images, state.method.bn_mode))
    except FloatingPointError as exc:
        raise NonFiniteLossError(f"non-finite forward at step {state.step}: {exc}") from exc
    state.step += 1
    return StepReport(preds, 0, float("nan"))


# ---------------------------------------------------------------------------
# full runs


# the steps.csv columns: one row per step, in stream order
STEP_COLUMNS = ("step", "segment", "error", "nll", "brier", "loss", "restored")


@dataclass(eq=False)
class RunReport:
    seed: int
    method: str
    config: dict
    schedule: dict
    segments: list[dict]
    overall: dict | None
    rows: list[dict]  # keyed by STEP_COLUMNS

    def to_document(self) -> dict:
        """The report.json content, before the CLI adds its own keys."""
        return {
            "seed": self.seed,
            "method": self.method,
            "config": self.config,
            "schedule": self.schedule,
            "segments": self.segments,
            "overall": self.overall,
        }

    def rows_to_csv(self) -> str:
        lines = [",".join(STEP_COLUMNS)]
        lines += [",".join(repr(row[column]) for column in STEP_COLUMNS) for row in self.rows]
        return "\n".join(lines) + "\n"


def _summary(metrics: MetricSummary, rows: list[dict]) -> dict:
    return {**asdict(metrics), "restored_mean": float(np.mean([row["restored"] for row in rows]))}


def run_lifelong(
    schedule: StreamSchedule,
    dataset: SyntheticDataset,
    posterior: SwagDiagPosterior,
    source_model: MlpClassifier,
    cfg: PetalConfig,
    seed: int,
) -> tuple[RunReport, AdaptState]:
    """Stream every scheduled batch through the configured method.

    Segment boundaries are never used to reset state, except by a
    ``METHODS`` row whose ``reset`` is on (the oracle-assisted
    TENT-online): at each change of segment id the run takes a fresh
    ``init_adapt_state`` (student and Adam moments back at the source),
    handing it the generators it holds, so the random streams continue and
    ``step`` keeps counting. The fresh state brings its own workspace, None
    for the one reset row, which has no teacher. The report's ``method`` is
    ``cfg.method``, the name that ran. A teacher run's state holds a
    ``DrawHelper`` while the run lasts; its process is reaped when the run
    returns or raises, and the returned state holds none.
    """
    stream_ss, augment_ss, restore_ss = np.random.SeedSequence(seed).spawn(3)
    state = init_adapt_state(
        source_model,
        posterior,
        cfg,
        rng_augment=np.random.Generator(np.random.PCG64(augment_ss)),
        rng_restore=np.random.Generator(np.random.PCG64(restore_ss)),
    )
    # a teacher run's helper process, forked on its first gate-open step, if its K hands the helper draws
    if state.teacher is not None and _helper_share(cfg.k_aug) > 0 and DrawHelper.may_fork():
        state.helper = DrawHelper(cfg.k_aug, cfg.augment)
    stream_rng = np.random.Generator(np.random.PCG64(stream_ss))
    acc = MetricAccumulator()
    rows: list[dict] = []
    try:
        for batch, labels in stream_batches(schedule, dataset, stream_rng):
            if state.method.reset and rows and batch.segment != rows[-1]["segment"]:
                fresh = init_adapt_state(
                    source_model, posterior, cfg, rng_augment=state.rng_augment, rng_restore=state.rng_restore
                )
                state = replace(fresh, step=state.step, helper=state.helper)
            report = (baseline_step if state.opt is None else adapt_step)(state, batch.images, cfg)
            err, nll_values, brier_values = acc.update(batch.segment, report.predictions, labels)
            values = (
                len(rows),
                batch.segment,
                100.0 * float(err.mean()),
                float(nll_values.mean()),
                float(brier_values.mean()),
                report.loss,
                report.restored,
            )
            rows.append(dict(zip(STEP_COLUMNS, values)))
    finally:
        if state.helper is not None:
            state.helper.close()
            state.helper = None
    segments = [
        {
            "segment": i,
            "kind": schedule.segments[i][0].kind,
            "severity": schedule.segments[i][0].severity,
            **_summary(acc.segment_summary(i), [row for row in rows if row["segment"] == i]),
        }
        for i in acc.segments()
    ]
    report = RunReport(
        seed=seed,
        method=cfg.method,
        config=asdict(cfg),
        schedule=schedule.to_document(),
        segments=segments,
        overall=_summary(acc.overall(), rows) if rows else None,
        rows=rows,
    )
    return report, state


def evaluate_model(model: MlpClassifier, images: Array, labels: Array) -> MetricSummary:
    """Offline eval-mode metrics of a model on a labeled set."""
    flat = images.reshape(images.shape[0], -1)
    preds = softmax(model.forward(flat, "eval"))
    err, nll_values, brier_values = per_sample_scores(preds, labels)
    return MetricSummary(
        count=labels.size,
        error=100.0 * float(err.mean()),
        nll=float(nll_values.mean()),
        brier=float(brier_values.mean()),
    )
