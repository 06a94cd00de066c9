"""Lifelong test-time adaptation engine and baselines.

Every adapting method takes the same step: a taped objective, one optimizer
step on the student's parameter vector, and, for the self-training methods
(``petal``, ``cotta``), an exponential-moving-average teacher update and a
restore. Those two keep a teacher that emits pseudo-label probability rows
(averaged over K randomized augmentation draws when the frozen source model
is unconfident on the input); the student minimizes the cross-entropy to them
(``petal`` adds a source-posterior log-density anchor weighted by alpha), and
then a subset of student parameters is restored to the source values, chosen
either at random or as the coordinates with the smallest squared loss
gradient. ``tent`` (entropy minimization) and ``pseudo_label`` (hard
self-labels) have no teacher and move only the BN affine parameters.

The K draws run in blocks of four: per block, one ``augment`` call takes the
random numbers draw by draw and runs each transform once over all four, and
one teacher forward normalizes each draw by its own batch statistics. The
random numbers and the sum of the predictions keep the draw order, so the
pseudo-labels are bit-identical to those of K one-draw calls.

Only the student's objective is taped, the model as one node and each loss
op as its own; the gate, the teacher, the baselines and evaluation run the
untaped ``forward`` on plain arrays.

``source`` (no adaptation) and ``bn_adapt`` (batch-statistics refresh only)
take no gradient step; the BN mode set at initialization tells them apart.

One frozen, eval-BN source model holds the posterior mode theta_0: it gates
augmentation, is the restore target and is what the oracle ``tent_online``
reset reloads. Only the methods that read a teacher or Adam moments get them.

All per-batch predictions are emitted before the update that uses that
batch's gradient; evaluation is strictly online.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import (
    Tape,
    Tensor,
    backward,
    gaussian_log_density,
    soft_cross_entropy,
    softmax,
    softmax_entropy_mean,
    weighted_sum,
)
from .metrics import MetricAccumulator, MetricSummary, per_sample_scores
from .model import MlpClassifier, bn_affine_filter, param_mask
from .streams import IMAGE_SIDE, StreamSchedule, SyntheticDataset, _box_blur, stream_batches
from .swag import SwagDiagPosterior, one_hot

Array = np.ndarray

ADAPT_METHODS = ("petal", "cotta")
BASELINE_METHODS = ("source", "bn_adapt", "pseudo_label", "tent")
FORWARD_ONLY_METHODS = ("source", "bn_adapt")  # no gradient step
RESTORE_MODES = ("none", "stochastic", "fim")

# winner of the regularizer-weight grid on the held-out tuning corruption
DEFAULT_ALPHA = 1e-6


class NonFiniteLossError(RuntimeError):
    """The adaptation objective left the finite range; the run must abort."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class AugmentParams:
    """Magnitudes for the randomized input augmentations (zero disables one)."""

    brightness: float = 0.1
    contrast: float = 0.2
    max_shift_px: float = 1.0
    max_rot_deg: float = 10.0
    blur_prob: float = 0.3
    flip_prob: float = 0.5
    noise_std: float = 0.02

    def __post_init__(self) -> None:
        for name in ("brightness", "max_shift_px", "max_rot_deg", "noise_std"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"augment.{name} must be >= 0, got {getattr(self, name)}")
        # a contrast above 1 would draw negative contrast factors
        for name in ("contrast", "blur_prob", "flip_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"augment.{name} must be in [0, 1], got {getattr(self, name)}")


@dataclass(frozen=True)
class PetalConfig:
    """Knobs of the adaptation step.

    ``tau`` is deliberately not range-checked here: values outside [0, 1]
    force the augmentation gate fully open or closed, which tests rely on.
    """

    method: str = "petal"
    k_aug: int = 32
    tau: float = 0.72
    alpha: float = DEFAULT_ALPHA
    pi: float = 0.999
    eta: float = 1e-3
    restore: str = "fim"
    rho: float = 0.01
    delta: float = 0.03
    optimizer: str = "adam"
    predict_from: str = "teacher"
    reset_optimizer_state: bool = False
    tent_online: bool = False
    augment: AugmentParams = field(default_factory=AugmentParams)

    def __post_init__(self) -> None:
        if self.method not in ADAPT_METHODS + BASELINE_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.restore not in RESTORE_MODES:
            raise ValueError(f"unknown restore mode {self.restore!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.predict_from not in ("teacher", "student"):
            raise ValueError(f"unknown predict_from {self.predict_from!r}")
        if self.k_aug < 1:
            raise ValueError("k_aug must be >= 1")
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError("pi must be in [0, 1]")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must be in [0, 1]")
        if self.eta < 0.0 or self.alpha < 0.0:
            raise ValueError("eta and alpha must be non-negative")


# ---------------------------------------------------------------------------
# augmentation


# output-pixel offsets from the image center, along a row or a column
_CENTER = (IMAGE_SIDE - 1) / 2.0
_OFFSETS = np.arange(IMAGE_SIDE) - _CENTER


def _affine_batch(images: Array, dx: Array, dy: Array, theta: Array) -> Array:
    """Per-sample rotation + shift with bilinear resampling, replicate border.

    ``images`` is (B, IMAGE_SIDE, IMAGE_SIDE).
    """
    b, side, _ = images.shape
    cos = np.cos(theta)[:, None]
    sin = np.sin(theta)[:, None]
    # the grid is separable: cos * row offset + sin * column offset, summed
    # by broadcasting two (B, side) products
    src_r = (cos * _OFFSETS)[:, :, None] + (sin * _OFFSETS)[:, None, :] + _CENTER - dy[:, None, None]
    src_c = (-sin * _OFFSETS)[:, :, None] + (cos * _OFFSETS)[:, None, :] + _CENTER - dx[:, None, None]
    np.clip(src_r, 0.0, side - 1.0, out=src_r)
    np.clip(src_c, 0.0, side - 1.0, out=src_c)
    # the clip leaves every coordinate >= 0, where truncation equals floor
    r0 = src_r.astype(np.intp)
    c0 = src_c.astype(np.intp)
    r1 = np.minimum(r0 + 1, side - 1)
    c1 = np.minimum(c0 + 1, side - 1)
    fr = src_r - r0
    fc = src_c - c0
    # gather from the flat buffer: pixel (i, r, c) sits at i*side^2 + r*side + c
    flat = images.reshape(-1)
    base = (np.arange(b) * (side * side))[:, None, None]
    row0 = base + r0 * side
    row1 = base + r1 * side
    wc = 1.0 - fc
    top = flat.take(row0 + c0) * wc + flat.take(row0 + c1) * fc
    bottom = flat.take(row1 + c0) * wc + flat.take(row1 + c1) * fc
    return top * (1.0 - fr) + bottom * fr


def augment(
    images: Array,
    rng: np.random.Generator,
    params: AugmentParams = AugmentParams(),
    draws: int = 1,
) -> Array:
    """``draws`` randomized draws of the augmentation pipeline, clipped to [0, 1].

    Accepts (B, 64) or (B, 8, 8). The draws are stacked along the first axis,
    draw k in rows k*B to (k+1)*B, each in the input's shape. Draw by draw,
    the random numbers are taken in the pipeline's order (contrast,
    brightness, dx, dy, rotation, blur flags, flip flags, noise), each only
    when its magnitude is non-zero, so one call equals ``draws`` calls of one
    draw on the same generator. With all magnitudes zero every draw is the
    input, bit-identical.
    """
    if images.ndim == 2:
        if images.shape[1] != IMAGE_SIDE * IMAGE_SIDE:
            raise ValueError("flattened images must have 64 columns")
        batch = images.reshape(-1, IMAGE_SIDE, IMAGE_SIDE)
    elif images.shape[1:] == (IMAGE_SIDE, IMAGE_SIDE):
        batch = images
    else:
        raise ValueError("augment expects (B, 64) or (B, 8, 8)")
    b = batch.shape[0]
    contrast, brightness, dx, dy, rotation, blur, flip, noise = ([] for _ in range(8))
    for _ in range(draws):
        if params.contrast:
            contrast.append(rng.uniform(1.0 - params.contrast, 1.0 + params.contrast, b))
        if params.brightness:
            brightness.append(rng.uniform(-params.brightness, params.brightness, b))
        if params.max_shift_px or params.max_rot_deg:
            dx.append(rng.uniform(-params.max_shift_px, params.max_shift_px, b))
            dy.append(rng.uniform(-params.max_shift_px, params.max_shift_px, b))
            rotation.append(rng.uniform(-params.max_rot_deg, params.max_rot_deg, b))
        if params.blur_prob:
            blur.append(rng.random(b) < params.blur_prob)
        if params.flip_prob:
            flip.append(rng.random(b) < params.flip_prob)
        if params.noise_std:
            noise.append(rng.normal(0.0, params.noise_std, batch.shape))
    # each transform runs once over every draw; np.tile copies, so the
    # input stays intact
    out = np.tile(batch, (draws, 1, 1)).astype(np.float64, copy=False)
    if contrast:
        out = 0.5 + np.concatenate(contrast)[:, None, None] * (out - 0.5)
    if brightness:
        out += np.concatenate(brightness)[:, None, None]
    if dx:
        theta = np.deg2rad(np.concatenate(rotation))
        out = _affine_batch(out, np.concatenate(dx), np.concatenate(dy), theta)
    if blur:
        flags = np.concatenate(blur)
        if flags.any():
            out[flags] = _box_blur(out[flags], 3, 1)
    if flip:
        flags = np.concatenate(flip)
        out[flags] = out[flags, :, ::-1]
    if noise:
        out += np.concatenate(noise)
    if contrast or brightness or dx or blur or flip or noise:
        np.clip(out, 0.0, 1.0, out=out)
    return out.reshape((draws * b,) + images.shape[1:])


# ---------------------------------------------------------------------------
# optimizer


@dataclass(eq=False)
class AdamState:
    m: Array
    v: Array
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(np.zeros(dim), np.zeros(dim))


def adam_delta(opt: AdamState, grad: Array, lr: float) -> Array:
    """Advance the Adam moments and return the step to subtract."""
    opt.step += 1
    opt.m = opt.beta1 * opt.m + (1.0 - opt.beta1) * grad
    opt.v = opt.beta2 * opt.v + (1.0 - opt.beta2) * grad**2
    m_hat = opt.m / (1.0 - opt.beta1**opt.step)
    v_hat = opt.v / (1.0 - opt.beta2**opt.step)
    return lr * m_hat / (np.sqrt(v_hat) + opt.eps)


# ---------------------------------------------------------------------------
# state


@dataclass(eq=False)
class AdaptState:
    """What a run carries between steps. ``source_model`` (frozen, eval BN)
    is the only theta_0: the gate's weights and the restore target.
    ``teacher`` is None except for petal/cotta; ``opt`` is None for
    source/bn_adapt."""

    student: MlpClassifier
    teacher: MlpClassifier | None
    source_model: MlpClassifier
    frozen: Array  # coordinates tent/pseudo_label never move: all but the BN affine ones
    step: int
    opt: AdamState | None
    rng_augment: np.random.Generator
    rng_restore: np.random.Generator


def init_adapt_state(
    source_model: MlpClassifier,
    posterior: SwagDiagPosterior,
    cfg: PetalConfig,
    *,
    seed: int | None = None,
    rng_augment: np.random.Generator | None = None,
    rng_restore: np.random.Generator | None = None,
) -> AdaptState:
    """The frozen source model, the student and (for ``petal``/``cotta``) the
    teacher all start from the posterior mode."""
    frozen_source = source_model.clone()
    frozen_source.load(posterior.mu)
    frozen_source.set_bn_mode("eval")
    student = frozen_source.clone()
    student.set_bn_mode("eval" if cfg.method == "source" else "train")
    teacher = None
    if cfg.method in ADAPT_METHODS:
        teacher = frozen_source.clone()
        teacher.set_bn_mode("train")
    if rng_augment is None or rng_restore is None:
        children = np.random.SeedSequence(0 if seed is None else seed).spawn(2)
        if rng_augment is None:
            rng_augment = np.random.Generator(np.random.PCG64(children[0]))
        if rng_restore is None:
            rng_restore = np.random.Generator(np.random.PCG64(children[1]))
    return AdaptState(
        student=student,
        teacher=teacher,
        source_model=frozen_source,
        frozen=~param_mask(frozen_source, bn_affine_filter),
        step=0,
        opt=_fresh_optimizer(student, cfg),
        rng_augment=rng_augment,
        rng_restore=rng_restore,
    )


def _fresh_optimizer(student: MlpClassifier, cfg: PetalConfig) -> AdamState | None:
    """Zero Adam moments, or None for the methods that take no gradient step."""
    if cfg.method in FORWARD_ONLY_METHODS:
        return None
    return AdamState.zeros(student.theta.size)


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
# forward each. Sweep on a 2-core VM (numpy 2.4.6, one BLAS thread), default
# continual5 petal run, seed 0, medians of 7 interleaved rounds, teacher ms
# per step: 1 draw 27.5, 2 draws 22.3, 4 draws 19.8, 8 draws 20.0, 16 draws
# 22.2, 32 draws 27.1. From 8 draws on, the (draws * 64, 128) buffers outgrow
# what glibc keeps mapped, so every call faults their pages in again (65k to
# 305k minor faults per run, against 89 at 4 draws), and the traced peak
# grows from 3.7 MiB at 4 draws to 5.9 MiB at 8 and 18.5 MiB at 32.
_DRAW_BLOCK = 4


def teacher_pseudo_label(state: AdaptState, images: Array, cfg: PetalConfig) -> Array:
    """Per-sample soft pseudo-labels from the teacher.

    When the frozen source model's max softmax probability on a sample is
    below tau, that sample's label is the teacher's prediction averaged over
    k_aug augmentation draws; otherwise it is the direct teacher prediction.
    The draws run in blocks of ``_DRAW_BLOCK``: one ``augment`` call and one
    teacher forward per block, each draw normalized by its own batch
    statistics, and the teacher's running statistics stay untouched. The
    random numbers and the sum run in draw order, so the labels equal those
    of one augment call and one forward per draw, bit for bit.
    """
    source_probs = softmax(state.source_model.forward(images))
    confidence = source_probs.max(axis=1)
    direct = softmax(state.teacher.forward(images, update_stats=False))
    needs_averaging = confidence < cfg.tau
    if not needs_averaging.any():
        return direct
    total = np.zeros_like(direct)
    for start in range(0, cfg.k_aug, _DRAW_BLOCK):
        draws = min(_DRAW_BLOCK, cfg.k_aug - start)
        block = augment(images, state.rng_augment, cfg.augment, draws)
        probs = softmax(state.teacher.forward(block, update_stats=False, draws=draws))
        for rows in probs.reshape(draws, *direct.shape):
            total += rows
    averaged = total / cfg.k_aug
    return np.where(needs_averaging[:, None], averaged, direct)


def petal_loss(
    state: AdaptState,
    images: Array,
    pseudo: Array,
    posterior: SwagDiagPosterior,
    cfg: PetalConfig,
    tape: Tape,
):
    """Minimization objective: cross-entropy to the pseudo-labels minus
    alpha times the source-posterior log-density of the student parameters.

    The student forward runs in train-BN mode and adapts its statistics.
    Returns (loss node, parameter tensors by name, student logits).
    """
    logits, wrapped = state.student.taped_forward(images, tape)
    ce = soft_cross_entropy(Tensor(pseudo), logits, tape)
    if cfg.alpha == 0.0:
        return ce, wrapped, logits
    mu = state.student.views(posterior.mu)
    log_q = gaussian_log_density(
        [wrapped[name] for name in mu],
        list(mu.values()),
        list(state.student.views(posterior.sigma2).values()),
        tape,
    )
    loss = weighted_sum([(1.0, ce), (-cfg.alpha, log_q)], tape=tape)
    return loss, wrapped, logits


def ema_update(teacher: MlpClassifier, student: MlpClassifier, pi: float) -> None:
    """theta' <- pi * theta' + (1 - pi) * theta over trainables. The teacher's
    BN running statistics are left alone: its forwards run train-mode BN on
    batch statistics and never read or update them."""
    teacher.theta[:] = pi * teacher.theta + (1.0 - pi) * student.theta


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
    if cfg.restore == "none":
        return 0
    if cfg.restore == "fim":
        mask = fim_mask(fim_diag(grad_vec), cfg.delta)
    else:
        mask = stochastic_mask(grad_vec.size, cfg.rho, state.rng_restore)
    restore(state.student.theta, state.source_model.theta, mask)
    if cfg.reset_optimizer_state:
        state.opt.m[mask] = 0.0
        state.opt.v[mask] = 0.0
    return int(mask.sum())


# ---------------------------------------------------------------------------
# adaptation steps


def _objective(
    state: AdaptState,
    images: Array,
    pseudo: Array | None,
    posterior: SwagDiagPosterior | None,
    cfg: PetalConfig,
    tape: Tape,
):
    """The method's taped loss; returns (loss node, parameter tensors, logits)."""
    if cfg.method == "petal":
        return petal_loss(state, images, pseudo, posterior, cfg, tape)
    logits, wrapped = state.student.taped_forward(images, tape)
    if cfg.method == "cotta":  # student-teacher cross-entropy only; no posterior anchor
        loss = soft_cross_entropy(Tensor(pseudo), logits, tape)
    elif cfg.method == "tent":
        loss = softmax_entropy_mean(logits, tape)
    else:  # pseudo_label
        hard = softmax(logits.data).argmax(axis=1)
        loss = soft_cross_entropy(Tensor(one_hot(hard, logits.shape[1])), logits, tape)
    return loss, wrapped, logits


def _step(state: AdaptState, images: Array, posterior: SwagDiagPosterior | None, cfg: PetalConfig) -> StepReport:
    """The one gradient step of every adapting method.

    ``petal``/``cotta`` learn from teacher pseudo-labels, then EMA-update the
    teacher and restore; ``tent``/``pseudo_label`` have no teacher and move
    only the BN affine parameters.
    """
    has_teacher = cfg.method in ADAPT_METHODS
    tape = Tape()
    try:
        pseudo = teacher_pseudo_label(state, images, cfg) if has_teacher else None
        loss, wrapped, logits = _objective(state, images, pseudo, posterior, cfg, tape)
    except FloatingPointError as exc:
        raise NonFiniteLossError(f"non-finite forward at step {state.step}: {exc}") from exc
    loss_value = loss.item()
    if not math.isfinite(loss_value):
        raise NonFiniteLossError(f"{cfg.method} loss became non-finite at step {state.step}")
    grad_vec = state.student.grad_vector(wrapped, backward(loss, tape))
    if not has_teacher:
        grad_vec[state.frozen] = 0.0
    if cfg.optimizer == "adam":
        state.student.theta -= adam_delta(state.opt, grad_vec, cfg.eta)
    else:
        state.student.theta -= cfg.eta * grad_vec
    restored = 0
    if has_teacher:
        ema_update(state.teacher, state.student, cfg.pi)
        restored = _apply_restore(state, grad_vec, cfg)
    state.step += 1
    preds = pseudo if has_teacher and cfg.predict_from == "teacher" else softmax(logits.data)
    return StepReport(preds, restored, loss_value)


def adapt_step(
    state: AdaptState,
    images: Array,
    posterior: SwagDiagPosterior,
    cfg: PetalConfig,
) -> StepReport:
    """One online self-training step; predictions are computed before the
    update that uses this batch's gradient."""
    if cfg.method not in ADAPT_METHODS:
        raise ValueError(f"adapt_step does not handle method {cfg.method!r}")
    return _step(state, images, posterior, cfg)


def baseline_step(state: AdaptState, images: Array, cfg: PetalConfig) -> StepReport:
    """One step of a comparison baseline."""
    if cfg.method in FORWARD_ONLY_METHODS:
        # eval-mode BN (source) ignores the stats update; train mode refreshes it
        preds = softmax(state.student.forward(images))
        state.step += 1
        return StepReport(preds, 0, float("nan"))
    if cfg.method in ("tent", "pseudo_label"):
        return _step(state, images, None, cfg)
    raise ValueError(f"unknown baseline method {cfg.method!r}")


# ---------------------------------------------------------------------------
# full runs


@dataclass(eq=False)
class SegmentResult:
    segment: int
    kind: str
    severity: int
    count: int
    error: float
    nll: float
    brier: float
    restored_mean: float


@dataclass(eq=False)
class RunReport:
    seed: int
    method: str
    config: dict
    schedule: dict
    segments: list[SegmentResult]
    overall: dict | None
    rows: list[dict]

    def to_document(self) -> dict:
        """The report.json content, before the CLI adds its own keys."""
        return {
            "seed": self.seed,
            "method": self.method,
            "config": self.config,
            "schedule": self.schedule,
            "segments": [asdict(s) for s in self.segments],
            "overall": self.overall,
        }

    def rows_to_csv(self) -> str:
        lines = ["step,segment,error,nll,brier,loss,restored"]
        for row in self.rows:
            lines.append(
                f"{row['step']},{row['segment']},{row['error']!r},{row['nll']!r},"
                f"{row['brier']!r},{row['loss']!r},{row['restored']}"
            )
        return "\n".join(lines) + "\n"


def _reset_to_source(state: AdaptState, cfg: PetalConfig) -> None:
    state.student.theta[:] = state.source_model.theta
    state.student.stats = {i: s.copy() for i, s in state.source_model.stats.items()}
    if state.teacher is not None:  # the teacher makes petal's and cotta's predictions
        state.teacher.theta[:] = state.source_model.theta
    state.opt = _fresh_optimizer(state.student, cfg)


def run_lifelong(
    schedule: StreamSchedule,
    dataset: SyntheticDataset,
    posterior: SwagDiagPosterior,
    source_model: MlpClassifier,
    cfg: PetalConfig,
    seed: int,
) -> tuple[RunReport, AdaptState]:
    """Stream every scheduled batch through the configured method.

    Segment boundaries are never used to reset state, except under the
    oracle-assisted ``tent_online`` flag which re-initializes the adapting
    model whenever the segment id changes.
    """
    stream_ss, augment_ss, restore_ss = np.random.SeedSequence(seed).spawn(3)
    state = init_adapt_state(
        source_model,
        posterior,
        cfg,
        rng_augment=np.random.Generator(np.random.PCG64(augment_ss)),
        rng_restore=np.random.Generator(np.random.PCG64(restore_ss)),
    )
    stream_rng = np.random.Generator(np.random.PCG64(stream_ss))
    acc = MetricAccumulator()
    rows: list[dict] = []
    restored_by_segment: dict[int, list[int]] = {}
    previous_segment: int | None = None
    for batch, labels in stream_batches(schedule, dataset, stream_rng):
        if (
            cfg.tent_online
            and previous_segment is not None
            and batch.segment != previous_segment
        ):
            _reset_to_source(state, cfg)
        previous_segment = batch.segment
        if cfg.method in ADAPT_METHODS:
            report = adapt_step(state, batch.images, posterior, cfg)
        else:
            report = baseline_step(state, batch.images, cfg)
        err, nll_values, brier_values = acc.update(batch.segment, report.predictions, labels)
        rows.append(
            {
                "step": len(rows),
                "segment": batch.segment,
                "error": 100.0 * float(err.mean()),
                "nll": float(nll_values.mean()),
                "brier": float(brier_values.mean()),
                "loss": report.loss,
                "restored": report.restored,
            }
        )
        restored_by_segment.setdefault(batch.segment, []).append(report.restored)
    segments = []
    for segment_id, (spec, _) in enumerate(schedule.segments):
        if segment_id not in restored_by_segment:
            continue
        summary = acc.segment_summary(segment_id)
        segments.append(
            SegmentResult(
                segment=segment_id,
                kind=spec.kind,
                severity=spec.severity,
                count=summary.count,
                error=summary.error,
                nll=summary.nll,
                brier=summary.brier,
                restored_mean=float(np.mean(restored_by_segment[segment_id])),
            )
        )
    overall = None
    if acc.count:
        total = acc.overall()
        overall = {
            "count": total.count,
            "error": total.error,
            "nll": total.nll,
            "brier": total.brier,
            "restored_mean": float(np.mean([r["restored"] for r in rows])),
        }
    report = RunReport(
        seed=seed,
        method=cfg.method,
        config=asdict(cfg),
        schedule=schedule.to_document(),
        segments=segments,
        overall=overall,
        rows=rows,
    )
    return report, state


def evaluate_model(model: MlpClassifier, images: Array, labels: Array) -> MetricSummary:
    """Offline eval-mode metrics of a model on a labeled set."""
    flat = images.reshape(images.shape[0], -1)
    mode = model.bn_mode
    model.set_bn_mode("eval")
    preds = softmax(model.forward(flat))
    model.set_bn_mode(mode)
    err, nll_values, brier_values = per_sample_scores(preds, labels)
    return MetricSummary(
        count=labels.size,
        error=100.0 * float(err.mean()),
        nll=float(nll_values.mean()),
        brier=float(brier_values.mean()),
    )
