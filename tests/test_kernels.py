"""Oracle tests for the teacher-path and gradient-step kernels.

Each reference below is the straightforward formulation the fast kernel
replaced (3-array fancy-index gathers, a ``sliding_window_view`` mean,
``x.var``, one augmentation draw per call, a sequential sum of the teacher's
rows, Adam and EMA expressions that build new arrays). The fast kernels run
the same floating-point operations in the same order, so every comparison is
exact: ``np.array_equal``, no tolerance.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_tta.autodiff import softmax
from lifelong_tta.engine import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    _NUMBERS,
    AugmentParams,
    _affine_batch,
    adam_delta,
    augment,
    draw_numbers,
    ema_update,
)
from lifelong_tta.model import MlpClassifier, batch_norm_arrays
from lifelong_tta.streams import IMAGE_SIDE, _box_blur

from helpers import drawn_numbers


def reference_affine_batch(images, dx, dy, theta):
    b, side, _ = images.shape
    center = (side - 1) / 2.0
    rows, cols = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    rr = rows[None] - center
    cc = cols[None] - center
    cos = np.cos(theta)[:, None, None]
    sin = np.sin(theta)[:, None, None]
    src_r = cos * rr + sin * cc + center - dy[:, None, None]
    src_c = -sin * rr + cos * cc + center - dx[:, None, None]
    src_r = np.clip(src_r, 0.0, side - 1.0)
    src_c = np.clip(src_c, 0.0, side - 1.0)
    r0 = np.floor(src_r).astype(np.intp)
    c0 = np.floor(src_c).astype(np.intp)
    r1 = np.minimum(r0 + 1, side - 1)
    c1 = np.minimum(c0 + 1, side - 1)
    fr = src_r - r0
    fc = src_c - c0
    bidx = np.arange(b)[:, None, None]
    top = images[bidx, r0, c0] * (1.0 - fc) + images[bidx, r0, c1] * fc
    bottom = images[bidx, r1, c0] * (1.0 - fc) + images[bidx, r1, c1] * fc
    return top * (1.0 - fr) + bottom * fr


def reference_box_blur(images, kernel, passes):
    pad = kernel // 2
    out = images
    for _ in range(passes):
        padded = np.pad(out, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(1, 2))
        out = windows.mean(axis=(-2, -1))
    return out


def reference_augment(images, rng, params):
    shape_in = images.shape
    out = images.reshape(-1, IMAGE_SIDE, IMAGE_SIDE).astype(np.float64)
    b = out.shape[0]
    changed = False
    if params.contrast:
        factors = rng.uniform(1.0 - params.contrast, 1.0 + params.contrast, b)
        out = 0.5 + factors[:, None, None] * (out - 0.5)
        changed = True
    if params.brightness:
        out = out + rng.uniform(-params.brightness, params.brightness, b)[:, None, None]
        changed = True
    if params.max_shift_px or params.max_rot_deg:
        dx = rng.uniform(-params.max_shift_px, params.max_shift_px, b)
        dy = rng.uniform(-params.max_shift_px, params.max_shift_px, b)
        theta = np.deg2rad(rng.uniform(-params.max_rot_deg, params.max_rot_deg, b))
        out = reference_affine_batch(out, dx, dy, theta)
        changed = True
    if params.blur_prob:
        flags = rng.random(b) < params.blur_prob
        if flags.any():
            out[flags] = reference_box_blur(out[flags], 3, 1)
        changed = True
    if params.flip_prob:
        flags = rng.random(b) < params.flip_prob
        out[flags] = out[flags, :, ::-1]
        changed = True
    if params.noise_std:
        out = out + rng.normal(0.0, params.noise_std, out.shape)
        changed = True
    if changed:
        out = np.clip(out, 0.0, 1.0)
    return out.reshape(shape_in)


def reference_batch_norm_train(x, gamma, beta, mean, var, momentum=0.1, eps=1e-5):
    """Returns (out, new running mean, new running variance)."""
    n = x.shape[0]
    batch_mean = x.mean(axis=0)
    batch_var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(batch_var + eps)
    x_hat = (x - batch_mean) * inv_std
    new_mean = (1.0 - momentum) * mean + momentum * batch_mean
    new_var = (1.0 - momentum) * var + momentum * batch_var * n / (n - 1)
    return gamma * x_hat + beta, new_mean, new_var


def _images(rng, b, scale):
    return rng.uniform(-0.25, 1.0, (b, IMAGE_SIDE, IMAGE_SIDE)) * scale


SEEDS = st.integers(0, 2**32 - 1)
SCALES = st.floats(1e-3, 7.0)


@settings(max_examples=120, deadline=None)
@given(seed=SEEDS, b=st.integers(1, 130), scale=SCALES, snap=st.floats(0.0, 1.0))
def test_affine_batch_equals_fancy_index_reference(seed, b, scale, snap):
    rng = np.random.default_rng(seed)
    images = _images(rng, b, scale)
    # shifts past the border clip to the edge pixels
    dx = rng.uniform(-1.5, 1.5, b)
    dy = rng.uniform(-1.5, 1.5, b)
    theta = np.deg2rad(rng.uniform(-40.0, 40.0, b))
    # unrotated whole-pixel shifts put every source on integer coordinates
    on_grid = rng.random(b) < snap
    dx[on_grid] = np.round(dx[on_grid])
    dy[on_grid] = np.round(dy[on_grid])
    theta[on_grid] = 0.0
    expected = reference_affine_batch(images, dx, dy, theta)
    assert np.array_equal(_affine_batch(images, dx, dy, theta), expected)


def test_affine_batch_with_one_workspace_across_batch_sizes_equals_reference():
    rng = np.random.default_rng(5)
    workspace = {}
    for b in (7, 64, 7, 130, 64):
        images = _images(rng, b, 1.0)
        before = images.copy()
        dx = rng.uniform(-1.5, 1.5, b)
        dy = rng.uniform(-1.5, 1.5, b)
        theta = np.deg2rad(rng.uniform(-40.0, 40.0, b))
        # far shifts: every source of sample 0 clips to (side - 1, side - 1),
        # sample 1's rows to 0 and its columns to side - 1
        dx[:2] = -4.0 * IMAGE_SIDE
        dy[:2] = -4.0 * IMAGE_SIDE, 4.0 * IMAGE_SIDE
        theta[:2] = 0.0
        expected = reference_affine_batch(images, dx, dy, theta)
        out = _affine_batch(images, dx, dy, theta, workspace)
        assert np.array_equal(out, expected)
        assert np.array_equal(out[0], np.full((IMAGE_SIDE, IMAGE_SIDE), images[0, -1, -1]))
        assert np.array_equal(images, before)
    assert {shape for _, shape in workspace} == {(b, IMAGE_SIDE, IMAGE_SIDE) for b in (7, 64, 130)}


@settings(max_examples=120, deadline=None)
@given(
    seed=SEEDS,
    b=st.integers(1, 130),
    scale=SCALES,
    kernel_passes=st.sampled_from([(3, 1), (3, 2), (5, 1), (5, 2), (7, 2)]),
)
def test_box_blur_equals_window_mean_reference(seed, b, scale, kernel_passes):
    kernel, passes = kernel_passes
    images = _images(np.random.default_rng(seed), b, scale)
    expected = reference_box_blur(images, kernel, passes)
    assert np.array_equal(_box_blur(images, kernel, passes), expected)


@settings(max_examples=120, deadline=None)
@given(
    seed=SEEDS,
    n=st.integers(2, 300),
    features=st.integers(1, 40),
    offset=st.floats(-100.0, 100.0),
    log_scale=st.floats(-3.0, 3.0),
)
def test_batch_norm_train_equals_var_reference(seed, n, features, offset, log_scale):
    rng = np.random.default_rng(seed)
    x = rng.normal(offset, 10.0**log_scale, (n, features))
    gamma = rng.normal(1.0, 0.3, features)
    beta = rng.normal(0.0, 0.3, features)
    start_mean, start_var = rng.normal(size=features), rng.random(features) + 0.5
    expected, expected_mean, expected_var = reference_batch_norm_train(x, gamma, beta, start_mean, start_var)
    mean, var = start_mean.copy(), start_var.copy()
    out, _, _ = batch_norm_arrays(x.copy(), gamma, beta, mean, var, "update", out=np.empty_like(x))
    assert np.array_equal(out, expected)
    assert np.array_equal(mean, expected_mean)
    assert np.array_equal(var, expected_var)
    # centred in x's own buffer, written into the given one
    centred, given = x.copy(), np.full_like(x, np.nan)
    batched, x_hat, _ = batch_norm_arrays(centred, gamma, beta, mean, var, "batch", out=given)
    assert batched is given and x_hat is centred
    assert np.array_equal(batched, expected)
    assert np.array_equal(x_hat, (x - x.mean(axis=0)) * (1.0 / np.sqrt(x.var(axis=0) + 1e-5)))
    assert np.array_equal(mean, expected_mean) and np.array_equal(var, expected_var)


_DEFAULT = AugmentParams()
_ZERO = AugmentParams(*(0.0 for _ in dataclasses.fields(AugmentParams)))
AUGMENT_CASES = [_DEFAULT, _ZERO] + [
    dataclasses.replace(_ZERO, **{f.name: getattr(_DEFAULT, f.name)})
    for f in dataclasses.fields(AugmentParams)
]


@pytest.mark.parametrize(
    "params",
    AUGMENT_CASES,
    ids=["default", "zero"] + [f.name for f in dataclasses.fields(AugmentParams)],
)
def test_augment_equals_reference_pipeline(params):
    data_rng = np.random.default_rng(11)
    for b in (1, 19, 64):
        images = data_rng.random((b, IMAGE_SIDE * IMAGE_SIDE))
        for seed in range(4):
            expected = reference_augment(images, np.random.default_rng(seed), params)
            out = augment(images, params, *drawn_numbers(np.random.default_rng(seed), params, 1, b))
            assert np.array_equal(out, expected)


@pytest.mark.parametrize(
    "params",
    AUGMENT_CASES,
    ids=["default", "zero"] + [f.name for f in dataclasses.fields(AugmentParams)],
)
def test_augment_with_one_workspace_across_batch_sizes_equals_reference(params):
    data_rng = np.random.default_rng(12)
    workspace = {}
    for seed, (b, draws) in enumerate([(19, 4), (64, 4), (19, 4), (19, 1), (64, 4)]):
        images = data_rng.random((b, IMAGE_SIDE * IMAGE_SIDE))
        before = images.copy()
        reference_rng = np.random.default_rng(seed)
        expected = np.concatenate([reference_augment(images, reference_rng, params) for _ in range(draws)])
        out = augment(images, params, *drawn_numbers(np.random.default_rng(seed), params, draws, b), workspace)
        assert np.array_equal(out, expected)
        assert np.array_equal(images, before)


MAGNITUDES = [f.name for f in dataclasses.fields(AugmentParams)]


@settings(max_examples=150, deadline=None)
@given(
    seed=SEEDS,
    b=st.integers(1, 130),
    draws=st.integers(1, 5),
    enabled=st.lists(st.booleans(), min_size=len(MAGNITUDES), max_size=len(MAGNITUDES)),
)
def test_block_augment_equals_sequential_reference_draws(seed, b, draws, enabled):
    params = dataclasses.replace(
        _ZERO, **{name: getattr(_DEFAULT, name) for name, on in zip(MAGNITUDES, enabled) if on}
    )
    images = np.random.default_rng(seed).random((b, IMAGE_SIDE * IMAGE_SIDE))
    before = images.copy()
    reference_rng = np.random.default_rng(seed + 1)
    expected = np.concatenate([reference_augment(images, reference_rng, params) for _ in range(draws)])
    rng = np.random.default_rng(seed + 1)
    out = augment(images, params, *drawn_numbers(rng, params, draws, b))
    assert np.array_equal(out, expected)
    assert np.array_equal(images, before)
    # the block consumed exactly the random numbers of the sequential draws
    assert rng.random() == reference_rng.random()


def reference_draw_numbers(rng, params, draws, b):
    """One generator call per row and draw, in the pipeline's order: the
    {name: (draws, B) rows} of the magnitudes that are on, and the noise."""
    shifted = params.max_shift_px or params.max_rot_deg
    calls = [
        ("contrast", params.contrast, lambda: rng.uniform(1.0 - params.contrast, 1.0 + params.contrast, b)),
        ("brightness", params.brightness, lambda: rng.uniform(-params.brightness, params.brightness, b)),
        ("dx", shifted, lambda: rng.uniform(-params.max_shift_px, params.max_shift_px, b)),
        ("dy", shifted, lambda: rng.uniform(-params.max_shift_px, params.max_shift_px, b)),
        ("rotation", shifted, lambda: rng.uniform(-params.max_rot_deg, params.max_rot_deg, b)),
        ("blur", params.blur_prob, lambda: rng.random(b)),
        ("flip", params.flip_prob, lambda: rng.random(b)),
        ("noise", params.noise_std, lambda: rng.standard_normal((b, IMAGE_SIDE, IMAGE_SIDE))),
    ]
    rows, noise = {}, []
    for _ in range(draws):
        for name, on, call in calls:
            if on:
                (noise if name == "noise" else rows.setdefault(name, [])).append(call())
    return {name: np.stack(values) for name, values in rows.items()}, np.concatenate(noise) if noise else None


DRAW_NUMBER_CASES = {
    "default": _DEFAULT,
    **{f"no_{name}": dataclasses.replace(_DEFAULT, **{name: 0.0}) for name in MAGNITUDES},
    "no_affine": dataclasses.replace(_DEFAULT, max_shift_px=0.0, max_rot_deg=0.0),
    "zero": _ZERO,
}


@pytest.mark.parametrize("params", DRAW_NUMBER_CASES.values(), ids=DRAW_NUMBER_CASES.keys())
def test_draw_numbers_equals_one_generator_call_per_row_and_draw(params):
    # the teacher's 32 draws of 64 samples, at the defaults and with each
    # magnitude zeroed in turn, so the skipped rows fall everywhere in the order
    draws, b = 32, 64
    numbers = np.full((draws, len(_NUMBERS), b), np.nan)
    noise = np.empty((draws * b, IMAGE_SIDE, IMAGE_SIDE)) if params.noise_std else None
    rng = np.random.default_rng(21)
    draw_numbers(rng, params, numbers, noise)
    reference_rng = np.random.default_rng(21)
    expected, expected_noise = reference_draw_numbers(reference_rng, params, draws, b)
    for name, rows in expected.items():
        assert np.array_equal(numbers[:, _NUMBERS.index(name)], rows), (
            f"draw_numbers' {name} rows differ from one Generator call per row: draw_numbers scales one random() "
            "call per draw as low + (high - low) * u, so this numpy's Generator.uniform does not compute that bit "
            "for bit, or random() did not take the rows in the pipeline's order"
        )
    assert (noise is None) == (expected_noise is None)
    assert noise is None or np.array_equal(noise, expected_noise)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def reference_adam_delta(m, v, step, grad, lr):
    """One Adam step as new arrays; returns (m, v, the step to subtract)."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad**2
    m_hat = m / (1.0 - ADAM_BETA1**step)
    v_hat = v / (1.0 - ADAM_BETA2**step)
    return m, v, lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def reference_ema(teacher_theta, student_theta, pi):
    return pi * teacher_theta + (1.0 - pi) * student_theta


# the teacher's rows have at least the 8 classes, so B x C >= 2; a (K, 1, 1)
# array would be one strided run, which numpy sums pairwise, not in order
@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 40), b=st.integers(1, 70), c=st.integers(2, 12), log_scale=st.floats(-6.0, 6.0))
def test_rows_sum_over_draws_equals_the_sequential_sum(seed, k, b, c, log_scale):
    # non-negative rows over twelve decades, so the rounding of a sum depends on its order
    rng = np.random.default_rng(seed)
    rows = rng.random((k, b, c)) * 10.0 ** rng.uniform(log_scale - 6.0, log_scale, (k, b, c))
    total = np.zeros((b, c))
    for row in rows:
        total += row
    assert np.array_equal(rows.sum(axis=0), total)


# the premise of the teacher's closed gate: a row's top softmax entry is exp(0)
# = 1 over a sum of C terms, each at most 1, and rounding is monotone, so no
# confidence is below 1.0 / C and a gate at tau <= 1.0 / C never opens
@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    b=st.integers(1, 40),
    c=st.integers(2, 300),
    log_scale=st.floats(-300.0, 300.0),
    levels=st.integers(0, 4),
    equal_share=st.floats(0.0, 1.0),
)
def test_softmax_top_entry_is_never_below_one_over_c(seed, b, c, log_scale, levels, equal_share):
    rng = np.random.default_rng(seed)
    if levels:  # ties: every logit on a grid of a few values
        logits = rng.integers(0, levels, (b, c)) * 10.0**log_scale
    else:
        logits = rng.standard_normal((b, c)) * 10.0**log_scale
    equal = rng.random(b) < equal_share
    logits[equal] = logits[equal, :1]  # rows whose C logits are all equal
    assert (softmax(logits).max(axis=1) >= 1.0 / c).all()


@settings(max_examples=120, deadline=None)
@given(
    seed=SEEDS,
    dim=st.integers(1, 300),
    steps=st.integers(1, 12),
    log_lr=st.floats(-6.0, 0.0),
    log_scale=st.floats(-8.0, 3.0),
)
def test_adam_delta_equals_reference_expressions(seed, dim, steps, log_lr, log_scale):
    rng = np.random.default_rng(seed)
    lr = 10.0**log_lr
    opt = AdamState.zeros(dim)
    m, v = np.zeros(dim), np.zeros(dim)
    for step in range(1, steps + 1):
        grad = rng.normal(0.0, 10.0**log_scale, dim)
        grad[rng.random(dim) < 0.2] = 0.0  # a coordinate whose gradient vanishes
        before = grad.copy()
        delta = adam_delta(opt, grad, lr)
        m, v, expected = reference_adam_delta(m, v, step, before, lr)
        assert np.array_equal(delta, expected)
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
        assert opt.step == step
        assert np.array_equal(grad, before)
        # the returned step is its own array: subtracting it from theta
        # leaves the moments alone
        assert not np.shares_memory(delta, opt.m) and not np.shares_memory(delta, opt.v)


@settings(max_examples=120, deadline=None)
@given(seed=SEEDS, width=st.integers(1, 20), steps=st.integers(1, 5), pi=st.floats(0.0, 1.0))
def test_ema_update_equals_reference_expression(seed, width, steps, pi):
    rng = np.random.default_rng(seed)
    teacher = MlpClassifier((5, width, 3), seed=1)
    student = MlpClassifier((5, width, 3), seed=2)
    expected = teacher.flatten()
    for _ in range(steps):
        student.load(rng.normal(0.0, 3.0, student.theta.size))
        before = student.flatten()
        ema_update(teacher, student, pi)
        expected = reference_ema(expected, before, pi)
        assert np.array_equal(teacher.theta, expected)
        assert np.array_equal(student.theta, before)
    assert np.array_equal(teacher.params["out.bias"], expected[-3:])  # still viewed by the params


def test_mismatched_ema_update_raises_before_writing():
    teacher = MlpClassifier((5, 4, 3), seed=1)
    student = MlpClassifier((5, 6, 3), seed=2)
    before = teacher.flatten()
    with pytest.raises(ValueError, match="parameters"):
        ema_update(teacher, student, 0.5)
    assert np.array_equal(teacher.theta, before)
