"""Oracle tests for the teacher-path kernels.

Each reference below is the straightforward formulation the fast kernel
replaced (3-array fancy-index gathers, a ``sliding_window_view`` mean,
``x.var``, one augmentation draw per call). The fast kernels run the same
floating-point operations in the same order, so every comparison is exact:
``np.array_equal``, no tolerance.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_tta.autodiff import RunningStats, batch_norm_arrays
from lifelong_tta.engine import AugmentParams, _affine_batch, augment
from lifelong_tta.streams import IMAGE_SIDE, _box_blur


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


def reference_batch_norm_train(x, gamma, beta, stats, momentum=0.1, eps=1e-5):
    n = x.shape[0]
    batch_mean = x.mean(axis=0)
    batch_var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(batch_var + eps)
    x_hat = (x - batch_mean) * inv_std
    stats.mean = (1.0 - momentum) * stats.mean + momentum * batch_mean
    stats.var = (1.0 - momentum) * stats.var + momentum * batch_var * n / (n - 1)
    return gamma * x_hat + beta


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
    expected_stats = RunningStats(start_mean.copy(), start_var.copy())
    expected = reference_batch_norm_train(x, gamma, beta, expected_stats)
    stats = RunningStats(start_mean.copy(), start_var.copy())
    out, _, _ = batch_norm_arrays(x, gamma, beta, stats)
    assert np.array_equal(out, expected)
    assert np.array_equal(stats.mean, expected_stats.mean)
    assert np.array_equal(stats.var, expected_stats.var)


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
            out = augment(images, np.random.default_rng(seed), params)
            assert np.array_equal(out, expected)


MAGNITUDES = [f.name for f in dataclasses.fields(AugmentParams)]


@settings(max_examples=150, deadline=None)
@given(
    seed=SEEDS,
    b=st.integers(1, 130),
    draws=st.integers(1, 5),
    enabled=st.lists(st.booleans(), min_size=len(MAGNITUDES), max_size=len(MAGNITUDES)),
    square=st.booleans(),
)
def test_block_augment_equals_sequential_reference_draws(seed, b, draws, enabled, square):
    params = dataclasses.replace(
        _ZERO, **{name: getattr(_DEFAULT, name) for name, on in zip(MAGNITUDES, enabled) if on}
    )
    images = np.random.default_rng(seed).random((b, IMAGE_SIDE * IMAGE_SIDE))
    if square:
        images = images.reshape(b, IMAGE_SIDE, IMAGE_SIDE)
    before = images.copy()
    reference_rng = np.random.default_rng(seed + 1)
    expected = np.concatenate([reference_augment(images, reference_rng, params) for _ in range(draws)])
    rng = np.random.default_rng(seed + 1)
    out = augment(images, rng, params, draws)
    assert np.array_equal(out, expected)
    assert np.array_equal(images, before)
    # the block consumed exactly the random numbers of the sequential draws
    assert rng.random() == reference_rng.random()
