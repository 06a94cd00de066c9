import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_tta.model import MlpClassifier
from lifelong_tta.streams import (
    CORRUPTION_KINDS,
    GAUSSIAN_STD,
    CorruptionSpec,
    StreamSchedule,
    apply_corruption,
    build_schedule,
    gradual_severities,
    make_source_dataset,
    stream_batches,
    _corrupt_unclipped,
)
from lifelong_tta.swag import train_source


def test_dataset_is_deterministic():
    a = make_source_dataset(3, 10)
    b = make_source_dataset(3, 10)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)


def test_dataset_shapes_and_balance():
    ds = make_source_dataset(0, 100)
    assert ds.images.shape == (800, 8, 8)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    counts = np.bincount(ds.labels, minlength=8)
    assert counts.max() - counts.min() <= 1


def test_dataset_rejects_bad_size():
    with pytest.raises(ValueError):
        make_source_dataset(0, 0)


def test_classes_are_separable_within_five_epochs():
    ds = make_source_dataset(0, 100)
    model = MlpClassifier((64, 128, 128, 8), seed=0)
    _, train_accuracy = train_source(
        model,
        ds.images.reshape(len(ds), -1),
        ds.labels,
        epochs=5,
        lr=0.05,
        momentum=0.9,
        batch_size=64,
        swag_epochs=5,
        rng=np.random.default_rng(1),
    )
    assert train_accuracy >= 0.95


# ---------------------------------------------------------------------------
# corruptions


def test_severity_zero_is_identity():
    ds = make_source_dataset(1, 5)
    for kind in CORRUPTION_KINDS:
        out = apply_corruption(ds.images, CorruptionSpec(kind, 0))
        assert np.array_equal(out, ds.images)


def test_contrast_fixed_point_at_mid_gray():
    flat = np.full((3, 8, 8), 0.5)
    out = apply_corruption(flat, CorruptionSpec("contrast", 5))
    assert np.array_equal(out, flat)


def test_gaussian_noise_std_before_clipping():
    rng = np.random.default_rng(0)
    base = np.full((200, 8, 8), 0.5)
    noisy = _corrupt_unclipped(base, CorruptionSpec("gaussian_noise", 5), rng)
    sample_std = (noisy - base).std()
    assert abs(sample_std - GAUSSIAN_STD[4]) / GAUSSIAN_STD[4] < 0.05


def test_impulse_noise_fraction():
    rng = np.random.default_rng(0)
    base = np.full((200, 8, 8), 0.5)
    out = apply_corruption(base, CorruptionSpec("impulse_noise", 5), rng)
    frac = (out != 0.5).mean()
    assert abs(frac - 0.14) < 0.02


def test_pixelate_severity5_is_global_mean():
    rng = np.random.default_rng(1)
    imgs = rng.random((4, 8, 8))
    out = apply_corruption(imgs, CorruptionSpec("pixelate", 5))
    for i in range(4):
        assert np.abs(out[i] - imgs[i].mean()).max() < 1e-12


def test_box_blur_is_deterministic_and_smoothing():
    rng = np.random.default_rng(2)
    imgs = rng.random((4, 8, 8))
    a = apply_corruption(imgs, CorruptionSpec("box_blur", 4))
    b = apply_corruption(imgs, CorruptionSpec("box_blur", 4))
    assert np.array_equal(a, b)
    assert a.var() < imgs.var()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        CorruptionSpec("fog", 3)
    with pytest.raises(ValueError):
        CorruptionSpec("gaussian_noise", 6)


def test_noise_kinds_require_rng():
    with pytest.raises(ValueError):
        apply_corruption(np.zeros((1, 8, 8)), CorruptionSpec("gaussian_noise", 1))


def test_single_image_is_rejected():
    # the stream passes (B, 8, 8) batches only; a single (8, 8) image, like
    # any other shape, is refused at every severity
    for shape in [(8, 8), (1, 64), (2, 8, 9), (1, 1, 8, 8)]:
        for severity in (0, 2):
            with pytest.raises(ValueError, match=r"expects \(B, 8, 8\) images"):
                apply_corruption(np.zeros(shape), CorruptionSpec("contrast", severity))


def test_severity_monotone_distortion():
    ds = make_source_dataset(5, 125)  # 1000 images
    rng = np.random.default_rng(9)
    for kind in CORRUPTION_KINDS:
        distortions = []
        for severity in range(1, 6):
            out = apply_corruption(ds.images, CorruptionSpec(kind, severity), rng)
            distortions.append(float(((out - ds.images) ** 2).mean()))
        for low, high in zip(distortions, distortions[1:]):
            assert high >= low - 1e-12, f"{kind}: {distortions}"


# ---------------------------------------------------------------------------
# schedules


def test_gradual_three_kinds_matches_ramp_pattern():
    sched = build_schedule(
        ["gaussian_noise", "box_blur", "contrast"], "gradual", 1, 4
    )
    pairs = [(spec.kind, spec.severity) for spec, _ in sched.segments]
    expected = (
        [("gaussian_noise", s) for s in (5, 4, 3, 2, 1)]
        + [("box_blur", s) for s in (1, 2, 3, 4, 5, 4, 3, 2, 1)]
        + [("contrast", s) for s in (1, 2, 3, 4, 5, 4, 3, 2, 1)]
    )
    assert pairs == expected
    assert len(pairs) == 23


def test_gradual_fifteen_kinds_has_131_pairs():
    assert len(gradual_severities(15)) == 131


def test_gradual_single_kind():
    sched = build_schedule(["pixelate"], "gradual", 2, 4)
    severities = [spec.severity for spec, _ in sched.segments]
    assert severities == [5, 4, 3, 2, 1]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 40))
def test_gradual_length_formula(k):
    assert len(gradual_severities(k)) == 5 + 9 * (k - 1)


def test_continual5_uses_severity_five_once_per_kind():
    sched = build_schedule(CORRUPTION_KINDS, "continual5", 3, 8)
    assert [spec.kind for spec, _ in sched.segments] == list(CORRUPTION_KINDS)
    assert all(spec.severity == 5 for spec, _ in sched.segments)
    assert all(count == 3 for _, count in sched.segments)


def test_order_seed_permutes_kinds():
    base = build_schedule(CORRUPTION_KINDS, "continual5", 1, 8)
    permuted = build_schedule(CORRUPTION_KINDS, "continual5", 1, 8, order_seed=5)
    assert sorted(s.kind for s, _ in permuted.segments) == sorted(
        s.kind for s, _ in base.segments
    )
    again = build_schedule(CORRUPTION_KINDS, "continual5", 1, 8, order_seed=5)
    assert [s.kind for s, _ in permuted.segments] == [s.kind for s, _ in again.segments]


def test_empty_kinds_rejected():
    with pytest.raises(ValueError):
        build_schedule([], "continual5", 1, 8)


# ---------------------------------------------------------------------------
# streaming


def test_identity_severity_stream_yields_clean_batches():
    ds = make_source_dataset(2, 10)
    sched = StreamSchedule(
        segments=((CorruptionSpec("contrast", 0), 2),), batch_size=16
    )
    for batch, labels in stream_batches(sched, ds, np.random.default_rng(0)):
        for row, label in zip(batch.images.reshape(-1, 8, 8), labels):
            matches = np.where(np.abs(ds.images - row[None]).max(axis=(1, 2)) == 0.0)[0]
            assert matches.size and any(ds.labels[m] == label for m in matches)


def test_stream_counts_and_segment_ids():
    ds = make_source_dataset(2, 10)
    sched = StreamSchedule(
        segments=(
            (CorruptionSpec("contrast", 1), 3),
            (CorruptionSpec("pixelate", 1), 3),
        ),
        batch_size=8,
    )
    seen = [batch.segment for batch, _ in stream_batches(sched, ds, np.random.default_rng(1))]
    assert seen == [0, 0, 0, 1, 1, 1]


def test_stream_is_deterministic_given_seeds():
    ds = make_source_dataset(2, 10)
    sched = build_schedule(("gaussian_noise", "box_blur"), "continual5", 2, 8)
    a = [
        (batch.images.tobytes(), labels.tobytes())
        for batch, labels in stream_batches(sched, ds, np.random.default_rng(42))
    ]
    b = [
        (batch.images.tobytes(), labels.tobytes())
        for batch, labels in stream_batches(sched, ds, np.random.default_rng(42))
    ]
    assert a == b


def test_stream_rejects_oversized_batches():
    ds = make_source_dataset(2, 2)
    sched = build_schedule(("contrast",), "continual5", 1, 64)
    with pytest.raises(ValueError):
        next(stream_batches(sched, ds, np.random.default_rng(0)))


def test_engine_facing_batch_carries_no_labels():
    ds = make_source_dataset(2, 10)
    sched = build_schedule(("contrast",), "continual5", 1, 8)
    batch, labels = next(stream_batches(sched, ds, np.random.default_rng(0)))
    assert not hasattr(batch, "labels")
    assert set(vars(batch)) == {"images", "segment"}
    assert batch.images.shape == (8, 64)
