import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_tta.autodiff import Tape, softmax
from lifelong_tta.engine import (
    AdamState,
    AugmentParams,
    NonFiniteLossError,
    PetalConfig,
    adapt_step,
    augment,
    baseline_step,
    ema_update,
    evaluate_model,
    fim_diag,
    fim_mask,
    init_adapt_state,
    petal_loss,
    restore,
    run_lifelong,
    stochastic_mask,
    teacher_pseudo_label,
)
from lifelong_tta.model import MlpClassifier
from lifelong_tta.streams import (
    CorruptionSpec,
    StreamSchedule,
    build_schedule,
    make_source_dataset,
    stream_batches,
)
from lifelong_tta.swag import SwagDiagEstimator, train_source


@pytest.fixture(scope="module")
def small_bundle():
    """Source model + posterior on a small dataset, shared by engine tests."""
    dataset = make_source_dataset(0, 30)
    model = MlpClassifier((64, 32, 8), seed=0)
    posterior, _ = train_source(
        model,
        dataset.images.reshape(len(dataset), -1),
        dataset.labels,
        epochs=12,
        lr=0.05,
        swag_epochs=5,
        rng=np.random.default_rng(1),
    )
    return dataset, model, posterior


# every magnitude zero: each augmentation draw returns its input
NO_AUGMENT = AugmentParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def fast_cfg(**overrides):
    base = dict(method="petal", k_aug=4, alpha=1e-6, restore="fim")
    base.update(overrides)
    return PetalConfig(**base)


def batch_from(dataset, n=16, severity=0, seed=0):
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(dataset))[:n]
    images = dataset.images[idx]
    if severity:
        from lifelong_tta.streams import apply_corruption

        images = apply_corruption(images, CorruptionSpec("gaussian_noise", severity), rng)
    return images.reshape(n, -1), dataset.labels[idx]


# ---------------------------------------------------------------------------
# augmentation


def test_augment_identity_config_is_bit_exact():
    rng = np.random.default_rng(0)
    images = rng.random((5, 64))
    out = augment(images, rng, NO_AUGMENT)
    assert np.array_equal(out, images)


def test_augment_is_deterministic_given_rng_state():
    images = np.random.default_rng(1).random((5, 64))
    a = augment(images, np.random.default_rng(7))
    b = augment(images, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_augment_output_range():
    rng = np.random.default_rng(2)
    images = rng.random((200, 64))
    for _ in range(50):  # 10^4 augmented images in total
        out = augment(images, rng)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_augment_preserves_shape_conventions():
    rng = np.random.default_rng(3)
    flat = rng.random((4, 64))
    square = flat.reshape(4, 8, 8)
    assert augment(flat, np.random.default_rng(0)).shape == (4, 64)
    assert augment(square, np.random.default_rng(0)).shape == (4, 8, 8)
    with pytest.raises(ValueError):
        augment(rng.random((4, 63)), rng)
    with pytest.raises(ValueError):
        augment(rng.random((4, 7, 7)), rng)


# ---------------------------------------------------------------------------
# pseudo-labels


def test_gate_always_passes_at_tau_zero(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(tau=0.0)
    state = init_adapt_state(model, posterior, cfg, seed=0)
    direct = softmax(state.teacher.forward(images, update_stats=False))
    preds = teacher_pseudo_label(state, images, cfg)
    assert np.array_equal(preds, direct)


def test_gate_never_passes_above_one(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(tau=2.0, k_aug=2, augment=NO_AUGMENT)
    state = init_adapt_state(model, posterior, cfg, seed=0)
    direct = softmax(state.teacher.forward(images, update_stats=False))
    preds = teacher_pseudo_label(state, images, cfg)
    # identity augmentations make the K-average equal the direct prediction
    # exactly: (p + p) / 2 is exact in binary floating point
    assert np.array_equal(preds, direct)


def test_pseudo_labels_are_distributions(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, severity=5)
    cfg = fast_cfg(tau=0.9)
    state = init_adapt_state(model, posterior, cfg, seed=0)
    preds = teacher_pseudo_label(state, images, cfg)
    assert np.abs(preds.sum(axis=1) - 1.0).max() < 1e-9


def per_draw_teacher_pseudo_label(state, images, cfg):
    """The loop the blocked teacher replaced: one augment call and one teacher
    forward per draw, every draw taken before the first forward."""
    source_probs = softmax(state.source_model.forward(images))
    confidence = source_probs.max(axis=1)
    direct = softmax(state.teacher.forward(images, update_stats=False))
    needs_averaging = confidence < cfg.tau
    if not needs_averaging.any():
        return direct
    draws = [augment(images, state.rng_augment, cfg.augment) for _ in range(cfg.k_aug)]
    total = np.zeros_like(direct)
    for draw in draws:
        total += softmax(state.teacher.forward(draw, update_stats=False))
    averaged = total / cfg.k_aug
    return np.where(needs_averaging[:, None], averaged, direct)


@pytest.mark.parametrize("k_aug", [1, 3, 4, 5, 32])
def test_blocked_teacher_equals_the_per_draw_loop(small_bundle, k_aug):
    dataset, model, posterior = small_bundle
    # 19 rows: no block boundary falls on a multiple of 4 rows
    images, _ = batch_from(dataset, n=19, severity=5)
    cfg = fast_cfg(k_aug=k_aug, tau=0.9)
    expected_state = init_adapt_state(model, posterior, cfg, seed=3)
    state = init_adapt_state(model, posterior, cfg, seed=3)
    # one step moves the teacher off the source model and its BN buffers
    for s in (expected_state, state):
        adapt_step(s, images, posterior, cfg)
    stats = {i: s.copy() for i, s in state.teacher.stats.items()}
    confidence = softmax(state.source_model.forward(images)).max(axis=1)
    assert 0 < (confidence < cfg.tau).sum() < images.shape[0]  # the gate splits the batch
    expected = per_draw_teacher_pseudo_label(expected_state, images, cfg)
    assert np.array_equal(teacher_pseudo_label(state, images, cfg), expected)
    assert state.rng_augment.random() == expected_state.rng_augment.random()
    for i, s in stats.items():
        assert np.array_equal(state.teacher.stats[i].mean, s.mean)
        assert np.array_equal(state.teacher.stats[i].var, s.var)


@pytest.mark.parametrize("name, value", [("hidden0.weight", np.nan), ("hidden0.beta", -np.inf)])
def test_non_finite_teacher_parameter_aborts_the_step(small_bundle, name, value):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(tau=2.0)  # the gate opens on every sample
    state = init_adapt_state(model, posterior, cfg, seed=0)
    state.teacher.params[name].flat[0] = value
    with pytest.raises(NonFiniteLossError):
        adapt_step(state, images, posterior, cfg)


# ---------------------------------------------------------------------------
# loss


def test_petal_loss_alpha_zero_is_plain_cross_entropy(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(alpha=0.0)
    state = init_adapt_state(model, posterior, cfg, seed=0)
    pseudo = teacher_pseudo_label(state, images, cfg)
    tape = Tape()
    loss, _, logits = petal_loss(state, images, pseudo, posterior, cfg, tape)
    from lifelong_tta.autodiff import Tensor, soft_cross_entropy

    reference = soft_cross_entropy(Tensor(pseudo), logits).item()
    assert loss.item() == reference


def test_petal_loss_at_posterior_mode_matches_closed_form(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(alpha=1.0)
    state = init_adapt_state(model, posterior, cfg, seed=0)
    pseudo = teacher_pseudo_label(state, images, cfg)
    # student still sits at the posterior mode, so log q(theta) is the
    # normalizer sum and the loss separates exactly
    tape = Tape()
    loss, _, logits = petal_loss(state, images, pseudo, posterior, cfg, tape)
    from lifelong_tta.autodiff import Tensor, soft_cross_entropy

    ce = soft_cross_entropy(Tensor(pseudo), logits).item()
    assert np.array_equal(state.student.theta, posterior.mu)
    # at theta = mu the quadratic term is zero: log q is the normalizer alone
    log_q = -0.5 * np.log(2 * np.pi * posterior.sigma2).sum()
    expected = ce - 1.0 * log_q
    assert abs(loss.item() - expected) < 1e-9


def test_petal_loss_self_labels_have_zero_gradient(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(alpha=0.0)
    state = init_adapt_state(model, posterior, cfg, seed=0)
    tape = Tape()
    logits, wrapped = state.student.taped_forward(images, tape, update_stats=False)
    pseudo = softmax(logits.data)
    from lifelong_tta.autodiff import Tensor, backward, soft_cross_entropy

    loss = soft_cross_entropy(Tensor(pseudo), logits, tape)
    grads = backward(loss, tape)
    assert np.abs(state.student.grad_vector(wrapped, grads)).max() < 1e-8


def test_petal_loss_rejects_mismatched_posterior(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    other = MlpClassifier((64, 16, 8), seed=0)
    wrong = SwagDiagEstimator(other.theta.size).collect(other.flatten()).finalize()
    cfg = fast_cfg(alpha=1e-3)
    state = init_adapt_state(model, posterior, cfg, seed=0)
    with pytest.raises(ValueError):
        petal_loss(state, images, teacher_pseudo_label(state, images, cfg), wrong, cfg, Tape())


# ---------------------------------------------------------------------------
# EMA


def test_ema_extremes(small_bundle):
    _, model, posterior = small_bundle
    cfg = fast_cfg()
    state = init_adapt_state(model, posterior, cfg, seed=0)
    before = state.teacher.flatten()
    state.student.load(before + 1.0)
    ema_update(state.teacher, state.student, pi=1.0)
    assert np.array_equal(state.teacher.flatten(), before)
    ema_update(state.teacher, state.student, pi=0.0)
    assert np.array_equal(state.teacher.flatten(), state.student.flatten())


def test_ema_arithmetic():
    teacher = MlpClassifier((4, 4, 2), seed=0)
    student = MlpClassifier((4, 4, 2), seed=0)
    teacher.load(np.ones(teacher.theta.size))
    student.load(np.zeros(student.theta.size))
    ema_update(teacher, student, pi=0.999)
    assert np.abs(teacher.flatten() - 0.999).max() < 1e-15


def test_ema_contraction_with_frozen_student():
    # with the student at zero, each update multiplies the gap by pi exactly
    teacher = MlpClassifier((4, 4, 2), seed=1)
    student = MlpClassifier((4, 4, 2), seed=1)
    student.load(np.zeros(student.theta.size))
    pi = 0.9
    for _ in range(3):
        expected = pi * teacher.flatten()
        ema_update(teacher, student, pi=pi)
        assert np.array_equal(teacher.flatten(), expected)


def test_teacher_running_stats_are_never_read(small_bundle):
    # the teacher runs train-mode BN on batch statistics with no update, so
    # garbage in its running buffers leaves its pseudo-labels bit-identical;
    # this is why ema_update copies no statistics
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, severity=5)
    cfg = fast_cfg(tau=0.99)
    clean = init_adapt_state(model, posterior, cfg, seed=3)
    garbage = init_adapt_state(model, posterior, cfg, seed=3)
    rng = np.random.default_rng(0)
    for stats in garbage.teacher.stats.values():
        stats.mean[...] = rng.normal(scale=1e3, size=stats.mean.shape)
        stats.var[...] = rng.uniform(1e-6, 1e3, size=stats.var.shape)
    buffers = [(s.mean.copy(), s.var.copy()) for s in garbage.teacher.stats.values()]
    expected = teacher_pseudo_label(clean, images, cfg)
    assert np.array_equal(teacher_pseudo_label(garbage, images, cfg), expected)
    assert not np.array_equal(expected, softmax(clean.teacher.forward(images, update_stats=False)))
    ema_update(garbage.teacher, garbage.student, cfg.pi)
    for (mean, var), stats in zip(buffers, garbage.teacher.stats.values()):
        assert np.array_equal(stats.mean, mean) and np.array_equal(stats.var, var)


def test_ema_registry_mismatch():
    with pytest.raises(ValueError):
        ema_update(MlpClassifier((4, 4, 2), seed=0), MlpClassifier((4, 5, 2), seed=0), 0.9)


# ---------------------------------------------------------------------------
# restoration primitives


def test_fim_diag_is_elementwise_square():
    grad = np.array([2.0, -3.0, 0.5])
    assert np.array_equal(fim_diag(grad), [4.0, 9.0, 0.25])
    assert np.array_equal(fim_diag(np.zeros(4)), np.zeros(4))
    rng = np.random.default_rng(0)
    g = rng.normal(size=6)
    assert np.abs(fim_diag(g) - np.diag(np.outer(g, g))).max() < 1e-12


def test_fim_mask_extremes_and_sort_oracle():
    values = np.array([0.4, 0.1, 0.3, 0.2])
    assert not fim_mask(values, 0.0).any()
    assert fim_mask(values, 1.0).all()
    assert np.array_equal(fim_mask(values, 0.5), [False, True, False, True])


def test_fim_mask_tie_break_prefers_lower_index():
    values = np.array([1.0, 0.5, 0.5, 0.5])
    mask = fim_mask(values, 0.5)
    assert np.array_equal(mask, [False, True, True, False])


def _stable_argsort_mask(values, delta):
    keep = math.floor(delta * values.size)
    mask = np.zeros(values.size, dtype=bool)
    mask[np.argsort(values, kind="stable")[:keep]] = True
    return mask


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 200),
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
    st.sampled_from(["uniform", "small_ints", "zeros", "with_inf"]),
)
def test_fim_mask_cardinality(seed, dim, delta, kind):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        values = rng.random(dim)
    elif kind == "small_ints":  # heavy ties
        values = rng.integers(0, 4, dim).astype(np.float64)
    elif kind == "zeros":
        values = np.zeros(dim)
    else:
        values = rng.integers(0, 3, dim).astype(np.float64)
        values[rng.random(dim) < 0.3] = np.inf
    mask = fim_mask(values, delta)
    assert mask.sum() == math.floor(delta * dim)
    assert np.array_equal(mask, _stable_argsort_mask(values, delta))


def test_stochastic_mask_extremes():
    rng = np.random.default_rng(0)
    assert not stochastic_mask(100, 0.0, rng).any()
    assert stochastic_mask(100, 1.0, rng).all()


def test_stochastic_mask_binomial_bound():
    rng = np.random.default_rng(5)
    count = int(stochastic_mask(100_000, 0.01, rng).sum())
    assert 700 <= count <= 1300


def test_restore_semantics(small_bundle):
    _, model, _ = small_bundle
    dim = model.theta.size
    theta0 = np.full(dim, 5.0)
    theta = np.full(dim, 7.0)
    restore(theta, theta0, np.zeros(dim, dtype=bool))
    assert np.array_equal(theta, np.full(dim, 7.0))
    mask = np.zeros(dim, dtype=bool)
    mask[0] = True
    restore(theta, theta0, mask)  # in place
    assert theta[0] == 5.0 and np.array_equal(theta[1:], np.full(dim - 1, 7.0))
    restore(theta, theta0, np.ones(dim, dtype=bool))
    assert np.array_equal(theta, theta0)
    assert np.array_equal(theta0, np.full(dim, 5.0))  # the target is never written
    with pytest.raises(ValueError):
        restore(theta, theta0, np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        restore(theta, theta0[:-1], np.zeros(dim, dtype=bool))


# ---------------------------------------------------------------------------
# adaptation steps


@pytest.mark.parametrize(
    "method", ["source", "bn_adapt", "tent", "pseudo_label", "cotta", "petal"]
)
def test_parameter_views_and_source_survive_steps(small_bundle, method):
    # every step updates theta in place: a rebound view or an aliased
    # flatten() (and so an aliased theta_0) fails here
    dataset, model, posterior = small_bundle
    cfg = fast_cfg(method=method, tau=2.0)
    state = init_adapt_state(model, posterior, cfg, seed=0)
    has_teacher = method in ("petal", "cotta")
    # each method holds only the state its step reads
    assert (state.teacher is not None) == has_teacher
    assert (state.opt is not None) == (method not in ("source", "bn_adapt"))
    nets = [state.student, state.source_model] + ([state.teacher] if has_teacher else [])
    for seed in range(3):
        images, _ = batch_from(dataset, severity=3, seed=seed)
        if has_teacher:
            adapt_step(state, images, posterior, cfg)
        else:
            baseline_step(state, images, cfg)
        for net in nets:
            flat = net.flatten()
            assert not np.shares_memory(flat, net.theta)
            snapshot = net.views(flat)
            for name, view in net.params.items():
                assert np.shares_memory(view, net.theta)
                assert np.array_equal(view, snapshot[name])
        # the frozen source model is theta_0: never moved, never aliased
        assert not np.shares_memory(state.source_model.theta, state.student.theta)
        assert np.array_equal(state.source_model.theta, posterior.mu)
    if method not in ("source", "bn_adapt"):
        assert not np.array_equal(state.student.theta, state.source_model.theta)


def test_zero_lr_no_restore_leaves_parameters_fixed(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(eta=0.0, restore="none")
    state = init_adapt_state(model, posterior, cfg, seed=0)
    before = state.student.flatten()
    report = adapt_step(state, images, posterior, cfg)
    assert np.array_equal(state.student.flatten(), before)
    assert report.restored == 0
    assert state.step == 1


def test_online_predictions_precede_the_update(small_bundle):
    # replaying the pseudo-label computation from an identical pre-step state
    # must reproduce the emitted predictions exactly
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, severity=5)
    cfg = fast_cfg()
    state = init_adapt_state(model, posterior, cfg, seed=11)
    replay = init_adapt_state(model, posterior, cfg, seed=11)
    report = adapt_step(state, images, posterior, cfg)
    expected = teacher_pseudo_label(replay, images, cfg)
    assert np.array_equal(report.predictions, expected)


def test_fim_restore_count_is_exact_every_step(small_bundle):
    dataset, model, posterior = small_bundle
    cfg = fast_cfg(restore="fim", delta=0.03)
    state = init_adapt_state(model, posterior, cfg, seed=0)
    dim = state.source_model.theta.size
    for seed in range(5):
        images, _ = batch_from(dataset, severity=5, seed=seed)
        report = adapt_step(state, images, posterior, cfg)
        assert report.restored == math.floor(0.03 * dim)


def test_delta_one_resets_student_to_source(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, severity=5)
    cfg = fast_cfg(restore="fim", delta=1.0)
    state = init_adapt_state(model, posterior, cfg, seed=0)
    adapt_step(state, images, posterior, cfg)
    assert np.array_equal(state.student.flatten(), state.source_model.theta)


def test_reset_optimizer_state_clears_restored_moments(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, severity=5)
    cfg = fast_cfg(restore="fim", delta=1.0, reset_optimizer_state=True)
    state = init_adapt_state(model, posterior, cfg, seed=0)
    adapt_step(state, images, posterior, cfg)
    assert np.array_equal(state.opt.m, np.zeros(state.source_model.theta.size))


def test_cotta_equals_petal_with_alpha_zero(small_bundle):
    dataset, model, posterior = small_bundle
    petal_cfg = fast_cfg(method="petal", alpha=0.0, restore="stochastic", rho=0.01)
    cotta_cfg = fast_cfg(method="cotta", alpha=0.0, restore="stochastic", rho=0.01)
    petal_state = init_adapt_state(model, posterior, petal_cfg, seed=4)
    cotta_state = init_adapt_state(model, posterior, cotta_cfg, seed=4)
    for seed in range(10):
        images, _ = batch_from(dataset, severity=5, seed=seed)
        petal_report = adapt_step(petal_state, images, posterior, petal_cfg)
        cotta_report = adapt_step(cotta_state, images, posterior, cotta_cfg)
        assert np.array_equal(
            petal_state.student.flatten(), cotta_state.student.flatten()
        )
        assert np.array_equal(
            petal_state.teacher.flatten(), cotta_state.teacher.flatten()
        )
        assert np.array_equal(petal_report.predictions, cotta_report.predictions)


def test_non_finite_loss_aborts(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(eta=1e200, restore="none", optimizer="sgd", alpha=1.0)
    state = init_adapt_state(model, posterior, cfg, seed=0)
    with pytest.raises(NonFiniteLossError), np.errstate(over="ignore", invalid="ignore"):
        for seed in range(5):
            adapt_step(state, images, posterior, cfg)


def test_adapt_step_rejects_baseline_methods(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(method="tent")
    state = init_adapt_state(model, posterior, cfg, seed=0)
    with pytest.raises(ValueError):
        adapt_step(state, images, posterior, cfg)


# ---------------------------------------------------------------------------
# baselines


def test_source_baseline_matches_offline_eval(small_bundle):
    dataset, model, posterior = small_bundle
    images, labels = batch_from(dataset, n=32)
    cfg = fast_cfg(method="source")
    state = init_adapt_state(model, posterior, cfg, seed=0)
    report = baseline_step(state, images, cfg)
    probe = model.clone()
    probe.load(posterior.mu)
    probe.set_bn_mode("eval")
    expected = softmax(probe.forward(images))
    assert np.array_equal(report.predictions, expected)
    from lifelong_tta.metrics import per_sample_scores

    offline = evaluate_model(probe, images.reshape(-1, 8, 8), labels)
    assert 100.0 * float(per_sample_scores(report.predictions, labels)[0].mean()) == offline.error


def test_source_baseline_mutates_nothing(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, n=32)
    cfg = fast_cfg(method="source")
    state = init_adapt_state(model, posterior, cfg, seed=0)
    before = state.student.flatten()
    stats_before = state.student.stats[0].mean.copy()
    baseline_step(state, images, cfg)
    assert np.array_equal(state.student.flatten(), before)
    assert np.array_equal(state.student.stats[0].mean, stats_before)


def test_tent_with_zero_lr_equals_bn_adapt(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, n=32, severity=5)
    tent_cfg = fast_cfg(method="tent", eta=0.0)
    bn_cfg = fast_cfg(method="bn_adapt")
    tent_state = init_adapt_state(model, posterior, tent_cfg, seed=0)
    bn_state = init_adapt_state(model, posterior, bn_cfg, seed=0)
    tent_report = baseline_step(tent_state, images, tent_cfg)
    bn_report = baseline_step(bn_state, images, bn_cfg)
    assert np.array_equal(tent_report.predictions, bn_report.predictions)
    assert np.array_equal(
        tent_state.student.flatten(), bn_state.student.flatten()
    )


def test_tent_and_pseudo_label_touch_only_bn_affine(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, n=32, severity=5)
    for method in ("tent", "pseudo_label"):
        cfg = fast_cfg(method=method)
        state = init_adapt_state(model, posterior, cfg, seed=0)
        before = state.student.views(state.student.flatten())
        baseline_step(state, images, cfg)
        for name, after in state.student.params.items():
            same = np.array_equal(before[name], after)
            if name.endswith(".gamma") or name.endswith(".beta"):
                assert not same, f"{method} should update {name}"
            else:
                assert same, f"{method} must not update {name}"


def test_bn_adapt_refreshes_running_stats(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, n=32, severity=5)
    cfg = fast_cfg(method="bn_adapt")
    state = init_adapt_state(model, posterior, cfg, seed=0)
    before = state.student.stats[0].mean.copy()
    baseline_step(state, images, cfg)
    assert not np.array_equal(state.student.stats[0].mean, before)


def test_unknown_baseline_method(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(method="petal")
    state = init_adapt_state(model, posterior, cfg, seed=0)
    with pytest.raises(ValueError):
        baseline_step(state, images, cfg)


# ---------------------------------------------------------------------------
# full runs


def test_empty_schedule_gives_empty_report(small_bundle):
    dataset, model, posterior = small_bundle
    schedule = StreamSchedule(
        segments=(), batch_size=8, kinds=(), mode="continual5", order_seed=None, batches_per_segment=1
    )
    cfg = fast_cfg()
    report, state = run_lifelong(schedule, dataset, posterior, model, cfg, seed=0)
    assert report.segments == [] and report.rows == [] and report.overall is None
    assert state.step == 0
    assert np.array_equal(state.student.flatten(), state.source_model.theta)


def test_single_batch_run_equals_one_step(small_bundle):
    dataset, model, posterior = small_bundle
    schedule = build_schedule(("gaussian_noise",), "continual5", 1, 8)
    cfg = fast_cfg()
    report, state = run_lifelong(schedule, dataset, posterior, model, cfg, seed=9)
    assert state.step == 1
    assert len(report.rows) == 1
    assert report.overall["count"] == 8
    # replaying the run's seeding by hand reproduces the exact trajectory
    stream_ss, augment_ss, restore_ss = np.random.SeedSequence(9).spawn(3)
    manual = init_adapt_state(
        model,
        posterior,
        cfg,
        rng_augment=np.random.Generator(np.random.PCG64(augment_ss)),
        rng_restore=np.random.Generator(np.random.PCG64(restore_ss)),
    )
    batch, _ = next(
        stream_batches(schedule, dataset, np.random.Generator(np.random.PCG64(stream_ss)))
    )
    manual_report = adapt_step(manual, batch.images, posterior, cfg)
    assert np.array_equal(manual.student.flatten(), state.student.flatten())
    assert np.array_equal(manual.teacher.flatten(), state.teacher.flatten())
    assert manual_report.restored == report.rows[0]["restored"]
    assert manual_report.loss == report.rows[0]["loss"]


def test_run_is_deterministic(small_bundle):
    dataset, model, posterior = small_bundle
    schedule = build_schedule(("gaussian_noise", "contrast"), "continual5", 2, 8)
    cfg = fast_cfg()
    a, _ = run_lifelong(schedule, dataset, posterior, model, cfg, seed=3)
    b, _ = run_lifelong(schedule, dataset, posterior, model, cfg, seed=3)
    assert a.to_document() == b.to_document()
    assert a.rows_to_csv() == b.rows_to_csv()


def test_tent_online_resets_at_segment_boundaries(small_bundle):
    dataset, model, posterior = small_bundle
    schedule = build_schedule(("contrast", "gaussian_noise"), "continual5", 2, 8)
    cfg = fast_cfg(method="tent", tent_online=True, eta=0.05)
    report, state = run_lifelong(schedule, dataset, posterior, model, cfg, seed=0)
    # after the run the optimizer has only seen the final segment's two steps
    assert state.opt.step == 2


def test_tent_online_resets_the_teacher_too(small_bundle, monkeypatch):
    # petal and cotta predict from the teacher, so the oracle reset must
    # bring it back to theta_0 along with the student
    import lifelong_tta.engine as engine

    dataset, model, posterior = small_bundle
    schedule = build_schedule(("contrast", "gaussian_noise"), "continual5", 2, 8)
    cfg = fast_cfg(tent_online=True, pi=0.9)
    seen = []
    step = engine.adapt_step

    def recording(state, *args):
        seen.append((state.student.theta.copy(), state.teacher.theta.copy(), state.source_model.theta.copy()))
        return step(state, *args)

    monkeypatch.setattr(engine, "adapt_step", recording)
    run_lifelong(schedule, dataset, posterior, model, cfg, seed=0)
    assert len(seen) == 4
    student, teacher, source = seen[2]  # entering the second segment's first step
    assert not np.array_equal(seen[1][1], source)  # the teacher had moved
    assert np.array_equal(student, source) and np.array_equal(teacher, source)


def test_run_report_has_config_echo_and_segments(small_bundle):
    dataset, model, posterior = small_bundle
    schedule = build_schedule(("contrast",), "continual5", 2, 8)
    cfg = fast_cfg()
    report, _ = run_lifelong(schedule, dataset, posterior, model, cfg, seed=0)
    assert report.config["alpha"] == cfg.alpha
    assert report.schedule == {
        "kinds": ["contrast"],
        "mode": "continual5",
        "order_seed": None,
        "batches_per_segment": 2,
        "batch_size": 8,
    }
    assert [s.kind for s in report.segments] == ["contrast"]
    csv_text = report.rows_to_csv()
    assert csv_text.splitlines()[0] == "step,segment,error,nll,brier,loss,restored"
    assert len(csv_text.splitlines()) == 3
