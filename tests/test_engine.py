import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_tta.autodiff import (
    backward,
    log_normalizers,
    soft_cross_entropy,
    softmax,
    softmax_entropy_mean,
)
from lifelong_tta.engine import (
    METHODS,
    AdamState,
    AugmentParams,
    STEP_COLUMNS,
    NonFiniteLossError,
    PetalConfig,
    _DRAW_BLOCK,
    _objective,
    adapt_step,
    augment,
    baseline_step,
    ema_update,
    evaluate_model,
    fim_diag,
    fim_mask,
    init_adapt_state,
    method_config,
    restore,
    run_lifelong,
    stochastic_mask,
    teacher_pseudo_label,
)
from lifelong_tta.metrics import per_sample_scores
from lifelong_tta.model import MlpClassifier, bn_affine_filter, param_mask
from lifelong_tta.streams import (
    CorruptionSpec,
    StreamSchedule,
    build_schedule,
    make_source_dataset,
    stream_batches,
)
from lifelong_tta.swag import SwagDiagEstimator, one_hot, train_source

from helpers import drawn_numbers, seeded_generators


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
        momentum=0.9,
        batch_size=64,
        swag_epochs=5,
        rng=np.random.default_rng(1),
    )
    return dataset, model, posterior


# every magnitude zero: each augmentation draw returns its input
NO_AUGMENT = AugmentParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def fast_cfg(**overrides):
    base = dict(method="petal", k_aug=4, alpha=1e-6)
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
    out = augment(images, NO_AUGMENT, *drawn_numbers(rng, NO_AUGMENT, 1, 5))
    assert np.array_equal(out, images)


def test_augment_is_deterministic_given_rng_state():
    images = np.random.default_rng(1).random((5, 64))
    params = AugmentParams()
    a = augment(images, params, *drawn_numbers(np.random.default_rng(7), params, 1, 5))
    b = augment(images, params, *drawn_numbers(np.random.default_rng(7), params, 1, 5))
    assert np.array_equal(a, b)


def test_augment_output_range():
    rng = np.random.default_rng(2)
    images = rng.random((200, 64))
    params = AugmentParams()
    for _ in range(50):  # 10^4 augmented images in total
        out = augment(images, params, *drawn_numbers(rng, params, 1, 200))
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_augment_preserves_shape_conventions():
    # the teacher passes flattened (B, 64) images, the one accepted format,
    # with one row per sample of the drawn numbers
    rng = np.random.default_rng(3)
    params = AugmentParams()
    flat = rng.random((4, 64))
    one, three = (drawn_numbers(np.random.default_rng(0), params, draws, 4) for draws in (1, 3))
    assert augment(flat, params, *one).shape == (4, 64)
    assert augment(flat, params, *three).shape == (12, 64)
    with pytest.raises(ValueError):
        augment(rng.random((4, 63)), params, *one)
    with pytest.raises(ValueError):
        augment(rng.random((4, 7, 7)), params, *one)
    with pytest.raises(ValueError):
        augment(flat.reshape(4, 8, 8), params, *one)
    with pytest.raises(ValueError):
        augment(rng.random((5, 64)), params, *one)


# ---------------------------------------------------------------------------
# pseudo-labels


def test_gate_always_passes_at_tau_zero(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(tau=0.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    direct = softmax(state.teacher.forward(images, "batch"))
    preds = teacher_pseudo_label(state, images, cfg)
    assert np.array_equal(preds, direct)


def test_gate_never_passes_above_one(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(tau=2.0, k_aug=2, augment=NO_AUGMENT)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    direct = softmax(state.teacher.forward(images, "batch"))
    preds = teacher_pseudo_label(state, images, cfg)
    # identity augmentations make the K-average equal the direct prediction
    # exactly: (p + p) / 2 is exact in binary floating point
    assert np.array_equal(preds, direct)


def test_pseudo_labels_are_distributions(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, severity=5)
    cfg = fast_cfg(tau=0.9)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    preds = teacher_pseudo_label(state, images, cfg)
    assert np.abs(preds.sum(axis=1) - 1.0).max() < 1e-9


def per_draw_teacher_pseudo_label(state, images, cfg):
    """The loop the blocked teacher replaced: one augment call and one teacher
    forward per draw, every draw taken before the first forward."""
    source_probs = softmax(state.source_model.forward(images, "eval"))
    confidence = source_probs.max(axis=1)
    direct = softmax(state.teacher.forward(images, "batch"))
    needs_averaging = confidence < cfg.tau
    if not needs_averaging.any():
        return direct
    drawn = [drawn_numbers(state.rng_augment, cfg.augment, 1, images.shape[0]) for _ in range(cfg.k_aug)]
    draws = [augment(images, cfg.augment, *numbers) for numbers in drawn]
    total = np.zeros_like(direct)
    for draw in draws:
        total += softmax(state.teacher.forward(draw, "batch"))
    averaged = total / cfg.k_aug
    return np.where(needs_averaging[:, None], averaged, direct)


@pytest.mark.parametrize("k_aug", [1, 3, 4, 5, 12, 32])
def test_blocked_teacher_equals_the_per_draw_loop(small_bundle, k_aug):
    dataset, model, posterior = small_bundle
    cfg = fast_cfg(k_aug=k_aug, tau=0.9)
    expected_state = init_adapt_state(model, posterior, cfg, **seeded_generators(3))
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(3))
    # one step moves the teacher off the source model and its BN buffers
    for s in (expected_state, state):
        adapt_step(s, batch_from(dataset, n=19, severity=5)[0], cfg)
    running = {name: values.copy() for name, values in state.teacher.running.items()}
    # three calls on one state and its workspace, each on other images of the
    # same 19 rows (no block boundary falls on a multiple of 4 rows): a buffer
    # an earlier call left stale would show, and a partial last block keeps
    # buffers of its own shape
    for seed in (0, 1, 2):
        images, _ = batch_from(dataset, n=19, severity=5, seed=seed)
        confidence = softmax(state.source_model.forward(images, "eval")).max(axis=1)
        assert 0 < (confidence < cfg.tau).sum() < images.shape[0]  # the gate splits the batch
        expected = per_draw_teacher_pseudo_label(expected_state, images, cfg)
        assert np.array_equal(teacher_pseudo_label(state, images, cfg), expected)
        assert state.rng_augment.random() == expected_state.rng_augment.random()
        for name, values in running.items():
            assert np.array_equal(state.teacher.running[name], values)
    augment_rows = {shape[0] for name, shape in state.workspace if name == "augment"}
    assert augment_rows == {19 * min(k_aug, _DRAW_BLOCK), 19 * (k_aug % _DRAW_BLOCK)} - {0}


def test_workspace_is_made_on_the_first_gate_open_step_and_reused_after(small_bundle):
    dataset, model, posterior = small_bundle
    cfg = fast_cfg(k_aug=5, tau=2.0)  # the gate opens on every sample
    for method in ("tent", "pseudo_label"):
        assert init_adapt_state(model, posterior, fast_cfg(method=method), **seeded_generators(0)).workspace is None
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    adapt_step(state, batch_from(dataset, seed=0)[0], dataclasses.replace(cfg, tau=0.0))
    assert state.workspace == {}  # a shut gate draws nothing
    adapt_step(state, batch_from(dataset, seed=1)[0], cfg)
    buffers = dict(state.workspace)  # holds each array, so no id can be reused
    assert buffers
    for seed in (2, 3, 4):
        report = adapt_step(state, batch_from(dataset, seed=seed)[0], cfg)
        assert {key: id(buffer) for key, buffer in state.workspace.items()} == {
            key: id(buffer) for key, buffer in buffers.items()
        }
        assert not any(np.shares_memory(report.predictions, buffer) for buffer in buffers.values())


@pytest.mark.parametrize("name, value", [("hidden0.weight", np.nan), ("hidden0.beta", -np.inf)])
def test_non_finite_teacher_parameter_aborts_the_step(small_bundle, name, value):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(tau=2.0)  # the gate opens on every sample
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    state.teacher.params[name].flat[0] = value
    with pytest.raises(NonFiniteLossError):
        adapt_step(state, images, cfg)


# ---------------------------------------------------------------------------
# loss


def test_petal_loss_alpha_zero_is_plain_cross_entropy(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(alpha=0.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    pseudo = teacher_pseudo_label(state, images, cfg)
    tape = []
    loss, _, logits = _objective(state, images, pseudo, cfg, tape)
    reference = soft_cross_entropy(pseudo, logits, []).item()
    assert loss.item() == reference


def test_petal_loss_at_posterior_mode_matches_closed_form(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(alpha=1.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    pseudo = teacher_pseudo_label(state, images, cfg)
    # student still sits at the posterior mode, so log q(theta) is the
    # normalizer sum and the loss separates exactly
    tape = []
    loss, _, logits = _objective(state, images, pseudo, cfg, tape)
    ce = soft_cross_entropy(pseudo, logits, []).item()
    assert np.array_equal(state.student.theta, posterior.mu)
    # at theta = mu the quadratic term is zero: log q is the normalizer alone
    log_q = -0.5 * np.log(2 * np.pi * posterior.sigma2).sum()
    expected = ce - 1.0 * log_q
    assert abs(loss.item() - expected) < 1e-9


@pytest.mark.parametrize("method", ["petal", "cotta", "tent", "pseudo_label", "source"])
def test_petal_state_holds_the_posterior_normalizers(small_bundle, method):
    # petal's run state carries its anchor: the posterior and the
    # log-density's constant per-piece sums, computed once from it; no other
    # method reads them
    dataset, model, posterior = small_bundle
    state = init_adapt_state(model, posterior, fast_cfg(method=method), **seeded_generators(0))
    if method == "petal":
        held, normalizers = state.anchor
        assert held is posterior
        assert normalizers == log_normalizers(posterior.sigma2, state.student.pieces)
    else:
        assert state.anchor is None


def test_petal_loss_self_labels_have_zero_gradient(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(alpha=0.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    tape = []
    logits, params = state.student.taped_forward(images, tape)
    pseudo = softmax(logits.data)
    loss = soft_cross_entropy(pseudo, logits, tape)
    grads = backward(loss, tape)
    assert np.abs(grads[params]).max() < 1e-8


def test_petal_loss_rejects_mismatched_posterior(small_bundle):
    # the posterior enters a run through its state, so a posterior of another
    # model's layout is refused there, before any step
    _, model, _ = small_bundle
    other = MlpClassifier((64, 16, 8), seed=0)
    wrong = SwagDiagEstimator(other.theta.size).collect(other.flatten()).finalize()
    with pytest.raises(ValueError):
        init_adapt_state(model, wrong, fast_cfg(alpha=1e-3), **seeded_generators(0))


def test_petal_step_tapes_theta_as_one_tensor(small_bundle, monkeypatch):
    # the model's tape node has one input, a tensor over the student's theta
    # itself; the tape gives its gradient as one theta-shaped vector; and the
    # step builds tensors for theta, the logits and scalars only, none per
    # parameter view and none for the constant pseudo-labels
    from lifelong_tta import autodiff, engine

    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    state = init_adapt_state(model, posterior, fast_cfg(alpha=1e-3, tau=2.0), **seeded_generators(0))
    built, taped = [], []
    tensor_init, engine_backward = autodiff.Tensor.__init__, engine.backward

    def recording_init(self, values):
        tensor_init(self, values)
        built.append(self)

    def recording_backward(root, tape):
        grads = engine_backward(root, tape)
        taped.append((tape, grads))
        return grads

    monkeypatch.setattr(autodiff.Tensor, "__init__", recording_init)
    monkeypatch.setattr(engine, "backward", recording_backward)
    adapt_step(state, images, fast_cfg(alpha=1e-3, tau=2.0))
    ((tape, grads),) = taped
    (node,) = [node for node in tape if node[0] == "mlp"]
    _, (params,), output, _ = node
    assert np.shares_memory(params.data, state.student.theta)
    assert grads[params].shape == state.student.theta.shape
    shaped = [t for t in built if t.shape != ()]
    assert len(shaped) == 2 and shaped[0] is params and shaped[1] is output
    assert output.shape == (images.shape[0], model.sizes[-1])


# ---------------------------------------------------------------------------
# EMA


def test_ema_extremes(small_bundle):
    _, model, posterior = small_bundle
    cfg = fast_cfg()
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
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
    # the teacher runs "batch" BN on batch statistics with no update, so
    # garbage in its running buffers leaves its pseudo-labels bit-identical;
    # this is why ema_update copies no statistics
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, severity=5)
    cfg = fast_cfg(tau=0.99)
    clean = init_adapt_state(model, posterior, cfg, **seeded_generators(3))
    garbage = init_adapt_state(model, posterior, cfg, **seeded_generators(3))
    rng = np.random.default_rng(0)
    for name, values in garbage.teacher.running.items():
        if name.endswith(".running_mean"):
            values[...] = rng.normal(scale=1e3, size=values.shape)
        else:
            values[...] = rng.uniform(1e-6, 1e3, size=values.shape)
    buffers = {name: values.copy() for name, values in garbage.teacher.running.items()}
    expected = teacher_pseudo_label(clean, images, cfg)
    assert np.array_equal(teacher_pseudo_label(garbage, images, cfg), expected)
    assert not np.array_equal(expected, softmax(clean.teacher.forward(images, "batch")))
    ema_update(garbage.teacher, garbage.student, cfg.pi)
    for name, values in buffers.items():
        assert np.array_equal(garbage.teacher.running[name], values)


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
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    has_teacher = method in ("petal", "cotta")
    # each method holds only the state its step reads
    assert (state.teacher is not None) == has_teacher
    assert (state.opt is not None) == (method not in ("source", "bn_adapt"))
    nets = [state.student, state.source_model] + ([state.teacher] if has_teacher else [])
    for seed in range(3):
        images, _ = batch_from(dataset, severity=3, seed=seed)
        if method in ("source", "bn_adapt"):
            baseline_step(state, images, cfg)
        else:
            adapt_step(state, images, cfg)
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
    cfg = fast_cfg(method="petal_none", eta=0.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    before = state.student.flatten()
    report = adapt_step(state, images, cfg)
    assert np.array_equal(state.student.flatten(), before)
    assert report.restored == 0
    assert state.step == 1


def test_online_predictions_precede_the_update(small_bundle):
    # replaying the pseudo-label computation from an identical pre-step state
    # must reproduce the emitted predictions exactly
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, severity=5)
    cfg = fast_cfg()
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(11))
    replay = init_adapt_state(model, posterior, cfg, **seeded_generators(11))
    report = adapt_step(state, images, cfg)
    expected = teacher_pseudo_label(replay, images, cfg)
    assert np.array_equal(report.predictions, expected)


def test_fim_restore_count_is_exact_every_step(small_bundle):
    dataset, model, posterior = small_bundle
    cfg = fast_cfg(method="petal_fim", delta=0.03)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    dim = state.source_model.theta.size
    for seed in range(5):
        images, _ = batch_from(dataset, severity=5, seed=seed)
        report = adapt_step(state, images, cfg)
        assert report.restored == math.floor(0.03 * dim)


def test_delta_one_resets_student_to_source(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, severity=5)
    cfg = fast_cfg(method="petal_fim", delta=1.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    adapt_step(state, images, cfg)
    assert np.array_equal(state.student.flatten(), state.source_model.theta)


def test_cotta_equals_petal_with_alpha_zero(small_bundle):
    dataset, model, posterior = small_bundle
    petal_cfg = fast_cfg(method="petal_sres", alpha=0.0, rho=0.01)
    cotta_cfg = fast_cfg(method="cotta", alpha=0.0, rho=0.01)
    petal_state = init_adapt_state(model, posterior, petal_cfg, **seeded_generators(4))
    cotta_state = init_adapt_state(model, posterior, cotta_cfg, **seeded_generators(4))
    for seed in range(10):
        images, _ = batch_from(dataset, severity=5, seed=seed)
        petal_report = adapt_step(petal_state, images, petal_cfg)
        cotta_report = adapt_step(cotta_state, images, cotta_cfg)
        assert np.array_equal(
            petal_state.student.flatten(), cotta_state.student.flatten()
        )
        assert np.array_equal(
            petal_state.teacher.flatten(), cotta_state.teacher.flatten()
        )
        assert np.array_equal(petal_report.predictions, cotta_report.predictions)


def test_cotta_objective_equals_petal_at_alpha_zero(small_bundle):
    # cotta is petal without the posterior anchor: at alpha = 0 both take the
    # same loss value and theta gradient, bit for bit, from a tape of the
    # model and the cross-entropy; cotta ignores alpha, and petal with
    # alpha > 0 adds the log-density and the weighted sum after them
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, severity=5)

    def objective(method, alpha):
        cfg = fast_cfg(method=method, alpha=alpha, tau=2.0)
        state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
        pseudo = teacher_pseudo_label(state, images, cfg)
        tape = []
        loss, params, _ = _objective(state, images, pseudo, cfg, tape)
        return loss.item(), backward(loss, tape)[params], [op for op, _, _, _ in tape]

    petal_value, petal_grad, petal_ops = objective("petal", 0.0)
    cotta_value, cotta_grad, cotta_ops = objective("cotta", 0.0)
    assert petal_value == cotta_value
    assert np.abs(petal_grad).max() > 0.0
    assert petal_grad.tobytes() == cotta_grad.tobytes()
    assert petal_ops == cotta_ops == ["mlp", "soft_cross_entropy"]
    assert objective("cotta", 1e-3)[2] == ["mlp", "soft_cross_entropy"]
    anchored = objective("petal", 1e-3)
    assert anchored[2] == ["mlp", "soft_cross_entropy", "gaussian_log_density", "weighted_sum"]
    assert anchored[0] != petal_value  # log q's normalizer; its gradient is zero at the mode


def test_non_finite_loss_aborts(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(method="petal_none", eta=1e200, alpha=1.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    with pytest.raises(NonFiniteLossError), np.errstate(over="ignore", invalid="ignore"):
        for seed in range(5):
            adapt_step(state, images, cfg)


@pytest.mark.parametrize("method", ["tent", "petal"])
def test_non_finite_theta_aborts_before_the_update(small_bundle, method):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(method=method, tau=2.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    state.student.theta[3] = np.nan
    before = state.student.theta.tobytes()
    teacher_before = None if state.teacher is None else state.teacher.theta.tobytes()
    with pytest.raises(NonFiniteLossError, match="non-finite forward at step 0") as info:
        adapt_step(state, images, cfg)
    assert isinstance(info.value.__cause__, FloatingPointError)
    assert state.student.theta.tobytes() == before
    assert state.opt.step == 0 and not state.opt.m.any() and not state.opt.v.any()
    if state.teacher is not None:
        assert state.teacher.theta.tobytes() == teacher_before


def test_adapt_step_rejects_baseline_methods(small_bundle):
    # the forward-only methods take no gradient step
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    for method in ("source", "bn_adapt"):
        cfg = fast_cfg(method=method)
        state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
        with pytest.raises(ValueError, match=method):
            adapt_step(state, images, cfg)
        assert state.step == 0


def test_baseline_step_rejects_gradient_methods(small_bundle):
    # the gradient methods hold Adam moments, which the forward-only step
    # would leave unread
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    for method in ("tent", "pseudo_label", "cotta", "petal"):
        cfg = fast_cfg(method=method)
        state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
        before = state.student.theta.tobytes()
        with pytest.raises(ValueError, match=method):
            baseline_step(state, images, cfg)
        assert state.step == 0 and state.student.theta.tobytes() == before


@pytest.mark.parametrize(
    "method, alpha, nodes",
    [("petal", 1e-3, 4), ("petal", 0.0, 2), ("cotta", 1e-3, 2), ("tent", 1e-3, 2), ("pseudo_label", 1e-3, 2)],
)
def test_step_tape_length(small_bundle, monkeypatch, method, alpha, nodes):
    # a tape is a list of nodes, so its length is the node count the step
    # backpropagates through: the model and the loss, plus the log-density
    # and the weighted sum when petal's anchor is on
    from lifelong_tta import engine

    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    cfg = fast_cfg(method=method, alpha=alpha, tau=2.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    lengths, engine_backward = [], engine.backward

    def counting_backward(root, tape):
        lengths.append(len(tape))
        return engine_backward(root, tape)

    monkeypatch.setattr(engine, "backward", counting_backward)
    adapt_step(state, images, cfg)
    assert lengths == [nodes]


# ---------------------------------------------------------------------------
# baselines


def test_source_baseline_matches_offline_eval(small_bundle):
    dataset, model, posterior = small_bundle
    images, labels = batch_from(dataset, n=32)
    cfg = fast_cfg(method="source")
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    report = baseline_step(state, images, cfg)
    probe = model.clone()
    probe.load(posterior.mu)
    expected = softmax(probe.forward(images, "eval"))
    assert np.array_equal(report.predictions, expected)
    from lifelong_tta.metrics import per_sample_scores

    offline = evaluate_model(probe, images.reshape(-1, 8, 8), labels)
    assert 100.0 * float(per_sample_scores(report.predictions, labels)[0].mean()) == offline.error


def test_source_baseline_mutates_nothing(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, n=32)
    cfg = fast_cfg(method="source")
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    before = state.student.flatten()
    stats_before = state.student.running["hidden0.running_mean"].copy()
    baseline_step(state, images, cfg)
    assert np.array_equal(state.student.flatten(), before)
    assert np.array_equal(state.student.running["hidden0.running_mean"], stats_before)


def test_tent_with_zero_lr_equals_bn_adapt(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, n=32, severity=5)
    tent_cfg = fast_cfg(method="tent", eta=0.0)
    bn_cfg = fast_cfg(method="bn_adapt")
    tent_state = init_adapt_state(model, posterior, tent_cfg, **seeded_generators(0))
    bn_state = init_adapt_state(model, posterior, bn_cfg, **seeded_generators(0))
    tent_report = adapt_step(tent_state, images, tent_cfg)
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
        state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
        before = state.student.views(state.student.flatten())
        adapt_step(state, images, cfg)
        for name, after in state.student.params.items():
            same = np.array_equal(before[name], after)
            if name.endswith(".gamma") or name.endswith(".beta"):
                assert not same, f"{method} should update {name}"
            else:
                assert same, f"{method} must not update {name}"


def _full_length_selftrain_reference(dataset, model, posterior, schedule, cfg, seed, reset):
    """tent/pseudo_label as they ran before their optimizer state shrank to
    the BN affine coordinates: full-length Adam moments, with the gradient
    zeroed everywhere else before each step, and with ``reset`` the state
    rebuilt at each segment boundary. Returns the student."""
    ref = init_adapt_state(model, posterior, cfg, **seeded_generators(seed))
    student, source = ref.student, ref.source_model
    frozen = ~param_mask(student, bn_affine_filter)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m, v, t = np.zeros(student.theta.size), np.zeros(student.theta.size), 0
    previous = None
    stream_ss, _, _ = np.random.SeedSequence(seed).spawn(3)
    for batch, _ in stream_batches(schedule, dataset, np.random.Generator(np.random.PCG64(stream_ss))):
        if reset and previous is not None and batch.segment != previous:
            student.theta[:] = source.theta
            student.running = {name: values.copy() for name, values in source.running.items()}
            m, v, t = np.zeros(student.theta.size), np.zeros(student.theta.size), 0
        previous = batch.segment
        tape = []
        logits, params = student.taped_forward(batch.images, tape)
        if cfg.method in ("tent", "tent_online"):
            loss = softmax_entropy_mean(logits, tape)
        else:
            hard = softmax(logits.data).argmax(axis=1)
            loss = soft_cross_entropy(one_hot(hard, logits.shape[1]), logits, tape)
        grad = backward(loss, tape)[params]
        grad[frozen] = 0.0
        t += 1
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad**2
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        student.theta -= cfg.eta * m_hat / (np.sqrt(v_hat) + eps)
    return student


@pytest.mark.parametrize("method, reset", [("tent", False), ("pseudo_label", False), ("tent_online", True)])
def test_selftrain_adam_on_bn_affine_matches_full_length_reference(small_bundle, method, reset):
    # the moments cover only the BN affine coordinates; a frozen coordinate's
    # full-length update was exactly 0.0, so theta keeps every bit
    dataset, model, posterior = small_bundle
    schedule = build_schedule(("gaussian_noise",), "gradual", 1, 16)  # 5 segments of one batch
    cfg = fast_cfg(method=method, eta=0.01)
    report, state = run_lifelong(schedule, dataset, posterior, model, cfg, seed=2)
    assert len(report.rows) == 5
    reference = _full_length_selftrain_reference(dataset, model, posterior, schedule, cfg, seed=2, reset=reset)
    assert state.student.theta.tobytes() == reference.theta.tobytes()
    for name, values in state.student.running.items():
        assert values.tobytes() == reference.running[name].tobytes()
    assert not np.array_equal(state.student.theta, state.source_model.theta)
    trained = int(param_mask(state.student, bn_affine_filter).sum())
    assert state.opt.m.size == state.opt.v.size == trained
    assert state.opt.step == (1 if reset else 5)


@pytest.mark.parametrize("method", ["tent", pytest.param("petal_none", id="petal")])
def test_adam_step_moves_only_trained_coordinates(small_bundle, monkeypatch, method):
    # petal trains every coordinate, tent only the BN affine ones; the first
    # Adam step, from zero moments, moves those by the bias-corrected step and
    # leaves every other coordinate's bytes alone
    import lifelong_tta.engine as engine

    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, severity=5)
    cfg = fast_cfg(method=method, eta=0.05, tau=2.0)
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    grads = []

    def recording(root, tape):
        out = backward(root, tape)
        grads.extend(g.copy() for t, g in out.items() if t.data is state.student.theta)
        return out

    monkeypatch.setattr(engine, "backward", recording)
    before = state.student.flatten()
    adapt_step(state, images, cfg)
    (grad,) = grads
    after = state.student.theta
    trained = np.zeros(after.size, dtype=bool)
    trained[state.trained] = True
    expected = np.ones(after.size, dtype=bool) if method == "petal_none" else param_mask(state.student, bn_affine_filter)
    assert np.array_equal(trained, expected)
    g = grad[trained]
    assert np.abs(g).max() > 0.0
    m_hat = (1.0 - 0.9) * g / (1.0 - 0.9)
    v_hat = (1.0 - 0.999) * g**2 / (1.0 - 0.999)
    step = cfg.eta * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert (before[trained] - step).tobytes() == after[trained].tobytes()
    assert before[~trained].tobytes() == after[~trained].tobytes()
    assert state.opt.step == 1 and state.opt.m.size == int(trained.sum())


def test_bn_adapt_refreshes_running_stats(small_bundle):
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset, n=32, severity=5)
    cfg = fast_cfg(method="bn_adapt")
    state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
    before = state.student.running["hidden0.running_mean"].copy()
    baseline_step(state, images, cfg)
    assert not np.array_equal(state.student.running["hidden0.running_mean"], before)


def test_unknown_baseline_method(small_bundle):
    # baseline_step is the forward-only step: every gradient method is refused
    dataset, model, posterior = small_bundle
    images, _ = batch_from(dataset)
    for method in ("petal", "cotta", "tent", "pseudo_label"):
        cfg = fast_cfg(method=method)
        state = init_adapt_state(model, posterior, cfg, **seeded_generators(0))
        before = state.student.theta.tobytes()
        with pytest.raises(ValueError, match=method):
            baseline_step(state, images, cfg)
        assert state.step == 0 and state.student.theta.tobytes() == before


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
    manual_report = adapt_step(manual, batch.images, cfg)
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
    cfg = fast_cfg(method="tent_online", eta=0.05)
    report, state = run_lifelong(schedule, dataset, posterior, model, cfg, seed=0)
    # after the run the optimizer has only seen the final segment's two steps
    assert state.opt.step == 2
    assert report.method == report.config["method"] == "tent_online"


@pytest.mark.parametrize("name", list(METHODS))
def test_only_the_reset_row_starts_a_segment_from_theta0_with_fresh_moments(small_bundle, monkeypatch, name):
    # entering the second segment, a reset row's student is theta_0 with its
    # source running statistics and zero Adam moments; every other row
    # carries its state on (or, without an objective, has no moments)
    import lifelong_tta.engine as engine

    dataset, model, posterior = small_bundle
    schedule = build_schedule(("contrast", "gaussian_noise"), "continual5", 2, 8)
    cfg = method_config(fast_cfg(eta=0.05), name)
    seen = []
    for step_name in ("adapt_step", "baseline_step"):

        def recording(state, *args, step=getattr(engine, step_name)):
            student, source = state.student, state.source_model
            seen.append(
                state.opt is not None
                and state.opt.step == 0
                and not state.opt.m.any()
                and not state.opt.v.any()
                and np.array_equal(student.theta, source.theta)
                and all(np.array_equal(values, source.running[key]) for key, values in student.running.items())
            )
            return step(state, *args)

        monkeypatch.setattr(engine, step_name, recording)
    run_lifelong(schedule, dataset, posterior, model, cfg, seed=0)
    assert len(seen) == 4
    assert seen[0] == (METHODS[name].objective is not None)  # every run starts fresh
    assert seen[2] == METHODS[name].reset


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
    assert [s["kind"] for s in report.segments] == ["contrast"]
    csv_text = report.rows_to_csv()
    assert csv_text.splitlines()[0] == "step,segment,error,nll,brier,loss,restored"
    assert len(csv_text.splitlines()) == 3


@pytest.mark.parametrize("method", ["source", pytest.param("petal_sres", id="petal")])
def test_steps_csv_is_the_rows_under_the_column_tuple(small_bundle, method):
    # source's loss is nan; petal's stochastic restore varies per step
    dataset, model, posterior = small_bundle
    schedule = build_schedule(("contrast", "gaussian_noise"), "continual5", 3, 8)
    cfg = fast_cfg(method=method, rho=0.05)
    report, _ = run_lifelong(schedule, dataset, posterior, model, cfg, seed=1)
    header, *lines = report.rows_to_csv().splitlines()
    assert tuple(header.split(",")) == STEP_COLUMNS
    assert len(lines) == len(report.rows) == 6
    for line, row in zip(lines, report.rows):
        assert tuple(row) == STEP_COLUMNS
        for text, column in zip(line.split(","), STEP_COLUMNS):
            value = row[column]
            parsed = type(value)(text)
            assert type(value) in (int, float)
            assert parsed == value or (math.isnan(parsed) and math.isnan(value)), (column, text)


def test_segment_restored_mean_is_the_mean_of_its_rows(small_bundle):
    dataset, model, posterior = small_bundle
    schedule = build_schedule(("contrast", "gaussian_noise"), "continual5", 3, 8)
    cfg = fast_cfg(method="petal_sres", rho=0.05)
    report, _ = run_lifelong(schedule, dataset, posterior, model, cfg, seed=1)
    assert [s["segment"] for s in report.segments] == [0, 1]
    for segment in report.segments:
        restored = [row["restored"] for row in report.rows if row["segment"] == segment["segment"]]
        assert len(restored) == 3
        assert segment["restored_mean"] == sum(restored) / len(restored)
    every = [row["restored"] for row in report.rows]
    assert len(set(every)) > 1  # the stochastic restore varies, so the means are not all equal
    assert report.overall["restored_mean"] == sum(every) / len(every)
    assert report.overall["count"] == sum(s["count"] for s in report.segments) == 48


def test_tent_online_run_equals_a_replay_that_reinitializes_at_each_boundary(small_bundle):
    # the reset must hand the fresh state the generators the run holds and
    # keep the run's step count
    dataset, model, posterior = small_bundle
    schedule = build_schedule(("contrast", "gaussian_noise"), "continual5", 2, 8)
    cfg = fast_cfg(method="tent_online")
    report, state = run_lifelong(schedule, dataset, posterior, model, cfg, seed=6)
    stream_ss, augment_ss, restore_ss = np.random.SeedSequence(6).spawn(3)
    manual = init_adapt_state(
        model,
        posterior,
        cfg,
        rng_augment=np.random.Generator(np.random.PCG64(augment_ss)),
        rng_restore=np.random.Generator(np.random.PCG64(restore_ss)),
    )
    expected = []
    stream = stream_batches(schedule, dataset, np.random.Generator(np.random.PCG64(stream_ss)))
    for batch, labels in stream:
        if expected and batch.segment != expected[-1][1]:
            manual = init_adapt_state(
                model, posterior, cfg, rng_augment=manual.rng_augment, rng_restore=manual.rng_restore
            )
        step = adapt_step(manual, batch.images, cfg)
        err, nll_values, brier_values = per_sample_scores(step.predictions, labels)
        expected.append(
            (
                len(expected),
                batch.segment,
                100.0 * float(err.mean()),
                float(nll_values.mean()),
                float(brier_values.mean()),
                step.loss,
                step.restored,
            )
        )
    assert [b[1] for b in expected] == [0, 0, 1, 1]
    assert [tuple(row[c] for c in STEP_COLUMNS) for row in report.rows] == expected
    assert state.student.theta.tobytes() == manual.student.theta.tobytes()
    assert state.teacher is manual.teacher is None
    assert state.opt.m.tobytes() == manual.opt.m.tobytes() and state.opt.step == manual.opt.step == 2
    assert state.rng_augment.bit_generator.state == manual.rng_augment.bit_generator.state
    assert state.step == 4  # the reset keeps the run's step count
