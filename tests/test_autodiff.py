import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_tta.autodiff import (
    Tensor,
    backward,
    gaussian_log_density,
    log_normalizers,
    soft_cross_entropy,
    softmax,
    softmax_entropy_mean,
    weighted_sum,
)
from lifelong_tta.model import MlpClassifier, batch_norm_arrays

from helpers import finite_diff_gradient


def sum_all(x, tape=None):
    """Sum of all entries as a scalar tensor, appended to ``tape``: the
    test-local reduction the gradient tests take ``backward`` from."""
    out = Tensor(np.asarray(x.data.sum()))
    if tape is not None:
        tape.append(("sum_all", (x,), out, lambda g, shape=x.shape: (np.broadcast_to(g, shape).copy(),)))
    return out


def rand_rng(seed=0):
    return np.random.default_rng(seed)


def test_tensor_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        Tensor([1.0, np.nan])
    with pytest.raises(FloatingPointError):
        Tensor([np.inf])


def relu_linear_model(w, b):
    """A one-hidden-layer model whose forward is exactly max(0, x @ w + b):
    eval-mode batch norm with running stats (0, 1 - eps) and unit gamma is
    the identity, and so is the head (identity weights, zero bias)."""
    fan_in, width = np.shape(w)
    model = MlpClassifier((fan_in, width, width), seed=0)
    model.params["hidden0.weight"][...] = w
    model.params["hidden0.bias"][...] = b
    model.params["out.weight"][...] = np.eye(width)
    model.params["out.bias"][...] = 0.0
    model.running["hidden0.running_var"][...] = 1.0 - 1e-5
    return model


def test_linear_identity_weights():
    model = relu_linear_model([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    assert np.array_equal(model.forward([[1.0, 2.0]], "eval"), [[1.0, 2.0]])


def test_linear_zero_input_gives_bias():
    model = relu_linear_model(rand_rng().normal(size=(2, 2)), [3.0, 4.0])
    assert np.array_equal(model.forward([[0.0, 0.0]], "eval"), [[3.0, 4.0]])


def test_linear_matches_triple_loop_oracle():
    rng = rand_rng(1)
    x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
    out = relu_linear_model(w, b).forward(x, "eval")
    expected = np.zeros((3, 2))
    for i in range(3):
        for o in range(2):
            acc = b[o]
            for k in range(4):
                acc += x[i, k] * w[k, o]
            expected[i, o] = max(acc, 0.0)
    assert np.abs(out - expected).max() < 1e-12


def test_linear_shape_mismatch():
    model = relu_linear_model([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        model.forward([[1.0, 2.0]], "eval")
    with pytest.raises(ValueError):
        model.taped_forward([[1.0, 2.0], [3.0, 4.0]], [])


def test_relu_all_negative():
    # a hidden layer whose every ReLU is off: the logits are the head's bias
    # and no gradient reaches the layer's own parameters
    model = MlpClassifier((3, 2, 2), seed=0)
    model.params["hidden0.gamma"][...] = 0.0
    model.params["hidden0.beta"][...] = [-3.0, -0.5]
    model.params["out.bias"][...] = 0.0
    tape = []
    logits, params = model.taped_forward(rand_rng(6).normal(size=(4, 3)), tape)
    loss = sum_all(logits, tape)
    assert loss.item() == 0.0
    grads = model.views(backward(loss, tape)[params])
    for name in ("hidden0.weight", "hidden0.bias", "hidden0.gamma", "hidden0.beta", "out.weight"):
        assert np.array_equal(grads[name], np.zeros_like(grads[name]))


def test_batch_norm_two_point_hand_computation():
    x = np.array([[1.0], [3.0]])
    out, _, _ = batch_norm_arrays(x.copy(), np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), "batch", out=np.empty_like(x))
    expected = (x - 2.0) / np.sqrt(1.0 + 1e-5)
    assert np.abs(out - expected).max() < 1e-12
    assert abs(out[0, 0] + 0.999995) < 1e-6


def test_batch_norm_zero_gamma_gives_beta():
    x = rand_rng(2).normal(size=(5, 2))
    out, _, _ = batch_norm_arrays(
        x, np.zeros(2), np.array([0.7, -0.2]), np.zeros(2), np.ones(2), "batch", out=np.empty_like(x)
    )
    assert np.allclose(out, np.broadcast_to([0.7, -0.2], (5, 2)))


def test_batch_norm_eval_with_unit_stats_is_near_identity():
    x = rand_rng(3).normal(size=(4, 3))
    out, _, _ = batch_norm_arrays(x.copy(), np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), "eval", out=np.empty_like(x))
    assert np.abs(out - x).max() < 1e-4


def test_batch_norm_rejects_small_train_batch():
    for bn in ("batch", "update"):
        with pytest.raises(ValueError):
            batch_norm_arrays(np.array([[1.0]]), np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), bn, out=np.empty((1, 1)))


def test_batch_norm_updates_running_stats_with_momentum():
    mean, var = np.zeros(1), np.ones(1)
    x = np.array([[1.0], [3.0]])
    batch_norm_arrays(x, np.ones(1), np.zeros(1), mean, var, "update", out=np.empty_like(x))
    assert np.allclose(mean, 0.9 * 0.0 + 0.1 * 2.0)
    # running variance uses the unbiased batch variance
    assert np.allclose(var, 0.9 * 1.0 + 0.1 * 2.0)


def test_batch_norm_train_output_is_standardized():
    rng = rand_rng(4)
    x = rng.normal(3.0, 2.5, size=(64, 5))
    out, _, _ = batch_norm_arrays(x, np.ones(5), np.zeros(5), np.zeros(5), np.ones(5), "update", out=np.empty_like(x))
    assert np.abs(out.mean(axis=0)).max() < 1e-9
    assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4


def test_softmax_symmetry_and_stability():
    assert np.allclose(softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])
    out = softmax(np.array([[1000.0, 0.0]]))
    assert abs(out[0, 0] - 1.0) < 1e-12 and out[0, 1] >= 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_softmax_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-1e4, 1e4, size=(4, 6))
    rows = softmax(logits).sum(axis=1)
    assert np.abs(rows - 1.0).max() < 1e-9


def test_soft_cross_entropy_saturated_target():
    logits = Tensor([[60.0, -60.0]])
    assert soft_cross_entropy(np.array([[1.0, 0.0]]), logits, []).item() < 1e-12


def test_soft_cross_entropy_uniform_is_ln2():
    value = soft_cross_entropy(np.array([[0.5, 0.5]]), Tensor([[0.0, 0.0]]), []).item()
    assert abs(value - np.log(2.0)) < 1e-12


def test_soft_cross_entropy_matches_summation_oracle():
    rng = rand_rng(5)
    logits = rng.normal(size=(3, 4))
    target = rng.random((3, 4))
    target /= target.sum(axis=1, keepdims=True)
    value = soft_cross_entropy(target, Tensor(logits), []).item()
    total = 0.0
    for b in range(3):
        row = np.exp(logits[b] - logits[b].max())
        probs = row / row.sum()
        for c in range(4):
            total -= target[b, c] * np.log(probs[c])
    assert abs(value - total / 3) < 1e-10


def test_soft_cross_entropy_rejects_bad_target():
    with pytest.raises(ValueError):
        soft_cross_entropy(np.array([[0.9, 0.3]]), Tensor([[0.0, 0.0]]), [])
    with pytest.raises(ValueError):
        soft_cross_entropy(np.array([[-0.1, 1.1]]), Tensor([[0.0, 0.0]]), [])
    # a non-finite target is refused as a non-finite tensor is; the row
    # checks alone let NaN through
    for bad in ([[np.nan, 1.0]], [[np.inf, 0.0]]):
        with pytest.raises(FloatingPointError):
            soft_cross_entropy(np.array(bad), Tensor([[0.0, 0.0]]), [])


def test_soft_cross_entropy_gradient_closed_form():
    rng = rand_rng(6)
    logits = Tensor(rng.normal(size=(5, 3)))
    target = rng.random((5, 3))
    target /= target.sum(axis=1, keepdims=True)
    tape = []
    loss = soft_cross_entropy(target, logits, tape)
    grad = backward(loss, tape)[logits]
    expected = (softmax(logits.data) - target) / 5
    assert np.abs(grad - expected).max() < 1e-12


def test_soft_cross_entropy_gradient_zero_at_match_point():
    # the loss over logits is minimized exactly where softmax(logits) == target
    target = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
    logits = Tensor(np.log(target))
    tape = []
    loss = soft_cross_entropy(target, logits, tape)
    assert np.abs(backward(loss, tape)[logits]).max() < 1e-12


def test_entropy_gradient_zero_at_uniform():
    tape = []
    logits = Tensor(np.zeros((3, 4)))
    ent = softmax_entropy_mean(logits, tape)
    assert abs(ent.item() - np.log(4.0)) < 1e-12
    assert np.abs(backward(ent, tape)[logits]).max() < 1e-12


def test_backward_sum_gives_ones():
    tape = []
    x = Tensor(rand_rng(7).normal(size=(2, 3)))
    grad = backward(sum_all(x, tape), tape)[x]
    assert np.array_equal(grad, np.ones((2, 3)))


def test_backward_rejects_non_scalar_root():
    tape = []
    logits, _ = MlpClassifier((3, 4, 2), seed=0).taped_forward(rand_rng(7).normal(size=(3, 3)), tape)
    with pytest.raises(ValueError):
        backward(logits, tape)


def _taped_objective(seed, tape):
    """A two-hidden-layer model's taped forward under both self-training
    losses and the log-density anchor, combined by ``weighted_sum``; returns
    (loss, the theta tensor)."""
    rng = rand_rng(seed)
    model = MlpClassifier((3, 4, 3, 2), seed=seed)
    logits, params = model.taped_forward(rng.normal(size=(5, 3)), tape)
    ce = soft_cross_entropy(np.full((5, 2), 0.5), logits, tape)
    ent = softmax_entropy_mean(logits, tape)
    ones = np.ones(params.shape)
    log_q = gaussian_log_density(
        params, params.data * 0.5, ones, model.pieces, log_normalizers(ones, model.pieces), tape
    )
    return weighted_sum([(1.0, ce), (0.5, ent), (-0.25, log_q)], tape=tape), params


def test_tape_is_topologically_ordered():
    # every input is either the one leaf, theta, or the output of an earlier
    # node; the constant target is not on the tape
    tape = []
    _, params = _taped_objective(8, tape)
    leaves = {id(params)}
    produced = set()
    for _, inputs, output, _ in tape:
        for inp in inputs:
            assert id(inp) in leaves or id(inp) in produced
        produced.add(id(output))


def test_gradient_shapes_match_values():
    tape = []
    loss, params = _taped_objective(9, tape)
    grads = backward(loss, tape)
    assert params in grads
    for tensor, grad in grads.items():
        assert grad.shape == tensor.shape


def test_finite_diff_on_square():
    grad = finite_diff_gradient(lambda v: float(v[0] ** 2), np.array([3.0]), 1e-5)
    assert abs(grad[0] - 6.0) < 1e-6


def test_finite_diff_constant_is_zero():
    grad = finite_diff_gradient(lambda v: 1.25, np.array([1.0, -2.0, 0.5]))
    assert np.array_equal(grad, np.zeros(3))


def test_finite_diff_matches_quadratic_form():
    rng = rand_rng(10)
    a = rng.normal(size=(4, 4))
    a = a + a.T
    x0 = rng.normal(size=4)
    grad = finite_diff_gradient(lambda v: float(v @ a @ v), x0, 1e-5)
    assert np.abs(grad - 2 * a @ x0).max() < 1e-5


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_gradient(lambda v: 0.0, np.zeros(1), h=0.0)


@pytest.mark.parametrize("seed", range(20))
def test_every_op_gradient_matches_finite_differences(seed):
    # every op the tape records: the model's one node for a two-hidden-layer
    # MLP under each self-training loss alone, then both losses with the
    # log-density anchor through weighted_sum; central differences over theta
    rng = np.random.default_rng(seed)
    model = MlpClassifier((3, 4, 3, 2), seed=seed)
    x = rng.normal(size=(5, 3))
    target = rng.dirichlet(np.ones(2), size=5)
    mu = rng.normal(scale=0.3, size=model.theta.size)
    var = rng.random(model.theta.size) + 0.1
    theta0 = model.flatten()

    def cross_entropy(logits, params, tape):
        return soft_cross_entropy(target, logits, tape)

    def entropy(logits, params, tape):
        return softmax_entropy_mean(logits, tape)

    def combined(logits, params, tape):
        log_q = gaussian_log_density(params, mu, var, model.pieces, log_normalizers(var, model.pieces), tape)
        terms = [(1.0, cross_entropy(logits, params, tape)), (0.5, entropy(logits, params, tape))]
        return weighted_sum(terms + [(-0.25, log_q)], tape=tape)

    for objective in (cross_entropy, entropy, combined):

        def value_at(values):
            model.load(values)
            tape = []
            return objective(*model.taped_forward(x, tape), tape).item()

        model.load(theta0)
        tape = []
        logits, params = model.taped_forward(x, tape)
        auto = backward(objective(logits, params, tape), tape)[params]
        numeric = finite_diff_gradient(value_at, theta0, 1e-5)
        err = np.abs(auto - numeric) / np.maximum(np.abs(numeric), 1e-6)
        assert err.max() < 1e-4, f"seed {seed}, {objective.__name__}: max relative error {err.max()}"


def test_gaussian_log_density_matches_per_coordinate_formula():
    rng = rand_rng(11)
    theta = Tensor(rng.normal(size=5))
    mu = rng.normal(size=5)
    var = rng.random(5) + 0.2
    value = gaussian_log_density(theta, mu, var, [slice(None)], log_normalizers(var, [slice(None)]), []).item()
    expected = sum(
        -0.5 * (theta.data[i] - mu[i]) ** 2 / var[i] - 0.5 * np.log(2 * np.pi * var[i])
        for i in range(5)
    )
    assert abs(value - expected) < 1e-10


def test_gaussian_log_density_sums_one_parameter_at_a_time():
    # with the model's pieces the value is, bit for bit, the sum over
    # parameter tensors in registry order of each one's quadratic sum, then
    # its normalizer sum; the gradient is -(theta - mu) / sigma2 throughout
    rng = rand_rng(12)
    model = MlpClassifier((5, 7, 6, 3), seed=1)
    mu = rng.normal(size=model.theta.size)
    var = rng.random(model.theta.size) + 0.05
    tape = []
    theta = Tensor(model.theta)
    value = gaussian_log_density(theta, mu, var, model.pieces, log_normalizers(var, model.pieces), tape)
    expected = 0.0
    for t, m, v in zip(model.params.values(), model.views(mu).values(), model.views(var).values()):
        expected += float(-((t - m) * (t - m) / (2.0 * v)).sum())
        expected += float(-0.5 * np.log(2.0 * np.pi * v).sum())
    assert value.item() == expected
    ends = [int(e) for e in np.cumsum([v.size for v in model.params.values()])]
    assert [(p.start, p.stop) for p in model.pieces] == list(zip([0] + ends[:-1], ends))
    assert np.array_equal(backward(value, tape)[theta], -(model.theta - mu) / var)
    with pytest.raises(ValueError):
        gaussian_log_density(theta, mu[:-1], var[:-1], model.pieces, log_normalizers(var[:-1], model.pieces), [])


def test_weighted_sum_requires_scalars():
    with pytest.raises(ValueError):
        weighted_sum([(1.0, Tensor([1.0, 2.0]))], [])
