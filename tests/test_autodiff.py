import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong_tta.autodiff import (
    RunningStats,
    Tape,
    Tensor,
    backward,
    batch_norm,
    finite_diff_gradient,
    gaussian_log_density,
    linear,
    relu,
    soft_cross_entropy,
    softmax,
    softmax_entropy_mean,
    weighted_sum,
)


def sum_all(x, tape=None):
    """Sum of all entries as a scalar tensor, recorded on ``tape``: the
    test-local reduction the gradient tests take ``backward`` from."""
    out = Tensor(np.asarray(x.data.sum()))
    if tape is not None:
        tape.record("sum_all", (x,), out, lambda g, shape=x.shape: (np.broadcast_to(g, shape).copy(),))
    return out


def rand_rng(seed=0):
    return np.random.default_rng(seed)


def test_tensor_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        Tensor([1.0, np.nan])
    with pytest.raises(FloatingPointError):
        Tensor([np.inf])


def test_linear_identity_weights():
    out = linear(Tensor([[1.0, 2.0]]), Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([0.0, 0.0]))
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_linear_zero_input_gives_bias():
    out = linear(Tensor([[0.0, 0.0]]), Tensor(rand_rng().normal(size=(2, 2))), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [[3.0, 4.0]])


def test_linear_matches_triple_loop_oracle():
    rng = rand_rng(1)
    x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
    out = linear(Tensor(x), Tensor(w), Tensor(b)).data
    expected = np.zeros((3, 2))
    for i in range(3):
        for o in range(2):
            acc = b[o]
            for k in range(4):
                acc += x[i, k] * w[k, o]
            expected[i, o] = acc
    assert np.abs(out - expected).max() < 1e-12


def test_linear_shape_mismatch():
    with pytest.raises(ValueError):
        linear(Tensor([[1.0, 2.0]]), Tensor([[1.0], [2.0], [3.0]]), Tensor([0.0]))


def test_relu_values_and_gradient():
    tape = Tape()
    x = Tensor([[-1.0, 0.0, 2.0]])
    out = relu(x, tape)
    assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])
    loss = sum_all(out, tape)
    grad = backward(loss, tape)[x]
    assert np.array_equal(grad, [[0.0, 0.0, 1.0]])


def test_relu_all_negative():
    tape = Tape()
    x = Tensor([[-3.0, -0.5]])
    loss = sum_all(relu(x, tape), tape)
    assert loss.item() == 0.0
    assert np.array_equal(backward(loss, tape)[x], [[0.0, 0.0]])


def test_batch_norm_two_point_hand_computation():
    stats = RunningStats(np.zeros(1), np.ones(1))
    out = batch_norm(Tensor([[1.0], [3.0]]), Tensor([1.0]), Tensor([0.0]), stats)
    expected = (np.array([[1.0], [3.0]]) - 2.0) / np.sqrt(1.0 + 1e-5)
    assert np.abs(out.data - expected).max() < 1e-12
    assert abs(out.data[0, 0] + 0.999995) < 1e-6


def test_batch_norm_zero_gamma_gives_beta():
    stats = RunningStats(np.zeros(2), np.ones(2))
    x = rand_rng(2).normal(size=(5, 2))
    out = batch_norm(Tensor(x), Tensor([0.0, 0.0]), Tensor([0.7, -0.2]), stats)
    assert np.allclose(out.data, np.broadcast_to([0.7, -0.2], (5, 2)))


def test_batch_norm_eval_with_unit_stats_is_near_identity():
    stats = RunningStats(np.zeros(3), np.ones(3))
    x = rand_rng(3).normal(size=(4, 3))
    out = batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), stats, mode="eval")
    assert np.abs(out.data - x).max() < 1e-4


def test_batch_norm_rejects_small_train_batch():
    stats = RunningStats(np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        batch_norm(Tensor([[1.0]]), Tensor([1.0]), Tensor([0.0]), stats)


def test_batch_norm_updates_running_stats_with_momentum():
    stats = RunningStats(np.zeros(1), np.ones(1))
    x = np.array([[1.0], [3.0]])
    batch_norm(Tensor(x), Tensor([1.0]), Tensor([0.0]), stats)
    assert np.allclose(stats.mean, 0.9 * 0.0 + 0.1 * 2.0)
    # running variance uses the unbiased batch variance
    assert np.allclose(stats.var, 0.9 * 1.0 + 0.1 * 2.0)


def test_batch_norm_train_output_is_standardized():
    rng = rand_rng(4)
    x = rng.normal(3.0, 2.5, size=(64, 5))
    stats = RunningStats(np.zeros(5), np.ones(5))
    out = batch_norm(Tensor(x), Tensor(np.ones(5)), Tensor(np.zeros(5)), stats).data
    assert np.abs(out.mean(axis=0)).max() < 1e-9
    assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4


def test_softmax_symmetry_and_stability():
    assert np.allclose(softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])
    out = softmax(Tensor([[1000.0, 0.0]])).data
    assert abs(out[0, 0] - 1.0) < 1e-12 and out[0, 1] >= 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_softmax_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-1e4, 1e4, size=(4, 6))
    rows = softmax(Tensor(logits)).data.sum(axis=1)
    assert np.abs(rows - 1.0).max() < 1e-9


def test_soft_cross_entropy_saturated_target():
    logits = Tensor([[60.0, -60.0]])
    assert soft_cross_entropy(Tensor([[1.0, 0.0]]), logits).item() < 1e-12


def test_soft_cross_entropy_uniform_is_ln2():
    value = soft_cross_entropy(Tensor([[0.5, 0.5]]), Tensor([[0.0, 0.0]])).item()
    assert abs(value - np.log(2.0)) < 1e-12


def test_soft_cross_entropy_matches_summation_oracle():
    rng = rand_rng(5)
    logits = rng.normal(size=(3, 4))
    target = rng.random((3, 4))
    target /= target.sum(axis=1, keepdims=True)
    value = soft_cross_entropy(Tensor(target), Tensor(logits)).item()
    total = 0.0
    for b in range(3):
        row = np.exp(logits[b] - logits[b].max())
        probs = row / row.sum()
        for c in range(4):
            total -= target[b, c] * np.log(probs[c])
    assert abs(value - total / 3) < 1e-10


def test_soft_cross_entropy_rejects_bad_target():
    with pytest.raises(ValueError):
        soft_cross_entropy(Tensor([[0.9, 0.3]]), Tensor([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        soft_cross_entropy(Tensor([[-0.1, 1.1]]), Tensor([[0.0, 0.0]]))


def test_soft_cross_entropy_gradient_closed_form():
    rng = rand_rng(6)
    logits = Tensor(rng.normal(size=(5, 3)))
    target = rng.random((5, 3))
    target /= target.sum(axis=1, keepdims=True)
    tape = Tape()
    loss = soft_cross_entropy(Tensor(target), logits, tape)
    grad = backward(loss, tape)[logits]
    expected = (softmax(logits).data - target) / 5
    assert np.abs(grad - expected).max() < 1e-12


def test_soft_cross_entropy_gradient_zero_at_match_point():
    # the loss over logits is minimized exactly where softmax(logits) == target
    target = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
    logits = Tensor(np.log(target))
    tape = Tape()
    loss = soft_cross_entropy(Tensor(target), logits, tape)
    assert np.abs(backward(loss, tape)[logits]).max() < 1e-12


def test_entropy_gradient_zero_at_uniform():
    tape = Tape()
    logits = Tensor(np.zeros((3, 4)))
    ent = softmax_entropy_mean(logits, tape)
    assert abs(ent.item() - np.log(4.0)) < 1e-12
    assert np.abs(backward(ent, tape)[logits]).max() < 1e-12


def test_backward_sum_gives_ones():
    tape = Tape()
    x = Tensor(rand_rng(7).normal(size=(2, 3)))
    grad = backward(sum_all(x, tape), tape)[x]
    assert np.array_equal(grad, np.ones((2, 3)))


def test_backward_rejects_non_scalar_root():
    tape = Tape()
    x = Tensor([[1.0, 2.0]])
    out = relu(x, tape)
    with pytest.raises(ValueError):
        backward(out, tape)


def test_tape_is_topologically_ordered():
    # every input is either a leaf or the output of an earlier node
    tape = Tape()
    x = Tensor(rand_rng(8).normal(size=(3, 2)))
    w = Tensor(rand_rng(9).normal(size=(2, 2)))
    b = Tensor(np.zeros(2))
    h = relu(linear(x, w, b, tape), tape)
    sum_all(h, tape)
    leaves = {id(x), id(w), id(b)}
    produced = set()
    for node in tape.nodes:
        for inp in node.inputs:
            assert id(inp) in leaves or id(inp) in produced
        produced.add(id(node.output))


def test_gradient_shapes_match_values():
    tape = Tape()
    rng = rand_rng(9)
    x = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(3, 2)))
    b = Tensor(rng.normal(size=2))
    loss = sum_all(relu(linear(x, w, b, tape), tape), tape)
    grads = backward(loss, tape)
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


def _fd_check(build, leaves, seed, rtol=1e-4):
    """Compare autodiff against central differences for a scalar-valued op."""
    flat0 = np.concatenate([leaf.data.ravel() for leaf in leaves])

    def value_at(vec):
        cursor = 0
        rebuilt = []
        for leaf in leaves:
            size = leaf.size
            rebuilt.append(Tensor(vec[cursor : cursor + size].reshape(leaf.shape)))
            cursor += size
        return build(rebuilt, None).item()

    tape = Tape()
    loss = build(leaves, tape)
    grads = backward(loss, tape)
    auto = np.concatenate(
        [grads.get(leaf, np.zeros(leaf.shape)).ravel() for leaf in leaves]
    )
    numeric = finite_diff_gradient(value_at, flat0, 1e-5)
    err = np.abs(auto - numeric) / np.maximum(np.abs(numeric), 1e-6)
    assert err.max() < rtol, f"seed {seed}: max relative error {err.max()}"


@pytest.mark.parametrize("seed", range(20))
def test_every_op_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(3, 2)))
    b = Tensor(rng.normal(size=2))
    target = rng.random((4, 2))
    target /= target.sum(axis=1, keepdims=True)
    mu = rng.normal(size=(3, 2))
    var = rng.random((3, 2)) + 0.1
    stats = RunningStats(np.zeros(2), np.ones(2))

    def build(leaves, tape):
        xx, ww, bb = leaves
        h = linear(xx, ww, bb, tape)
        h = batch_norm(h, Tensor(np.ones(2)), Tensor(np.zeros(2)), stats, tape=tape, update_stats=False)
        h = relu(h, tape)
        ce = soft_cross_entropy(Tensor(target), h, tape)
        ent = softmax_entropy_mean(h, tape)
        log_q = gaussian_log_density([ww], [mu], [var], tape)
        return weighted_sum([(1.0, ce), (0.5, ent), (-0.25, log_q)], tape=tape)

    _fd_check(build, [x, w, b], seed)


def test_gaussian_log_density_matches_per_coordinate_formula():
    rng = rand_rng(11)
    theta = Tensor(rng.normal(size=5))
    mu = rng.normal(size=5)
    var = rng.random(5) + 0.2
    value = gaussian_log_density([theta], [mu], [var]).item()
    expected = sum(
        -0.5 * (theta.data[i] - mu[i]) ** 2 / var[i] - 0.5 * np.log(2 * np.pi * var[i])
        for i in range(5)
    )
    assert abs(value - expected) < 1e-10


def test_weighted_sum_requires_scalars():
    with pytest.raises(ValueError):
        weighted_sum([(1.0, Tensor([1.0, 2.0]))])
