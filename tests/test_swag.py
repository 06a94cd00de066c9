import numpy as np
import pytest
import scipy.stats

from lifelong_tta.autodiff import Tape, Tensor, backward, finite_diff_gradient, gaussian_log_density
from lifelong_tta.model import FlatParams, MlpClassifier
from lifelong_tta.swag import SwagDiagEstimator, SwagDiagPosterior, train_source
from lifelong_tta.streams import make_source_dataset


def flat1(values):
    values = np.asarray(values, dtype=np.float64)
    return FlatParams(("p",), ((values.size,),), (0,), values)


def test_two_point_moments():
    est = SwagDiagEstimator(flat1([0.0]))
    est.collect(flat1([0.0])).collect(flat1([2.0]))
    post = est.finalize()
    assert post.mu.values[0] == 1.0
    assert post.sigma2.values[0] == 1.0  # E[x^2] - mu^2 = 2 - 1


def test_single_iterate_hits_variance_floor():
    est = SwagDiagEstimator(flat1([0.0]))
    est.collect(flat1([3.0]))
    post = est.finalize()
    assert post.sigma2.values[0] == 1e-8


def test_moments_match_sampling_oracle():
    rng = np.random.default_rng(123)
    draws = rng.normal(3.0, 2.0, size=100)
    est = SwagDiagEstimator(flat1([0.0]))
    for d in draws:
        est.collect(flat1([d]))
    post = est.finalize()
    assert abs(post.mu.values[0] - 3.0) < 0.6
    assert abs(post.sigma2.values[0] - 4.0) < 1.5
    # and the streaming moments equal the batch moments of the iterate set
    assert abs(post.mu.values[0] - draws.mean()) < 1e-12
    assert abs(post.sigma2.values[0] - draws.var()) < 1e-12


def test_collect_rejects_layout_mismatch():
    est = SwagDiagEstimator(flat1([0.0, 0.0]))
    with pytest.raises(ValueError):
        est.collect(flat1([1.0]))


def test_finalize_without_iterates():
    with pytest.raises(RuntimeError, match="no iterates collected"):
        SwagDiagEstimator(flat1([0.0])).finalize()


def fitted_posterior(dim=5, seed=0):
    rng = np.random.default_rng(seed)
    template = flat1(np.zeros(dim))
    return SwagDiagPosterior(
        mu=template.with_values(rng.normal(size=dim)),
        sigma2=template.with_values(rng.random(dim) + 0.1),
        count=10,
    )


def log_density(post, theta, tape=None):
    """log q(theta) as ``petal_loss`` evaluates it: ``gaussian_log_density``
    over one tensor per parameter name and the posterior's slices of it.
    Returns the scalar node and the parameter tensors."""
    names = post.mu.names
    thetas = [Tensor(theta.slice(name)) for name in names]
    value = gaussian_log_density(
        thetas,
        [post.mu.slice(name) for name in names],
        [post.sigma2.slice(name) for name in names],
        tape,
    )
    return value, thetas


def log_q(post, theta):
    return log_density(post, theta)[0].item()


def grad_log_q(post, theta):
    """The taped gradient of log q, as one vector in theta's layout."""
    tape = Tape()
    value, thetas = log_density(post, theta, tape)
    grads = backward(value, tape)
    return np.concatenate([grads[t].ravel() for t in thetas])


def test_log_density_at_mean_single_dim():
    post = fitted_posterior(dim=1)
    post = SwagDiagPosterior(post.mu, post.sigma2.with_values(np.ones(1)), 3)
    value = log_q(post, post.mu)
    assert abs(value - (-0.5 * np.log(2 * np.pi))) < 1e-12
    assert abs(value + 0.918939) < 1e-6


def test_log_density_one_sigma_off_mean():
    post = fitted_posterior(dim=1)
    sigma = np.sqrt(post.sigma2.values[0])
    shifted = post.mu.with_values(post.mu.values + sigma)
    assert abs(log_q(post, shifted) - (log_q(post, post.mu) - 0.5)) < 1e-12


def test_log_density_matches_scipy_sum():
    post = fitted_posterior(dim=5, seed=3)
    theta = post.mu.with_values(post.mu.values + np.random.default_rng(4).normal(size=5))
    expected = scipy.stats.norm.logpdf(
        theta.values, loc=post.mu.values, scale=np.sqrt(post.sigma2.values)
    ).sum()
    assert abs(log_q(post, theta) - expected) < 1e-10


def test_grad_log_density_closed_form_and_finite_differences():
    post = fitted_posterior(dim=6, seed=5)
    theta = post.mu.with_values(post.mu.values + 0.3)
    grad = grad_log_q(post, theta)
    assert np.allclose(grad, -(theta.values - post.mu.values) / post.sigma2.values)
    numeric = finite_diff_gradient(
        lambda v: log_q(post, theta.with_values(v)), theta.values, 1e-5
    )
    rel = np.abs(grad - numeric) / np.maximum(np.abs(numeric), 1e-6)
    assert rel.max() < 1e-5


def test_grad_is_zero_at_mean():
    post = fitted_posterior()
    assert np.array_equal(grad_log_q(post, post.mu), np.zeros(post.mu.dim))


def test_grad_simple_case():
    template = flat1([0.0])
    post = SwagDiagPosterior(template.with_values(np.array([1.0])),
                             template.with_values(np.array([2.0])), 2)
    grad = grad_log_q(post, template.with_values(np.array([2.0])))
    assert grad[0] == -0.5


def test_map_params_is_the_mean_and_the_density_peak():
    # the mean mu is the MAP point: no perturbation of it has higher density
    post = fitted_posterior(dim=4, seed=6)
    m = post.mu
    at_map = log_q(post, m)
    rng = np.random.default_rng(7)
    for _ in range(100):
        probe = m.with_values(m.values + rng.normal(scale=0.5, size=post.mu.dim))
        assert log_q(post, probe) <= at_map


def test_log_density_concave_along_lines():
    post = fitted_posterior(dim=5, seed=8)
    rng = np.random.default_rng(9)
    direction = rng.normal(size=post.mu.dim)
    a = post.mu.with_values(post.mu.values + 2.0 * direction)
    b = post.mu.with_values(post.mu.values - 1.0 * direction)
    mid = post.mu.with_values((a.values + b.values) / 2.0)
    assert log_q(post, mid) >= (log_q(post, a) + log_q(post, b)) / 2.0


def test_variance_floor_keeps_density_finite():
    est = SwagDiagEstimator(flat1([0.0]))
    est.collect(flat1([1.0])).collect(flat1([1.0]))  # zero empirical variance
    post = est.finalize()
    value = log_q(post, flat1([1e6]))
    assert np.isfinite(value)


def test_dimension_mismatch_raises():
    post = fitted_posterior(dim=3)
    with pytest.raises(ValueError):
        log_q(post, flat1([0.0]))


def test_posterior_checkpoint_round_trip(tmp_path):
    model = MlpClassifier((4, 6, 3), seed=0)
    est = SwagDiagEstimator(model.flatten())
    rng = np.random.default_rng(10)
    flat = model.flatten()
    for _ in range(4):
        est.collect(flat.with_values(flat.values + rng.normal(size=flat.dim)))
    post = est.finalize()
    path = tmp_path / "posterior.ptta"
    post.save(path)
    loaded = SwagDiagPosterior.load(path)
    assert loaded.count == post.count
    assert loaded.mu.names == post.mu.names
    assert np.array_equal(loaded.mu.values, post.mu.values)
    assert np.array_equal(loaded.sigma2.values, post.sigma2.values)


def test_posterior_checkpoint_uses_reserved_names(tmp_path):
    from lifelong_tta.checkpoint import read_checkpoint

    model = MlpClassifier((4, 6, 3), seed=0)
    est = SwagDiagEstimator(model.flatten())
    est.collect(model.flatten())
    path = tmp_path / "posterior.ptta"
    est.finalize().save(path)
    entries = read_checkpoint(path)
    for name in model.param_names:
        assert f"swag.mu.{name}" in entries
        assert f"swag.sigma2.{name}" in entries
    assert "swag.count" in entries


def test_train_source_reports_divergence():
    ds = make_source_dataset(2, 8)
    model = MlpClassifier((64, 8, 8), seed=1)
    with pytest.raises(RuntimeError, match="diverged"), np.errstate(over="ignore", invalid="ignore"):
        train_source(
            model,
            ds.images.reshape(len(ds), -1),
            ds.labels,
            epochs=4,
            lr=1e200,
            swag_epochs=1,
            batch_size=16,
            rng=np.random.default_rng(0),
        )


def test_train_source_collects_one_iterate_per_final_epoch():
    ds = make_source_dataset(2, 12)
    model = MlpClassifier((64, 16, 8), seed=1)
    post, history = train_source(
        model,
        ds.images.reshape(len(ds), -1),
        ds.labels,
        epochs=6,
        lr=0.05,
        swag_epochs=3,
        rng=np.random.default_rng(0),
    )
    assert post.count == 3
    assert len(history) == 6
    assert history[-1]["loss"] < history[0]["loss"]
