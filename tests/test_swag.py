import numpy as np
import pytest
import scipy.stats

from lifelong_tta.autodiff import Tensor, backward, gaussian_log_density, log_normalizers, softmax
from lifelong_tta.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from lifelong_tta.model import MlpClassifier
from lifelong_tta.swag import SwagDiagEstimator, SwagDiagPosterior, train_source
from lifelong_tta.streams import make_source_dataset

from helpers import finite_diff_gradient


def flat1(values):
    return np.asarray(values, dtype=np.float64)


def test_two_point_moments():
    est = SwagDiagEstimator(1)
    est.collect(flat1([0.0])).collect(flat1([2.0]))
    post = est.finalize()
    assert post.mu[0] == 1.0
    assert post.sigma2[0] == 1.0  # E[x^2] - mu^2 = 2 - 1


def test_single_iterate_hits_variance_floor():
    est = SwagDiagEstimator(1)
    est.collect(flat1([3.0]))
    post = est.finalize()
    assert post.sigma2[0] == 1e-8


def test_moments_match_sampling_oracle():
    rng = np.random.default_rng(123)
    draws = rng.normal(3.0, 2.0, size=100)
    est = SwagDiagEstimator(1)
    for d in draws:
        est.collect(flat1([d]))
    post = est.finalize()
    assert abs(post.mu[0] - 3.0) < 0.6
    assert abs(post.sigma2[0] - 4.0) < 1.5
    # and the streaming moments equal the batch moments of the iterate set
    assert abs(post.mu[0] - draws.mean()) < 1e-12
    assert abs(post.sigma2[0] - draws.var()) < 1e-12


def test_collect_rejects_layout_mismatch():
    est = SwagDiagEstimator(2)
    with pytest.raises(ValueError):
        est.collect(flat1([1.0]))
    with pytest.raises(ValueError):
        est.collect(np.zeros((2, 1)))


def test_finalize_without_iterates():
    with pytest.raises(RuntimeError, match="no iterates collected"):
        SwagDiagEstimator(1).finalize()


def fitted_posterior(dim=5, seed=0):
    rng = np.random.default_rng(seed)
    return SwagDiagPosterior(mu=rng.normal(size=dim), sigma2=rng.random(dim) + 0.1, count=10)


def log_density(post, theta, tape):
    """log q(theta) of one parameter vector: ``gaussian_log_density`` of its
    tensor. Returns the scalar node and the parameter tensor."""
    params = Tensor(theta)
    whole = [slice(None)]
    return gaussian_log_density(params, post.mu, post.sigma2, whole, log_normalizers(post.sigma2, whole), tape), params


def log_q(post, theta):
    return log_density(post, theta, [])[0].item()


def grad_log_q(post, theta):
    """The taped gradient of log q, as one vector in theta's layout."""
    tape = []
    value, params = log_density(post, theta, tape)
    return backward(value, tape)[params]


def test_log_density_at_mean_single_dim():
    post = fitted_posterior(dim=1)
    post = SwagDiagPosterior(post.mu, np.ones(1), 3)
    value = log_q(post, post.mu)
    assert abs(value - (-0.5 * np.log(2 * np.pi))) < 1e-12
    assert abs(value + 0.918939) < 1e-6


def test_log_density_one_sigma_off_mean():
    post = fitted_posterior(dim=1)
    sigma = np.sqrt(post.sigma2[0])
    shifted = post.mu + sigma
    assert abs(log_q(post, shifted) - (log_q(post, post.mu) - 0.5)) < 1e-12


def test_log_density_matches_scipy_sum():
    post = fitted_posterior(dim=5, seed=3)
    theta = post.mu + np.random.default_rng(4).normal(size=5)
    expected = scipy.stats.norm.logpdf(theta, loc=post.mu, scale=np.sqrt(post.sigma2)).sum()
    assert abs(log_q(post, theta) - expected) < 1e-10


def test_grad_log_density_closed_form_and_finite_differences():
    post = fitted_posterior(dim=6, seed=5)
    theta = post.mu + 0.3
    grad = grad_log_q(post, theta)
    assert np.allclose(grad, -(theta - post.mu) / post.sigma2)
    numeric = finite_diff_gradient(lambda v: log_q(post, v), theta, 1e-5)
    rel = np.abs(grad - numeric) / np.maximum(np.abs(numeric), 1e-6)
    assert rel.max() < 1e-5


def test_grad_is_zero_at_mean():
    post = fitted_posterior()
    assert np.array_equal(grad_log_q(post, post.mu), np.zeros(post.mu.size))


def test_grad_simple_case():
    post = SwagDiagPosterior(flat1([1.0]), flat1([2.0]), 2)
    grad = grad_log_q(post, flat1([2.0]))
    assert grad[0] == -0.5


def test_map_params_is_the_mean_and_the_density_peak():
    # the mean mu is the MAP point: no perturbation of it has higher density
    post = fitted_posterior(dim=4, seed=6)
    at_map = log_q(post, post.mu)
    rng = np.random.default_rng(7)
    for _ in range(100):
        probe = post.mu + rng.normal(scale=0.5, size=post.mu.size)
        assert log_q(post, probe) <= at_map


def test_log_density_concave_along_lines():
    post = fitted_posterior(dim=5, seed=8)
    rng = np.random.default_rng(9)
    direction = rng.normal(size=post.mu.size)
    a = post.mu + 2.0 * direction
    b = post.mu - 1.0 * direction
    mid = (a + b) / 2.0
    assert log_q(post, mid) >= (log_q(post, a) + log_q(post, b)) / 2.0


def test_variance_floor_keeps_density_finite():
    est = SwagDiagEstimator(1)
    est.collect(flat1([1.0])).collect(flat1([1.0]))  # zero empirical variance
    post = est.finalize()
    value = log_q(post, flat1([1e6]))
    assert np.isfinite(value)


def test_dimension_mismatch_raises():
    post = fitted_posterior(dim=3)
    with pytest.raises(ValueError):
        log_q(post, flat1([0.0]))


def _saved_posterior(tmp_path, model, seed=10):
    est = SwagDiagEstimator(model.theta.size)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        est.collect(model.flatten() + rng.normal(size=model.theta.size))
    post = est.finalize()
    path = tmp_path / "posterior.ptta"
    post.save(path, model)
    return post, path


def test_posterior_checkpoint_round_trip(tmp_path):
    model = MlpClassifier((4, 6, 3), seed=0)
    post, path = _saved_posterior(tmp_path, model)
    loaded = SwagDiagPosterior.load(path, model)
    assert loaded.count == post.count
    assert np.array_equal(loaded.mu, post.mu)
    assert np.array_equal(loaded.sigma2, post.sigma2)


def test_posterior_checkpoint_uses_reserved_names(tmp_path):
    # every mean entry, then every variance entry, in registry order, then the count
    model = MlpClassifier((4, 6, 3), seed=0)
    post, path = _saved_posterior(tmp_path, model)
    names = list(model.params)
    shapes = {f"swag.{part}.{n}": view.shape for part in ("mu", "sigma2") for n, view in model.params.items()}
    entries = read_checkpoint(path, {**shapes, "swag.count": (1,)})
    assert list(entries) == (
        [f"swag.mu.{n}" for n in names] + [f"swag.sigma2.{n}" for n in names] + ["swag.count"]
    )
    for name, view in model.views(post.sigma2).items():
        assert np.array_equal(entries[f"swag.sigma2.{name}"], view)


# edits of a saved posterior that no longer fit the model: (edit, message)
MISFIT_POSTERIORS = {
    "missing_mean": (lambda e: e.pop("swag.mu.hidden0.gamma"), "missing entry swag.mu.hidden0.gamma"),
    "missing_variance": (lambda e: e.pop("swag.sigma2.out.bias"), "missing entry swag.sigma2.out.bias"),
    "missing_count": (lambda e: e.pop("swag.count"), "missing entry swag.count"),
    "extra_entry": (lambda e: e.update({"swag.mu.hidden1.weight": np.zeros((6, 3))}), "swag.mu.hidden1.weight"),
    "wrong_shape": (lambda e: e.update({"swag.mu.out.weight": np.zeros((3, 6))}), "shape mismatch"),
    "fractional_count": (lambda e: e.update({"swag.count": np.array([2.5])}), "count"),
}


@pytest.mark.parametrize("case", sorted(MISFIT_POSTERIORS))
def test_posterior_load_rejects_entries_that_do_not_fit_the_model(tmp_path, case):
    model = MlpClassifier((4, 6, 3), seed=0)
    post, path = _saved_posterior(tmp_path, model)
    edit, message = MISFIT_POSTERIORS[case]
    entries = post.state_arrays(model)
    edit(entries)
    write_checkpoint(path, entries)
    with pytest.raises(CheckpointError, match=message):
        SwagDiagPosterior.load(path, model)


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
            momentum=0.9,
            batch_size=16,
            swag_epochs=1,
            rng=np.random.default_rng(0),
        )


def _train_set_loss(model, images, labels):
    """Mean cross-entropy of ``model``'s eval-mode logits on the training set."""
    probs = softmax(model.forward(images, "eval"))
    return float(-np.log(probs[np.arange(labels.size), labels]).mean())


def test_train_source_collects_one_iterate_per_final_epoch():
    ds = make_source_dataset(2, 12)
    images = ds.images.reshape(len(ds), -1)
    model = MlpClassifier((64, 16, 8), seed=1)
    before = _train_set_loss(model, images, ds.labels)
    post, _ = train_source(
        model,
        images,
        ds.labels,
        epochs=6,
        lr=0.05,
        momentum=0.9,
        batch_size=64,
        swag_epochs=3,
        rng=np.random.default_rng(0),
    )
    assert post.count == 3
    assert _train_set_loss(model, images, ds.labels) < before


def test_train_source_runs_one_untaped_forward(monkeypatch):
    # the accuracy train_source returns is its only untaped forward: one
    # eval-mode pass over the training set after the last epoch
    ds = make_source_dataset(2, 12)
    images = ds.images.reshape(len(ds), -1)
    model = MlpClassifier((64, 16, 8), seed=1)
    calls = []
    forward = MlpClassifier.forward

    def counted(self, x, bn, draws=1):
        calls.append((bn, x.shape[0]))
        return forward(self, x, bn, draws)

    monkeypatch.setattr(MlpClassifier, "forward", counted)
    _, train_accuracy = train_source(
        model,
        images,
        ds.labels,
        epochs=6,
        lr=0.05,
        momentum=0.9,
        batch_size=64,
        swag_epochs=3,
        rng=np.random.default_rng(0),
    )
    assert calls == [("eval", len(ds))]
    monkeypatch.undo()
    preds = softmax(model.forward(images, "eval")).argmax(axis=1)
    assert train_accuracy == float((preds == ds.labels).mean())
