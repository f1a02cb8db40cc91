"""Posterior/prior parameterization identities."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbayes import bayes, dml, mim
from neuralbayes import tensor as T
from neuralbayes.errors import DegeneratePriorError, ShapeError
from neuralbayes.tensor import Tensor


def random_posterior(b, k, seed):
    logits = np.random.default_rng(seed).standard_normal((b, k))
    return bayes.PosteriorBatch(T.softmax(Tensor(logits)))


class TestValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ShapeError):
            bayes.PosteriorBatch(Tensor([[0.5, 0.4]]))

    def test_entries_must_be_probabilities(self):
        with pytest.raises(ShapeError):
            bayes.PosteriorBatch(Tensor([[1.5, -0.5]]))

    def test_prior_must_be_simplex(self):
        with pytest.raises(ShapeError):
            bayes.PriorEstimate(Tensor([0.9, 0.3]), sample_count=4)


class TestPriorEstimate:
    def test_constant_rows(self):
        p = bayes.PosteriorBatch(Tensor(np.tile([0.3, 0.7], (5, 1))))
        np.testing.assert_allclose(bayes.prior_estimate(p).values.data, [0.3, 0.7], atol=1e-15)

    def test_two_one_hot_rows(self):
        p = bayes.PosteriorBatch(Tensor([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(bayes.prior_estimate(p).values.data, [0.5, 0.5])

    def test_equals_column_means(self):
        p = random_posterior(16, 4, seed=0)
        direct = np.array([[p.values.data[i, k] for k in range(4)] for i in range(16)]).mean(axis=0)
        np.testing.assert_allclose(bayes.prior_estimate(p).values.data, direct, atol=1e-12)

    def test_differentiable(self):
        logits = Tensor(np.random.default_rng(1).standard_normal((4, 3)), requires_grad=True)
        p = bayes.PosteriorBatch(T.softmax(logits))
        prior = bayes.prior_estimate(p)
        T.tsum(prior.values * prior.values).backward()
        assert logits.grad is not None and np.any(logits.grad != 0)


class TestConditionalWeights:
    def test_uniform_labels(self):
        p = bayes.PosteriorBatch(Tensor(np.tile([0.5, 0.5], (6, 1))))
        f, fbar = bayes.conditional_weights(p, bayes.prior_estimate(p))
        np.testing.assert_allclose(f.data, 1.0, atol=1e-15)
        np.testing.assert_allclose(fbar.data, 1.0, atol=1e-15)

    def test_hand_case(self):
        p = bayes.PosteriorBatch(Tensor([[1.0, 0.0], [0.0, 1.0]]))
        f, fbar = bayes.conditional_weights(p, bayes.prior_estimate(p))
        np.testing.assert_array_equal(f.data, [[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(fbar.data, [[0.0, 2.0], [2.0, 0.0]])

    def test_batch_mean_of_f_is_one(self):
        p = random_posterior(32, 5, seed=2)
        f, fbar = bayes.conditional_weights(p, bayes.prior_estimate(p))
        np.testing.assert_allclose(f.data.mean(axis=0), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fbar.data.mean(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_prior_weighted_average_identity(self):
        p = random_posterior(20, 3, seed=3)
        prior = bayes.prior_estimate(p)
        f, fbar = bayes.conditional_weights(p, prior)
        pk = prior.values.data
        val = pk * f.data.mean(axis=0) + (1 - pk) * fbar.data.mean(axis=0)
        np.testing.assert_allclose(val, 1.0, rtol=0, atol=1e-12)

    def test_ranges(self):
        p = random_posterior(50, 4, seed=4)
        prior = bayes.prior_estimate(p)
        f, fbar = bayes.conditional_weights(p, prior)
        pk = prior.values.data
        assert f.data.min() >= 0 and np.all(f.data.max(axis=0) <= 1 / pk + 1e-12)
        assert fbar.data.min() >= 0 and np.all(fbar.data.max(axis=0) <= 1 / (1 - pk) + 1e-12)

    def test_degenerate_prior_rejected(self):
        p = bayes.PosteriorBatch(Tensor([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DegeneratePriorError):
            bayes.conditional_weights(p, bayes.prior_estimate(p))


class TestDensityRatio:
    """``f`` of ``conditional_weights`` is the ratio p(x|z=k)/p(x) = L_k(x)/prior_k."""

    def test_uniform_posterior_gives_ones(self):
        p = bayes.PosteriorBatch(Tensor(np.full((4, 3), 1 / 3)))
        f, _ = bayes.conditional_weights(p, bayes.prior_estimate(p))
        np.testing.assert_allclose(f.data, 1.0, atol=1e-12)

    def test_single_sample_batch_gives_ones(self):
        p = bayes.PosteriorBatch(Tensor([[0.2, 0.3, 0.5]]))
        f, _ = bayes.conditional_weights(p, bayes.prior_estimate(p))
        np.testing.assert_allclose(f.data, 1.0, atol=1e-12)

    def test_mixture_identity(self):
        p = random_posterior(24, 6, seed=5)
        prior = bayes.prior_estimate(p)
        f, _ = bayes.conditional_weights(p, prior)
        mixture = (f.data * prior.values.data).sum(axis=1)
        np.testing.assert_allclose(mixture, 1.0, atol=1e-12)

    def test_zero_prior_rejected(self):
        p = bayes.PosteriorBatch(Tensor([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DegeneratePriorError):
            bayes.conditional_weights(p, bayes.prior_estimate(p))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(2, 8), st.integers(0, 99_999))
    def test_mixture_identity_property(self, b, k, seed):
        p = random_posterior(b, k, seed)
        prior = bayes.prior_estimate(p)
        f, _ = bayes.conditional_weights(p, prior)
        mixture = (f.data * prior.values.data).sum(axis=1)
        np.testing.assert_allclose(mixture, 1.0, atol=1e-12)


def _dead_state_head():
    """A K = 3 head whose last state no sample takes."""
    return bayes.PosteriorBatch(Tensor([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0]]))


class TestCheckInterior:
    """Every path that needs a prior strictly inside (0, 1) rejects one that
    is not through ``bayes.check_interior``, with its one message."""

    @pytest.mark.parametrize("call, entry, value", [
        (lambda: dml.dml_loss(_dead_state_head()), 2, 0.0),
        (lambda: bayes.conditional_weights(_dead_state_head(),
                                           bayes.prior_estimate(_dead_state_head())), 2, 0.0),
        (lambda: dml.dml_binary_objective(np.array([0.2, 0.8]), 0.0), 0, 0.0),
        (lambda: dml.dml_binary_objective(np.array([0.2, 0.8]), 1.0), 0, 1.0),
        (lambda: mim.prior_gradient_strength(0.0, 2), 0, 0.0),
    ], ids=["dml_loss", "conditional_weights", "dml_binary_objective-0",
            "dml_binary_objective-1", "prior_gradient_strength"])
    def test_degenerate_prior_has_one_error(self, call, entry, value):
        message = (f"prior entry {entry} = {value!r} is degenerate; "
                   "every state prior must lie in (0, 1)")
        with pytest.raises(DegeneratePriorError, match=f"^{re.escape(message)}$"):
            call()

    def test_nan_is_not_interior(self):
        with pytest.raises(DegeneratePriorError, match="prior entry 1 = nan"):
            bayes.check_interior([0.5, float("nan")])

    def test_interior_passes(self):
        bayes.check_interior([1e-300, 1.0 - 2.0 ** -53])
        bayes.check_interior(0.5)


class TestBayesConsistency:
    """The reconstructed joint on empirical atoms behaves like a joint."""

    def test_joint_normalization_marginal_and_conditional(self):
        p = random_posterior(16, 4, seed=6)
        B = p.batch_size
        joint = p.values.data / B                      # p(x_i, z=k) with p(x) uniform
        assert abs(joint.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(joint.sum(axis=0),
                                   bayes.prior_estimate(p).values.data, atol=1e-12)
        recovered = joint / joint.sum(axis=1, keepdims=True)  # conditional given x_i
        np.testing.assert_allclose(recovered, p.values.data, atol=1e-12)
