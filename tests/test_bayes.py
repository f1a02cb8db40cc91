"""Posterior/prior parameterization identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbayes import bayes
from neuralbayes import tensor as T
from neuralbayes.errors import DegeneratePriorError, ShapeError
from neuralbayes.tensor import Tensor


def random_posterior(b, k, seed):
    logits = np.random.default_rng(seed).standard_normal((b, k))
    return bayes.PosteriorBatch(T.softmax(Tensor(logits), axis=1))


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
        p = bayes.PosteriorBatch(T.softmax(logits, axis=1))
        prior = bayes.prior_estimate(p)
        T.tsum(prior.values * prior.values).backward()
        assert logits.grad is not None and np.any(logits.grad != 0)


class TestConditionalWeights:
    def test_uniform_labels(self):
        p = bayes.PosteriorBatch(Tensor(np.tile([0.5, 0.5], (6, 1))))
        f, fbar = bayes.conditional_weights(p, bayes.prior_estimate(p), 0)
        np.testing.assert_allclose(f.data, 1.0, atol=1e-15)
        np.testing.assert_allclose(fbar.data, 1.0, atol=1e-15)

    def test_hand_case(self):
        p = bayes.PosteriorBatch(Tensor([[1.0, 0.0], [0.0, 1.0]]))
        f, fbar = bayes.conditional_weights(p, bayes.prior_estimate(p), 0)
        np.testing.assert_array_equal(f.data, [2.0, 0.0])
        np.testing.assert_array_equal(fbar.data, [0.0, 2.0])

    def test_batch_mean_of_f_is_one(self):
        p = random_posterior(32, 5, seed=2)
        prior = bayes.prior_estimate(p)
        for k in range(5):
            f, fbar = bayes.conditional_weights(p, prior, k)
            assert abs(float(f.data.mean()) - 1.0) <= 1e-12
            assert abs(float(fbar.data.mean()) - 1.0) <= 1e-12

    def test_prior_weighted_average_identity(self):
        p = random_posterior(20, 3, seed=3)
        prior = bayes.prior_estimate(p)
        for k in range(3):
            f, fbar = bayes.conditional_weights(p, prior, k)
            pk = float(prior.values.data[k])
            val = pk * float(f.data.mean()) + (1 - pk) * float(fbar.data.mean())
            assert abs(val - 1.0) <= 1e-12

    def test_ranges(self):
        p = random_posterior(50, 4, seed=4)
        prior = bayes.prior_estimate(p)
        for k in range(4):
            f, fbar = bayes.conditional_weights(p, prior, k)
            pk = float(prior.values.data[k])
            assert f.data.min() >= 0 and f.data.max() <= 1 / pk + 1e-12
            assert fbar.data.min() >= 0 and fbar.data.max() <= 1 / (1 - pk) + 1e-12

    def test_degenerate_prior_rejected(self):
        p = bayes.PosteriorBatch(Tensor([[1.0, 0.0], [1.0, 0.0]]))
        prior = bayes.prior_estimate(p)
        with pytest.raises(DegeneratePriorError):
            bayes.conditional_weights(p, prior, 0)
        with pytest.raises(DegeneratePriorError):
            bayes.conditional_weights(p, prior, 1)


class TestDensityRatio:
    def test_uniform_posterior_gives_ones(self):
        p = bayes.PosteriorBatch(Tensor(np.full((4, 3), 1 / 3)))
        ratio = bayes.density_ratio(p, bayes.prior_estimate(p))
        np.testing.assert_allclose(ratio.data, 1.0, atol=1e-12)

    def test_single_sample_batch_gives_ones(self):
        p = bayes.PosteriorBatch(Tensor([[0.2, 0.3, 0.5]]))
        ratio = bayes.density_ratio(p, bayes.prior_estimate(p))
        np.testing.assert_allclose(ratio.data, 1.0, atol=1e-12)

    def test_mixture_identity(self):
        p = random_posterior(24, 6, seed=5)
        prior = bayes.prior_estimate(p)
        ratio = bayes.density_ratio(p, prior)
        mixture = (ratio.data * prior.values.data).sum(axis=1)
        np.testing.assert_allclose(mixture, 1.0, atol=1e-12)

    def test_zero_prior_rejected(self):
        p = bayes.PosteriorBatch(Tensor([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DegeneratePriorError):
            bayes.density_ratio(p, bayes.prior_estimate(p))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(2, 8), st.integers(0, 99_999))
    def test_mixture_identity_property(self, b, k, seed):
        p = random_posterior(b, k, seed)
        prior = bayes.prior_estimate(p)
        mixture = (bayes.density_ratio(p, prior).data * prior.values.data).sum(axis=1)
        np.testing.assert_allclose(mixture, 1.0, atol=1e-12)


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
