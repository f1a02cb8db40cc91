"""Image-protocol mechanics on a synthetic stand-in corpus.

These tests exercise the exact code path of the image-protocol acceptance
criteria (encoder training with the multi-state objective, state-prior
estimation, dead-unit counting, frozen-feature probing, accumulation
schedules) on data that is always available.  They assert the *mechanisms*
(e.g. the uniform-prior coefficient drives the state prior toward uniform),
not the full-scale empirical magnitudes, which belong to the real-data
criteria.
"""

import numpy as np
import pytest

from conftest import (dead_unit_fraction, encoder_state_prior, make_synthetic_images,
                      probe_encoder, run_mim_encoder)
from neuralbayes import data as D, mim, nn, train
from neuralbayes import tensor as T
from neuralbayes.tensor import Tensor


@pytest.fixture(scope="module")
def corpus():
    ds = make_synthetic_images(200, classes=10, side=16, noise=0.9, seed=0)
    return D.standardize(ds)


@pytest.fixture(scope="module")
def trained_pair(corpus):
    """Encoders trained with and without the extra uniform-prior push."""
    out = {}
    for seed in (0, 1):
        for alpha in (0.0, 4.0):
            out[(seed, alpha)] = run_mim_encoder(
                corpus.points, hidden=[128, 128], alpha=alpha, beta=2.0,
                mbs=250, bs=500, epochs=12, seed=seed)
    return out


class TestUniformPriorMechanism:
    def test_alpha_pushes_prior_toward_uniform(self, corpus, trained_pair):
        for seed in (0, 1):
            priors = {alpha: encoder_state_prior(trained_pair[(seed, alpha)], corpus.points)
                      for alpha in (0.0, 4.0)}
            # the v2 penalty of each prior, guarded at 1e-9 against a dead state
            penalties = {alpha: T.state_objective(Tensor(p[None] / p.sum()), "v2", 1e-9,
                                                  mi_weight=0.0)[0].item()
                         for alpha, p in priors.items()}
            assert penalties[4.0] < penalties[0.0], seed
            assert priors[4.0].max() < priors[0.0].max(), seed
            assert priors[4.0].min() > priors[0.0].min(), seed

    def test_dead_fraction_never_higher_with_alpha(self, corpus, trained_pair):
        for seed in (0, 1):
            dead = {alpha: dead_unit_fraction(encoder_state_prior(
                trained_pair[(seed, alpha)], corpus.points)) for alpha in (0.0, 4.0)}
            assert dead[4.0] <= dead[0.0], seed


class TestProbePipeline:
    def test_probe_produces_meaningful_accuracy(self, corpus, trained_pair):
        acc = probe_encoder(trained_pair[(0, 4.0)], corpus.points, corpus.components,
                            epochs=10, seed=0)
        assert 0.3 <= acc <= 1.0  # far above the 10-class chance level

    def test_random_encoder_baseline_runs(self, corpus):
        rnet = nn.build_mlp(corpus.dim, [128, 128], None, seed=7777)
        acc = probe_encoder(rnet, corpus.points, corpus.components, epochs=10, seed=0)
        assert 0.0 <= acc <= 1.0


class TestAccumulationVariants:
    def test_small_mbs_large_bs_schedule_runs(self, corpus):
        net = run_mim_encoder(corpus.points, hidden=[64], alpha=2.0, beta=0.0,
                              mbs=50, bs=500, epochs=2, seed=3)
        prior = encoder_state_prior(net, corpus.points)
        assert np.isfinite(prior).all() and abs(prior.sum() - 1.0) <= 1e-9

    def test_equal_epochs_different_update_counts(self, corpus):
        logs = {}
        for bs in (250, 500):
            net = nn.build_mlp(corpus.dim, [32], None, seed=5)
            cfg = mim.MimConfig(alpha=1.0, beta=0.0)
            sched = train.AccumulationSchedule(mbs=250, bs=bs, epochs=2)
            opt = train.AdamState.for_params(net.parameters())
            logs[bs] = train.train_objective(net, corpus.points[:1000],
                                             mim.make_mim_objective(cfg), sched, opt, seed=6)
        assert len(logs[250].records) == 2 * len(logs[500].records)
