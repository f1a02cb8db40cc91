"""Manifold-labeling objective contracts and oracle agreements."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbayes import bayes, dml, nn, oracles
from neuralbayes import tensor as T
from neuralbayes.errors import ConfigError, DegeneratePriorError, ShapeError
from neuralbayes.tensor import Tensor

from conftest import CountingNet, assert_moved_once

LOG2 = math.log(2.0)


def random_labels(b, seed, lo=0.02, hi=0.98):
    return np.random.default_rng(seed).uniform(lo, hi, b)


class TestBinaryObjective:
    def test_maximal_confusion_is_zero(self):
        L = np.full(10, 0.5)
        assert dml.dml_binary_objective(L, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_split_reaches_log2(self):
        L = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        prior = float(L.mean())
        assert abs(dml.dml_binary_objective(L, prior) - LOG2) <= 1e-12

    def test_matches_js_oracle(self):
        for seed in range(15):
            L = random_labels(int(np.random.default_rng(seed).integers(2, 50)), seed)
            prior = float(L.mean())
            p = bayes.PosteriorBatch(Tensor(np.column_stack([L, 1.0 - L])))
            f, _ = bayes.conditional_weights(p, bayes.prior_estimate(p))
            w1, w0 = (f.data / L.size).T
            want = oracles.js_divergence_discrete(w0, w1)
            got = dml.dml_binary_objective(L, prior)
            assert abs(got - want) <= 1e-10, seed

    def test_label_symmetry(self):
        # exact mathematically; in floats the 1-(1-L) roundtrip costs an ulp
        L = random_labels(33, seed=5)
        prior = float(L.mean())
        a = dml.dml_binary_objective(L, prior)
        b = dml.dml_binary_objective(1.0 - L, 1.0 - prior)
        assert abs(a - b) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 99_999))
    def test_range(self, b, seed):
        L = random_labels(b, seed)
        v = dml.dml_binary_objective(L, float(L.mean()))
        assert -1e-12 <= v <= LOG2 + 1e-9

    def test_finite_on_open_prior_interval(self):
        L = random_labels(40, seed=8)
        for p in np.linspace(0.01, 0.99, 25):
            assert np.isfinite(dml.dml_binary_objective(L, float(p)))

    def test_degenerate_prior_rejected(self):
        with pytest.raises(DegeneratePriorError):
            dml.dml_binary_objective(np.array([0.2, 0.8]), 0.0)
        with pytest.raises(DegeneratePriorError):
            dml.dml_binary_objective(np.array([0.2, 0.8]), 1.0)


def label_head(L: Tensor) -> Tensor:
    """The two-column head [L, 1 - L] of a soft label L, on the tape."""
    return T.reshape(L, (L.shape[0], 1)) * Tensor([[1.0, -1.0]]) + Tensor([[0.0, 1.0]])


def binary_chain_reference(L: Tensor) -> Tensor:
    """The former binary loss, the JS chain on the soft label L alone (a
    test-only reference): 0.5 E[f1 log(1 + f0/f1)] + 0.5 E[f0 log(1 + f1/f0)]
    with f1 = L/E[L] + eps and f0 = (1-L)/(1-E[L]) + eps."""
    prior = T.tmean(L)
    f1 = L / prior + bayes.LOG_GUARD
    f0 = (1.0 - L) / (1.0 - prior) + bayes.LOG_GUARD
    t1 = T.tmean(f1 * T.log(f0 / f1 + 1.0))
    t0 = T.tmean(f0 * T.log(f1 / f0 + 1.0))
    return t1 * 0.5 + t0 * 0.5


def assert_same_loss_and_gradient(loss, ref, leaf):
    assert abs(loss.item() - ref.item()) <= 1e-12
    [g], [g_ref] = (T.gradients(x, {"x": leaf}).values() for x in (loss, ref))
    assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()


class TestBinaryLoss:
    """``dml_loss`` at K = 2, on [L, 1 - L] heads."""

    def test_maximal_confusion_value(self):
        loss = dml.dml_loss(bayes.PosteriorBatch(label_head(Tensor(np.full(12, 0.5)))))
        assert abs(loss.item() - LOG2) <= 1e-6

    def test_perfect_split_near_zero(self):
        head = label_head(Tensor(np.array([0.0, 1.0] * 8)))
        assert dml.dml_loss(bayes.PosteriorBatch(head)).item() <= 1e-5

    def test_loss_plus_objective_is_log2(self):
        for seed in range(10):
            L = random_labels(24, seed)
            loss = dml.dml_loss(bayes.PosteriorBatch(label_head(Tensor(L)))).item()
            obj = dml.dml_binary_objective(L, float(L.mean()))
            assert abs(loss + obj - LOG2) <= 1e-5, seed

    def test_gradient_flows(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((16, 2)), requires_grad=True)
        dml.dml_loss(bayes.PosteriorBatch(T.softmax(logits))).backward()
        assert logits.grad is not None and np.abs(logits.grad).max() > 0

    def test_small_batch_rejected(self):
        with pytest.raises(ShapeError):
            dml.dml_loss(bayes.PosteriorBatch(Tensor(np.array([[0.5, 0.5]]))))


class TestMultiLoss:
    def test_uniform_posterior_is_log2(self):
        p = bayes.PosteriorBatch(Tensor(np.full((10, 4), 0.25)))
        assert abs(dml.dml_loss(p).item() - LOG2) <= 1e-3

    def test_one_hot_balanced_reaches_zero(self):
        rows = np.eye(3)[np.arange(12) % 3]
        p = bayes.PosteriorBatch(Tensor(rows))
        assert abs(dml.dml_loss(p).item()) <= 1e-5

    def test_k2_consistency_with_binary(self):
        # both columns give the binary chain's terms, so the mean over them is that chain
        for seed in range(8):
            L = Tensor(random_labels(20, seed), requires_grad=True)
            assert_same_loss_and_gradient(dml.dml_loss(bayes.PosteriorBatch(label_head(L))),
                                          binary_chain_reference(L), L)

    def test_k2_softmax_head_matches_binary_chain(self):
        for seed in range(8):
            logits = Tensor(3.0 * np.random.default_rng(seed).standard_normal((20, 2)),
                            requires_grad=True)
            v = T.softmax(logits)
            assert_same_loss_and_gradient(dml.dml_loss(bayes.PosteriorBatch(v)),
                                          binary_chain_reference(T.column(v, 0)), logits)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 6), st.integers(0, 99_999))
    def test_range(self, b, k, seed):
        logits = np.random.default_rng(seed).standard_normal((b, k))
        p = bayes.PosteriorBatch(T.softmax(Tensor(logits)))
        v = dml.dml_loss(p).item()
        assert -1e-9 <= v <= LOG2 + 1e-3

    def test_degenerate_prior_rejected(self):
        p = bayes.PosteriorBatch(Tensor(np.tile([1.0, 0.0], (4, 1))))
        with pytest.raises(DegeneratePriorError):
            dml.dml_loss(p)


class TestSmoothnessPenalty:
    def test_constant_function_is_zero(self):
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((8, 3))

        def const(t):
            return Tensor(np.ones((t.shape[0], 2)))

        v = dml.smoothness_penalty(const, batch, const(Tensor(batch)),
                                   np.random.default_rng(1))
        assert v.item() == 0.0

    def test_linear_map_matches_direct_evaluation(self):
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((12, 4))
        W = rng.standard_normal((4, 3))

        def linear(t):
            return T.linear(t, Tensor(W.T), Tensor(np.zeros(3)))

        noise = rng.standard_normal((12, 12))
        y0 = linear(Tensor(batch))
        got1 = dml.smoothness_penalty(linear, batch, y0, np.random.default_rng(0),
                                      noise=noise, zeta=0.05).item()
        got2 = dml.smoothness_penalty(linear, batch, y0, np.random.default_rng(0),
                                      noise=noise, zeta=0.8).item()
        delta = batch.T @ noise
        dhat = (delta / np.linalg.norm(delta, axis=0)).T
        want = float((np.square(dhat @ W).sum(axis=1)).mean())
        assert abs(got1 - want) <= 1e-9
        assert abs(got2 - want) <= 1e-9  # linear maps make the scale cancel

    def test_directions_lie_in_data_span(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((6, 2))
        lift = rng.standard_normal((2, 10))
        batch = base @ lift  # rank-2 cloud in 10-D
        captured = {}

        def probe(t):
            captured.setdefault("batches", []).append(t.data.copy())
            return Tensor(np.zeros((t.shape[0], 1)))

        dml.smoothness_penalty(probe, batch, Tensor(np.zeros((6, 1))),
                               np.random.default_rng(4), zeta=0.07)
        [perturbed] = captured["batches"]  # the clean output is the caller's
        directions = perturbed - batch
        # each perturbation is zeta times a unit vector
        np.testing.assert_allclose(np.linalg.norm(directions, axis=1), 0.07, atol=1e-9)
        # residual of least-squares projection onto the span of the batch rows
        proj, *_ = np.linalg.lstsq(batch.T, directions.T, rcond=None)
        residual = directions.T - batch.T @ proj
        assert np.abs(residual).max() <= 1e-9

    def test_zero_batch_rejected(self):
        with pytest.raises(ShapeError):
            dml.smoothness_penalty(lambda t: t, np.zeros((4, 2)), Tensor(np.zeros((4, 2))),
                                   np.random.default_rng(0))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((7, 3))
        net = nn.build_mlp(3, [5], 2, seed=0)
        y0 = net.forward(Tensor(batch))
        a = dml.smoothness_penalty(lambda t: net.forward(t), batch, y0,
                                   np.random.default_rng(11)).item()
        b = dml.smoothness_penalty(lambda t: net.forward(t), batch, y0,
                                   np.random.default_rng(11)).item()
        assert a == b

    def test_small_zeta_redrawn(self):
        rng = np.random.default_rng(6)
        batch = rng.standard_normal((5, 2))
        noise = rng.standard_normal((5, 5))

        class StubDraws:
            """Scale draws below the 1e-4 floor, then a usable one."""

            def __init__(self):
                self.draws, self.sigmas = [3e-5, -8e-5, 0.0, 0.05], []

            def normal(self, mean, sigma):
                self.sigmas.append((mean, sigma))
                return self.draws.pop(0)

        stub = StubDraws()
        net = nn.build_mlp(2, [4], 3, seed=0)
        v = dml.smoothness_penalty(lambda t: net.forward(t), batch, net.forward(Tensor(batch)),
                                   stub, noise=noise)
        assert stub.draws == [] and stub.sigmas == [(0.0, dml.NOISE_SIGMA)] * 4
        want = dml.smoothness_penalty(lambda t: net.forward(t), batch,
                                      net.forward(Tensor(batch)), None, noise=noise, zeta=0.05)
        assert v.item() == want.item()

    @pytest.mark.parametrize("shape", [(5, 3), (5, 1), (4, 2)])
    def test_clean_output_shape_checked(self, shape):
        batch = np.random.default_rng(9).standard_normal((5, 2))
        with pytest.raises(ShapeError, match="clean output"):
            dml.smoothness_penalty(lambda t: t, batch, Tensor(np.zeros(shape)),
                                   np.random.default_rng(10))


class TestObjectiveClosure:
    def test_binary_closure_runs_and_reports(self):
        rng = np.random.default_rng(0)
        net = nn.build_mlp(2, [8], 2, seed=1, batchnorm=True, softmax_head=True)
        cfg = dml.DmlConfig(partitions=2, beta=1.0)
        objective = dml.make_dml_objective(cfg)
        loss, terms = objective(net, Tensor(rng.standard_normal((16, 2))), np.random.default_rng(1))
        assert abs(terms["total"] - (terms["js_loss"] + terms["smooth"])) <= 1e-12
        assert loss.requires_grad

    def test_multi_closure_runs(self):
        rng = np.random.default_rng(2)
        net = nn.build_mlp(2, [8], 3, seed=3, softmax_head=True)
        cfg = dml.DmlConfig(partitions=3, beta=0.5)
        loss, _ = dml.make_dml_objective(cfg)(
            net, Tensor(rng.standard_normal((12, 2))), np.random.default_rng(3))
        assert np.isfinite(loss.item())

    @pytest.mark.parametrize("partitions, width", [(2, 3), (3, 2)])
    def test_head_width_must_match_partitions(self, partitions, width):
        net = nn.build_mlp(2, [8], width, seed=4, softmax_head=True)
        objective = dml.make_dml_objective(dml.DmlConfig(partitions=partitions, beta=1.0))
        with pytest.raises(ShapeError, match=rf"not \(B, {partitions}\)"):
            objective(net, Tensor(np.random.default_rng(5).standard_normal((10, 2))),
                      np.random.default_rng(6))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            dml.DmlConfig(partitions=1)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -1.0])
    def test_beta_must_be_finite_and_nonnegative(self, beta):
        # a NaN beta would fail the objective's `beta > 0` test and silently
        # drop the smoothness term
        with pytest.raises(ConfigError, match=f"beta must be nonnegative and finite, got {beta}"):
            dml.DmlConfig(beta=beta)


def three_forward_dml(cfg):
    """The objective as written before it reused its clean forward: the
    smoothness penalty's clean output came from a second train-mode forward
    of the same batch (a test-only reference)."""

    def objective(net, xb, rng):
        out = net.forward(xb, "train")
        js_loss = dml.dml_loss(bayes.PosteriorBatch(out))

        def label_fn(t):
            o = net.forward(t, "train")
            return T.reshape(T.column(o, 0), (o.shape[0], 1)) if cfg.partitions == 2 else o

        if cfg.beta == 0.0:
            return js_loss, None
        rc = dml.smoothness_penalty(label_fn, xb, label_fn(xb), rng)
        return js_loss + rc * cfg.beta, None

    return objective


class TestCleanForwardReuse:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("beta,forwards", [(1.5, 2), (0.0, 1)])
    def test_forwards_per_call(self, k, beta, forwards):
        net = CountingNet(nn.build_mlp(4, [8], k, seed=1, batchnorm=True, softmax_head=True))
        objective = dml.make_dml_objective(dml.DmlConfig(partitions=k, beta=beta))
        objective(net, Tensor(np.random.default_rng(2).standard_normal((16, 4))),
                  np.random.default_rng(3))
        assert net.calls == forwards

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_three_forward_reference(self, k):
        cfg = dml.DmlConfig(partitions=k, beta=2.0)
        xb = Tensor(np.random.default_rng(4).standard_normal((20, 5)))
        results = []
        for build in (dml.make_dml_objective, three_forward_dml):
            net = nn.build_mlp(5, [12, 12], k, seed=5, batchnorm=True, softmax_head=True)
            loss, _ = build(cfg)(net, xb, np.random.default_rng(6))
            results.append((loss, T.gradients(loss, net.parameters())))
        (loss, grads), (ref_loss, ref_grads) = results
        assert loss.data.tobytes() == ref_loss.data.tobytes()
        for name, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("k", [2, 3])
    def test_running_stats_move_once(self, k):
        net = nn.build_mlp(4, [8, 6], k, seed=7, batchnorm=True, softmax_head=True)
        xb = Tensor(np.random.default_rng(8).standard_normal((16, 4)) + 1.0)
        dml.make_dml_objective(dml.DmlConfig(partitions=k, beta=2.0))(
            net, xb, np.random.default_rng(9))
        assert_moved_once(net, nn.build_mlp(4, [8, 6], k, seed=7, batchnorm=True,
                                            softmax_head=True), xb)
