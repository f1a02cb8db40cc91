"""Self-checks for the brute-force references themselves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbayes import nn, oracles
from neuralbayes import tensor as T
from neuralbayes.errors import DomainError, ShapeError

LOG2 = math.log(2.0)


class TestBruteForceMI:
    def test_constant_posterior(self):
        # zero up to correctly-rounded-summation ulps (the /B /K round trips)
        assert abs(oracles.brute_force_mi(np.tile([0.25, 0.25, 0.5], (6, 1)))) <= 1e-15

    def test_identity_posterior(self):
        assert abs(oracles.brute_force_mi(np.eye(3)) - math.log(3)) <= 1e-12

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((10, 4))
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        base = oracles.brute_force_mi(p)
        assert oracles.brute_force_mi(p[::-1]) == base

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            oracles.brute_force_mi(np.ones(4))


class TestJsDivergence:
    def test_equal_distributions(self):
        w = np.array([0.2, 0.3, 0.5])
        assert oracles.js_divergence_discrete(w, w) == 0.0

    def test_disjoint_supports_reach_log2(self):
        w0 = np.array([0.5, 0.5, 0.0, 0.0])
        w1 = np.array([0.0, 0.0, 0.25, 0.75])
        assert abs(oracles.js_divergence_discrete(w0, w1) - LOG2) <= 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        w0 = rng.dirichlet(np.ones(6))
        w1 = rng.dirichlet(np.ones(6))
        assert oracles.js_divergence_discrete(w0, w1) == oracles.js_divergence_discrete(w1, w0)

    def test_invalid_simplex(self):
        with pytest.raises(DomainError):
            oracles.js_divergence_discrete([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(DomainError):
            oracles.js_divergence_discrete([-0.1, 1.1], [0.5, 0.5])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 99_999))
    def test_bounded_by_log2(self, n, seed):
        rng = np.random.default_rng(seed)
        w0 = rng.dirichlet(np.ones(n))
        w1 = rng.dirichlet(np.ones(n))
        assert oracles.js_divergence_discrete(w0, w1) <= LOG2 + 1e-12


class TestFiniteDifferences:
    def test_quadratic(self):
        g = oracles.finite_diff_grad(lambda p: float(p["t"][0] ** 2), {"t": np.array([3.0])})
        np.testing.assert_allclose(g["t"], [6.0], atol=1e-8)

    def test_linear_is_exact(self):
        g = oracles.finite_diff_grad(lambda p: float(3.0 * p["t"].sum()), {"t": np.arange(4.0)})
        np.testing.assert_allclose(g["t"], 3.0, atol=1e-10)

    def test_softmax_cross_entropy_analytic(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((3, 4))
        onehot = np.eye(4)[[0, 2, 1]]

        def ce(p):
            z = p["logits"]
            s = np.exp(z - z.max(axis=1, keepdims=True))
            s /= s.sum(axis=1, keepdims=True)
            return -float((onehot * np.log(s)).sum(axis=1).mean())

        numeric = oracles.finite_diff_grad(ce, {"logits": logits})
        s = np.exp(logits - logits.max(axis=1, keepdims=True))
        s /= s.sum(axis=1, keepdims=True)
        analytic = (s - onehot) / 3
        np.testing.assert_allclose(numeric["logits"], analytic, atol=1e-5)

    @pytest.mark.parametrize("layout", ["transposed", "fortran"])
    def test_any_memory_layout(self, layout):
        # a non-C-ordered input is perturbed entry by entry, not through a copy
        base = np.arange(12.0).reshape(3, 4)
        t = base.T if layout == "transposed" else np.asfortranarray(base)
        weights = np.arange(1.0, 1.0 + t.size).reshape(t.shape)
        g = oracles.finite_diff_grad(lambda p: float((p["t"] * weights).sum()), {"t": t})
        np.testing.assert_allclose(g["t"], weights, rtol=0, atol=1e-8)

    def test_nonfinite_loss_names_coordinate(self):
        def bad(p):
            return float("inf") if p["t"][1] > 1.0 else 0.0

        with pytest.raises(DomainError, match=r"t\[1\]"):
            oracles.finite_diff_grad(bad, {"t": np.array([0.0, 1.0])})


class TestGradientEquality:
    def test_single_sample_batch_passes(self):
        net = nn.build_mlp(3, [5], 4, seed=0, activation="tanh")
        batch = np.random.default_rng(3).standard_normal((1, 3))
        assert oracles.gradient_equality_check(net, batch) <= 1e-4

    def test_random_case_passes_and_control_fails(self):
        rng = np.random.default_rng(4)
        net, batch = oracles.random_check_case(rng)
        assert oracles.gradient_equality_check(net, batch) <= 1e-4
        assert oracles.gradient_equality_check(net, batch, wrong_branch=True) > 1e-2

    def test_check_restores_parameters(self):
        rng = np.random.default_rng(5)
        net, batch = oracles.random_check_case(rng)
        before = {n: p.data.copy() for n, p in net.parameters().items()}
        oracles.gradient_equality_check(net, batch)
        for name, p in net.parameters().items():
            assert np.array_equal(p.data, before[name])

    @pytest.mark.skipif(T._OPENBLAS_THREADS is None,
                        reason="numpy loaded no OpenBLAS with a thread-count setter")
    def test_every_forward_runs_on_one_blas_thread(self, monkeypatch):
        """The sampler's forwards and the check's analytic and
        finite-difference forwards, under a caller that set two threads."""
        get, set_ = T._OPENBLAS_THREADS
        forward, seen = nn.Network.forward, []

        def spying(net, x, mode="eval"):
            seen.append(get())
            return forward(net, x, mode)

        monkeypatch.setattr(nn.Network, "forward", spying)
        before = get()
        set_(2)
        try:
            net, batch = oracles.random_check_case(np.random.default_rng(6))
            sampled = len(seen)
            oracles.gradient_equality_check(net, batch)
            assert get() == 2
        finally:
            set_(before)
        fd = 2 * sum(p.data.size for p in net.parameters().values())
        assert sampled >= 1 and len(seen) == sampled + 1 + fd and set(seen) == {1}

    def test_suite_shape(self):
        results = oracles.gradcheck_suite(seed=0, cases=3)
        assert [r["case_id"] for r in results] == [0, 1, 2]
        assert all(set(r) == {"case_id", "max_rel_diff", "pass"} for r in results)
