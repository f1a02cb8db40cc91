"""Information-maximization objective contracts and oracle agreements."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbayes import bayes, dml, mim, nn, oracles
from neuralbayes import tensor as T
from neuralbayes.errors import ConfigError, DegeneratePriorError, DomainError, ShapeError
from neuralbayes.tensor import Tensor

from conftest import CountingNet, assert_moved_once

LOG2 = math.log(2.0)


def random_posterior(b, k, seed):
    logits = np.random.default_rng(seed).standard_normal((b, k))
    return bayes.PosteriorBatch(T.softmax(Tensor(logits)))


class TestClosedFormMI:
    def test_constant_posterior_is_zero(self):
        # dyadic entries make the column mean bit-exact, so MI is exactly 0
        q = np.array([0.25, 0.25, 0.5])
        p = bayes.PosteriorBatch(Tensor(np.tile(q, (8, 1))))
        assert mim.mi_closed_form(p).item() == 0.0
        # for arbitrary entries the mean rounds, leaving at most ulp-level MI
        q = np.array([0.1, 0.2, 0.7])
        p = bayes.PosteriorBatch(Tensor(np.tile(q, (8, 1))))
        assert abs(mim.mi_closed_form(p).item()) <= 1e-15

    def test_one_hot_balanced_reaches_log_k(self):
        p = bayes.PosteriorBatch(Tensor(np.eye(4)))
        expected = oracles.brute_force_mi(np.eye(4))
        assert abs(mim.mi_closed_form(p).item() - expected) <= 1e-12
        assert abs(expected - math.log(4)) <= 1e-12

    def test_matches_brute_force_on_random_batches(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            b, k = int(rng.integers(1, 33)), int(rng.integers(2, 6))
            p = random_posterior(b, k, seed + 1000)
            got = mim.mi_closed_form(p).item()
            want = oracles.brute_force_mi(p.values.data)
            assert abs(got - want) <= 1e-10, (seed, got, want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 64), st.integers(2, 8), st.integers(0, 99_999))
    def test_bounds(self, b, k, seed):
        v = mim.mi_closed_form(random_posterior(b, k, seed)).item()
        assert -1e-12 <= v <= math.log(k) + 1e-9


class TestV1Loss:
    def test_forward_value_is_negative_mi(self):
        p = random_posterior(16, 4, seed=0)
        loss = mim.mim_v1_loss(p, eps=0.0).item()
        assert abs(loss + mim.mi_closed_form(p).item()) <= 1e-12

    def test_constant_posterior_value_zero(self):
        p = bayes.PosteriorBatch(Tensor(np.tile([0.25, 0.75], (6, 1))))
        assert abs(mim.mim_v1_loss(p, eps=1e-7).item()) <= 1e-6

    def test_one_hot_balanced_value(self):
        p = bayes.PosteriorBatch(Tensor(np.eye(3)))
        assert abs(mim.mim_v1_loss(p, eps=0.0).item() + math.log(3)) <= 1e-12

    def test_gradient_equals_live_mi_gradient(self):
        # the stop-gradient loss must carry the FULL gradient of -MI
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            net = nn.build_mlp(3, [6], 4, seed=seed, softmax_head=True, activation="tanh")
            batch = rng.standard_normal((12, 3))
            params = net.parameters()

            out = net.forward(Tensor(batch))
            loss = mim.mim_v1_loss(bayes.PosteriorBatch(out), eps=0.0)
            analytic = T.gradients(loss, params)

            originals = {n: p.data for n, p in params.items()}

            def live_neg_mi(values):
                for n, p in params.items():
                    p.data = values[n]
                try:
                    o = net.forward(Tensor(batch)).data
                    prior = o.mean(axis=0)
                    return -float((o * (np.log(o) - np.log(prior))).sum(axis=1).mean())
                finally:
                    for n, p in params.items():
                        p.data = originals[n]

            numeric = oracles.finite_diff_grad(live_neg_mi, {n: p.data for n, p in params.items()})
            for name in params:
                rel = np.abs(analytic[name] - numeric[name]) / np.maximum(1.0, np.abs(analytic[name]))
                assert rel.max() <= 1e-4, (seed, name, rel.max())


class TestPriorPenalties:
    def test_v1_uniform_value(self):
        prior = bayes.PriorEstimate(Tensor([0.5, 0.5]), sample_count=10)
        assert abs(mim.uniform_prior_penalty_v1(prior).item() + LOG2) <= 1e-12

    def test_v1_peaked_value_near_zero(self):
        prior = bayes.PriorEstimate(Tensor([1.0, 0.0]), sample_count=10)
        assert abs(mim.uniform_prior_penalty_v1(prior).item()) <= 1e-6

    def test_v1_gradient_equal_entries_at_uniform(self):
        values = Tensor(np.full(4, 0.25), requires_grad=True)
        prior = bayes.PriorEstimate(values, sample_count=10)
        mim.uniform_prior_penalty_v1(prior).backward()
        np.testing.assert_allclose(values.grad, values.grad[0], atol=1e-12)

    def test_v2_uniform_value_k2(self):
        prior = bayes.PriorEstimate(Tensor([0.5, 0.5]), sample_count=10)
        assert abs(mim.uniform_prior_penalty_v2(prior).item() - 2 * LOG2) <= 1e-12

    def test_v2_gradient_vanishes_at_uniform(self):
        for k in (2, 3, 5):
            values = Tensor(np.full(k, 1.0 / k), requires_grad=True)
            prior = bayes.PriorEstimate(values, sample_count=10)
            mim.uniform_prior_penalty_v2(prior).backward()
            assert np.abs(values.grad).max() <= 1e-9, k

    def test_v2_boundary_prior_unguarded_is_domain_error(self):
        # log(0) at p = 0 and log(1 - p) at p = 1: a typed error, not a NaN
        prior = bayes.PriorEstimate(Tensor([1.0, 0.0]), sample_count=1)
        with pytest.raises(DomainError):
            mim.uniform_prior_penalty_v2(prior)
        row = T.reshape(prior.values, (1, 2))
        assert math.isfinite(T.state_objective(row, "v2", 1e-7, mi_weight=0.0)[0].item())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 99_999))
    def test_v2_minimized_at_uniform(self, k, seed):
        logits = np.random.default_rng(seed).standard_normal(k)
        p = np.exp(logits) / np.exp(logits).sum()
        random_val = mim.uniform_prior_penalty_v2(
            bayes.PriorEstimate(Tensor(p), sample_count=1)).item()
        uniform_val = mim.uniform_prior_penalty_v2(
            bayes.PriorEstimate(Tensor(np.full(k, 1.0 / k)), sample_count=1)).item()
        assert random_val >= uniform_val - 1e-12


class TestGradientStrength:
    def test_v2_root_at_uniform(self):
        for k in (2, 4, 8):
            _, v2 = mim.prior_gradient_strength(1.0 / k, k)
            assert abs(v2) <= 1e-12

    def test_near_collapse_values(self):
        v1, v2 = mim.prior_gradient_strength(0.999, 2)
        assert abs(abs(v1) - 1.0005e-3) <= 1e-6
        assert abs(abs(v2) - 499.5) <= 0.01
        assert abs(v2 / v1) > 100

    def test_half_value(self):
        v1, _ = mim.prior_gradient_strength(0.5, 2)
        assert abs(v1 + LOG2) <= 1e-12

    def test_boundary_rejected(self):
        with pytest.raises(DegeneratePriorError):
            mim.prior_gradient_strength(0.0, 2)
        with pytest.raises(DegeneratePriorError):
            mim.prior_gradient_strength(1.0, 2)

    def test_monotone_strength_near_one(self):
        ps = np.linspace(0.901, 0.999, 50)
        v1 = np.array([abs(mim.prior_gradient_strength(p, 2)[0]) for p in ps])
        v2 = np.array([abs(mim.prior_gradient_strength(p, 2)[1]) for p in ps])
        assert np.all(np.diff(v2) > 0)
        assert np.all(np.diff(v1) < 0)


class TestCollectStates:
    def test_dense_taps_never_pooled(self):
        states = [Tensor(np.random.default_rng(i).standard_normal((4, 6))) for i in range(4)]
        sc = mim.collect_states(states, mim.MimConfig(use_scales=False))
        assert len(sc) == 4
        sc2 = mim.collect_states(states, mim.MimConfig(use_scales=True))
        assert len(sc2) == 4  # no spatial axes, nothing to pool

    def test_spatial_taps_add_pooled_copies(self):
        rng = np.random.default_rng(0)
        states = [Tensor(rng.standard_normal((2, 3, 8, 8))) for _ in range(4)]
        sc = mim.collect_states(states, mim.MimConfig(use_scales=True))
        assert len(sc) == 8
        ids = [s.state_id for s in sc]
        assert ids[:4] == ["h0", "h1", "h2", "h3"] and ids[4:] == [
            "h0_pooled", "h1_pooled", "h2_pooled", "h3_pooled"]
        assert sc[4].values.shape == (2, 3, 4, 4)

    def test_every_location_is_a_posterior(self):
        rng = np.random.default_rng(1)
        states = [Tensor(rng.standard_normal((3, 4, 2, 2))), Tensor(rng.standard_normal((3, 5)))]
        sc = mim.collect_states(states, mim.MimConfig(use_scales=True))
        for st in sc:
            v = st.values.data
            locations = [v]
            if v.ndim == 4:
                locations = [v[:, :, h, w] for h in range(v.shape[2]) for w in range(v.shape[3])]
            for posterior in locations:
                assert abs(posterior.sum(axis=1) - 1.0).max() <= 1e-9


class TestV2Loss:
    def test_single_state_reduction(self):
        p = random_posterior(10, 3, seed=2)
        cfg = mim.MimConfig(alpha=0.0, beta=0.0)
        sc = (mim.SoftmaxState("h0", p.values),)
        total, terms = mim.mim_v2_loss(sc, cfg)
        v = p.values
        mi = -float((v.data * np.log(v.data + 1e-7)).sum(axis=1).mean())
        prior = v.data.mean(axis=0)
        rp = -float((np.log(prior + 1e-7) / 3 + 2 / 3 * np.log(1 - prior + 1e-7)).sum())
        assert abs(total.item() - (mi + rp)) <= 1e-12
        assert abs(terms["mi"] + terms["prior"] - total.item()) <= 1e-15

    def test_uniform_point_value(self):
        cfg = mim.MimConfig(alpha=0.0, beta=0.0)
        values = Tensor(np.full((6, 2), 0.5))
        sc = (mim.SoftmaxState("h0", values),)
        total, _ = mim.mim_v2_loss(sc, cfg)
        assert abs(total.item() - 3 * LOG2) <= 1e-6  # entropy log2 + penalty 2*log2

    def test_report_parts_sum(self):
        rng = np.random.default_rng(3)
        states = [Tensor(rng.standard_normal((8, 4))), Tensor(rng.standard_normal((8, 4, 2, 2)))]
        sc = mim.collect_states(states, mim.MimConfig(use_scales=True))
        cfg = mim.MimConfig(alpha=1.5, beta=2.0)
        total, terms = mim.mim_v2_loss(sc, cfg)
        assert list(terms) == ["mi", "prior"]
        assert abs(total.item() - (terms["mi"] + terms["prior"])) <= 1e-12
        # the closure adds beta * R_c itself: its parts sum to its total
        net = small_cnn()
        xb = Tensor(rng.standard_normal((8, 1, 10, 10)))
        _, terms = mim.make_mim_objective(cfg)(net, xb, np.random.default_rng(4))
        assert abs(terms["total"] - (terms["mi"] + terms["prior"] + terms["smooth"])) <= 1e-12

    def test_spatial_state_averages_locations(self):
        rng = np.random.default_rng(4)
        flat = rng.standard_normal((5, 3))
        spatial = np.stack([flat] * 4, axis=-1).reshape(5, 3, 2, 2)  # same posterior at 4 locations
        cfg = mim.MimConfig(alpha=0.0, beta=0.0)
        a, _ = mim.mim_v2_loss(mim.collect_states([Tensor(flat)], cfg), cfg)
        b, _ = mim.mim_v2_loss(mim.collect_states([Tensor(spatial)], cfg), cfg)
        assert abs(a.item() - b.item()) <= 1e-12

    def test_v1_prior_form_switch(self):
        p = random_posterior(10, 3, seed=5)
        cfg = mim.MimConfig(alpha=0.0, beta=0.0)
        sc = (mim.SoftmaxState("h0", p.values),)
        v2_total, _ = mim.mim_v2_loss(sc, cfg, prior_form="v2")
        v1_total, _ = mim.mim_v2_loss(sc, cfg, prior_form="v1")
        assert v1_total.item() != v2_total.item()
        assert abs(v1_total.item() - mim.mim_v1_loss(p).item()) <= 1e-12

    def test_empty_collection_rejected(self):
        with pytest.raises(ConfigError):
            mim.mim_v2_loss((), mim.MimConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            mim.MimConfig(alpha=-1.0)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field}={value}"):
            mim.MimConfig(**{field: value})


def guarded_log(t, eps):
    """log(t + eps) with t's exact zeros read as 1, so their terms are
    0*log(1 + eps) = 0, the masking state_objective applies."""
    return T.log(t + Tensor((t.data <= 0.0).astype(np.float64)) + eps)


def chain_state_terms(v, eps, form):
    """A state's MI term and prior penalty as the elementwise tape chain the
    loss was once built from (a test-only reference for state_objective)."""
    mi = T.neg(T.tmean(T.tsum(v * guarded_log(T.stop_gradient(v), eps), axis=1)))
    prior = T.tmean(v, axis=0)
    K = prior.shape[0]
    if form == "v1":
        penalty = T.tsum(prior * guarded_log(T.stop_gradient(prior), eps), axis=0)
    else:
        a = T.tsum(T.log(prior + eps), axis=0)
        b = T.tsum(T.log((1.0 - prior) + eps), axis=0)
        penalty = T.neg(a * (1.0 / K) + b * ((K - 1.0) / K))
    return mi, penalty if penalty.ndim == 0 else T.tmean(penalty)


def chain_mim_v2_loss(sc, cfg, rc=None, prior_form="v2"):
    """mim_v2_loss over chain_state_terms, summed term by term, plus
    beta * rc as the objective closure adds it (reference)."""
    pairs = [chain_state_terms(st.values, bayes.LOG_GUARD, prior_form) for st in sc]
    mi_total, rp_total = pairs[0]
    for mi, rp in pairs[1:]:
        mi_total, rp_total = mi_total + mi, rp_total + rp
    mi_total = mi_total * (1.0 / len(sc))
    rp_total = rp_total * ((1.0 + cfg.alpha) / len(sc))
    total = mi_total + rp_total
    smooth = 0.0
    if rc is not None:
        smooth = (rc * cfg.beta).item()
        total = total + rc * cfg.beta
    return total, (mi_total.item(), rp_total.item(), smooth)


def state_posterior(rng, b, k, spatial, zeros):
    """A softmax posterior, (b, k) or batch-last (b, k, 3, 2), optionally with
    exact zeros (the rows renormalized)."""
    shape = (b, k, 3, 2) if spatial else (b, k)
    v = np.exp(rng.standard_normal(shape))
    if zeros:
        v[rng.random(shape) < 0.2] = 0.0
        v[:, 0] += 0.1  # every row keeps some mass
    v /= v.sum(axis=1, keepdims=True)
    if spatial:
        v = np.ascontiguousarray(v.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    return v


def max_grad_gap(grads, ref_grads):
    """Largest gradient difference relative to the largest reference |g| over
    all tensors (a per-tensor relative check is meaningless for a tensor
    whose gradient is near zero)."""
    scale = max(float(np.abs(g).max()) for g in ref_grads.values())
    return max(float(np.abs(grads[n] - g).max()) for n, g in ref_grads.items()) / scale


class TestStateObjective:
    WEIGHTS = ((1.0, 1.0), (0.25, 1.75), (0.0, 1.0), (1.0, 0.0))

    @pytest.mark.parametrize("form", ["v1", "v2"])
    @pytest.mark.parametrize("spatial", [False, True])
    @pytest.mark.parametrize("eps", [0.0, 1e-7])
    def test_matches_reference_chain(self, form, spatial, eps):
        rng = np.random.default_rng([int(form[1]), int(spatial), int(eps > 0.0)])
        for k in range(2, 11):
            for zeros in (False, True):
                data = state_posterior(rng, 7, k, spatial, zeros)
                for mw, pw in self.WEIGHTS:
                    v = Tensor(data, requires_grad=True)
                    node, mi, rp = T.state_objective(v, form, eps, mw, pw)
                    node.backward()
                    ref_v = Tensor(data, requires_grad=True)
                    ref_mi, ref_rp = chain_state_terms(ref_v, eps, form)
                    ref = ref_mi * mw + ref_rp * pw
                    ref.backward()
                    case = (k, zeros, mw, pw)
                    for got, want in ((node.item(), ref.item()), (mi, ref_mi.item()),
                                      (rp, ref_rp.item())):
                        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), case
                    assert v.grad.shape == data.shape
                    gap = np.abs(v.grad - ref_v.grad).max() / max(1e-300, np.abs(ref_v.grad).max())
                    assert gap <= 1e-12, case

    def test_v2_boundary_prior_unguarded_is_domain_error(self):
        v = Tensor([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            T.state_objective(v, "v2", 0.0)
        T.state_objective(v, "v1", 0.0)  # v1's logs are guarded at exact zeros

    def test_rejects_unknown_form_and_shape(self):
        with pytest.raises(ConfigError):
            T.state_objective(Tensor(np.full((2, 2), 0.5)), "v3", 1e-7)
        with pytest.raises(ConfigError):
            mim.mim_v2_loss((mim.SoftmaxState("h0", Tensor(np.full((2, 2), 0.5))),),
                            mim.MimConfig(), prior_form="v3")
        with pytest.raises(ShapeError):
            T.state_objective(Tensor(np.full((2, 2, 2), 0.5)), "v1", 1e-7)

    def test_one_row_batch_is_its_prior(self):
        # uniform_prior_penalty_v2 is the node on a one-row batch: its gradient
        # is the v2 penalty's derivative -(1/K)/p + ((K-1)/K)/(1-p)
        p = np.array([0.2, 0.3, 0.5])
        values = Tensor(p, requires_grad=True)
        mim.uniform_prior_penalty_v2(bayes.PriorEstimate(values, 1)).backward()
        np.testing.assert_allclose(values.grad, -(1 / 3) / p + (2 / 3) / (1 - p),
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("v1", [False, True])
    @pytest.mark.parametrize("make_net,shape", [(lambda: small_cnn(), (8, 1, 10, 10)),
                                                (lambda: small_mlp(), (8, 5))],
                             ids=["cnn", "mlp"])
    def test_objective_matches_reference_chain(self, v1, make_net, shape):
        cfg = mim.MimConfig(alpha=2.0, beta=4.0, use_scales=True)
        net, ref_net = make_net(), make_net()
        xb = Tensor(np.random.default_rng(7).standard_normal(shape))
        loss, terms = mim.make_mim_objective(cfg, v1=v1)(net, xb, np.random.default_rng(8))

        _, states = ref_net.forward_with_states(xb, "train")
        rc = dml.smoothness_penalty(lambda t: pooled_final_state(ref_net, t, "batch"), xb,
                                    mim._pooled_vector(states[-1]), np.random.default_rng(8))
        ref, ref_parts = chain_mim_v2_loss(mim.collect_states(states, cfg), cfg, rc,
                                           "v1" if v1 else "v2")
        assert abs(loss.item() - ref.item()) <= 1e-12 * max(1.0, abs(ref.item()))
        for got, want in zip((terms["mi"], terms["prior"], terms["smooth"]), ref_parts):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        grads = T.gradients(loss, net.parameters())
        assert max_grad_gap(grads, T.gradients(ref, ref_net.parameters())) <= 1e-12


def tape_ops(loss):
    """Op counts of every node reachable from ``loss`` through its parents."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return Counter(node.op for node in seen.values())


def test_one_tape_node_per_state():
    cfg = mim.MimConfig(alpha=2.0, beta=4.0, use_scales=True)
    net = small_cnn()
    xb = Tensor(np.random.default_rng(9).standard_normal((6, 1, 10, 10)))
    loss, _ = mim.make_mim_objective(cfg)(net, xb, np.random.default_rng(10))
    with T.no_tape():
        states = mim.collect_states(net.forward_with_states(xb, "batch")[1], cfg)
    ops = tape_ops(loss)
    assert len(states) == 4
    assert ops["state_objective"] == ops["softmax"] == len(states)
    assert not {"log", "stop_gradient", "neg"} & set(ops), ops


def pooled_final_state(net, x, mode):
    """The smoothness target of a fresh ``mode`` forward of ``x``: the last
    tapped state, pooled to (B, C) (a test-only reference)."""
    _, states = net.forward_with_states(x, mode)
    return mim._pooled_vector(states[-1])


def three_forward_mim(cfg):
    """The objective as written before it reused its clean forward: the
    smoothness target of the clean batch came from a second train-mode
    forward (a test-only reference)."""

    def objective(net, xb, rng):
        _, states = net.forward_with_states(xb, "train")
        rc = None
        if cfg.beta > 0.0:
            def target(t):
                return pooled_final_state(net, t, "train")

            rc = dml.smoothness_penalty(target, xb, target(xb), rng)
        loss = mim.mim_v2_loss(mim.collect_states(states, cfg), cfg)[0]
        return loss if rc is None else loss + rc * cfg.beta

    return objective


CNN_ARCH = "C(4,3,1,0)-P(2,2,0,max)-C(6,3,1,0)"


def small_cnn():
    return nn.build_cnn(CNN_ARCH, (1, 10, 10), seed=3, batchnorm=True)


def small_mlp():
    return nn.build_mlp(5, [7, 6], None, seed=4, batchnorm=True)


class TestCleanForwardReuse:
    @pytest.mark.parametrize("beta,forwards", [(4.0, 2), (0.0, 1)])
    def test_forwards_per_call(self, beta, forwards):
        net = CountingNet(small_cnn())
        objective = mim.make_mim_objective(mim.MimConfig(alpha=1.0, beta=beta, use_scales=True))
        objective(net, Tensor(np.random.default_rng(0).standard_normal((6, 1, 10, 10))),
                  np.random.default_rng(1))
        assert net.calls == forwards

    @pytest.mark.parametrize("make_net,shape", [(small_cnn, (8, 1, 10, 10)),
                                                (small_mlp, (8, 5))])
    def test_matches_three_forward_reference(self, make_net, shape):
        cfg = mim.MimConfig(alpha=2.0, beta=4.0, use_scales=True)
        net = make_net()
        xb = Tensor(np.random.default_rng(2).standard_normal(shape))
        loss, _ = mim.make_mim_objective(cfg)(net, xb, np.random.default_rng(3))
        ref_net = make_net()
        ref_loss = three_forward_mim(cfg)(ref_net, xb, np.random.default_rng(3))
        assert loss.data.tobytes() == ref_loss.data.tobytes()
        grads = T.gradients(loss, net.parameters())
        ref_grads = T.gradients(ref_loss, ref_net.parameters())
        for name, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-12, err_msg=name)

    def test_running_stats_move_once(self):
        net = small_cnn()
        xb = Tensor(np.random.default_rng(5).standard_normal((6, 1, 10, 10)) + 0.5)
        mim.make_mim_objective(mim.MimConfig(beta=4.0))(net, xb, np.random.default_rng(6))
        assert_moved_once(net, small_cnn(), xb)
