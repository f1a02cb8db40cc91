"""Differentiation-core contracts: forward values, gradients, stop-gradient."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbayes import mim, nn, oracles
from neuralbayes import tensor as T
from neuralbayes.errors import ConfigError, DomainError, ShapeError
from neuralbayes.tensor import Tensor


def fd_check(build, params, tol=1e-4):
    """Compare analytic gradients of build(params) -> scalar Tensor with
    central finite differences, relative to max(1, |analytic|)."""
    analytic = T.gradients(build(params), params)

    def value(arrs):
        frozen = {k: Tensor(v, requires_grad=True) for k, v in arrs.items()}
        return build(frozen).item()

    numeric = oracles.finite_diff_grad(value, {k: p.data for k, p in params.items()})
    for name in params:
        rel = np.abs(analytic[name] - numeric[name]) / np.maximum(1.0, np.abs(analytic[name]))
        assert rel.max() <= tol, f"{name}: rel err {rel.max():.3e}"


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            Tensor([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(DomainError):
            Tensor([[float("inf")]])

    def test_float64(self):
        assert Tensor([1, 2]).data.dtype == np.float64


class TestElementwise:
    def test_log_of_one(self):
        np.testing.assert_array_equal(T.log(Tensor([1.0])).data, [0.0])

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            T.log(Tensor([0.0]))
        with pytest.raises(DomainError):
            T.log(Tensor([-1.0]))

    def test_x_log_x_gradient_at_one(self):
        # d/dx (x log x) = log x + 1 -> 1 at x = 1
        x = Tensor([1.0], requires_grad=True)
        y = T.tsum(x * T.log(x))
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0], atol=1e-12)
        numeric = oracles.finite_diff_grad(
            lambda p: float(p["x"][0] * np.log(p["x"][0])), {"x": np.array([1.0])})
        np.testing.assert_allclose(x.grad, numeric["x"], atol=1e-6)

    def test_broadcast_leading_batch_axis(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor([1.0, 2.0], requires_grad=True)
        out = x + b
        assert out.shape == (3, 2)
        T.tsum(out).backward()
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    def test_scalar_broadcast(self):
        x = Tensor([[2.0, 4.0]])
        np.testing.assert_array_equal((x / 2.0).data, [[1.0, 2.0]])
        np.testing.assert_array_equal((1.0 - x).data, [[-1.0, -3.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((3, 2))) + Tensor(np.ones((4, 2)))

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
    def test_binary_gradients(self, op):
        rng = np.random.default_rng(3)
        params = {"a": Tensor(rng.uniform(0.5, 2.0, (4, 3)), requires_grad=True),
                  "b": Tensor(rng.uniform(0.5, 2.0, (4, 3)), requires_grad=True)}
        fd_check(lambda p: T.tsum(op(p["a"], p["b"]) * op(p["a"], p["b"])), params)

    @pytest.mark.parametrize("op", [T.neg, T.log, T.tanh])
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(4)
        params = {"x": Tensor(rng.uniform(0.5, 2.0, (5,)), requires_grad=True)}
        fd_check(lambda p: T.tsum(op(p["x"]) * op(p["x"])), params)

    def test_relu_gradient_away_from_kink(self):
        params = {"x": Tensor([-2.0, -0.5, 0.5, 2.0], requires_grad=True)}
        fd_check(lambda p: T.tsum(T.relu(p["x"]) * T.relu(p["x"])), params)


class TestLinear:
    def test_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(30)
        x, w, b = rng.standard_normal((6, 4)), rng.standard_normal((3, 4)), rng.standard_normal(3)
        out = T.linear(Tensor(x), Tensor(w), Tensor(b))
        assert out.op == "linear" and out.shape == (6, 3)
        np.testing.assert_allclose(out.data, x @ w.T + b, rtol=0, atol=1e-13)

    @staticmethod
    def _fd_case(x_grad, relu, bias=True):
        rng = np.random.default_rng(31)
        params = {"w": Tensor(rng.standard_normal((3, 5)), requires_grad=True),
                  "b": Tensor(rng.standard_normal(3), requires_grad=True)}
        x = Tensor(rng.standard_normal((7, 5)), requires_grad=x_grad)
        if x_grad:
            params["x"] = x
        if not bias:
            del params["b"]
        wgt = rng.standard_normal((7, 3))

        def forward(p):
            return T.linear(p.get("x", x), p["w"], p.get("b"), relu=relu)

        assert len(forward(params)._parents) == 2 + bias
        fd_check(lambda p: T.tsum(forward(p) * wgt), params)

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_gradient_vs_finite_differences(self, x_grad):
        self._fd_case(x_grad, relu=False)

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_relu_gradient_vs_finite_differences(self, x_grad):
        self._fd_case(x_grad, relu=True)

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_no_bias_gradient_vs_finite_differences(self, x_grad):
        self._fd_case(x_grad, relu=False, bias=False)

    def test_no_bias_is_a_zero_bias(self):
        rng = np.random.default_rng(33)
        x, w = Tensor(rng.standard_normal((6, 4))), Tensor(rng.standard_normal((3, 4)))
        out = T.linear(x, w, None)
        assert out.op == "linear" and out._parents == (x, w)
        assert np.array_equal(out.data, T.linear(x, w, np.zeros(3)).data)

    def test_relu_is_relu_of_linear(self):
        rng = np.random.default_rng(32)
        leaves = [Tensor(rng.standard_normal(s), requires_grad=True) for s in ((9, 5), (4, 5), (4,))]
        weights = rng.standard_normal((9, 4))
        runs = []
        for fused in (True, False):
            out = T.linear(*leaves, relu=True) if fused else T.relu(T.linear(*leaves))
            runs.append((out, T.gradients(T.tsum(out * weights), dict(enumerate(leaves)))))
        (out, grads), (ref, ref_grads) = runs
        assert out.op == "linear" and out.data.tobytes() == ref.data.tobytes()
        assert np.any(out.data == 0.0) and np.any(out.data > 0.0)
        for key, g in grads.items():
            assert g.tobytes() == ref_grads[key].tobytes(), key

    def test_shapes_checked(self):
        x, w = Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4)))
        with pytest.raises(ShapeError):
            T.linear(x, Tensor(np.ones((3, 5))), Tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            T.linear(x, w, Tensor(np.ones(4)))
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones(4)), w, Tensor(np.ones(3)))


class TestNoTape:
    def _forward(self, net, x):
        out, states = net.forward_with_states(Tensor(x), "eval")
        return [out] + states

    def test_forward_bitwise_equal_and_unrecorded(self):
        net = nn.build_cnn("C(4,3,1,1)-P(2,2,0,max)-C(5,3,1,0)-FC(3)", (2, 8, 8), seed=4,
                           softmax_head=True)
        x = np.random.default_rng(32).standard_normal((3, 2, 8, 8))
        taped = self._forward(net, x)
        with T.no_tape():
            bare = self._forward(net, x)
        for a, b in zip(taped, bare):
            assert a.data.tobytes() == b.data.tobytes()
            assert a._parents and a.requires_grad
            assert b._parents == () and not b.requires_grad

    def test_recording_resumes_after_exit_and_exception(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with T.no_tape():
            assert (w * 2.0)._parents == ()
        assert (w * 2.0)._parents
        with pytest.raises(DomainError):
            with T.no_tape():
                T.log(w - 1.0)
        out = T.tsum(T.log(w * 2.0))
        out.backward()
        np.testing.assert_allclose(w.grad, np.ones((2, 2)), rtol=0, atol=1e-15)


class TestSoftmax:
    def test_uniform_row(self):
        out = T.softmax(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_extreme_logits_no_overflow(self):
        out = T.softmax(Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = T.softmax(Tensor(rng.standard_normal((16, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((4, 5))
        a = T.softmax(Tensor(logits)).data
        b = T.softmax(Tensor(logits + 7.3)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_jacobian_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        params = {"x": Tensor(rng.standard_normal((1, 4)), requires_grad=True)}
        w = rng.standard_normal((1, 4))
        fd_check(lambda p: T.tsum(T.softmax(p["x"]) * w), params, tol=1e-5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 10_000))
    def test_rows_sum_property(self, b, k, seed):
        logits = np.random.default_rng(seed).uniform(-30, 30, (b, k))
        out = T.softmax(Tensor(logits))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


class TestReductions:
    def test_mean_rows_constant(self):
        out = T.tmean(Tensor([[2.0, 3.0], [2.0, 3.0], [2.0, 3.0]]), axis=0)
        np.testing.assert_array_equal(out.data, [2.0, 3.0])

    def test_mean_rows_swap(self):
        out = T.tmean(Tensor([[0.0, 1.0], [1.0, 0.0]]), axis=0)
        np.testing.assert_array_equal(out.data, [0.5, 0.5])

    def test_mean_backward_is_one_over_b(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        T.tsum(T.tmean(x, axis=0)).backward()
        np.testing.assert_allclose(x.grad, np.full((3, 2), 1 / 3), atol=1e-15)
        params = {"x": Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)}
        fd_check(lambda p: T.tsum(T.tmean(p["x"], axis=0) * T.tmean(p["x"], axis=0)), params)

    def test_empty_mean_rejected(self):
        with pytest.raises(ShapeError):
            T.tmean(Tensor(np.zeros((0, 2))))

    def test_mean_all_scalar(self):
        assert T.tmean(Tensor([[1.0, 3.0]])).item() == 2.0


def loop_pool(x, kernel, stride, mode):
    """Reference pooling: one window per output position, the max-pool
    gradient routed by argmax (first maximum in row-major window order) and
    scattered with ``np.add.at``.  Returns (output, vjp) where ``vjp(g)`` is
    the input gradient for an output gradient ``g``."""
    B, C, H, W = x.shape
    kh, kw = min(kernel, H), min(kernel, W)
    oh, ow = (H - kh) // stride + 1, (W - kw) // stride + 1
    out = np.empty((B, C, oh, ow))
    argmax = np.empty((B, C, oh, ow), dtype=np.intp)
    for i in range(oh):
        for j in range(ow):
            win = x[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
            flat = win.reshape(B, C, kh * kw)
            argmax[:, :, i, j] = flat.argmax(axis=2)
            out[:, :, i, j] = flat.max(axis=2) if mode == "max" else flat.mean(axis=2)

    def vjp(g):
        gx = np.zeros_like(x)
        bb, cc = np.meshgrid(np.arange(B), np.arange(C), indexing="ij")
        for i in range(oh):
            for j in range(ow):
                if mode == "max":
                    di, dj = np.divmod(argmax[:, :, i, j], kw)
                    np.add.at(gx, (bb, cc, i * stride + di, j * stride + dj), g[:, :, i, j])
                else:
                    gx[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw] += (
                        g[:, :, i, j][:, :, None, None] / (kh * kw))
        return gx

    return out, vjp


POOLS = {"max": T.max_pool2d, "avg": T.avg_pool2d}


class TestPooling:
    def test_avg_pool_constant(self):
        x = Tensor(np.full((2, 3, 4, 4), 5.0))
        out = T.avg_pool2d(x)
        assert out.shape == (2, 3, 2, 2)
        np.testing.assert_array_equal(out.data, np.full((2, 3, 2, 2), 5.0))

    def test_avg_pool_window_mean(self):
        x = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2))
        np.testing.assert_array_equal(T.avg_pool2d(x).data, [[[[4.0]]]])

    def test_kernel_clamps_to_small_maps(self):
        x = Tensor(np.arange(3.0).reshape(1, 1, 1, 3))
        out = T.avg_pool2d(x, kernel=2, stride=2)  # height 1 < kernel
        assert out.shape == (1, 1, 1, 1)
        np.testing.assert_array_equal(out.data.ravel(), [0.5])

    def test_avg_pool_gradient(self):
        rng = np.random.default_rng(8)
        params = {"x": Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)}
        fd_check(lambda p: T.tsum(T.avg_pool2d(p["x"]) * T.avg_pool2d(p["x"])), params)

    def test_max_pool_gradient(self):
        rng = np.random.default_rng(9)
        params = {"x": Tensor(rng.permutation(36).reshape(1, 1, 6, 6) * 1.0, requires_grad=True)}
        fd_check(lambda p: T.tsum(T.max_pool2d(p["x"]) * T.max_pool2d(p["x"])), params)

    # (shape, kernel, stride): overlapping windows, 5x5 maps cropped by k2s2,
    # a kernel clamped to a 1-row map, and a whole (non-square) map as one window
    GEOMETRIES = [((2, 3, 6, 6), 3, 1), ((2, 2, 7, 5), 3, 2), ((2, 3, 5, 5), 2, 2),
                  ((2, 2, 1, 5), 2, 2), ((2, 3, 5, 4), 5, 5)]

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("shape,kernel,stride", GEOMETRIES)
    def test_matches_window_loop(self, mode, shape, kernel, stride):
        rng = np.random.default_rng(20)
        x = rng.standard_normal(shape)
        ref, vjp = loop_pool(x, kernel, stride, mode)
        xt = Tensor(x, requires_grad=True)
        out = POOLS[mode](xt, kernel, stride)
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)
        g = rng.standard_normal(ref.shape)
        T.tsum(out * Tensor(g)).backward()
        np.testing.assert_allclose(xt.grad, vjp(g), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("shape,kernel,stride", GEOMETRIES)
    def test_gradient_vs_finite_differences(self, mode, shape, kernel, stride):
        rng = np.random.default_rng(21)
        # distinct entries at least 1 apart, so no max is tied within a step of h
        x = rng.permutation(int(np.prod(shape))).reshape(shape) * 1.0
        w = rng.standard_normal(loop_pool(x, kernel, stride, mode)[0].shape)
        params = {"x": Tensor(x, requires_grad=True)}
        fd_check(lambda p: T.tsum(POOLS[mode](p["x"], kernel, stride) * w), params)

    def test_spatial_all_avg_pool_layer(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((3, 4, 5, 3))
        layer = nn.AvgPool2dLayer(spatial_all=True)
        out = layer.forward(Tensor(x), "eval")
        assert out.shape == (3, 4, 1, 1)
        np.testing.assert_allclose(out.data[:, :, 0, 0], x.mean(axis=(2, 3)), rtol=0, atol=1e-12)
        params = {"x": Tensor(x, requires_grad=True)}
        w = rng.standard_normal((3, 4, 1, 1))
        fd_check(lambda p: T.tsum(layer.forward(p["x"], "train") * w), params)

    @pytest.mark.parametrize("shape", [(50, 128, 5, 5), (3, 500, 2, 2), (50, 64, 7, 7),
                                       (7, 6, 3, 4)])
    def test_global_mean_is_the_windowed_pool_bitwise(self, shape):
        # a conv output (stored batch-last) pooled to 1x1 by the layer, by
        # the MIM objective's pooled state and by one window of the map
        B, C, H, W = shape
        rng = np.random.default_rng(23)
        conv = T.conv2d(Tensor(rng.standard_normal((B, 2, H + 2, W + 2))),
                        Tensor(rng.standard_normal((C, 2, 3, 3))), Tensor(np.zeros(C)))
        g = rng.standard_normal((B, C, 1, 1))
        runs = []
        for pool in (lambda t: nn.AvgPool2dLayer(spatial_all=True).forward(t, "train"),
                     lambda t: T.reshape(mim._pooled_vector(t), (B, C, 1, 1)),
                     lambda t: T.avg_pool2d(t, max(H, W), max(H, W))):
            y = Tensor(conv.data, requires_grad=True)
            out = pool(y)
            T.tsum(out * g).backward()
            runs.append((out.data.tobytes(), y.grad.tobytes()))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (3, 2), (2, 1)])
    def test_max_pool_ties_route_to_first_maximum(self, kernel, stride):
        rng = np.random.default_rng(23)
        x = rng.integers(0, 3, (2, 3, 7, 7)) * 1.0  # many tied maxima per window
        ref, vjp = loop_pool(x, kernel, stride, "max")
        xt = Tensor(x, requires_grad=True)
        out = T.max_pool2d(xt, kernel, stride)
        np.testing.assert_array_equal(out.data, ref)
        g = rng.standard_normal(ref.shape)
        T.tsum(out * Tensor(g)).backward()
        np.testing.assert_allclose(xt.grad, vjp(g), rtol=0, atol=1e-12)

    def test_max_pool_tie_hand_case(self):
        # all four entries tie: the whole gradient goes to the top-left one
        x = Tensor(np.full((1, 1, 2, 2), 7.0), requires_grad=True)
        T.tsum(T.max_pool2d(x) * 3.0).backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[3.0, 0.0], [0.0, 0.0]])
        # the later of two tied maxima in row-major order gets nothing
        x = Tensor(np.array([[[[0.0, 5.0], [5.0, 1.0]]]]), requires_grad=True)
        T.tsum(T.max_pool2d(x)).backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])

    # windows that tile the map, which the backward writes straight into an
    # uninitialised buffer: k2 s2, k3 s3 on a non-square map, a kernel
    # clamped to a one-row map, a whole map; and near misses that must add
    # onto zeros: overlapping windows whose count times size still equals
    # the map (k3 s2 on 6), a cropped last row and column, and gaps (k2 s3)
    TILINGS = [((2, 3, 6, 6), 2, 2), ((2, 2, 6, 9), 3, 3), ((2, 2, 1, 4), 2, 2),
               ((2, 3, 5, 4), 5, 5)]
    NEAR_MISSES = [((2, 3, 6, 6), 3, 2), ((2, 3, 5, 5), 2, 2), ((2, 2, 7, 6), 2, 3)]

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("shape,kernel,stride", TILINGS + NEAR_MISSES)
    def test_backward_on_tilings_and_near_misses(self, mode, shape, kernel, stride):
        rng = np.random.default_rng(32)
        x = rng.integers(0, 3, shape) * 1.0 if mode == "max" else rng.standard_normal(shape)
        ref, vjp = loop_pool(x, kernel, stride, mode)
        xt = Tensor(x, requires_grad=True)
        out = POOLS[mode](xt, kernel, stride)
        g = rng.standard_normal(ref.shape)
        poison = np.full(x.shape, np.nan)  # freed memory of the gradient's size,
        del poison                         # which a fresh buffer most likely reuses
        out._backward(g)
        np.testing.assert_allclose(xt.grad, vjp(g), rtol=0, atol=1e-12)

    def test_rank_checked(self):
        with pytest.raises(ShapeError):
            T.max_pool2d(Tensor(np.ones((2, 4, 4))))
        with pytest.raises(ShapeError):
            T.avg_pool2d(Tensor(np.ones((2, 4, 4))))


class TestConv:
    @staticmethod
    def direct_conv(x, w, b, stride, padding):
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        B, C, H, W = xp.shape
        O, _, kh, kw = w.shape
        oh, ow = (H - kh) // stride + 1, (W - kw) // stride + 1
        out = np.zeros((B, O, oh, ow))
        for bb in range(B):
            for o in range(O):
                for i in range(oh):
                    for j in range(ow):
                        acc = b[o]
                        for c in range(C):
                            for di in range(kh):
                                for dj in range(kw):
                                    acc += xp[bb, c, i * stride + di, j * stride + dj] * w[o, c, di, dj]
                        out[bb, o, i, j] = acc
        return out

    @staticmethod
    def offset_loop_conv(x, w, b, stride, padding):
        """Reference: one einsum per kernel offset, forward and gradients.
        Returns (output, vjp) with ``vjp(g) -> (gx, gw, gb)``."""
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        _, _, kh, kw = w.shape
        oh = (xp.shape[2] - kh) // stride + 1
        ow = (xp.shape[3] - kw) // stride + 1

        def window(di, dj):
            return (slice(None), slice(None), slice(di, di + oh * stride, stride),
                    slice(dj, dj + ow * stride, stride))

        out = b[None, :, None, None] + sum(
            np.einsum("bchw,oc->bohw", xp[window(di, dj)], w[:, :, di, dj])
            for di in range(kh) for dj in range(kw))

        def vjp(g):
            gxp, gw = np.zeros_like(xp), np.zeros_like(w)
            for di in range(kh):
                for dj in range(kw):
                    gw[:, :, di, dj] = np.einsum("bohw,bchw->oc", g, xp[window(di, dj)])
                    gxp[window(di, dj)] += np.einsum("bohw,oc->bchw", g, w[:, :, di, dj])
            gx = gxp[:, :, padding:xp.shape[2] - padding, padding:xp.shape[3] - padding]
            return gx, gw, g.sum(axis=(0, 2, 3))

        return out, vjp

    # (x shape, kernels shape, stride, padding)
    CASES = [((2, 3, 5, 5), (4, 3, 3, 3), 1, 0), ((2, 3, 5, 5), (4, 3, 3, 3), 1, 1),
             ((2, 3, 5, 5), (4, 3, 3, 3), 2, 0), ((2, 3, 5, 5), (4, 3, 3, 3), 2, 1),
             ((3, 1, 6, 7), (5, 1, 3, 3), 1, 0), ((2, 2, 6, 5), (3, 2, 2, 2), 2, 1)]

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_direct_summation(self, stride, padding):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, self.direct_conv(x, w, b, stride, padding), atol=1e-12)

    def test_single_input_channel_matches_direct_summation(self):
        rng = np.random.default_rng(12)
        x, w, b = rng.standard_normal((3, 1, 6, 7)), rng.standard_normal((5, 1, 3, 3)), rng.standard_normal(5)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, self.direct_conv(x, w, b, 1, 0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("xs,ws,stride,padding", CASES)
    def test_matches_offset_loop(self, xs, ws, stride, padding):
        rng = np.random.default_rng(24)
        x, w, b = rng.standard_normal(xs), rng.standard_normal(ws), rng.standard_normal(ws[0])
        ref, vjp = self.offset_loop_conv(x, w, b, stride, padding)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = T.conv2d(xt, wt, bt, stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)
        g = rng.standard_normal(ref.shape)
        T.tsum(out * Tensor(g)).backward()
        for got, want in zip((xt.grad, wt.grad, bt.grad), vjp(g)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(11)
        params = {"x": Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True),
                  "w": Tensor(rng.standard_normal((3, 2, 2, 2)), requires_grad=True),
                  "b": Tensor(rng.standard_normal(3), requires_grad=True)}

        def build(p):
            out = T.conv2d(p["x"], p["w"], p["b"], stride=1, padding=1)
            return T.tsum(out * out)

        fd_check(build, params, tol=1e-4)

    @pytest.mark.parametrize("xs,ws,stride,padding", [((2, 3, 5, 5), (4, 3, 3, 3), 2, 1),
                                                      ((2, 1, 6, 5), (3, 1, 3, 3), 1, 0)])
    def test_relu_gradients_vs_finite_differences(self, xs, ws, stride, padding):
        rng = np.random.default_rng(26)
        params = {"x": Tensor(rng.standard_normal(xs), requires_grad=True),
                  "w": Tensor(rng.standard_normal(ws), requires_grad=True),
                  "b": Tensor(rng.standard_normal(ws[0]), requires_grad=True)}
        out = T.conv2d(*params.values(), stride=stride, padding=padding, relu=True)
        wgt = rng.standard_normal(out.shape)
        assert np.any(out.data == 0.0) and np.any(out.data > 0.0)
        fd_check(lambda p: T.tsum(T.conv2d(p["x"], p["w"], p["b"], stride=stride,
                                           padding=padding, relu=True) * wgt), params)

    def test_relu_is_relu_of_conv2d(self):
        rng = np.random.default_rng(27)
        leaves = [Tensor(rng.standard_normal(s), requires_grad=True)
                  for s in ((3, 2, 6, 6), (4, 2, 3, 3), (4,))]
        weights = rng.standard_normal((3, 4, 3, 3))
        runs = []
        for fused in (True, False):
            out = (T.conv2d(*leaves, stride=2, padding=1, relu=True) if fused
                   else T.relu(T.conv2d(*leaves, stride=2, padding=1)))
            runs.append((out, T.gradients(T.tsum(out * weights), dict(enumerate(leaves)))))
        (out, grads), (ref, ref_grads) = runs
        assert out.op == "conv2d" and out.data.tobytes() == ref.data.tobytes()
        assert is_batch_last(out.data)
        for key, g in grads.items():
            want = ref_grads[key]
            assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max(), key

    @pytest.mark.parametrize("xs,ws,stride,padding", [((2, 3, 5, 5), (4, 3, 3, 3), 2, 1),
                                                      ((2, 1, 6, 5), (3, 1, 3, 3), 1, 0)])
    def test_gradients_strided_padded_and_single_channel(self, xs, ws, stride, padding):
        rng = np.random.default_rng(25)
        params = {"x": Tensor(rng.standard_normal(xs), requires_grad=True),
                  "w": Tensor(rng.standard_normal(ws), requires_grad=True),
                  "b": Tensor(rng.standard_normal(ws[0]), requires_grad=True)}

        def build(p):
            out = T.conv2d(p["x"], p["w"], p["b"], stride=stride, padding=padding)
            return T.tsum(out * out)

        fd_check(build, params, tol=1e-4)

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_no_bias_vs_finite_differences(self, x_grad):
        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=x_grad)
        params = {"w": Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)}
        if x_grad:
            params["x"] = x

        def forward(p):
            return T.conv2d(p.get("x", x), p["w"], None, stride=2, padding=1)

        out = forward(params)
        assert out.op == "conv2d" and out._parents == (x, params["w"])
        zero = T.conv2d(x, params["w"], np.zeros(4), stride=2, padding=1)
        assert np.array_equal(out.data, zero.data) and is_batch_last(out.data)
        wgt = rng.standard_normal(out.shape)
        fd_check(lambda p: T.tsum(forward(p) * wgt), params)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 5, 2, 2))), Tensor(np.ones(3)))

    def test_bias_shape_checked(self):
        with pytest.raises(ShapeError, match=r"needs a \(3,\) bias"):
            T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 2, 2, 2))), Tensor(np.ones(2)))

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones(1)))


def batch_last(x):
    """The same (B, C, H, W) values stored batch-innermost: a (C, H, W, B)
    C-contiguous buffer seen through ``transpose(3, 0, 1, 2)``."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def is_batch_last(a):
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


class TestBatchLastLayout:
    """The kernels give the same bits whichever way a 4-D input is stored,
    and hand back batch-last outputs and input gradients."""

    def _run(self, op, x, params, g):
        xt = Tensor(x, requires_grad=True)
        ps = [Tensor(p, requires_grad=True) for p in params]
        out = op(xt, *ps)
        T.tsum(out * Tensor(g)).backward()
        return out.data, [xt.grad] + [p.grad for p in ps]

    def _check_layouts(self, op, x, params, g):
        results = [self._run(op, layout, params, g) for layout in (x, batch_last(x))]
        (out_c, grads_c), (out_b, grads_b) = results
        np.testing.assert_array_equal(out_c, out_b)
        for a, b in zip(grads_c, grads_b):
            np.testing.assert_array_equal(a, b)
        assert is_batch_last(out_c) and is_batch_last(out_b)
        assert grads_b[0].strides[0] == 8  # batch innermost (a padded conv's is cropped)
        return out_b, grads_b

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("shape,kernel,stride", TestPooling.GEOMETRIES)
    def test_pools(self, mode, shape, kernel, stride):
        rng = np.random.default_rng(28)
        x = rng.standard_normal(shape)
        ref, vjp = loop_pool(x, kernel, stride, mode)
        g = rng.standard_normal(ref.shape)
        out, (gx,) = self._check_layouts(lambda t: POOLS[mode](t, kernel, stride), x, [], g)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gx, vjp(g), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (3, 2)])
    def test_max_pool_tied_maxima(self, kernel, stride):
        rng = np.random.default_rng(29)
        x = rng.integers(0, 3, (2, 3, 7, 7)) * 1.0
        ref, vjp = loop_pool(x, kernel, stride, "max")
        g = rng.standard_normal(ref.shape)
        out, (gx,) = self._check_layouts(lambda t: T.max_pool2d(t, kernel, stride), x, [], g)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_allclose(gx, vjp(g), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("xs,ws,stride,padding", TestConv.CASES)
    def test_conv(self, xs, ws, stride, padding):
        rng = np.random.default_rng(30)
        x, w, b = rng.standard_normal(xs), rng.standard_normal(ws), rng.standard_normal(ws[0])
        ref, vjp = TestConv.offset_loop_conv(x, w, b, stride, padding)
        g = rng.standard_normal(ref.shape)
        out, grads = self._check_layouts(
            lambda t, wt, bt: T.conv2d(t, wt, bt, stride=stride, padding=padding), x, [w, b], g)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
        for got, want in zip(grads, vjp(g)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestBatchNormOp:
    def test_scale_shape_checked(self):
        x = Tensor(np.ones((4, 3)))
        with pytest.raises(ShapeError):
            T.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(3)))

    def test_returns_statistics_used(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((5, 2, 3, 3))
        one, zero = Tensor(np.ones(2)), Tensor(np.zeros(2))
        out, mean, var = T.batch_norm(Tensor(x), one, zero)
        np.testing.assert_allclose(mean, x.mean(axis=(0, 2, 3)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(var, x.var(axis=(0, 2, 3)), rtol=0, atol=1e-12)
        assert out.op == "batch_norm"


class TestBatchNormRelu:
    """``batch_norm(..., relu=True)`` is ``relu(batch_norm(...))`` as one node:
    the same value bit for bit and the same gradients."""

    @staticmethod
    def _case(shape, seed=46):
        # channel 1's spread is far under the variance floor; channel 2 sits
        # on its mean with a zero shift, so its pre-ReLU values are exactly 0
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape) + 0.3
        x[:, 1] = 0.5 + 1e-4 * x[:, 1]
        x[:, 2] = 2.0
        scale = rng.standard_normal(shape[1]) + 1.0
        shift = rng.standard_normal(shape[1]) * 0.5
        shift[2] = 0.0
        weights = rng.standard_normal(shape)
        return (batch_last(x) if len(shape) == 4 else x), scale, shift, weights

    def _run(self, shape, fused):
        x, scale, shift, weights = self._case(shape)
        leaves = {"x": Tensor(x, requires_grad=True), "scale": Tensor(scale, requires_grad=True),
                  "shift": Tensor(shift, requires_grad=True)}
        out, mean, var = T.batch_norm(leaves["x"], leaves["scale"], leaves["shift"], relu=fused)
        if not fused:
            out = T.relu(out)
        grads = T.gradients(T.tsum(out * weights), leaves)
        return out, mean, var, grads

    @pytest.mark.parametrize("shape", [(16, 4), (6, 4, 5, 5)])
    def test_matches_relu_of_batch_norm(self, shape):
        out, mean, var, grads = self._run(shape, fused=True)
        ref, ref_mean, ref_var, ref_grads = self._run(shape, fused=False)
        assert out.op == "batch_norm" and len(out._parents) == 3
        assert out.data.tobytes() == ref.data.tobytes()
        assert mean.tobytes() == ref_mean.tobytes() and var.tobytes() == ref_var.tobytes()
        if len(shape) == 4:
            assert is_batch_last(out.data)
        pre = np.moveaxis(out.data, 1, 0)
        assert np.all(pre[2] == 0.0) and np.any(pre[0] == 0.0) and np.any(pre[0] > 0.0)
        assert var[1] < 1e-5 < var[0]
        for name, g in grads.items():
            want = ref_grads[name]
            assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max(), name
        # no gradient through exact zeros: channel 2's scale and shift get none
        assert grads["scale"][2] == 0.0 and grads["shift"][2] == 0.0

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(47)
        x = batch_last(rng.standard_normal((5, 3, 3, 3)))
        params = {"x": Tensor(x, requires_grad=True),
                  "scale": Tensor(rng.standard_normal(3) + 1.0, requires_grad=True),
                  "shift": Tensor(rng.standard_normal(3) * 0.3, requires_grad=True)}
        weights = rng.standard_normal(x.shape)
        fd_check(lambda p: T.tsum(T.batch_norm(p["x"], p["scale"], p["shift"],
                                               relu=True)[0] * weights), params)


class TestAffineBatchNorm:
    """``affine_batch_norm`` against the ``linear``/``conv2d`` -> ``batch_norm``
    chain it replaces, with no bias: values and statistics within 1e-13 and
    gradients within 1e-12 of the largest |value|."""

    # (input shape, weight shape, conv geometry) per case
    CASES = {"dense": ((24, 3), (7, 3), {}),
             "conv": ((5, 2, 7, 6), (4, 2, 3, 3), {}),
             "conv-strided-padded": ((5, 2, 7, 6), (4, 2, 3, 3), {"stride": 2, "padding": 1})}

    @staticmethod
    def _case(kind, seed=48):
        # input feature (channel) 1 is constant and channel 0's weights read
        # only it, so without padding channel 0's variance is under the
        # floor.  The floored gain, scale / sqrt(1e-5), magnifies last-bit
        # noise in either form, so the constant and the weights of channel 0
        # are chosen so that both forms centre it exactly to 0.
        xs, ws, geometry = TestAffineBatchNorm.CASES[kind]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(xs) + 0.3
        x[:, 1] = 0.75
        w = rng.standard_normal(ws)
        w[0] = 0.0
        w[0, 1] = 1.0
        params = {"weight": w, "scale": rng.uniform(0.5, 2.0, ws[0]),
                  "shift": rng.standard_normal(ws[0])}
        return x, params, geometry

    def _run(self, kind, fused, relu):
        x, params, geometry = self._case(kind)
        leaves = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
        norm = (leaves["scale"], leaves["shift"])
        if fused:
            out, mean, var = T.affine_batch_norm(Tensor(x), leaves["weight"], *norm, relu=relu,
                                                 **geometry)
        else:
            args = (leaves["weight"], None)
            z = T.linear(Tensor(x), *args) if x.ndim == 2 else T.conv2d(Tensor(x), *args,
                                                                         **geometry)
            out, mean, var = T.batch_norm(z, *norm, relu=relu)
        weights = np.random.default_rng(49).standard_normal(out.shape)
        return out, mean, var, T.gradients(T.tsum(out * weights), leaves)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_matches_the_two_node_chain(self, kind, relu):
        out, mean, var, grads = self._run(kind, True, relu)
        ref, ref_mean, ref_var, ref_grads = self._run(kind, False, relu)
        assert out.op == "affine_batch_norm" and out.shape == ref.shape
        assert np.abs(out.data - ref.data).max() <= 1e-13 * np.abs(ref.data).max()
        for got, want in ((mean, ref_mean), (var, ref_var)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        largest = max(np.abs(g).max() for g in ref_grads.values())
        for name, g in grads.items():
            assert np.abs(g - ref_grads[name]).max() <= 1e-12 * largest, name
        if relu:
            assert np.any(out.data == 0.0) and np.all(out.data >= 0.0)
        if not self.CASES[kind][2]:
            assert var[0] < 1e-5 < var[1:].min()
            shift = self._case(kind)[1]["shift"][0]
            assert np.all(np.moveaxis(out.data, 1, 0)[0] == (max(shift, 0.0) if relu else shift))
        if out.ndim == 4:
            assert is_batch_last(out.data)

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_gradient_vs_finite_differences(self, kind):
        x, params, geometry = self._case(kind)
        rng = np.random.default_rng(50)
        x[:, 1] += rng.standard_normal(x[:, 1].shape)  # no floored channel
        leaves = {k: Tensor(v, requires_grad=True) for k, v in params.items()}

        def forward(p):
            return T.affine_batch_norm(Tensor(x), p["weight"], p["scale"], p["shift"],
                                       relu=True, **geometry)[0]

        weights = rng.standard_normal(forward(leaves).shape)
        fd_check(lambda p: T.tsum(forward(p) * weights), leaves)

    def test_input_needing_a_gradient_is_rejected(self):
        x, params, _ = self._case("dense")
        with pytest.raises(ConfigError):
            T.affine_batch_norm(Tensor(x, requires_grad=True),
                                *(Tensor(params[k]) for k in ("weight", "scale", "shift")))

    def test_shapes_checked(self):
        x, params, _ = self._case("dense")
        w, scale, shift = (Tensor(params[k]) for k in ("weight", "scale", "shift"))
        with pytest.raises(ShapeError):
            T.affine_batch_norm(Tensor(x[:, :2]), w, scale, shift)
        with pytest.raises(ShapeError):
            T.affine_batch_norm(Tensor(x), w, Tensor(params["scale"][:2]), shift)
        with pytest.raises(ShapeError):
            T.affine_batch_norm(Tensor(x), Tensor(np.ones((7, 3, 1, 1))), scale, shift)


def traced_bytes(build):
    """(result of ``build()``, bytes it left allocated while the result lives)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


class TestTapeMemory:
    """A taped node holds its output and nothing else activation-sized: the
    backward rebuilds batch norm's centred input and conv2d's patch matrix,
    and a node fused with its ReLU masks with its own output.  The one
    exception is state_objective, which keeps the log of its input."""

    def test_train_batch_norm_keeps_no_xhat(self):
        rng = np.random.default_rng(40)
        x = Tensor(batch_last(rng.standard_normal((32, 8, 10, 10))), requires_grad=True)
        scale, shift = _leaf(rng, (8,)), _leaf(rng, (8,))
        (out, _, _), held = traced_bytes(lambda: T.batch_norm(x, scale, shift))
        assert out.requires_grad
        assert held < out.data.nbytes + x.data.nbytes // 2, held

    def test_fused_batch_norm_relu_keeps_only_its_output(self):
        # no pre-ReLU copy and no x-hat: the unfused pair holds two outputs
        rng = np.random.default_rng(43)
        x = Tensor(batch_last(rng.standard_normal((32, 8, 10, 10))), requires_grad=True)
        scale, shift = _leaf(rng, (8,)), _leaf(rng, (8,))
        (out, _, _), held = traced_bytes(
            lambda: T.batch_norm(x, scale, shift, relu=True))
        assert out.requires_grad
        assert held < out.data.nbytes + x.data.nbytes // 2, held

    def test_conv2d_keeps_no_patch_matrix(self):
        rng = np.random.default_rng(41)
        x = Tensor(batch_last(rng.standard_normal((16, 8, 10, 10))), requires_grad=True)
        w, b = _leaf(rng, (12, 8, 3, 3)), _leaf(rng, (12,))
        out, held = traced_bytes(lambda: T.conv2d(x, w, b))
        assert out.requires_grad
        assert held < out.data.nbytes + x.data.nbytes // 2, held

    def test_fused_conv2d_relu_keeps_only_its_output(self):
        # no patch matrix and no pre-ReLU copy
        rng = np.random.default_rng(44)
        x = Tensor(batch_last(rng.standard_normal((16, 8, 10, 10))), requires_grad=True)
        w, b = _leaf(rng, (12, 8, 3, 3)), _leaf(rng, (12,))
        out, held = traced_bytes(lambda: T.conv2d(x, w, b, relu=True))
        assert out.requires_grad and np.any(out.data == 0.0)
        assert held < out.data.nbytes + x.data.nbytes // 2, held

    def test_affine_batch_norm_keeps_its_centred_input_and_output(self):
        # the unfused conv -> batch norm pair holds two (B, 32, 8, 8) outputs
        rng = np.random.default_rng(45)
        x = Tensor(rng.standard_normal((16, 1, 10, 10)))
        w, scale, shift = _leaf(rng, (32, 1, 3, 3)), _leaf(rng, (32,)), _leaf(rng, (32,))
        (out, _, _), held = traced_bytes(
            lambda: T.affine_batch_norm(x, w, scale, shift, relu=True))
        assert out.requires_grad
        lifted = 10 * out.data.nbytes // 32   # the 9 centred patch rows over a row of ones
        assert held < (out.data.nbytes + lifted) * 11 // 10, held

    def test_state_objective_keeps_one_log(self):
        rng = np.random.default_rng(42)
        v = Tensor(batch_last(rng.uniform(0.1, 1.0, (32, 8, 10, 10))), requires_grad=True)
        (out, _, _), held = traced_bytes(lambda: T.state_objective(v, "v2", 1e-7))
        assert out.requires_grad and out.shape == ()
        assert held < v.data.nbytes * 3 // 2, held


def keep_all_backward(loss):
    """The backward loop without freeing: every visited node keeps its gradient."""
    order = T._toposort(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node.grad is not None:
            node._backward(node.grad)


class TestFreedGradients:
    """backward() drops every non-leaf gradient once it has been pushed on;
    the leaves' gradients are those of a backward that keeps everything."""

    def _mim_loss(self):
        net = nn.build_cnn("C(4,3,1,0)-P(2,2,0,max)-C(6,3,1,0)", (1, 10, 10), seed=3,
                           batchnorm=True)
        x = Tensor(np.random.default_rng(42).standard_normal((8, 1, 10, 10)))
        objective = mim.make_mim_objective(mim.MimConfig(alpha=2.0, beta=4.0, use_scales=True))
        loss, _ = objective(net, x, np.random.default_rng(43))
        return loss, net.parameters()

    def test_only_leaves_keep_gradients(self):
        loss, params = self._mim_loss()
        keep_all_backward(loss)
        nodes = T._toposort(loss)
        inner = [node for node in nodes if node._parents]
        assert len(inner) > 20 and all(node.grad is not None for node in inner)
        kept = {name: p.grad.copy() for name, p in params.items()}
        for _ in range(2):  # a repeated backward gives the same bits
            loss.backward()
            assert all(node.grad is None for node in inner)
            for name, p in params.items():
                assert p.grad.tobytes() == kept[name].tobytes(), name


class Untouchable(np.ndarray):
    """An array that raises if any ufunc reads it."""

    def __array_ufunc__(self, *args, **kwargs):
        raise AssertionError("a backward computed a product nobody reads")


class TestSkippedProducts:
    """The binary ops compute an operand's gradient product only when that
    operand needs a gradient; the other operand's gradient is unchanged."""

    @pytest.mark.parametrize("op,trap", [(T.mul, 0), (T.mul, 1), (T.div, 0)])
    def test_no_product_for_an_operand_without_gradient(self, op, trap):
        rng = np.random.default_rng(44)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=trap == 0)
        b = Tensor(np.abs(rng.standard_normal((3, 4))) + 0.5, requires_grad=trap == 1)
        out = op(a, b)
        live = (a, b)[trap]
        live.data = live.data.view(Untouchable)  # read only by the other operand's product
        T.tsum(out).backward()
        assert live.grad is not None

    @pytest.mark.parametrize("op", [T.mul, T.div])
    def test_gradient_bitwise_equal_with_and_without_skip(self, op):
        # v op log(sg(v) + eps), the MIM loss's term, against the same
        # expression with a leaf that needs a gradient in place of sg(v)
        rng = np.random.default_rng(45)
        data = np.abs(rng.standard_normal((6, 5))) + 0.1
        grads = []
        for second in (lambda v: T.stop_gradient(v), lambda v: Tensor(data, requires_grad=True)):
            v = Tensor(data, requires_grad=True)
            T.tsum(op(v, T.log(second(v) + 1e-7))).backward()
            grads.append(v.grad)
        assert grads[0].tobytes() == grads[1].tobytes()


class TestStopGradient:
    def test_forward_bitwise_identity(self):
        x = Tensor(np.random.default_rng(12).standard_normal((3, 3)), requires_grad=True)
        out = T.stop_gradient(x)
        assert out.data is x.data

    def test_backward_exactly_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(T.stop_gradient(x))
        grads = T.gradients(loss, {"x": x})
        np.testing.assert_array_equal(grads["x"], [0.0, 0.0])

    def test_only_live_factor_contributes(self):
        # d/dx sum(x * <x>) = <x>, evaluated at x = [2] -> [2]
        x = Tensor([2.0], requires_grad=True)
        T.tsum(x * T.stop_gradient(x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0])


class TestBackward:
    def test_constant_loss_gives_zero_map(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = T.tsum(Tensor([[1.0]]))
        grads = T.gradients(loss, {"w": w})
        np.testing.assert_array_equal(grads["w"], np.zeros((2, 2)))

    def test_parameter_off_the_tape_gets_zeros_after_an_earlier_backward(self):
        a, b = (Tensor(np.ones(3), requires_grad=True) for _ in range(2))
        T.gradients(T.tsum(a * 5.0), {"a": a, "b": b})
        grads = T.gradients(T.tsum(b * 2.0), {"a": a, "b": b})
        np.testing.assert_array_equal(grads["a"], np.zeros(3))
        np.testing.assert_array_equal(grads["b"], np.full(3, 2.0))

    @pytest.mark.parametrize("fails", [False, True])
    def test_gradients_leave_no_grad_on_any_parameter(self, fails):
        # the head's linear node runs before the first one's, so a raise in
        # the first layer's backward comes after the head's leaves got theirs
        net = nn.build_mlp(2, [4], 2, seed=1, batchnorm=False)
        params = net.parameters()
        out = net.forward(Tensor(np.random.default_rng(15).standard_normal((5, 2))), "train")
        loss = T.tsum(out * out)
        if fails:
            first = next(node for node in T._toposort(loss) if node.op == "linear")

            def broken(g):
                raise RuntimeError("backward failed")

            first._backward = broken
            with pytest.raises(RuntimeError, match="backward failed"):
                T.gradients(loss, params)
        else:
            grads = T.gradients(loss, params)
            assert all(np.abs(g).max() > 0 for g in grads.values())
        assert [name for name, p in params.items() if p.grad is not None] == []

    def test_linear_outer_product_structure(self):
        rng = np.random.default_rng(13)
        params = {"w": Tensor(rng.standard_normal((3, 4)), requires_grad=True)}
        x = rng.standard_normal((4, 2))
        zero = Tensor(np.zeros(3))
        fd_check(lambda p: T.tsum(T.linear(Tensor(x.T), p["w"], zero)), params, tol=1e-5)
        # analytic structure: d sum(Wx) / dW = outer(ones, row sums of x)
        grads = T.gradients(T.tsum(T.linear(Tensor(x.T), params["w"], zero)), params)
        np.testing.assert_allclose(grads["w"], np.tile(x.sum(axis=1), (3, 1)), atol=1e-12)

    def test_repeated_backward_bitwise_equal(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        loss = T.tsum(T.softmax(x) * T.log(T.softmax(x) + 1e-7))
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        assert np.array_equal(first, x.grad)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (x * x).backward()
        with pytest.raises(ShapeError):
            T.gradients(x * x, {"x": x})

    def test_reshape_gradients(self):
        rng = np.random.default_rng(1)
        params = {"a": Tensor(rng.standard_normal((3, 4)), requires_grad=True)}
        w = rng.standard_normal((2, 6))
        fd_check(lambda p: T.tsum(T.reshape(p["a"], (2, 6)) * w), params)

    def test_shared_subexpression_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x  # dy/dx = 2x
        (y + y).backward()
        np.testing.assert_array_equal(x.grad, [12.0])


def _leaf(rng, shape, positive=False, grad=True):
    a = rng.standard_normal(shape)
    return Tensor(np.abs(a) + 0.5 if positive else a, requires_grad=grad)


def _leaves(rng, grad=True):
    """A leaf factory for the builders below: leaf(shape, positive=False)."""
    return lambda shape, positive=False: _leaf(rng, shape, positive, grad)


# every op kind with a backward, built from leaves that need a gradient (or,
# with _leaves(rng, grad=False), from leaves that need none)
BACKWARD_OPS = {
    "add": lambda leaf: T.add(leaf((3, 4)), leaf((4,))),
    "sub": lambda leaf: T.sub(leaf((3, 4)), leaf((3, 1))),
    "mul": lambda leaf: T.mul(leaf((3, 4)), leaf((3, 4))),
    "div": lambda leaf: T.div(leaf((3, 4)), leaf((3, 4), positive=True)),
    "neg": lambda leaf: T.neg(leaf((3, 4))),
    "log": lambda leaf: T.log(leaf((3, 4), positive=True)),
    "relu": lambda leaf: T.relu(leaf((3, 4))),
    "tanh": lambda leaf: T.tanh(leaf((3, 4))),
    "linear": lambda leaf: T.linear(leaf((3, 4)), leaf((2, 4)), leaf((2,))),
    "linear_relu": lambda leaf: T.linear(leaf((3, 4)), leaf((2, 4)), leaf((2,)), relu=True),
    "linear_no_bias": lambda leaf: T.linear(leaf((3, 4)), leaf((2, 4)), None),
    "reshape": lambda leaf: T.reshape(leaf((3, 4)), (4, 3)),
    "sum": lambda leaf: T.tsum(leaf((2, 3, 4)), axis=(0, 2)),
    "mean": lambda leaf: T.tmean(leaf((2, 3, 4)), axis=1),
    "softmax": lambda leaf: T.softmax(leaf((2, 3, 2, 2))),
    "column": lambda leaf: T.column(leaf((3, 4)), 1),
    "avg_pool2d": lambda leaf: T.avg_pool2d(leaf((2, 3, 5, 5)), 2, 2),
    "max_pool2d": lambda leaf: T.max_pool2d(leaf((2, 3, 5, 5)), 3, 1),
    "conv2d": lambda leaf: T.conv2d(leaf((2, 3, 5, 5)), leaf((4, 3, 3, 3)), leaf((4,)),
                                    stride=2, padding=1),
    "conv2d_relu": lambda leaf: T.conv2d(leaf((2, 3, 5, 5)), leaf((4, 3, 3, 3)), leaf((4,)),
                                         stride=2, padding=1, relu=True),
    "conv2d_no_bias": lambda leaf: T.conv2d(leaf((2, 3, 5, 5)), leaf((4, 3, 3, 3)), None,
                                            stride=2, padding=1),
    "batch_norm": lambda leaf: T.batch_norm(leaf((4, 3, 2, 2)), leaf((3,)), leaf((3,)))[0],
    "batch_norm_relu": lambda leaf: T.batch_norm(leaf((4, 3, 2, 2)), leaf((3,)), leaf((3,)),
                                                 relu=True)[0],
    "affine_batch_norm": lambda leaf: T.affine_batch_norm(
        Tensor(leaf((5, 2)).data), leaf((4, 2)), leaf((4,)), leaf((4,)))[0],
    "affine_batch_norm_conv_relu": lambda leaf: T.affine_batch_norm(
        Tensor(leaf((2, 2, 5, 5)).data), leaf((3, 2, 3, 3)), leaf((3,)), leaf((3,)),
        stride=2, padding=1, relu=True)[0],
    "state_objective": lambda leaf: T.state_objective(leaf((4, 3, 2, 2), positive=True), "v1",
                                                      1e-7, 0.5, 2.0)[0],
}


class TestNodeConstruction:
    """Tensor._from_op keeps an op's backward only when the node needs a
    gradient, and inside no_tape() records no parents."""

    @pytest.mark.parametrize("op", sorted(BACKWARD_OPS))
    def test_no_closure_without_gradient(self, op):
        out = BACKWARD_OPS[op](_leaves(np.random.default_rng(33), grad=False))
        assert out._parents and not out.requires_grad
        assert out._backward is T._noop

    @pytest.mark.parametrize("op", sorted(BACKWARD_OPS))
    def test_no_tape_records_nothing_and_keeps_values(self, op):
        taped = BACKWARD_OPS[op](_leaves(np.random.default_rng(34)))
        with T.no_tape():
            bare = BACKWARD_OPS[op](_leaves(np.random.default_rng(34)))
        assert taped._parents and taped._backward is not T._noop
        assert bare._parents == () and not bare.requires_grad and bare._backward is T._noop
        assert bare.op == taped.op and bare.shape == taped.shape
        assert bare.data.tobytes() == taped.data.tobytes()

    def test_backward_ops_cover_every_public_op(self):
        # the public functions of tensor that build no node with a backward;
        # lanes() is a context that only sets how the others run
        not_ops = {"no_tape", "gradients", "stop_gradient", "lanes"}
        public = {name for name, f in vars(T).items() if inspect.isfunction(f)
                  and f.__module__ == T.__name__ and not name.startswith("_")}
        op_names = {"tsum": "sum", "tmean": "mean"}
        built = {build(_leaves(np.random.default_rng(35))).op for build in BACKWARD_OPS.values()}
        assert {op_names.get(name, name) for name in public - not_ops} == built


class TestReadOnlyGradients:
    """Backward closures only read their incoming gradient, so broadcast
    (read-only, possibly aliased) gradient views are safe to hand on."""

    @pytest.mark.parametrize("op", sorted(BACKWARD_OPS))
    def test_backward_never_writes_its_gradient(self, op):
        rng = np.random.default_rng(31)
        out = BACKWARD_OPS[op](_leaves(rng))
        assert out.requires_grad and out._parents
        g = rng.standard_normal(out.shape)
        before = g.copy()
        g.flags.writeable = False  # any in-place write raises
        out._backward(g)
        np.testing.assert_array_equal(g, before)
        assert any(p.grad is not None for p in out._parents)

    def test_reductions_hand_on_broadcast_views(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        T.tsum(T.tmean(x, axis=0)).backward()
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 1.0 / 3.0))
        assert not x.grad.flags.writeable  # a view of the (4,) gradient, not a copy


class TestDeterminism:
    def test_same_inputs_same_outputs(self):
        rng = np.random.default_rng(15)
        data = rng.standard_normal((8, 8))
        runs = []
        for _ in range(2):
            x = Tensor(data, requires_grad=True)
            gram = T.linear(x, x, Tensor(np.zeros(8)))
            loss = T.tmean(T.tsum(T.softmax(gram), axis=1))
            loss.backward()
            runs.append((loss.item(), x.grad.copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])
