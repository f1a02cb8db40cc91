"""Layer, architecture, and checkpoint contracts."""

import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from neuralbayes import cli, dml, mim, nn, oracles
from neuralbayes import tensor as T
from neuralbayes.errors import ConfigError, FormatError, ShapeError
from neuralbayes.tensor import Tensor

from conftest import assert_moved_once

ENCODER_ARCH = "C(200,3,1,0)-P(2,2,0,max)-C(500,3,1,0)-C(700,3,1,0)-P(2,2,0,max)-C(1000,3,1,0)"


class TestOrthogonalInit:
    def test_one_by_one_is_sign(self):
        for seed in range(6):
            v = nn.orthogonal_init(1, 1, seed)
            assert abs(abs(v[0, 0]) - 1.0) < 1e-12

    def test_square_orthonormal(self):
        w = nn.orthogonal_init(4, 4, 7)
        np.testing.assert_allclose(w.T @ w, np.eye(4), atol=1e-6)

    def test_wide_rows_orthonormal(self):
        w = nn.orthogonal_init(3, 9, 2)
        np.testing.assert_allclose(w @ w.T, np.eye(3), atol=1e-6)

    def test_tall_cols_orthonormal(self):
        w = nn.orthogonal_init(9, 3, 2)
        np.testing.assert_allclose(w.T @ w, np.eye(3), atol=1e-6)

    def test_singular_values_are_one(self):
        s = np.linalg.svd(nn.orthogonal_init(6, 11, 1), compute_uv=False)
        np.testing.assert_allclose(s, 1.0, atol=1e-6)

    def test_deterministic_per_seed(self):
        a = nn.orthogonal_init(5, 5, 42)
        b = nn.orthogonal_init(5, 5, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, nn.orthogonal_init(5, 5, 43))


needs_openblas = pytest.mark.skipif(nn._OPENBLAS_THREADS is None,
                                    reason="numpy loaded no OpenBLAS with a thread-count setter")

# sha256 of the inits that OpenBLAS splits differently on one thread than on two
INIT_HASHES = """
import hashlib
from neuralbayes import nn
for rows, cols in [(200, 900), (500, 1800), (500, 784)]:
    print(hashlib.sha256(nn.orthogonal_init(rows, cols, 3).tobytes()).hexdigest())
"""


@needs_openblas
class TestOrthogonalInitThreads:
    def test_qr_runs_on_one_thread_and_restores_the_count(self, monkeypatch):
        get, _ = nn._OPENBLAS_THREADS
        before, seen, qr = get(), [], np.linalg.qr

        def counting_qr(a):
            seen.append(get())
            return qr(a)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        nn.orthogonal_init(64, 9, 0)
        assert seen == [1] and get() == before

    def test_count_is_restored_when_the_qr_raises(self, monkeypatch):
        get, _ = nn._OPENBLAS_THREADS
        before = get()

        def failing_qr(a):
            raise np.linalg.LinAlgError("factorization failed")

        monkeypatch.setattr(np.linalg, "qr", failing_qr)
        with pytest.raises(np.linalg.LinAlgError):
            nn.orthogonal_init(64, 9, 0)
        assert get() == before

    def test_init_bits_do_not_depend_on_the_thread_count(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", INIT_HASHES], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert len(outputs[0].split()) == 3 and outputs[0] == outputs[1]


class TestLayerGradients:
    def _check(self, layer, x, mode="train", tol=1e-4):
        """Finite-difference check of d(sum(out^2))/d(params, input)."""
        params = dict(layer.parameters())
        params["x"] = x
        saved_stats = {k: v.copy() for k, v in layer.buffers().items()}

        def build(p):
            for name, t in p.items():
                if name != "x":
                    setattr(layer, name, t)
            out = layer.forward(p["x"], mode)
            for name, v in saved_stats.items():  # keep running stats fixed across evals
                setattr(layer, name, v.copy())
            return T.tsum(out * out)

        analytic = T.gradients(build(params), params)

        def value(arrs):
            frozen = {k: Tensor(v, requires_grad=True) for k, v in arrs.items()}
            return build(frozen).item()

        numeric = oracles.finite_diff_grad(value, {k: p.data for k, p in params.items()})
        for name in params:
            rel = np.abs(analytic[name] - numeric[name]) / np.maximum(1.0, np.abs(analytic[name]))
            assert rel.max() <= tol, f"{name}: rel err {rel.max():.3e}"

    def test_dense(self):
        rng = np.random.default_rng(0)
        layer = nn.DenseLayer(4, 3, seed=1)
        self._check(layer, Tensor(rng.standard_normal((5, 4)), requires_grad=True))

    def test_conv(self):
        rng = np.random.default_rng(1)
        layer = nn.Conv2dLayer(2, 3, 3, stride=1, padding=1, seed=1)
        self._check(layer, Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True))

    def test_batchnorm_train(self):
        rng = np.random.default_rng(2)
        layer = nn.BatchNormLayer(3)
        x = Tensor(rng.standard_normal((6, 3)) * 2.0 + 1.0, requires_grad=True)
        self._check(layer, x)

    def test_batchnorm_train_feature_maps(self):
        rng = np.random.default_rng(15)
        layer = nn.BatchNormLayer(3)
        layer.scale = Tensor(rng.uniform(0.5, 2.0, 3), requires_grad=True)
        layer.shift = Tensor(rng.standard_normal(3), requires_grad=True)
        x = Tensor(rng.standard_normal((3, 3, 2, 3)) * 2.0 + 1.0, requires_grad=True)
        self._check(layer, x)

    @pytest.mark.parametrize("shape", [(6, 3), (3, 3, 2, 2)])
    @pytest.mark.parametrize("spread", [0.0, 1e-3])
    def test_batchnorm_train_floored_channel(self, shape, spread):
        # channel 1 is constant, or varies with a variance (~1e-6) under the
        # 1e-5 floor: the denominator is sqrt(floor) and no gradient flows
        # through the variance (only the nonzero spread tells the two apart)
        rng = np.random.default_rng(16)
        layer = nn.BatchNormLayer(3)
        layer.scale = Tensor(rng.uniform(0.5, 2.0, 3), requires_grad=True)
        data = rng.standard_normal(shape)
        data[:, 1] = 2.5 + spread * rng.standard_normal(data[:, 1].shape)
        self._check(layer, Tensor(data, requires_grad=True))

    def test_batchnorm_eval(self):
        rng = np.random.default_rng(3)
        layer = nn.BatchNormLayer(3)
        layer.running_mean = rng.standard_normal(3)
        layer.running_var = rng.uniform(0.5, 2.0, 3)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        self._check(layer, x, "eval")


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = np.random.default_rng(4)
        layer = nn.BatchNormLayer(5)
        x = Tensor(rng.standard_normal((64, 5)) * 3.0 + 7.0)
        out = layer.forward(x, "train").data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_constant_feature_yields_shift(self):
        layer = nn.BatchNormLayer(2)
        layer.shift = Tensor(np.array([3.0, -1.0]), requires_grad=True)
        x = Tensor(np.full((8, 2), 5.0))
        out = layer.forward(x, "train").data
        np.testing.assert_allclose(out, np.tile([3.0, -1.0], (8, 1)), atol=1e-12)

    def test_eval_is_pure(self):
        rng = np.random.default_rng(5)
        layer = nn.BatchNormLayer(3)
        layer.running_mean = rng.standard_normal(3)
        layer.running_var = rng.uniform(0.5, 2.0, 3)
        rm, rv = layer.running_mean.copy(), layer.running_var.copy()
        x = Tensor(rng.standard_normal((4, 3)))
        a = layer.forward(x, "eval").data
        b = layer.forward(x, "eval").data
        assert np.array_equal(a, b)
        assert np.array_equal(layer.running_mean, rm) and np.array_equal(layer.running_var, rv)

    def test_train_updates_running_stats_and_differs_from_eval(self):
        rng = np.random.default_rng(6)
        layer = nn.BatchNormLayer(3)
        x = Tensor(rng.standard_normal((16, 3)) + 4.0)
        train_out = layer.forward(x, "train").data
        assert not np.array_equal(layer.running_mean, np.zeros(3))
        eval_out = layer.forward(x, "eval").data
        assert not np.allclose(train_out, eval_out)

    @pytest.mark.parametrize("shape,axes", [((16, 3), (0,)), ((6, 3, 4, 5), (0, 2, 3))])
    def test_one_train_forward_sets_running_stats(self, shape, axes):
        rng = np.random.default_rng(17)
        layer = nn.BatchNormLayer(3, momentum=0.1)
        x = rng.standard_normal(shape) * 2.0 + 3.0
        layer.forward(Tensor(x), "train")
        m, n = 0.1, x.size // 3
        np.testing.assert_allclose(layer.running_mean, m * x.mean(axis=axes), rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.running_var,
                                   (1 - m) + m * x.var(axis=axes) * n / (n - 1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(16, 3), (6, 3, 4, 5)])
    def test_batch_mode_normalizes_like_train_and_moves_nothing(self, shape):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal(shape) * 2.0 + 3.0)
        layer = nn.BatchNormLayer(3)
        layer.running_mean = rng.standard_normal(3)
        layer.running_var = rng.uniform(0.5, 2.0, 3)
        rm, rv = layer.running_mean.copy(), layer.running_var.copy()
        out = layer.forward(x, "batch").data
        assert layer.running_mean.tobytes() == rm.tobytes()
        assert layer.running_var.tobytes() == rv.tobytes()
        assert np.array_equal(out, layer.forward(x, "train").data)

    def test_batch_of_one_rejected(self):
        layer = nn.BatchNormLayer(3)
        for mode in ("train", "batch"):
            with pytest.raises(ShapeError):
                layer.forward(Tensor(np.ones((1, 3))), mode)

    def test_conv_featuremaps(self):
        rng = np.random.default_rng(7)
        layer = nn.BatchNormLayer(4)
        x = Tensor(rng.standard_normal((8, 4, 3, 3)) * 2.0 - 1.0)
        out = layer.forward(x, "train").data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            nn.BatchNormLayer(2).forward(Tensor(np.ones((4, 2))), "warmup")


class TestForwardWithStates:
    def test_empty_network_is_identity(self):
        net = nn.Network([], taps=())
        x = np.random.default_rng(8).standard_normal((3, 2))
        out, states = net.forward_with_states(Tensor(x))
        assert states == []
        np.testing.assert_array_equal(out.data, x)

    def test_mlp_shapes(self):
        net = nn.build_mlp(2, [500], 3, seed=0)
        out, states = net.forward_with_states(Tensor(np.random.default_rng(9).standard_normal((4, 2))))
        assert [s.shape for s in states] == [(4, 500)]
        assert out.shape == (4, 3)

    def test_state_count_equals_tap_count(self):
        net = nn.build_mlp(3, [8, 8, 8, 8], None, seed=1)
        _, states = net.forward_with_states(Tensor(np.ones((2, 3))))
        assert len(states) == len(net.taps) == 4

    @pytest.mark.slow
    def test_encoder_spatial_sizes(self):
        # the stated 2x2x1000 output holds at 28x28 input; standard conv/pool
        # arithmetic gives 3x3x1000 for 32x32 (32-30-15-13-11-5-3)
        net = nn.build_cnn(ENCODER_ARCH, (3, 32, 32), seed=0, batchnorm=False)
        out, states = net.forward_with_states(
            Tensor(np.random.default_rng(10).standard_normal((1, 3, 32, 32))))
        assert out.shape == (1, 1000, 3, 3)
        # the four conv taps yield 4 plain states and 8 with pooled scales
        from neuralbayes import mim
        assert len(mim.collect_states(states, mim.MimConfig(use_scales=False))) == 4
        assert len(mim.collect_states(states, mim.MimConfig(use_scales=True))) == 8
        net28 = nn.build_cnn(ENCODER_ARCH, (1, 28, 28), seed=0, batchnorm=False)
        out28 = net28.forward(Tensor(np.random.default_rng(11).standard_normal((1, 1, 28, 28))))
        assert out28.shape == (1, 1000, 2, 2)

    def test_cnn_with_global_pool_and_head(self):
        # (arch, each dense layer's (out, in), tap count); the second FC of
        # the last arch takes the flat output of the first
        cases = [("C(8,3,1,0)-P(2,2,0,max)-C(12,3,1,0)-P(.,.,.,avg)-FC(10)", [(10, 12)], 2),
                 ("C(4,3,1,0)-P(2,2,0,max)-FC(8)-FC(3)", [(8, 100), (3, 8)], 1)]
        x = Tensor(np.random.default_rng(12).standard_normal((2, 1, 12, 12)))
        for arch, dense, taps in cases:
            net = nn.build_cnn(arch, (1, 12, 12), seed=3, batchnorm=True, softmax_head=True)
            assert sum(isinstance(layer, nn.FlattenLayer) for layer in net.layers) == 1, arch
            assert [layer.weight.shape for layer in net.layers
                    if isinstance(layer, nn.DenseLayer)] == dense, arch
            out, states = net.forward_with_states(x, "train")
            assert out.shape == (2, dense[-1][0])
            np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
            assert len(states) == taps

    @pytest.mark.parametrize("mode", ["train", "batch", "eval"])
    def test_cnn_states_stored_batch_last(self, mode):
        # every 4-D activation keeps its (C, H, W, B) memory from layer to layer
        net = nn.build_cnn("C(4,3,1,0)-P(2,2,0,max)-C(6,3,1,1)-P(2,1,0,avg)-C(5,2,1,0)",
                           (2, 11, 11), seed=4, batchnorm=True)
        x = Tensor(np.random.default_rng(13).standard_normal((3, 2, 11, 11)))
        out, states = net.forward_with_states(x, mode)
        assert len(states) == 3
        for s in states + [out]:
            assert s.ndim == 4 and s.data.transpose(1, 2, 3, 0).flags.c_contiguous, s.shape

    def test_extract_features_rows_in_logical_order(self):
        from neuralbayes import train
        net = nn.build_cnn("C(3,3,1,0)-P(2,2,0,max)", (1, 8, 8), seed=5, batchnorm=True)
        points = np.random.default_rng(14).standard_normal((7, 1, 8, 8))
        feats = train.extract_features(net, points, tap="h0")
        state = net.forward_with_states(Tensor(points), "eval")[1][0].data
        assert feats.shape == (7, 3 * 6 * 6)
        for i in range(7):  # row i is sample i's (C, H, W) map, channel-major
            np.testing.assert_array_equal(feats[i], [state[i, c, h, w] for c in range(3)
                                                     for h in range(6) for w in range(6)])

    def test_extract_features_c_ordered_across_chunks(self, monkeypatch):
        from neuralbayes import train
        net = nn.build_cnn("C(3,3,1,0)-P(2,2,0,max)", (1, 8, 8), seed=5, batchnorm=True)
        points = np.random.default_rng(15).standard_normal((7, 1, 8, 8))
        whole = train.extract_features(net, points, tap="h0")
        # 3 rows of the widest state (3x6x6 float64 entries) per chunk
        monkeypatch.setattr(train, "_EVAL_CHUNK_BYTES", 3 * 8 * 3 * 6 * 6)
        chunked = train.extract_features(net, points, tap="h0")
        assert whole.flags.c_contiguous and chunked.flags.c_contiguous
        assert chunked.tobytes() == whole.tobytes()
        with pytest.raises(ShapeError):
            train.extract_features(net, points[:0], tap="h0")

    def test_modes_and_train_keyword(self):
        x = Tensor(np.random.default_rng(19).standard_normal((6, 3)) + 2.0)

        def net():
            return nn.build_mlp(3, [4], 2, seed=5, batchnorm=True)

        a, b = net(), net()
        assert np.array_equal(a.forward(x).data, a.forward(x, "eval").data)
        assert np.array_equal(a.forward(x, train=False).data, a.forward(x, "eval").data)
        assert np.array_equal(a.forward(x, "train").data, b.forward(x, train=True).data)
        assert all(np.array_equal(a.buffers()[k], b.buffers()[k]) for k in a.buffers())
        with pytest.raises(ConfigError):
            a.forward(x, "warmup")
        with pytest.raises(ConfigError):
            nn.build_mlp(3, [4], 2, seed=5).forward(x, True)

    def test_bad_tap_rejected(self):
        with pytest.raises(ConfigError):
            nn.Network([nn.ReluLayer()], taps=[3])

    @pytest.mark.parametrize("arch", ["C(4,3,1,0)-P(2,2,1,max)", "C(4,3,1,0)-P(2,2,1,avg)"])
    def test_pool_padding_rejected(self, arch):
        with pytest.raises(ConfigError, match="padding"):
            nn.build_cnn(arch, (1, 8, 8), seed=0)

    def test_malformed_arch_token(self):
        with pytest.raises(ConfigError):
            nn.build_cnn("C(8,3,1,0)-Q(2)", (1, 8, 8), seed=0)

    @pytest.mark.parametrize("token, match", [
        ("P(2,2,0)", "takes 4 arguments, got 3"),
        ("C(64,3)", "takes 4 arguments, got 2"),
        ("FC(3,4)", "takes 1 arguments, got 2"),
        ("FC()", "needs integer arguments"),
        ("C(4,3.5,1,0)", "needs integer arguments"),
        ("P(2,x,0,max)", "needs integer arguments"),
    ])
    def test_bad_token_arguments_name_the_token(self, token, match):
        with pytest.raises(ConfigError, match=re.escape(repr(token)) + ".*" + re.escape(match)):
            nn.build_cnn(f"C(4,3,1,0)-{token}", (1, 8, 8), seed=0)


def layer_by_layer(net, x, mode, first_node=False):
    """``net``'s forward one layer at a time, with no batch norm fused; with
    ``first_node=True`` layers 0 and 1 run as the first-layer rule's
    ``affine_batch_norm`` node, without the ReLU after it."""
    h, states = x, []
    for i, layer in enumerate(net.layers):
        if first_node and i == 1:
            h = layer.forward(h, mode, affine=net.layers[0])
        elif not (first_node and i == 0):
            h = layer.forward(h, mode)
        if i in net.taps:
            states.append(h)
    return h, states


def tape_ops(loss):
    """Op kind -> node count over the whole tape behind ``loss``."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node.op
            stack.extend(node._parents)
    return Counter(seen.values())


def small_nets():
    return {"mlp": (lambda: nn.build_mlp(4, [8, 6], 3, seed=7, batchnorm=True), (16, 4)),
            "cnn": (lambda: nn.build_cnn("C(4,3,1,0)-P(2,2,0,max)-C(6,3,1,0)", (1, 10, 10),
                                         seed=3, batchnorm=True), (6, 1, 10, 10))}


# whether a train or batch forward of each small net runs its first affine
# layer and batch norm as one affine_batch_norm node: the 4 -> 8 dense layer
# does, the 9 -> 4 conv does not
FIRST_NODE = {"mlp": True, "cnn": False}


def with_norm_statistics(net, seed=18):
    """``net`` with a random scale, shift, running mean and running variance
    in every batch norm; channel 0's variance is under the 1e-5 floor."""
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        if isinstance(layer, nn.BatchNormLayer):
            f = layer.features
            layer.scale.data = rng.uniform(0.5, 2.0, f)
            layer.shift.data = rng.standard_normal(f) * 0.5
            layer.running_mean = rng.standard_normal(f) * 0.5
            layer.running_var = rng.uniform(0.5, 2.0, f)
            layer.running_var[0] = 1e-7
    return net


def forward_and_gradients(net, forward, seed=21):
    """(output, states, op counts, parameter gradients) of ``forward(net)``,
    the gradients those of a seeded weighted sum of the output and states."""
    out, states = forward(net)
    rng = np.random.default_rng(seed)
    loss = T.tsum(out * rng.standard_normal(out.shape))
    for s in states:
        loss = loss + T.tsum(s * rng.standard_normal(s.shape))
    return out, states, tape_ops(loss), T.gradients(loss, net.parameters())


def assert_close(got, want, rel):
    """Every array of ``got`` within ``rel`` times the largest |value| of
    the matching array of ``want``."""
    assert len(got) == len(want)
    for key in want:
        a, b = got[key], want[key]
        assert np.abs(a - b).max() <= rel * np.abs(b).max(), key


def assert_eval_fold_matches(make, x):
    """The eval forward of ``make()`` against its layer-by-layer forward:
    output and states within 1e-13 and parameter gradients within 1e-12 of
    the largest |value|; neither moves a buffer, and the folded tape has no
    batch-norm node.  Returns the folded forward's op counts."""
    runs = []
    for forward in (lambda net: net.forward_with_states(x, "eval"),
                    lambda net: layer_by_layer(net, x, "eval")):
        net = make()
        before = {k: b.copy() for k, b in net.buffers().items()}
        runs.append(forward_and_gradients(net, forward))
        assert {k: b.tobytes() for k, b in net.buffers().items()} == \
            {k: b.tobytes() for k, b in before.items()}
    (out, states, ops, grads), (ref_out, ref_states, _, ref_grads) = runs
    assert_close(dict(enumerate([out.data, *(s.data for s in states)])),
                 dict(enumerate([ref_out.data, *(s.data for s in ref_states)])), 1e-13)
    assert_close(grads, ref_grads, 1e-12)
    assert ops["batch_norm"] == 0, ops
    return ops


class TestBatchNormReluPairs:
    """``forward_with_states`` runs each batch norm that a ReLU directly
    follows as one fused node, unless the batch norm's own output is a
    tapped state; in train and batch mode the values, gradients, running
    statistics, spec and checkpoints are those of the layer-by-layer
    forward, bitwise but for a first affine layer and batch norm that run
    as one ``affine_batch_norm`` node (``FIRST_NODE``), which match the
    unfused pair within that node's bounds.  In eval mode the batch norm
    and its ReLU fold into the affine node before them, within the bounds
    of ``assert_eval_fold_matches``."""

    @pytest.mark.parametrize("mode", ["train", "batch", "eval"])
    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_matches_layer_by_layer(self, kind, mode):
        make, shape = small_nets()[kind]
        x = Tensor(np.random.default_rng(20).standard_normal(shape) + 0.5)
        if mode == "eval":
            ops = assert_eval_fold_matches(lambda: with_norm_statistics(make()), x)
            affine = {"mlp": ("linear", 3), "cnn": ("conv2d", 2)}[kind]
            assert ops["relu"] == 0 and ops[affine[0]] == affine[1], ops
            return
        first = FIRST_NODE[kind]
        forwards = (lambda net: net.forward_with_states(x, mode),
                    lambda net: layer_by_layer(net, x, mode, first_node=first),
                    lambda net: layer_by_layer(net, x, mode))
        runs = [(net, *forward_and_gradients(net, forward))
                for net, forward in ((make(), forward) for forward in forwards)]
        (net, out, states, ops, grads), (ref_net, ref_out, ref_states, ref_ops, ref_grads) = runs[:2]
        # every layer but the first-layer node is bitwise that of its own forward
        assert out.data.tobytes() == ref_out.data.tobytes()
        assert [s.data.tobytes() for s in states] == [s.data.tobytes() for s in ref_states]
        assert ops["relu"] == 0 and ref_ops["relu"] == 2
        assert ops["batch_norm"] == 2 - first and ops["affine_batch_norm"] == first, ops
        for name, g in grads.items():
            want = ref_grads[name]
            assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max(), name
        for name, b in net.buffers().items():
            assert b.tobytes() == ref_net.buffers()[name].tobytes(), name
        if first:   # the node against the unfused chain, within its bounds
            plain_net, plain_out, plain_states, _, plain_grads = runs[2]
            assert_close(dict(enumerate([out.data, *(s.data for s in states)])),
                         dict(enumerate([plain_out.data, *(s.data for s in plain_states)])),
                         1e-13)
            largest = max(np.abs(g).max() for g in plain_grads.values())
            for name, g in grads.items():
                assert np.abs(g - plain_grads[name]).max() <= 1e-12 * largest, name
            assert_close(net.buffers(), plain_net.buffers(), 1e-13)

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_running_stats_move_once_per_train_forward(self, kind):
        make, shape = small_nets()[kind]
        net, x = make(), Tensor(np.random.default_rng(22).standard_normal(shape) + 1.0)
        net.forward(x, "train")
        assert_moved_once(net, make(), x)

    def test_objective_tapes_have_no_relu(self):
        rng = np.random.default_rng(23)
        mlp = nn.build_mlp(4, [8, 6], 2, seed=7, batchnorm=True, softmax_head=True)
        dml_loss, _ = dml.make_dml_objective(dml.DmlConfig(partitions=2, beta=2.0))(
            mlp, Tensor(rng.standard_normal((16, 4))), rng)
        cnn = small_nets()["cnn"][0]()
        mim_loss, _ = mim.make_mim_objective(mim.MimConfig(alpha=2.0, beta=4.0, use_scales=True))(
            cnn, Tensor(rng.standard_normal((6, 1, 10, 10))), rng)
        for loss in (dml_loss, mim_loss):
            ops = tape_ops(loss)
            assert ops["relu"] == 0 and ops["batch_norm"] > 0, ops

    @pytest.mark.parametrize("mode", ["train", "batch", "eval"])
    def test_tapped_batch_norm_stays_pre_relu(self, mode):
        def make():
            return nn.Network([nn.DenseLayer(3, 5, seed=1), nn.BatchNormLayer(5), nn.ReluLayer(),
                               nn.DenseLayer(5, 4, seed=2), nn.BatchNormLayer(4), nn.ReluLayer()],
                              taps=[1, 2, 5])
        x = Tensor(np.random.default_rng(24).standard_normal((8, 3)))
        out, states = make().forward_with_states(x, mode)
        if mode == "eval":  # each batch norm folds into its dense node
            assert_eval_fold_matches(lambda: with_norm_statistics(make()), x)
            node = "linear"
        else:
            ref_out, ref_states = layer_by_layer(make(), x, mode)
            assert out.data.tobytes() == ref_out.data.tobytes()
            assert [s.data.tobytes() for s in states] == [s.data.tobytes() for s in ref_states]
            node = "batch_norm"
        assert states[0].op == node and np.any(states[0].data < 0.0)
        assert states[1].op == "relu" and states[2].op == node  # the second pair fused
        assert np.all(states[2].data >= 0.0)

    def test_batch_norm_then_tanh_stays_unfused(self):
        net = nn.build_mlp(3, [5, 4], 2, seed=8, batchnorm=True, activation="tanh")
        x = Tensor(np.random.default_rng(25).standard_normal((8, 3)))
        out = net.forward(x, "train")
        ops = tape_ops(T.tsum(out))
        assert ops["tanh"] == ops["batch_norm"] == 2
        ref = layer_by_layer(nn.build_mlp(3, [5, 4], 2, seed=8, batchnorm=True,
                                          activation="tanh"), x, "train")[0]
        assert out.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_spec_and_checkpoint_bytes_match_layer_by_layer(self, kind, tmp_path):
        make, shape = small_nets()[kind]
        x = Tensor(np.random.default_rng(26).standard_normal(shape))
        first = FIRST_NODE[kind]
        files, nets = [], []
        for name, forward in (("fused", lambda net: net.forward(x, "train")),
                              ("plain", lambda net: layer_by_layer(net, x, "train", first)[0]),
                              ("unfused", lambda net: layer_by_layer(net, x, "train")[0])):
            net = make()
            params = net.parameters()
            grads = T.gradients(T.tsum(forward(net)), params)
            for key, p in params.items():
                p.data = p.data - 0.01 * grads[key]
            files.append((net.spec(), *(f.read_bytes()
                                        for f in nn.save_checkpoint(net, tmp_path / name))))
            nets.append(net)
        assert files[0] == files[1]
        # against the unfused chain: the same spec and manifest, parameters
        # within 1e-13 of the largest |parameter| and buffers within the
        # node's bounds
        assert files[0][:2] == files[2][:2]
        fused, unfused = (np.concatenate([p.data.ravel() for p in net.parameters().values()])
                          for net in (nets[0], nets[2]))
        assert np.abs(fused - unfused).max() <= 1e-13 * np.abs(unfused).max()
        assert_close(nets[0].buffers(), nets[2].buffers(), 1e-13)


def library_nets():
    """(network factory, input shape, op-kind counts of one forward's tape
    by mode) of each network kind the library builds with batch norm.  The
    counts leave the leaves out: they pin which nodes run."""
    mim_arch = cli.TRAINING_DEFAULTS["train-mim"]["cnn-arch"]

    def by_mode(forward, eval_):
        return {"train": forward, "batch": forward, "eval": eval_}

    # one per batch norm folded in eval mode: eval_map's div, mul and sub,
    # the reshape of its coefficient and the fold's mul of the weight (the
    # offset is the folded node's bias)
    def folds(n, **more):
        return {"div": n, "mul": 2 * n, "reshape": n, "sub": n, **more}

    return {
        "dml-mlp": (lambda: nn.build_mlp(2, cli.DML_ARCH_HIDDEN, 2, seed=4, batchnorm=True),
                    (24, 2),
                    by_mode({"affine_batch_norm": 1, "batch_norm": 3, "linear": 4, "softmax": 1},
                            folds(4, linear=5, softmax=1))),
        "dml-mlp-512d": (lambda: nn.build_mlp(512, cli.DML_ARCH_HIDDEN, 2, seed=4,
                                              batchnorm=True), (8, 512),
                         by_mode({"batch_norm": 4, "linear": 5, "softmax": 1},
                                 folds(4, linear=5, softmax=1))),
        "mim-cnn": (lambda: nn.build_cnn(mim_arch, (1, 16, 16), seed=5, batchnorm=True),
                    (4, 1, 16, 16),
                    by_mode({"affine_batch_norm": 1, "batch_norm": 1, "conv2d": 1,
                             "max_pool2d": 1},
                            folds(2, conv2d=2, max_pool2d=1))),
        "mnist-cnn": (lambda: nn.build_cnn(cli.MNIST_CNN_ARCH.format(k=10), (1, 28, 28), seed=6,
                                           batchnorm=True, softmax_head=True), (3, 1, 28, 28),
                      by_mode({"affine_batch_norm": 1, "batch_norm": 3, "conv2d": 3, "linear": 1,
                               "max_pool2d": 2, "mean": 1, "reshape": 2, "softmax": 1},
                              {**folds(4, conv2d=4, linear=1, max_pool2d=2, mean=1, softmax=1),
                               "reshape": 6})),
        "tanh-mlp": (lambda: nn.build_mlp(5, [8, 6], 3, seed=7, batchnorm=True,
                                          activation="tanh"), (12, 5),
                     by_mode({"batch_norm": 2, "linear": 3, "softmax": 1, "tanh": 2},
                             folds(2, linear=3, softmax=1, tanh=2))),
    }


@pytest.mark.parametrize("mode", nn.MODES)
@pytest.mark.parametrize("kind", sorted(library_nets()))
def test_library_network_runs_its_recorded_nodes(kind, mode):
    make, shape, nodes = library_nets()[kind]
    ops = tape_ops(make().forward(Tensor(np.random.default_rng(36).standard_normal(shape)), mode))
    del ops["leaf"]
    assert ops == Counter(nodes[mode])


def structure_nets():
    """(network factory, names of the biases it keeps) of each network kind
    the library builds, and of one whose affine layer before a batch norm
    is tapped: only the heads and the layers without a batch norm after
    them keep a bias."""
    library = library_nets()
    kept = {"dml-mlp": ["layer12.bias"], "dml-mlp-512d": ["layer12.bias"], "mim-cnn": [],
            "mnist-cnn": ["layer16.bias"], "tanh-mlp": ["layer6.bias"]}
    nets = {kind: (library[kind][0], kept[kind]) for kind in library}
    hidden = cli.TRAINING_DEFAULTS["train-mim"]["hidden"]
    nets["mim-mlp"] = (lambda: nn.build_mlp(784, hidden, out_units=None, seed=1),
                       ["layer0.bias", "layer2.bias", "layer4.bias"])
    nets["probe-mlp"] = (lambda: nn.build_mlp(12, [16], 3, seed=2, batchnorm=False,
                                              softmax_head=False), ["layer0.bias", "layer2.bias"])
    nets["tapped-affine"] = (lambda: nn.Network(
        [nn.DenseLayer(3, 5, seed=1), nn.BatchNormLayer(5), nn.ReluLayer(),
         nn.DenseLayer(5, 4, seed=2), nn.BatchNormLayer(4), nn.ReluLayer()], taps=[0, 2, 5]),
        ["layer0.bias"])
    return nets


# (parameter tensors, parameter values) of the benchmark and preset networks
PARAMETER_TOTALS = {"dml-mlp-512d": (14, 688_802), "mim-cnn": (6, 74_688),
                    "mnist-cnn": (14, 1_177_710)}


@pytest.mark.parametrize("kind", sorted(structure_nets()))
def test_only_layers_before_an_untapped_batch_norm_lose_their_bias(kind):
    make, kept = structure_nets()[kind]
    net = make()
    params = net.parameters()
    assert [name for name in params if name.endswith("bias")] == kept
    for i, layer in enumerate(net.layers):
        if isinstance(layer, (nn.DenseLayer, nn.Conv2dLayer)):
            normed = (i not in net.taps and i + 1 < len(net.layers)
                      and isinstance(net.layers[i + 1], nn.BatchNormLayer))
            assert (layer.bias is None) == normed, i
    if kind in PARAMETER_TOTALS:
        assert (len(params), sum(p.data.size for p in params.values())) == PARAMETER_TOTALS[kind]


@pytest.mark.parametrize("mode", nn.MODES)
def test_bias_set_before_a_batch_norm_after_build_is_rejected(mode):
    # no forward would use it, yet it would be a listed, trained and saved parameter
    net = nn.build_mlp(2, [4], 2, seed=1, batchnorm=True)
    net.layers[0].bias = Tensor(np.full(4, 3.0), requires_grad=True)
    with pytest.raises(ConfigError, match="^layer 0 feeds a batch norm"):
        net.forward(Tensor(np.ones((3, 2))), mode)


class TestFirstLayerNode:
    """In train and batch mode layer 0 and the batch norm after it run as one
    ``affine_batch_norm`` node when the network input needs no gradient,
    layer 0 is a dense or conv layer that is not tapped, and its fan-in K
    and output channels C have 2K <= C."""

    # the modes whose forwards run the node, per library network
    FUSES = {"dml-mlp": ("train", "batch"), "dml-mlp-512d": (), "mim-cnn": ("train", "batch"),
             "mnist-cnn": ("train", "batch"), "tanh-mlp": ()}

    def test_library_networks(self):
        rng = np.random.default_rng(32)
        table = {}
        for kind, (make, shape, _) in library_nets().items():
            x = Tensor(rng.standard_normal(shape))
            table[kind] = tuple(mode for mode in nn.MODES
                                if tape_ops(T.tsum(make().forward(x, mode)))["affine_batch_norm"])
        assert table == self.FUSES

    def test_tapped_batch_norm_runs_in_the_node_without_its_relu(self):
        def make():
            return nn.Network([nn.DenseLayer(2, 8, seed=1), nn.BatchNormLayer(8), nn.ReluLayer(),
                               nn.DenseLayer(8, 3, seed=2)], taps=[1, 2])
        x = Tensor(np.random.default_rng(33).standard_normal((12, 2)))
        out, states = make().forward_with_states(x, "train")
        ref_out, ref_states = layer_by_layer(make(), x, "train")
        assert [s.op for s in states] == ["affine_batch_norm", "relu"]
        assert np.any(states[0].data < 0.0)
        assert_close(dict(enumerate([out.data, *(s.data for s in states)])),
                     dict(enumerate([ref_out.data, *(s.data for s in ref_states)])), 1e-13)

    @pytest.mark.parametrize("case", ["tapped affine layer", "input needing a gradient"])
    def test_no_node(self, case):
        def make():
            return nn.Network([nn.DenseLayer(2, 8, seed=1), nn.BatchNormLayer(8), nn.ReluLayer()],
                              taps=[0, 2] if case == "tapped affine layer" else [2])
        x = Tensor(np.random.default_rng(34).standard_normal((12, 2)),
                   requires_grad=case == "input needing a gradient")
        out, states = make().forward_with_states(x, "train")
        ref_out, ref_states = layer_by_layer(make(), x, "train")
        assert tape_ops(T.tsum(out))["affine_batch_norm"] == 0
        assert out.data.tobytes() == ref_out.data.tobytes()
        assert [s.data.tobytes() for s in states] == [s.data.tobytes() for s in ref_states]


class TestEvalFold:
    """In eval mode each batch norm folds into the dense or conv node before
    it (with its ReLU, by the pair rule), unless that affine layer is
    tapped; the fold is the batch norm's eval map, ``x * coef + offset``."""

    @pytest.mark.parametrize("kind", sorted(library_nets()))
    def test_library_networks_fold_every_batch_norm(self, kind):
        make, shape, _ = library_nets()[kind]
        x = Tensor(np.random.default_rng(27).standard_normal(shape))
        ops = assert_eval_fold_matches(lambda: with_norm_statistics(make()), x)
        net = make()
        norms = sum(isinstance(layer, nn.BatchNormLayer) for layer in net.layers)
        _, states = net.forward_with_states(x, "eval")  # one per block: affine, norm, activation
        if kind == "tanh-mlp":
            states = [s._parents[0] for s in states]   # each tanh's input
        assert len(states) == norms
        assert {s.op for s in states} == {"conv2d" if "cnn" in kind else "linear"}
        assert ops["relu"] == 0 and ops["tanh"] == (norms if kind == "tanh-mlp" else 0)

    def test_tapped_affine_layer_does_not_fold(self):
        def make():
            return with_norm_statistics(nn.Network(
                [nn.DenseLayer(3, 5, seed=1), nn.BatchNormLayer(5), nn.ReluLayer(),
                 nn.DenseLayer(5, 4, seed=2), nn.BatchNormLayer(4), nn.ReluLayer()],
                taps=[0, 2, 5]))
        x = Tensor(np.random.default_rng(28).standard_normal((8, 3)))
        ops = assert_eval_fold_matches(make, x)
        _, states = make().forward_with_states(x, "eval")
        assert [s.op for s in states] == ["linear", "relu", "linear"]  # only the second folds
        assert np.any(states[0].data < 0.0) and np.all(states[2].data >= 0.0)
        assert ops["relu"] == 1 and ops["linear"] == 2

    def test_tapped_batch_norm_folds_with_a_separate_relu(self):
        def make():
            return with_norm_statistics(nn.Network(
                [nn.Conv2dLayer(2, 3, 3, padding=1, seed=1), nn.BatchNormLayer(3), nn.ReluLayer(),
                 nn.Conv2dLayer(3, 4, 2, stride=2, seed=2), nn.BatchNormLayer(4), nn.ReluLayer()],
                taps=[1, 2, 5]))
        x = Tensor(np.random.default_rng(29).standard_normal((3, 2, 6, 6)))
        ops = assert_eval_fold_matches(make, x)
        _, states = make().forward_with_states(x, "eval")
        assert [s.op for s in states] == ["conv2d", "relu", "conv2d"]
        assert np.any(states[0].data < 0.0) and np.all(states[2].data >= 0.0)
        assert ops["relu"] == 1 and ops["conv2d"] == 2

    def test_eval_map_floors_the_variance(self):
        # channel 1's running variance is under the 1e-5 floor
        rng = np.random.default_rng(30)
        norm = nn.BatchNormLayer(3)
        norm.scale.data, norm.shift.data = rng.uniform(0.5, 2.0, 3), rng.standard_normal(3)
        norm.running_mean, norm.running_var = rng.standard_normal(3), np.array([4.0, 1e-9, 0.3])
        den = np.sqrt([4.0, 1e-5, 0.3])
        coef, offset = norm.eval_map()
        np.testing.assert_allclose(coef.data, norm.scale.data / den, rtol=1e-15, atol=0)
        np.testing.assert_allclose(offset.data, norm.shift.data - norm.running_mean * coef.data,
                                   rtol=1e-15, atol=0)
        # the network takes the dense layer's bias into the running mean and
        # gives the biased chain's eval map
        dense = nn.DenseLayer(4, 3, seed=3)
        dense.bias.data = rng.standard_normal(3)
        x = rng.standard_normal((5, 4))
        z = x @ dense.weight.data.T + dense.bias.data
        want = (z - norm.running_mean) / den * norm.scale.data + norm.shift.data
        chain = norm.forward(Tensor(z), "eval").data
        folded = nn.Network([dense, norm]).forward(Tensor(x), "eval")
        assert folded.op == "linear" and dense.bias is None
        for got in (folded.data, chain):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        maps = rng.standard_normal((2, 3, 2, 2))
        want = ((maps - norm.running_mean[:, None, None]) / den[:, None, None]
                * norm.scale.data[:, None, None] + norm.shift.data[:, None, None])
        got = norm.forward(Tensor(maps), "eval").data
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["dense", "conv"])
    def test_folded_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(31)
        if kind == "dense":
            affine, x = nn.DenseLayer(4, 3, seed=1), rng.standard_normal((6, 4))
        else:
            affine, x = nn.Conv2dLayer(2, 3, 3, padding=1, seed=1), rng.standard_normal((2, 2, 4, 4))
        net = with_norm_statistics(nn.Network([affine, nn.BatchNormLayer(3), nn.ReluLayer()]))
        net.layers[1].running_var[0] = 0.7  # keep every coefficient O(1) for the differences
        params = net.parameters()
        out = net.forward(Tensor(x), "eval")
        assert out.op == ("linear" if kind == "dense" else "conv2d")
        weights = rng.standard_normal(out.shape)
        analytic = T.gradients(T.tsum(out * weights), params)

        def value(arrs):
            for name, arr in arrs.items():
                params[name].data = arr
            return T.tsum(net.forward(Tensor(x), "eval") * weights).item()

        numeric = oracles.finite_diff_grad(value, {k: p.data for k, p in params.items()})
        for name in params:
            rel = np.abs(analytic[name] - numeric[name]) / np.maximum(1.0, np.abs(analytic[name]))
            assert rel.max() <= 1e-4, f"{name}: rel err {rel.max():.3e}"


class TestCheckpoint:
    def _train_a_little(self, net, x):
        params = net.parameters()
        loss = T.tsum(net.forward(Tensor(x), "train"))
        grads = T.gradients(loss, params)
        for name, p in params.items():
            p.data = p.data - 0.01 * grads[name]

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        net = nn.build_mlp(3, [7, 5], 2, seed=2, batchnorm=True)
        self._train_a_little(net, rng.standard_normal((6, 3)))
        jp, bp = nn.save_checkpoint(net, tmp_path / "ckpt")
        loaded = nn.load_checkpoint(tmp_path / "ckpt")
        for name, p in net.parameters().items():
            assert np.array_equal(loaded.parameters()[name].data, p.data), name
        for name, b in net.buffers().items():
            assert np.array_equal(loaded.buffers()[name], b), name
        # bytes written by a re-save are identical too
        nn.save_checkpoint(loaded, tmp_path / "ckpt2")
        assert (tmp_path / "ckpt2.bin").read_bytes() == bp.read_bytes()
        assert (tmp_path / "ckpt2.json").read_text() == jp.read_text()

    def test_loaded_network_reproduces_outputs(self, tmp_path):
        rng = np.random.default_rng(14)
        net = nn.build_mlp(4, [6], 3, seed=5, batchnorm=True)
        x = rng.standard_normal((5, 4))
        nn.save_checkpoint(net, tmp_path / "m")
        loaded = nn.load_checkpoint(tmp_path / "m.json")
        assert np.array_equal(net.forward(Tensor(x)).data, loaded.forward(Tensor(x)).data)

    def test_truncated_binary_rejected(self, tmp_path):
        net = nn.build_mlp(2, [3], 2, seed=0)
        _, bp = nn.save_checkpoint(net, tmp_path / "t")
        bp.write_bytes(bp.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            nn.load_checkpoint(tmp_path / "t")

    def test_bad_format_marker(self, tmp_path):
        net = nn.build_mlp(2, [3], 2, seed=0)
        jp, _ = nn.save_checkpoint(net, tmp_path / "u")
        jp.write_text(jp.read_text().replace("nb-checkpoint-v1", "other"))
        with pytest.raises(FormatError):
            nn.load_checkpoint(tmp_path / "u")

    def test_every_layer_type_round_trips(self, tmp_path):
        net = nn.Network([
            nn.Conv2dLayer(1, 3, 3, stride=1, padding=1, seed=4), nn.BatchNormLayer(3, momentum=0.2),
            nn.ReluLayer(), nn.MaxPool2dLayer(2, 2), nn.AvgPool2dLayer(2, 1),
            nn.AvgPool2dLayer(spatial_all=True), nn.FlattenLayer(), nn.DenseLayer(3, 4, seed=6),
            nn.TanhLayer(), nn.SoftmaxLayer()], taps=[2, 8])
        assert {layer.TYPE for layer in net.layers} == set(nn._LAYER_TYPES)
        x = np.random.default_rng(15).standard_normal((5, 1, 6, 6))
        self._train_a_little(net, x)
        jp, bp = nn.save_checkpoint(net, tmp_path / "all")
        loaded = nn.load_checkpoint(tmp_path / "all")
        assert loaded.spec() == net.spec()
        nn.save_checkpoint(loaded, tmp_path / "again")
        assert (tmp_path / "again.json").read_bytes() == jp.read_bytes()
        assert (tmp_path / "again.bin").read_bytes() == bp.read_bytes()
        for mode in ("eval", "batch"):
            (out, states), (out2, states2) = (m.forward_with_states(Tensor(x), mode)
                                              for m in (net, loaded))
            assert out.data.tobytes() == out2.data.tobytes(), mode
            assert [s.data.tobytes() for s in states] == [s.data.tobytes() for s in states2]

    def test_registry_covers_every_layer_class(self):
        classes = nn.Layer.__subclasses__()
        assert sorted(nn._LAYER_TYPES) == sorted(cls.TYPE for cls in classes)
        assert set(nn._LAYER_TYPES.values()) == set(classes)
        for cls in classes:
            assert set(cls.ARGS) <= set(inspect.signature(cls).parameters), cls.__name__


class TestCheckpointManifest:
    """A manifest that disagrees with the network its architecture builds is
    rejected, entry by entry."""

    @pytest.fixture
    def saved(self, tmp_path):
        net = nn.build_mlp(3, [4, 5], 2, seed=1, batchnorm=True)
        jp, bp = nn.save_checkpoint(net, tmp_path / "c")
        return jp, bp, json.loads(jp.read_text())

    def _load_edited(self, saved, edit):
        jp, _, manifest = saved
        edit(manifest)
        jp.write_text(json.dumps(manifest))
        return nn.load_checkpoint(jp)

    def test_missing_last_entry_rejected(self, saved):
        jp, bp, manifest = saved
        last = manifest["entries"][-1]
        bp.write_bytes(bp.read_bytes()[:-8 * int(np.prod(last["shape"]))])
        with pytest.raises(FormatError, match="layer6.bias"):
            self._load_edited(saved, lambda m: m["entries"].pop())

    def test_transposed_shape_rejected(self, saved):
        def transpose_first(m):
            assert m["entries"][0]["shape"] == [4, 3]
            m["entries"][0]["shape"] = [3, 4]
        with pytest.raises(FormatError, match="entry 0"):
            self._load_edited(saved, transpose_first)

    def test_renamed_entry_rejected(self, saved):
        def rename(m):
            m["entries"][1]["name"] = "layer0.offset"
        with pytest.raises(FormatError, match="layer0.offset"):
            self._load_edited(saved, rename)

    def test_wrong_kind_rejected(self, saved):
        def as_param(m):
            running = [e for e in m["entries"] if e["kind"] == "buffer"][0]
            running["kind"] = "param"
        with pytest.raises(FormatError):
            self._load_edited(saved, as_param)

    @pytest.mark.parametrize("key", ["in_dim", "momentum", "type"])
    def test_layer_spec_missing_key_rejected(self, saved, key):
        def drop(m):
            for spec in m["architecture"]["layers"]:
                spec.pop(key, None)
        with pytest.raises(FormatError, match="malformed"):
            self._load_edited(saved, drop)

    def test_unknown_layer_type_rejected(self, saved):
        def retype(m):
            m["architecture"]["layers"][2]["type"] = "gelu"
        with pytest.raises(FormatError, match="gelu"):
            self._load_edited(saved, retype)

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a["layers"][0].update(in_dim=3.0),
         "checkpoint layer 0 (dense) needs an integer in_dim, got 3.0"),
        (lambda a: a["layers"][1].update(features=True),
         "checkpoint layer 1 (batchnorm) needs an integer features, got True")],
        ids=["float-in-dim", "bool-features"])
    def test_mistyped_layer_argument_rejected(self, saved, edit, message):
        # mistyped taps and a CNN's pool kernel: test_cli's malformed-checkpoint test
        with pytest.raises(FormatError, match=re.escape(message)):
            self._load_edited(saved, lambda m: edit(m["architecture"]))


class TestBiasedCheckpoint:
    """An ``nb-checkpoint-v1`` file written when each layer before a batch
    norm still had a bias lists those biases; it loads, with each bias
    folded into its batch norm's running mean."""

    @staticmethod
    def _write(stem):
        """A 2-D DML-style network with nonzero biases before its batch
        norms, saved in that layout; returns the network, whose layers hold
        those biases again, so only ``layer_by_layer`` runs it as saved."""
        rng = np.random.default_rng(37)
        net = with_norm_statistics(nn.build_mlp(2, [8, 6], 2, seed=9, batchnorm=True))
        for i in (0, 3, 6):
            net.layers[i].bias = Tensor(rng.standard_normal(net.layers[i].out_dim),
                                        requires_grad=True)
        entries = nn._entries(net.layers)
        assert [name for name, _, _ in entries if name.endswith("bias")] == [
            "layer0.bias", "layer3.bias", "layer6.bias"]
        manifest = {"format": "nb-checkpoint-v1", "dtype": "<f8", "architecture": net.spec(),
                    "entries": [{"name": name, "kind": kind, "shape": list(arr.shape)}
                                for name, kind, arr in entries]}
        stem.with_suffix(".json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
        stem.with_suffix(".bin").write_bytes(b"".join(arr.astype("<f8").tobytes()
                                                      for _, _, arr in entries))
        return net

    def test_loads_to_the_biased_networks_eval_map(self, tmp_path):
        biased = self._write(tmp_path / "old")
        x = Tensor(np.random.default_rng(38).standard_normal((12, 2)))
        ref_out, ref_states = layer_by_layer(biased, x, "eval")
        loaded = nn.load_checkpoint(tmp_path / "old")
        assert [name for name in loaded.parameters() if name.endswith("bias")] == ["layer6.bias"]
        for i in (0, 3):
            assert loaded.layers[i + 1].running_mean.tobytes() == (
                biased.layers[i + 1].running_mean - biased.layers[i].bias.data).tobytes()
        out, states = loaded.forward_with_states(x, "eval")
        assert_close(dict(enumerate([out.data, *(s.data for s in states)])),
                     dict(enumerate([ref_out.data, *(s.data for s in ref_states)])), 1e-13)
        jp, bp = nn.save_checkpoint(loaded, tmp_path / "new")
        assert "layer0.bias" not in jp.read_text()
        again = nn.load_checkpoint(tmp_path / "new")
        assert [(name, a.tobytes()) for name, _, a in nn._entries(again.layers)] == \
            [(name, a.tobytes()) for name, _, a in nn._entries(loaded.layers)]
        nn.save_checkpoint(again, tmp_path / "again")
        assert (tmp_path / "again.bin").read_bytes() == bp.read_bytes()
        assert (tmp_path / "again.json").read_bytes() == jp.read_bytes()

    def test_probe_and_export_grid_run_on_it(self, tmp_path, capsys):
        self._write(tmp_path / "old")
        data = tmp_path / "d.csv"
        assert cli.main(["gen-data", "--kind", "moons", "--n", "30", "--seed", "3",
                         "--out", str(data)]) == 0
        assert cli.main(["probe", "--checkpoint", str(tmp_path / "old"), "--data", str(data),
                         "--layer", "h1", "--epochs", "2", "--seed", "0"]) == 0
        grid = tmp_path / "grid.csv"
        assert cli.main(["export-grid", "--checkpoint", str(tmp_path / "old"), "--data",
                         str(data), "--resolution", "6", "--out", str(grid)]) == 0
        assert len(grid.read_text().splitlines()) == 37
