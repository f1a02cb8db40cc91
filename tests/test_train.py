"""Optimizer, accumulation schedule, probe, and cluster-scoring contracts."""

import itertools
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbayes import bayes, data as D, dml, mim, nn, train
from neuralbayes import tensor as T
from neuralbayes.errors import ConfigError, DomainError, ShapeError
from neuralbayes.tensor import Tensor


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        state = train.AdamState.for_params(p, lr=0.1)
        train.adam_step(p, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(p["w"].data, [1.0, -2.0])

    def test_first_step_hand_computation(self):
        p = {"w": Tensor(np.array([0.5]), requires_grad=True)}
        state = train.AdamState.for_params(p, lr=0.01)
        g = np.array([0.3])
        train.adam_step(p, {"w": g}, state)
        mhat = g  # (1-b1)g / (1-b1)
        vhat = g * g
        expected = 0.5 - 0.01 * mhat / (np.sqrt(vhat) + train.ADAM_EPS)
        np.testing.assert_allclose(p["w"].data, expected, atol=1e-15)

    def test_decoupled_weight_decay(self):
        p = {"w": Tensor(np.array([2.0]), requires_grad=True)}
        state = train.AdamState.for_params(p, lr=0.1, weight_decay=0.5)
        train.adam_step(p, {"w": np.zeros(1)}, state)
        np.testing.assert_allclose(p["w"].data, [2.0 - 0.1 * 0.5 * 2.0], atol=1e-15)

    def test_shape_mismatch(self):
        p = {"w": Tensor(np.zeros(3), requires_grad=True)}
        state = train.AdamState.for_params(p)
        with pytest.raises(ShapeError):
            train.adam_step(p, {"w": np.zeros(4)}, state)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_in_place_moments_match_reference_formula(self, weight_decay):
        rng = np.random.default_rng(7)
        shapes = {"w": (5, 4), "b": (4,)}
        params = {k: Tensor(rng.standard_normal(s), requires_grad=True) for k, s in shapes.items()}
        ref = {k: p.data.copy() for k, p in params.items()}
        state = train.AdamState.for_params(params, lr=0.01, weight_decay=weight_decay)
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        b1, b2, eps, lr = train.ADAM_BETA1, train.ADAM_BETA2, train.ADAM_EPS, state.lr
        for step in range(1, 6):
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            train.adam_step(params, grads, state)
            for k, g in grads.items():  # the allocating formula, term for term
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                mhat = m[k] / (1.0 - b1**step)
                vhat = v[k] / (1.0 - b2**step)
                new = ref[k] - lr * mhat / (np.sqrt(vhat) + eps)
                if weight_decay > 0.0:
                    new = new - lr * weight_decay * ref[k]
                ref[k] = new
                assert params[k].data.tobytes() == ref[k].tobytes()
                assert state.m[k].tobytes() == m[k].tobytes()
                assert state.v[k].tobytes() == v[k].tobytes()

    @pytest.mark.parametrize("settings", [
        {"lr": 0.0}, {"lr": -1.0}, {"lr": float("nan")}, {"lr": float("inf")},
        {"weight_decay": -1.0}, {"weight_decay": float("nan")}, {"weight_decay": float("inf")}])
    def test_settings_are_checked(self, settings):
        p = {"w": Tensor(np.zeros(2), requires_grad=True)}
        with pytest.raises(ConfigError):
            train.AdamState(**settings)
        with pytest.raises(ConfigError):
            train.AdamState.for_params(p, **settings)


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ConfigError):
            train.AccumulationSchedule(mbs=0, bs=4, epochs=1)
        with pytest.raises(ConfigError):
            train.AccumulationSchedule(mbs=4, bs=2, epochs=1)
        with pytest.raises(ConfigError):
            train.AccumulationSchedule(mbs=4, bs=10, epochs=1)  # not a multiple
        with pytest.raises(ConfigError, match="epochs must be at least 1"):
            train.AccumulationSchedule(mbs=4, bs=4, epochs=0)
        train.AccumulationSchedule(mbs=4, bs=12, epochs=1)

    def test_dataset_must_fill_one_minibatch(self):
        net = nn.build_mlp(2, [4], 2, seed=0)
        sched = train.AccumulationSchedule(mbs=64, bs=64, epochs=1)
        opt = train.AdamState.for_params(net.parameters())
        objective = dml.make_dml_objective(dml.DmlConfig(partitions=2))
        with pytest.raises(ConfigError):
            train.train_objective(net, np.zeros((10, 2)), objective, sched, opt, seed=0)


def constant_prior_objective(prior):
    """Per-sample decomposable loss (prior held constant) for linearity checks."""

    def objective(net, xb, rng):
        out = net.forward(xb, "eval")
        loss = T.neg(T.tmean(T.tsum(out * T.log(out / Tensor(prior) + 1e-8), axis=1)))
        return loss, {"total": loss.item()}

    return objective


class TestAccumulation:
    def test_accumulated_equals_full_batch_for_decomposable_loss(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((64, 3))
        prior = np.full(4, 0.25)
        objective = constant_prior_objective(prior)

        grads = {}
        for mbs in (16, 64):
            net = nn.build_mlp(3, [6], 4, seed=9)
            params = net.parameters()
            window = []
            for start in range(0, 64, mbs):
                loss, _ = objective(net, Tensor(points[start:start + mbs]), rng)
                window.append(T.gradients(loss, params))
            grads[mbs] = {n: np.mean([w[n] for w in window], axis=0) for n in params}
        for name in grads[64]:
            np.testing.assert_allclose(grads[16][name], grads[64][name], atol=1e-12)

    def test_prior_nonlinearity_diagnostic(self):
        # with the live batch-mean prior the same identity breaks; report the gap
        rng = np.random.default_rng(1)
        points = rng.standard_normal((64, 3))

        def live(net, xb):
            out = net.forward(xb, "eval")
            p = bayes.PosteriorBatch(out)
            return mim.mim_v1_loss(p)

        net = nn.build_mlp(3, [6], 4, seed=9)
        params = net.parameters()
        full = T.gradients(live(net, Tensor(points)), params)
        parts = [T.gradients(live(net, Tensor(points[s:s + 16])), params)
                 for s in range(0, 64, 16)]
        gap = max(np.abs(np.mean([p[n] for p in parts], axis=0) - full[n]).max()
                  for n in params)
        print(f"prior-estimation nonlinearity gap (diagnostic): {gap:.3e}")
        assert np.isfinite(gap)

    def test_degenerate_schedule_one_update_per_batch(self):
        rng = np.random.default_rng(2)
        ds = D.standardize(D.make_two_moons(32, seed=3))
        net = nn.build_mlp(2, [8], 2, seed=4, batchnorm=True)
        sched = train.AccumulationSchedule(mbs=16, bs=16, epochs=2)
        opt = train.AdamState.for_params(net.parameters())
        log = train.train_objective(net, ds.points,
                                    dml.make_dml_objective(dml.DmlConfig(partitions=2)),
                                    sched, opt, seed=5)
        assert len(log.records) == 8  # 4 mini-batches per epoch, 2 epochs
        assert [r["step"] for r in log.records] == list(range(1, 9))

    def test_window_groups_minibatches(self):
        ds = D.standardize(D.make_two_moons(32, seed=6))
        net = nn.build_mlp(2, [8], 2, seed=7, batchnorm=True)
        sched = train.AccumulationSchedule(mbs=16, bs=64, epochs=1)
        opt = train.AdamState.for_params(net.parameters())
        log = train.train_objective(net, ds.points,
                                    dml.make_dml_objective(dml.DmlConfig(partitions=2)),
                                    sched, opt, seed=8)
        assert len(log.records) == 1  # 4 mini-batches accumulated into one update

    @pytest.mark.parametrize("window", [1, 2])
    def test_adam_sees_copying_accumulation_bitwise(self, monkeypatch, window):
        # reference: copy the first mini-batch's gradients, add the others in
        # place, scale by 1/count; a window of one passes the gradients as they are
        computed, received = [], []
        real_gradients, real_adam = train.gradients, train.adam_step

        def spy_gradients(loss, params):
            grads = real_gradients(loss, params)
            computed.append(grads)
            return grads

        def spy_adam(params, grads, state):
            received.append(dict(grads))
            real_adam(params, grads, state)

        monkeypatch.setattr(train, "gradients", spy_gradients)
        monkeypatch.setattr(train, "adam_step", spy_adam)
        ds = D.standardize(D.make_two_moons(32, seed=6))
        net = nn.build_mlp(2, [8], 2, seed=7, batchnorm=True)
        sched = train.AccumulationSchedule(mbs=8, bs=8 * window, epochs=2)
        opt = train.AdamState.for_params(net.parameters())
        train.train_objective(net, ds.points, dml.make_dml_objective(dml.DmlConfig(partitions=2)),
                              sched, opt, seed=8)
        assert len(computed) == 16 and len(received) == 16 // window  # 2 epochs of 64 points
        for update, grads in enumerate(received):
            window_grads = computed[update * window:(update + 1) * window]
            for name, g in grads.items():
                want = window_grads[0][name].copy()
                for other in window_grads[1:]:
                    want += other[name]
                want = want * (1.0 / window)
                assert g.tobytes() == want.tobytes(), (update, name)
                if window == 1:
                    assert g is window_grads[0][name]  # held, not copied


def poisoned(objective, at_call, *, param=None):
    """``objective`` whose ``at_call``-th call (1-based) returns a NaN loss,
    or, with ``param``, a finite loss whose gradient of that leaf is NaN."""
    calls = [0]

    def wrapped(net, xb, rng):
        loss, terms = objective(net, xb, rng)
        calls[0] += 1
        if calls[0] != at_call:
            return loss, terms
        if param is None:
            nan = Tensor._from_op(np.array(np.nan), (loss,), "poison")  # NaN, on the tape
            nan._backward = lambda g: T._accum(loss, g)
            return nan, terms
        leaf = net.parameters()[param]
        bad = Tensor._from_op(leaf.data, (leaf,), "poison")  # identity, NaN backward
        bad._backward = lambda g: T._accum(leaf, np.full(leaf.shape, np.nan))
        return loss + T.tsum(bad) * 0.0, terms

    return wrapped


class TestNonFinite:
    def _train(self, objective, bs=16):
        ds = D.standardize(D.make_two_moons(32, seed=3))
        net = nn.build_mlp(2, [8], 2, seed=4, batchnorm=True)
        sched = train.AccumulationSchedule(mbs=16, bs=bs, epochs=3)
        opt = train.AdamState.for_params(net.parameters())
        return net, opt, lambda: train.train_objective(net, ds.points, objective, sched, opt, seed=5)

    def test_nan_loss_raises_at_its_step(self):
        base = dml.make_dml_objective(dml.DmlConfig(partitions=2))
        net, opt, run = self._train(poisoned(base, 3))
        before = {n: p.data.copy() for n, p in net.parameters().items()}
        with pytest.raises(DomainError, match=r"loss is nan at update step 3 \(epoch 0, mini-batch 2\)"):
            run()
        assert opt.step == 2  # the two clean mini-batches were applied, the third was not
        assert all(np.isfinite(p.data).all() for p in net.parameters().values())
        assert any(not np.array_equal(p.data, before[n]) for n, p in net.parameters().items())

    def test_nan_gradient_names_the_parameter(self):
        base = dml.make_dml_objective(dml.DmlConfig(partitions=2))
        # 64 points: four mini-batches per epoch, two per update; the fifth
        # call is update 3's first half
        net, opt, run = self._train(poisoned(base, 5, param="layer3.weight"), bs=32)
        with pytest.raises(DomainError, match=r"gradient of layer3.weight is not finite "
                                              r"at update step 3 \(epoch 1, mini-batch 0\)"):
            run()
        assert opt.step == 2
        assert all(np.isfinite(p.data).all() for p in net.parameters().values())


class TestDeterminism:
    def _run(self, seed):
        ds = D.standardize(D.make_two_moons(40, seed=1))
        net = nn.build_mlp(2, [10], 2, seed=2, batchnorm=True)
        sched = train.AccumulationSchedule(mbs=20, bs=40, epochs=3)
        opt = train.AdamState.for_params(net.parameters())
        cfg = dml.DmlConfig(partitions=2, beta=1.0)
        log = train.train_objective(net, ds.points, dml.make_dml_objective(cfg),
                                    sched, opt, seed=seed)
        return net, log

    def test_identical_seeds_identical_trajectories(self):
        net_a, log_a = self._run(7)
        net_b, log_b = self._run(7)
        for name, p in net_a.parameters().items():
            assert np.array_equal(p.data, net_b.parameters()[name].data), name
        assert log_a.records == log_b.records

    def test_different_seed_differs(self):
        net_a, _ = self._run(7)
        net_b, _ = self._run(8)
        assert any(not np.array_equal(p.data, net_b.parameters()[name].data)
                   for name, p in net_a.parameters().items())



# A fresh interpreter, so the heap state does not depend on the tests run before.
# Freeing a 30 MB mmapped array raises glibc's mmap threshold above 1 MB; the 1 MB
# arrays then come from the heap, below a pinned one that keeps them off its top.
HEAP_SCRIPT = """
import os
import numpy as np
from neuralbayes.train import release_free_heap

def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

big = np.ones(30 * 2**20 // 8)
del big
chunks = [np.ones(2**20 // 8) for _ in range(64)]
pin = np.ones(2**20 // 8)
del chunks
before = rss()
release_free_heap()
print(before - rss())
"""


# The same skeleton in a fresh interpreter, after a small training run: the
# kept-heap setting serves 1 MB arrays from the heap and keeps their pages when
# they are freed, and release_free_heap still hands those pages back.
KEPT_HEAP_SCRIPT = """
import os
import numpy as np
from neuralbayes import data, dml, nn, train

def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

ds = data.standardize(data.make_two_moons(32, seed=1))
net = nn.build_mlp(2, [8], 2, seed=2, batchnorm=True)
train.train_objective(net, ds.points, dml.make_dml_objective(dml.DmlConfig(partitions=2)),
                      train.AccumulationSchedule(mbs=16, bs=16, epochs=1),
                      train.AdamState.for_params(net.parameters()), seed=3)
chunks = [np.ones(2**20 // 8) for _ in range(64)]
held = rss()
del chunks
kept = rss()
train.release_free_heap()
print(held - kept, kept - rss())
"""


def tape_array(loss):
    """The largest array on ``loss``'s tape that no leaf holds: only the tape does."""
    return max((node.data for node in T._toposort(loss) if node.op != "leaf"), key=np.size)


class TestMemory:
    def _train(self, objective, epochs=2, callback=None, bs=32):
        ds = D.standardize(D.make_two_moons(32, seed=1))
        net = nn.build_mlp(2, [8], 2, seed=2, batchnorm=True)
        sched = train.AccumulationSchedule(mbs=16, bs=bs, epochs=epochs)
        opt = train.AdamState.for_params(net.parameters())
        train.train_objective(net, ds.points, objective, sched, opt, seed=3,
                              epoch_callback=callback)
        return net

    def test_no_tape_alive_when_heap_released(self, monkeypatch):
        inner = dml.make_dml_objective(dml.DmlConfig(partitions=2, beta=1.0))
        tapes, alive = [], []

        def objective(net, xb, rng):
            loss, terms = inner(net, xb, rng)
            tapes.append(weakref.ref(tape_array(loss)))
            return loss, terms

        monkeypatch.setattr(train, "release_free_heap",
                            lambda: alive.append(sum(ref() is not None for ref in tapes)))
        self._train(objective)
        assert len(tapes) == 8  # 2 epochs of 4 mini-batches
        assert alive == [0]

    @pytest.mark.parametrize("bs", [16, 32])  # a window of one and of two mini-batches
    def test_one_tape_alive_per_step(self, bs):
        inner = dml.make_dml_objective(dml.DmlConfig(partitions=2, beta=1.0))
        tapes, alive, held = [], [], []

        def objective(net, xb, rng):
            alive.append(sum(ref() is not None for ref in tapes))
            held.append(sorted(n for n, p in net.parameters().items() if p.grad is not None))
            loss, terms = inner(net, xb, rng)
            tapes.append(weakref.ref(tape_array(loss)))
            return loss, terms

        net = self._train(objective, bs=bs)
        assert alive == [0] * 8
        assert held == [[]] * 8
        assert all(p.grad is None for p in net.parameters().values())

    @pytest.mark.parametrize("bs", [16, 32])
    def test_no_update_gradient_alive_after_its_update(self, monkeypatch, bs):
        # the arrays Adam was handed are gone by the next forward and by the
        # epoch callback, which in a stopping-split run evaluates the holdout
        inner = dml.make_dml_objective(dml.DmlConfig(partitions=2))
        real_adam, used, alive = train.adam_step, [], []

        def spy_adam(params, grads, state):
            real_adam(params, grads, state)
            used.extend(weakref.ref(g) for g in grads.values())

        def count(*_):
            alive.append(sum(ref() is not None for ref in used))

        def objective(net, xb, rng):
            count()
            return inner(net, xb, rng)

        monkeypatch.setattr(train, "adam_step", spy_adam)
        self._train(objective, callback=count, bs=bs)
        assert len(used) > 0
        assert alive == [0] * len(alive)

    def test_failed_step_releases_heap_without_its_tape(self, monkeypatch):
        inner = poisoned(dml.make_dml_objective(dml.DmlConfig(partitions=2)), 3)
        tapes, alive = [], []

        def objective(net, xb, rng):
            loss, terms = inner(net, xb, rng)
            tapes.append(weakref.ref(tape_array(loss)))
            return loss, terms

        monkeypatch.setattr(train, "release_free_heap",
                            lambda: alive.append(sum(ref() is not None for ref in tapes)))
        ds = D.standardize(D.make_two_moons(32, seed=1))
        net = nn.build_mlp(2, [8], 2, seed=2, batchnorm=True)
        with pytest.raises(DomainError, match="loss is nan"):
            train.train_objective(net, ds.points, objective,
                                  train.AccumulationSchedule(mbs=16, bs=32, epochs=2),
                                  train.AdamState.for_params(net.parameters()), seed=3)
        assert len(tapes) == 3
        assert alive == [0]
        assert all(p.grad is None for p in net.parameters().values())

    @pytest.mark.parametrize("stop_after", [None, 0])
    def test_free_heap_released_once_on_return(self, monkeypatch, stop_after):
        events = []
        monkeypatch.setattr(train, "release_free_heap", lambda: events.append("release"))

        def callback(epoch, net):
            events.append(f"callback {epoch}")
            return epoch == stop_after

        self._train(dml.make_dml_objective(dml.DmlConfig(partitions=2)), callback=callback)
        expected = ["callback 0", "release"] if stop_after == 0 else \
            ["callback 0", "callback 1", "release"]
        assert events == expected

    @pytest.mark.parametrize("fails", ["objective", "callback"])
    def test_free_heap_released_once_on_error(self, monkeypatch, fails):
        events = []
        monkeypatch.setattr(train, "release_free_heap", lambda: events.append("release"))
        inner = dml.make_dml_objective(dml.DmlConfig(partitions=2))

        def objective(net, xb, rng):
            if fails == "objective" and len(events) == 1:
                raise RuntimeError("objective failed")
            return inner(net, xb, rng)

        def callback(epoch, net):
            events.append(f"callback {epoch}")
            if fails == "callback":
                raise RuntimeError("callback failed")

        with pytest.raises(RuntimeError, match=f"{fails} failed"):
            self._train(objective, callback=callback)
        assert events == ["callback 0", "release"]

    @pytest.mark.skipif(train._MALLOC_TRIM is None or not os.path.exists("/proc/self/statm"),
                        reason="needs glibc malloc_trim and /proc")
    def test_release_free_heap_returns_freed_pages(self):
        assert int(fresh_interpreter(HEAP_SCRIPT)) >= 32 * 2**20  # half the 64 MB freed below the pin

    @pytest.mark.skipif(train._MALLOPT is None or not os.path.exists("/proc/self/statm"),
                        reason="needs glibc mallopt and /proc")
    def test_kept_heap_still_released(self):
        kept_drop, released = (int(v) for v in fresh_interpreter(KEPT_HEAP_SCRIPT).split())
        assert kept_drop < 8 * 2**20    # freeing 64 MB kept its pages resident
        assert released >= 32 * 2**20   # and the release handed at least half of them back


def fresh_interpreter(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(train.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


class TestLinearProbe:
    def test_separable_features(self):
        rng = np.random.default_rng(3)
        n = 300
        labels = rng.integers(0, 2, n)
        features = rng.standard_normal((n, 5)) * 0.05
        features[:, 0] += labels * 10.0  # margin far above the noise scale
        acc = train.linear_probe(features, labels, hidden_units=16, epochs=20, seed=0)
        assert acc >= 0.99

    def test_random_labels_hit_chance(self):
        rng = np.random.default_rng(4)
        features = rng.standard_normal((400, 6))
        labels = rng.integers(0, 2, 400)
        acc = train.linear_probe(features, labels, hidden_units=8, epochs=5, seed=1)
        assert 0.4 <= acc <= 0.6

    def test_encoder_untouched(self):
        rng = np.random.default_rng(5)
        net = nn.build_mlp(4, [12, 12], None, seed=6)
        before = {n: p.data.copy() for n, p in net.parameters().items()}
        points = rng.standard_normal((100, 4))
        feats = train.extract_features(net, points, tap="last")
        train.linear_probe(feats, rng.integers(0, 3, 100), hidden_units=8, epochs=3, seed=2)
        for name, p in net.parameters().items():
            assert np.array_equal(p.data, before[name]), name

    @pytest.mark.parametrize("bn_train_mode", [False, True])
    def test_extract_features_moves_no_buffer(self, monkeypatch, bn_train_mode):
        net = nn.build_cnn("C(4,3,1,0)-P(2,2,0,max)-C(6,3,1,0)", (1, 8, 8), seed=3)
        for layer in net.layers:
            if isinstance(layer, nn.BatchNormLayer):
                layer.running_mean = np.full(layer.features, 0.3)
                layer.running_var = np.full(layer.features, 2.0)
        before = {k: b.copy() for k, b in net.buffers().items()}
        points = np.random.default_rng(10).standard_normal((12, 1, 8, 8))
        monkeypatch.setattr(train, "_BN_GROUP_ROWS", 5)
        feats = train.extract_features(net, points, bn_train_mode=bn_train_mode)
        for name, b in net.buffers().items():
            assert b.tobytes() == before[name].tobytes(), name
        mode = "batch" if bn_train_mode else "eval"
        # chunk by chunk, as the extraction batches them: eval mode splits the
        # 12 rows into two chunks of 6, one per lane; batch mode takes
        # ceil(12 / 5) = 3 groups of 4
        edges = [0, 4, 8, 12] if bn_train_mode else [0, 6, 12]
        want = []
        for s, e in zip(edges, edges[1:]):
            h = net.forward_with_states(Tensor(points[s:e]), mode)[1][-1].data
            want.append(h.reshape(h.shape[0], -1))
        assert np.array_equal(feats, np.vstack(want))

    def test_tap_selection(self):
        net = nn.build_mlp(3, [7, 9], 2, seed=8)
        x = np.random.default_rng(9).standard_normal((5, 3))
        assert train.extract_features(net, x, tap="h0").shape == (5, 7)
        assert train.extract_features(net, x, tap="h1").shape == (5, 9)
        assert train.extract_features(net, x, tap="last").shape == (5, 9)
        assert train.extract_features(net, x, tap="out").shape == (5, 2)
        with pytest.raises(ConfigError, match="unknown tap"):
            train.extract_features(net, x, tap="h7")

    @pytest.mark.parametrize("labels", [[0, 1, -1, 1, 0, 1, 0, 1], [-1] * 8])
    def test_negative_labels_rejected(self, labels):
        # -1 would index the last one-hot row, and all -1 would leave no class
        features = np.random.default_rng(12).standard_normal((8, 3))
        with pytest.raises(DomainError, match="nonnegative"):
            train.linear_probe(features, np.array(labels), epochs=1)

    def test_non_finite_loss_fails_fast(self):
        # 300 training rows make two mini-batches of 128 per epoch; a huge
        # learning rate overflows the weights in the first update
        rng = np.random.default_rng(13)
        features, labels = rng.standard_normal((400, 3)), rng.integers(0, 2, 400)
        with np.errstate(all="ignore"), pytest.raises(
                DomainError, match=r"loss is nan at update step 2 \(epoch 0, mini-batch 1\)"):
            train.linear_probe(features, labels, hidden_units=8, epochs=2, lr=1e300, seed=2)

    def test_one_row_leaves_no_training_rows(self):
        # the held-out quarter rounds up to one row, which is all of them
        features = np.random.default_rng(11).standard_normal((1, 3))
        with pytest.raises(ConfigError, match="leaves no training rows"):
            train.linear_probe(features, np.array([0]))


MIM_CNN_ARCH = "C(64,3,1,0)-P(2,2,0,max)-C(128,3,1,0)"   # train-mim's default cnn-arch


def forward_rows(monkeypatch, net, points, **kwargs):
    """``extract_features``'s result and the row count of every forward it
    ran, in the order of the rows they read: each forward's input is a view
    of ``points``, and the sizing forward, which reads the first row, comes
    before any chunk (the sort is stable)."""
    calls, real = [], net.forward_with_states
    base, row_bytes = points.__array_interface__["data"][0], points[0].nbytes

    def spy(x, mode):
        calls.append(((x.data.__array_interface__["data"][0] - base) // row_bytes, x.shape[0]))
        return real(x, mode)

    monkeypatch.setattr(net, "forward_with_states", spy)
    feats = train.extract_features(net, points, **kwargs)
    return feats, [rows for _, rows in sorted(calls, key=lambda call: call[0])]


def chunk_by_chunk(net, points, rows, mode="eval", tap=-1):
    """The features of forwards of ``rows`` rows at a time, in order, on
    OpenBLAS's one thread, as ``extract_features`` runs them."""
    edges = np.cumsum([0, *rows])
    want = []
    with T.lanes():
        for s, e in zip(edges, edges[1:]):
            out, states = net.forward_with_states(Tensor(points[s:e]), mode)
            h = out if tap is None else states[tap]
            want.append(h.data.reshape(h.shape[0], -1))
    return np.vstack(want)


class TestEvalChunks:
    """Eval-mode chunks of max(1, min(8 MiB // (8 * widest), ceil(N / 2)))
    rows, with widest read from a one-row forward, so two lanes' chunks
    together hold what one 16 MiB chunk held, and N >= 2 rows make at least
    two chunks; batch-mode statistics groups of near-equal size."""

    def test_mim_cnn_encoder_takes_83_rows(self, monkeypatch):
        net = nn.build_cnn(MIM_CNN_ARCH, (1, 16, 16), seed=2, batchnorm=True)
        points = np.random.default_rng(20).standard_normal((500, 1, 16, 16))
        feats, rows = forward_rows(monkeypatch, net, points)
        assert rows == [1] + [83] * 6 + [2]   # widest: the 64x14x14 first state
        monkeypatch.undo()
        assert np.array_equal(feats, chunk_by_chunk(net, points, rows[1:]))

    def test_dml_mlp_predicts_2000_rows_in_two_chunks(self, monkeypatch):
        net = nn.build_mlp(512, [400] * 4, 2, seed=3, batchnorm=True, softmax_head=True)
        rng = np.random.default_rng(21)
        for layer in net.layers:
            if isinstance(layer, nn.BatchNormLayer):
                layer.running_mean = rng.standard_normal(layer.features)
                layer.running_var = rng.uniform(0.5, 2.0, layer.features)
        points = rng.standard_normal((2000, 512))
        want = chunk_by_chunk(net, points, [1000, 1000], tap=None)
        pred = train.predict_components(net, points)
        assert pred.tobytes() == want.argmax(axis=1).tobytes()
        feats, rows = forward_rows(monkeypatch, net, points, tap="out")
        assert rows == [1, 1000, 1000] and np.array_equal(feats, want)

    @pytest.mark.parametrize("n, want", [(1, [1, 1]), (2, [1, 1, 1]), (5, [1, 3, 2]),
                                         (7, [1, 4, 3])])
    def test_two_rows_make_two_chunks(self, monkeypatch, n, want):
        net = nn.build_mlp(3, [6], 2, seed=4, batchnorm=True)
        points = np.random.default_rng(25).standard_normal((n, 3))
        feats, rows = forward_rows(monkeypatch, net, points, tap="h0")
        assert rows == want
        monkeypatch.undo()
        assert np.array_equal(feats, chunk_by_chunk(net, points, rows[1:], tap=0))

    def test_peak_memory_does_not_grow_with_rows(self):
        net = nn.build_cnn(MIM_CNN_ARCH, (1, 16, 16), seed=2, batchnorm=True)
        rng = np.random.default_rng(22)
        extra = {}
        for n in (500, 2000):
            points = rng.standard_normal((n, 1, 16, 16))
            tracemalloc.start()
            try:
                feats = train.extract_features(net, points)
                extra[n] = tracemalloc.get_traced_memory()[1] - feats.nbytes
            finally:
                tracemalloc.stop()
        assert abs(extra[2000] - extra[500]) <= 0.1 * extra[500], extra

    def test_batch_mode_groups_near_equal(self, monkeypatch):
        # 11 = 2 * 5 + 1: fixed groups of 5 would leave one row for batch statistics
        net = nn.build_mlp(3, [6], None, seed=4, batchnorm=True)
        points = np.random.default_rng(23).standard_normal((11, 3))
        monkeypatch.setattr(train, "_BN_GROUP_ROWS", 5)
        feats, rows = forward_rows(monkeypatch, net, points, bn_train_mode=True)
        assert rows == [3, 4, 4]
        want = [net.forward_with_states(Tensor(points[s:e]), "batch")[1][-1].data
                for s, e in ((0, 3), (3, 7), (7, 11))]
        assert np.array_equal(feats, np.vstack(want))

    @pytest.mark.parametrize("n, group_rows, want", [(5, 2, [2, 3]), (3, 1, [3]), (2, 5, [2])])
    def test_batch_mode_never_leaves_a_single_row(self, monkeypatch, n, group_rows, want):
        net = nn.build_mlp(3, [6], None, seed=4, batchnorm=True)
        points = np.random.default_rng(24).standard_normal((n, 3))
        monkeypatch.setattr(train, "_BN_GROUP_ROWS", group_rows)
        _, rows = forward_rows(monkeypatch, net, points, bn_train_mode=True)
        assert rows == want

    @pytest.mark.parametrize("n, size, groups", [
        (1, 1000, [1]), (2000, 1000, [1000, 1000]), (2001, 1000, [667, 667, 667]),
        (12, 5, [4, 4, 4]), (11, 5, [3, 4, 4]), (10, 5, [5, 5]), (200, 400, [200]),
        (800, 400, [400, 400]), (7, 2, [2, 2, 3]), (6, 2, [2, 2, 2]), (5, 1, [2, 3]),
        (4, 1, [2, 2]), (3, 1, [3]), (2, 1, [2]), (1, 1, [1])])
    def test_near_equal_edges(self, n, size, groups):
        # ceil(n / size) groups whose sizes differ by at most one, never a
        # group of one row out of several (sizes 1 and 2 would make one)
        edges = train.near_equal_edges(n, size)
        assert edges[0] == 0 and edges[-1] == n
        assert [b - a for a, b in zip(edges, edges[1:])] == groups


class TestClusterAccuracy:
    def test_perfect(self):
        t = np.array([0, 1, 2, 0, 1, 2])
        assert train.cluster_accuracy(t, t, 3) == 1.0

    def test_binary_flip_is_perfect(self):
        t = np.array([0, 1, 1, 0])
        assert train.cluster_accuracy(1 - t, t, 2) == 1.0

    def test_chance_level(self):
        rng = np.random.default_rng(10)
        pred = rng.integers(0, 2, 4000)
        truth = rng.integers(0, 2, 4000)
        assert abs(train.cluster_accuracy(pred, truth, 2) - 0.5) < 0.05

    def test_ten_clusters_known_relabelling(self):
        rng = np.random.default_rng(11)
        truth = rng.integers(0, 10, 500)
        sigma = rng.permutation(10)
        assert train.cluster_accuracy(sigma[truth], truth, 10) == 1.0
        wrong = sigma[truth]
        wrong[:37] = (wrong[:37] + 1) % 10  # 37 of 500 moved to another cluster
        assert train.cluster_accuracy(wrong, truth, 10) == (500 - 37) / 500

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 9_999))
    def test_agrees_with_brute_force(self, k, n, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, k, n)
        truth = rng.integers(0, k, n)
        conf = np.zeros((k, k))
        np.add.at(conf, (pred, truth), 1)
        best = max(sum(conf[a, sigma[a]] for a in range(k))
                   for sigma in itertools.permutations(range(k)))
        assert train.cluster_accuracy(pred, truth, k) == best / n

    def test_labels_outside_range_rejected(self):
        with pytest.raises(DomainError):
            train.cluster_accuracy(np.array([0, 3]), np.array([0, 1]), 3)
        with pytest.raises(DomainError):
            train.cluster_accuracy(np.array([0, 1]), np.array([-1, 1]), 3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 9_999))
    def test_permutation_invariance(self, k, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, k, 60)
        truth = rng.integers(0, k, 60)
        base = train.cluster_accuracy(pred, truth, k)
        sigma = rng.permutation(k)
        assert train.cluster_accuracy(sigma[pred], truth, k) == base


class TestTrainLog:
    def test_jsonl_round_trip_and_monotonicity(self, tmp_path):
        log = train.TrainLog()
        log.append(1, {"mi": 0.5, "total": 0.5})
        log.append(2, {"mi": 0.4, "total": 0.4})
        with pytest.raises(ConfigError):
            log.append(2, {"total": 0.0})
        path = tmp_path / "log.jsonl"
        log.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 and '"step": 1' in lines[0]
        log.write_metrics_csv(tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text().startswith("step,term,value")

    def test_records_and_rows_hold_the_terms_given(self, tmp_path):
        log = train.TrainLog()
        log.append(1, {"js_loss": 0.25, "total": 0.25})
        log.append(2, {"js_loss": 0.125, "total": 0.125})
        assert log.records == [{"step": 1, "js_loss": 0.25, "total": 0.25},
                               {"step": 2, "js_loss": 0.125, "total": 0.125}]
        log.write_metrics_csv(tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text().splitlines() == [
            "step,term,value", "1,js_loss,0.25", "1,total,0.25", "2,js_loss,0.125",
            "2,total,0.125"]

    def test_window_terms_are_averaged_by_name(self):
        values = iter([1.0, 2.0, 4.0, 8.0])

        def objective(net, xb, rng):
            loss = T.tmean(net.forward(xb, "train"))
            value = next(values)
            return loss, {"part": value, "total": 2.0 * value}

        net = nn.build_mlp(2, [3], 2, seed=0, softmax_head=True)
        sched = train.AccumulationSchedule(mbs=4, bs=8, epochs=1)
        log = train.train_objective(net, np.random.default_rng(0).standard_normal((16, 2)),
                                    objective, sched, train.AdamState.for_params(net.parameters()),
                                    seed=0)
        assert log.records == [{"step": 1, "part": 1.5, "total": 3.0},
                               {"step": 2, "part": 6.0, "total": 12.0}]


class TestHoldoutEarlyStopper:
    @staticmethod
    def stops(values, patience):
        """The callback's answers for a sequence of holdout values."""
        it = iter(values)
        callback = train.holdout_early_stopper(lambda net: next(it), patience)
        return [callback(epoch, None) for epoch in range(len(values))]

    def test_stops_on_the_patience_th_epoch_without_improvement(self):
        assert self.stops([3.0, 2.0, 2.5, 2.0, 2.1], patience=3) == [False] * 4 + [True]
        assert self.stops([3.0, 3.0], patience=1) == [False, True]
        # an improvement restarts the count
        assert self.stops([3.0, 3.5, 2.0, 2.5, 2.5], patience=2) == [False] * 4 + [True]

    def test_improvement_of_at_most_1e_12_is_none(self):
        assert self.stops([1.0, 1.0 - 1e-12, 1.0 - 0.5e-12], patience=2) == [False, False, True]
        assert self.stops([1.0, 1.0 - 4e-12, 1.0 - 8e-12], patience=2) == [False] * 3

    @pytest.mark.parametrize("patience", [0, -1])
    def test_patience_below_one_is_config_error(self, patience):
        with pytest.raises(ConfigError):
            train.holdout_early_stopper(lambda net: 0.0, patience)
