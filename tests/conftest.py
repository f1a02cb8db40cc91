"""Shared fixtures and the image-protocol harness used by several suites."""

import os
from pathlib import Path

import numpy as np
import pytest

from neuralbayes import data as D
from neuralbayes import mim, nn, train
from neuralbayes import tensor as T
from neuralbayes.tensor import Tensor

MNIST_ENV = "NB_MNIST_DIR"


class CountingNet:
    """Network proxy that counts forwards through either entry point; the
    mode is passed positionally, as the objectives call it."""

    def __init__(self, net: nn.Network):
        self.net, self.calls = net, 0

    def forward(self, x, mode="eval"):
        self.calls += 1
        return self.net.forward(x, mode)

    __call__ = forward

    def forward_with_states(self, x, mode="eval"):
        self.calls += 1
        return self.net.forward_with_states(x, mode)


def first_layer_norm(net: nn.Network, x: Tensor) -> nn.BatchNormLayer | None:
    """The batch norm that a train forward of ``x`` runs inside layer 0's
    ``affine_batch_norm`` node, if any."""
    options, _ = net._nodes("train", x.requires_grad)
    return net.layers[1] if "affine" in options.get(1, {}) else None


def assert_moved_once(net: nn.Network, fresh: nn.Network, x: Tensor) -> None:
    """Every batch-norm buffer of ``net`` holds exactly one momentum update
    from its initial value toward the statistics of the clean batch ``x``,
    whose layer inputs are replayed through ``fresh`` (an untouched copy).
    The batch variance is the per-channel dot product of the centred input
    with itself, the arithmetic of ``T.batch_norm``, so the comparison is
    bitwise, except for a batch norm that runs inside the first layer's
    ``affine_batch_norm`` node: its statistics come from the input's
    covariance, so its buffers are compared within 1e-13 of their largest
    |value|, and the replay goes on from that node's output, so every later
    buffer is still compared bitwise."""
    fused = first_layer_norm(fresh, x)
    h = x
    for i, (layer, used) in enumerate(zip(fresh.layers, net.layers)):
        if isinstance(layer, nn.BatchNormLayer):
            axes = (0,) if h.ndim == 2 else (0, 2, 3)
            m, n = layer.momentum, h.size // layer.features
            mean = h.data.mean(axis=axes)
            centred = h.data - h.data.mean(axis=axes, keepdims=True)
            var = np.einsum("ab,ab->b" if h.ndim == 2 else "abcd,abcd->b", centred, centred) / n
            want_mean = (1 - m) * layer.running_mean + m * mean
            want_var = (1 - m) * layer.running_var + m * (var * (n / (n - 1)))
            for got, want in ((used.running_mean, want_mean), (used.running_var, want_var)):
                if layer is fused:
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
                else:
                    assert got.tobytes() == want.tobytes()
        if i == 0 and fused is not None:
            node_out = fused.forward(h, "batch", affine=layer)
        h = node_out if layer is fused else layer.forward(h, "batch")


def find_mnist() -> tuple[Path, Path] | None:
    """Locate the standard train IDX pair under $NB_MNIST_DIR or data/mnist."""
    base = Path(os.environ.get(MNIST_ENV, Path(__file__).parent.parent / "data" / "mnist"))
    candidates = [
        (base / "train-images-idx3-ubyte", base / "train-labels-idx1-ubyte"),
        (base / "train-images.idx3-ubyte", base / "train-labels.idx1-ubyte"),
    ]
    for img, lbl in candidates:
        if img.exists() and lbl.exists():
            return img, lbl
    return None


def subset_dataset(ds: D.ManifoldDataset, n: int, seed: int) -> D.ManifoldDataset:
    rng = np.random.default_rng(seed)
    idx = rng.permutation(ds.size)[:n]
    return D.ManifoldDataset(ds.points[idx].copy(), ds.components[idx].copy(),
                             seed=seed, meta=dict(ds.meta))


def encoder_state_prior(net: nn.Network, points: np.ndarray, batch_size: int = 2000) -> np.ndarray:
    """Full-dataset estimate of the output-unit prior: mean softmax of the last tap."""
    total = None
    n = points.shape[0]
    for start in range(0, n, batch_size):
        feats = train.extract_features(net, points[start:start + batch_size], tap="last")
        post = T.softmax(Tensor(feats)).data
        s = post.sum(axis=0)
        total = s if total is None else total + s
    return total / n


def dead_unit_fraction(prior: np.ndarray) -> float:
    k = prior.shape[0]
    return float((prior < 1.0 / (10.0 * k)).mean())


def run_mim_encoder(points: np.ndarray, *, hidden, alpha, beta, mbs, bs, epochs,
                    seed, lr=1e-3) -> nn.Network:
    """Train a headless dense encoder with the multi-state information objective."""
    net = nn.build_mlp(points.shape[1], list(hidden), out_units=None, seed=seed)
    cfg = mim.MimConfig(alpha=alpha, beta=beta)
    sched = train.AccumulationSchedule(mbs=mbs, bs=bs, epochs=epochs)
    opt = train.AdamState.for_params(net.parameters(), lr=lr)
    train.train_objective(net, points, mim.make_mim_objective(cfg), sched, opt, seed=seed)
    return net


def probe_encoder(net: nn.Network, points: np.ndarray, labels: np.ndarray, *,
                  epochs=25, seed=0) -> float:
    feats = train.extract_features(net, points, tap="last")
    return train.linear_probe(feats, labels, hidden_units=200, epochs=epochs,
                              lr=1e-3, seed=seed)


def make_synthetic_images(n_per_class: int, classes: int = 10, side: int = 16,
                          noise: float = 0.9, seed: int = 0) -> D.ManifoldDataset:
    """Class-template images plus heavy pixel noise: a stand-in corpus for
    exercising the image protocol when no real image data is available."""
    rng = np.random.default_rng(seed)
    d = side * side
    templates = []
    for _ in range(classes):
        freq_x, freq_y = rng.uniform(0.5, 2.5, 2)
        phase = rng.uniform(0, 2 * np.pi, 2)
        xx, yy = np.meshgrid(np.linspace(0, np.pi, side), np.linspace(0, np.pi, side))
        templates.append(np.sin(freq_x * xx + phase[0]) * np.cos(freq_y * yy + phase[1]))
    points, labels = [], []
    for c, tpl in enumerate(templates):
        flat = tpl.ravel()
        points.append(flat + rng.normal(0.0, noise, (n_per_class, d)))
        labels.append(np.full(n_per_class, c))
    idx = rng.permutation(classes * n_per_class)
    return D.ManifoldDataset(np.vstack(points)[idx], np.concatenate(labels)[idx],
                             seed=seed, meta={"kind": "synthetic-images", "side": side})


@pytest.fixture(scope="session")
def mnist_pair():
    pair = find_mnist()
    if pair is None:
        pytest.skip(
            "MNIST IDX files not available (set NB_MNIST_DIR or place "
            "train-images-idx3-ubyte / train-labels-idx1-ubyte under data/mnist). "
            "This environment has no network access, so the image-protocol "
            "criteria cannot run against real MNIST here.")
    return pair
