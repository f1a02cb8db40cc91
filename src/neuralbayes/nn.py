"""Layers, initialization, reference architectures, and checkpointing.

Networks are flat layer lists.  "Taps" mark layers whose post-activation
output is exported as a hidden state by ``forward_with_states`` (used by the
multi-state information objective and by probe feature extraction).

Every layer follows one protocol (``Layer``): a class names its checkpoint
type in ``TYPE``, the constructor arguments its spec records in ``ARGS``,
and the attributes holding its trainable tensors and running statistics in
``PARAMS`` and ``BUFFERS``, and implements ``forward(x, mode)``.
Checkpoints rebuild each layer from its spec through the ``{TYPE: class}``
registry.  A dense or conv layer whose output goes, untapped, straight into
a batch norm has no bias (``Network`` drops it): the batch mean cancels it.

Every forward takes one of three modes, which only batch norm tells apart
(Ioffe & Szegedy, arXiv:1502.03167):

* ``"train"``: normalize with batch statistics and move the running
  statistics once, the mode of an objective's one clean forward per
  mini-batch;
* ``"batch"``: normalize with batch statistics and leave the running
  statistics alone (perturbed smoothness forwards, batch-statistics
  evaluation);
* ``"eval"``: normalize with the running statistics; nothing mutates.

Each ``BatchNormLayer`` runs as one node, and ``Network.forward_with_states``
hands its ``forward`` a neighbouring layer to run in that node when the
output between the two is not a tapped state:

* the pair rule: the ``ReluLayer`` that directly follows it (``relu=True``;
  a tapped batch norm's state stays pre-ReLU);
* the eval rule: in ``"eval"`` mode, where batch norm is the fixed
  per-channel map ``BatchNormLayer.eval_map``, the ``DenseLayer`` or
  ``Conv2dLayer`` that it directly follows (``affine=``): the node is that
  layer's ``linear`` or ``conv2d`` on parameters with the map folded in,
  and the ReLU of the pair rule clamps inside it;
* the first-layer rule: in ``"train"`` and ``"batch"`` mode, the same
  ``affine=`` when that layer is layer 0 and the network input needs no
  gradient: the node is one ``affine_batch_norm``, which reads the batch
  statistics from the input's K x K covariance (K the fan-in), if 2K is at
  most the layer's output channels (``_covariance_pays``).

Every other layer runs its own op.  ``"train"`` and ``"batch"`` values are
bitwise those of the layer-by-layer forward, except for the first-layer
node, which matches the affine layer and batch norm it replaces to
rounding (and every later layer is bitwise that of its own forward on the
node's output).  Eval values differ only in their last bits (the fold
reorders the arithmetic), and every eval forward, taped or not, still
backpropagates into the batch norm's ``scale`` and ``shift``.  The nodes
change no layer, spec, parameter, tap or checkpoint.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from . import tensor as T
from .tensor import BN_VAR_FLOOR, Tensor

MODES = ("train", "batch", "eval")


def _check_mode(mode) -> None:
    if mode not in MODES:
        raise ConfigError(f"unknown forward mode {mode!r}; expected one of {MODES}")


# (getter, setter) symbol pairs of OpenBLAS's thread count, newest build first
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS that numpy's wheel
    loaded from its ``numpy.libs`` directory, or None where there is none."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))   # the already-loaded library, not a second copy
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


_OPENBLAS_THREADS = _openblas_threads()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore the caller's
    count, also when the block raises; without OpenBLAS, run it as is."""
    if _OPENBLAS_THREADS is None:
        yield
        return
    get, set_ = _OPENBLAS_THREADS
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def orthogonal_init(rows: int, cols: int, seed: int) -> np.ndarray:
    """Orthonormal (rows, cols) matrix, deterministic per seed.

    If rows <= cols the rows are orthonormal (W Wt = I), otherwise the columns
    are (Wt W = I); all singular values are exactly 1 up to float rounding.

    The QR factorization runs with OpenBLAS on one thread, and the caller's
    thread count comes back afterwards.  On a 2-core AVX-512 Xeon a second
    thread made every factorization the library builds slower (576 x 128:
    16-19 ms on two threads against 7-8 ms on one; 1800 x 500: 129-151
    against 107-110 ms); one thread only loses from about 2048 x 2048
    (1114-1216 against 1309-1384 ms), which no preset or default builds.
    One thread also fixes the bits: OpenBLAS splits a large factorization
    differently on one thread than on several, so the init no longer
    depends on the host's thread count.  Where numpy loaded no OpenBLAS the
    QR runs on whatever threads its BLAS uses, as before.
    """
    if rows < 1 or cols < 1:
        raise ShapeError("orthogonal_init needs positive dimensions")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    with _one_blas_thread():
        q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix the sign ambiguity so the result is unique
    if rows < cols:
        q = q.T
    return q[:rows, :cols].copy()


class Layer:
    """Base of every layer (see the module docstring); each name in ``ARGS``
    is also an attribute, which ``spec()`` records."""

    TYPE = ""
    ARGS: tuple[str, ...] = ()
    PARAMS: tuple[str, ...] = ()    # a ``None`` attribute is no parameter
    BUFFERS: tuple[str, ...] = ()

    def forward(self, x: Tensor, mode: str) -> Tensor:
        raise NotImplementedError

    def parameters(self) -> dict[str, Tensor]:
        return {n: getattr(self, n) for n in self.PARAMS if getattr(self, n) is not None}

    def buffers(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.BUFFERS}

    def spec(self) -> dict:
        return {"type": self.TYPE, **{name: getattr(self, name) for name in self.ARGS}}


class DenseLayer(Layer):
    """Affine map x -> x Wt + b with orthogonally initialized weight (out, in)."""

    TYPE, ARGS, PARAMS = "dense", ("in_dim", "out_dim", "seed"), ("weight", "bias")

    def __init__(self, in_dim: int, out_dim: int, seed: int | None = 0):
        self.in_dim, self.out_dim, self.seed = in_dim, out_dim, seed
        if seed is None:
            w = np.zeros((out_dim, in_dim))
        else:
            w = orthogonal_init(out_dim, in_dim, seed)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class Conv2dLayer(Layer):
    """2-D convolution with (out, in, k, k) kernels, orthogonal across the fan-in."""

    TYPE, ARGS = "conv", ("in_channels", "out_channels", "kernel", "stride", "padding", "seed")
    PARAMS = ("kernels", "bias")

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, seed: int | None = 0):
        self.in_channels, self.out_channels = in_channels, out_channels
        self.kernel, self.stride, self.padding, self.seed = kernel, stride, padding, seed
        fan_in = in_channels * kernel * kernel
        if seed is None:
            w = np.zeros((out_channels, fan_in))
        else:
            w = orthogonal_init(out_channels, fan_in, seed)
        self.kernels = Tensor(w.reshape(out_channels, in_channels, kernel, kernel), requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.conv2d(x, self.kernels, self.bias, self.stride, self.padding)


class BatchNormLayer(Layer):
    """Feature-wise normalization with running statistics.

    Train and batch mode normalize with batch statistics (variance floored
    at ``tensor.BN_VAR_FLOOR`` so a constant feature yields zeros rather
    than a division blow-up); train mode also moves the running stats toward them once.
    Eval mode applies ``eval_map``, the affine map of the stored stats.
    Only train mode mutates anything.
    """

    TYPE, ARGS = "batchnorm", ("features", "momentum")
    PARAMS, BUFFERS = ("scale", "shift"), ("running_mean", "running_var")

    def __init__(self, features: int, momentum: float = 0.1):
        if not 0.0 < momentum < 1.0:
            raise ConfigError("batch-norm momentum must lie in (0, 1)")
        self.features, self.momentum = features, momentum
        self.scale = Tensor(np.ones(features), requires_grad=True)
        self.shift = Tensor(np.zeros(features), requires_grad=True)
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)

    def forward(self, x: Tensor, mode: str, relu: bool = False,
                affine: DenseLayer | Conv2dLayer | None = None) -> Tensor:
        """This batch norm as one node; ``relu=True`` also applies the ReLU
        after it, and ``affine`` also runs the bias-free dense or conv layer
        before it, whose input ``x`` then is.

        Eval mode is ``eval_map``: with ``affine``, folded into that layer's
        ``linear`` or ``conv2d`` node as the weight ``weight * coef`` per
        output row or kernel and the bias ``offset``, built on the tape from
        the live leaves (Jacob et al., arXiv:1712.05877); else the map
        itself.  Train and batch mode run ``batch_norm``, or
        ``affine_batch_norm`` with ``affine``, whose input must need no
        gradient."""
        if x.ndim not in (2, 4):
            raise ShapeError(f"batch norm expects (B, F) or (B, C, H, W), got shape {x.shape}")
        _check_mode(mode)
        if mode == "eval":
            coef, offset = self.eval_map()
            if affine is None:
                keep = (-1,) + (1,) * (x.ndim - 2)
                out = T.add(T.mul(x, T.reshape(coef, keep)), T.reshape(offset, keep))
                return T.relu(out) if relu else out
            op, weight, geometry = _affine_op(affine)
            rows = T.reshape(coef, (-1,) + (1,) * (weight.ndim - 1))
            return op(x, T.mul(weight, rows), offset, relu=relu, **geometry)
        if x.shape[0] < 2:
            raise ShapeError(f"{mode}-mode batch norm needs a batch of at least 2")
        if affine is None:
            out, mean, var = T.batch_norm(x, self.scale, self.shift, relu=relu)
        else:
            _, weight, geometry = _affine_op(affine)
            out, mean, var = T.affine_batch_norm(x, weight, self.scale, self.shift, relu=relu,
                                                 **geometry)
        if mode == "train":   # the unbiased batch variance moves the running one
            n = out.size // self.features
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * (var * (n / (n - 1))))
        return out

    def eval_map(self) -> tuple[Tensor, Tensor]:
        """Eval mode as the per-channel map ``x * coef + offset``, both taped
        (features,) tensors of ``scale`` and ``shift``: ``coef = scale /
        sqrt(max(running_var, BN_VAR_FLOOR))`` and ``offset = shift -
        running_mean * coef``."""
        coef = T.div(self.scale, np.sqrt(np.maximum(self.running_var, BN_VAR_FLOOR)))
        return coef, T.sub(self.shift, T.mul(self.running_mean, coef))

    def absorb_bias(self, affine: DenseLayer | Conv2dLayer) -> None:
        """Drop the bias of the layer before: the batch mean cancels it, and
        the running mean takes it over, which keeps the eval map to rounding."""
        if affine.bias is not None:
            self.running_mean = self.running_mean - affine.bias.data
            affine.bias = None


def _affine_op(layer: DenseLayer | Conv2dLayer) -> tuple:
    """A dense layer's op ``T.linear`` and weight, or a conv's ``T.conv2d``,
    kernels, and stride and padding as keyword arguments."""
    if isinstance(layer, DenseLayer):
        return T.linear, layer.weight, {}
    return T.conv2d, layer.kernels, {"stride": layer.stride, "padding": layer.padding}


class ReluLayer(Layer):
    TYPE = "relu"

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.relu(x)


class TanhLayer(Layer):
    TYPE = "tanh"

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.tanh(x)


class SoftmaxLayer(Layer):
    """Softmax along the feature/channel axis (axis 1)."""

    TYPE = "softmax"

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.softmax(x)


class MaxPool2dLayer(Layer):
    TYPE, ARGS = "maxpool", ("kernel", "stride")

    def __init__(self, kernel: int = 2, stride: int = 2):
        self.kernel, self.stride = kernel, stride

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.max_pool2d(x, self.kernel, self.stride)


class AvgPool2dLayer(Layer):
    """Average pooling; ``spatial_all=True`` pools the whole map to 1x1."""

    TYPE, ARGS = "avgpool", ("kernel", "stride", "spatial_all")

    def __init__(self, kernel: int = 2, stride: int = 2, spatial_all: bool = False):
        self.kernel, self.stride, self.spatial_all = kernel, stride, spatial_all

    def forward(self, x: Tensor, mode: str) -> Tensor:
        if self.spatial_all:
            return T.reshape(T.tmean(x, axis=(2, 3)), (x.shape[0], x.shape[1], 1, 1))
        return T.avg_pool2d(x, self.kernel, self.stride)


class FlattenLayer(Layer):
    TYPE = "flatten"

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return T.reshape(x, (x.shape[0], -1))


_LAYER_TYPES = {cls.TYPE: cls for cls in Layer.__subclasses__()}


class Network:
    """An ordered layer stack with declared hidden-state taps."""

    def __init__(self, layers: Sequence, taps: Sequence[int] = ()):
        self.layers = list(layers)
        for t in taps:
            if not 0 <= t < len(self.layers):
                raise ConfigError(f"tap {t} does not reference an existing layer")
        self.taps = tuple(taps)
        for i in _before_batch_norm(self.layers, self.taps):
            self.layers[i + 1].absorb_bias(self.layers[i])

    def forward_with_states(self, x, mode: str = "eval", *,
                            train: bool | None = None) -> tuple[Tensor, list[Tensor]]:
        """Run the stack in ``mode`` (see the module docstring), returning the
        final output and every tapped state in order.

        ``train=True`` / ``train=False`` is the boolean spelling of
        ``"train"`` / ``"eval"``, kept for callers written before the modes
        (the benchmark's checks).
        """
        if train is not None:
            mode = "train" if train else "eval"
        _check_mode(mode)
        h = x if isinstance(x, Tensor) else Tensor(x)
        options, absorbed = self._nodes(mode, h.requires_grad)
        states = {}
        for i, layer in enumerate(self.layers):
            if i not in absorbed:   # else it runs in a batch norm's node
                h = layer.forward(h, mode, **options.get(i, {}))
            if i in self.taps:
                states[i] = h
        return h, [states[i] for i in self.taps]

    def _nodes(self, mode: str, input_grad: bool) -> tuple[dict[int, dict], set[int]]:
        """The batch norms that run a neighbouring layer in their own node
        (see the module docstring): the keyword arguments of each one's
        forward, by index, and the indices of the layers they absorb.  A
        layer is absorbed only when the output between it and the batch norm
        is not a tapped state.  The ``ReluLayer`` after a batch norm is
        absorbed by the pair rule; the dense or conv layer before it
        (``_before_batch_norm``) by the eval rule, and by the first-layer
        rule when it is layer 0, the network input (``input_grad``) needs no
        gradient and ``_covariance_pays``.  Such a layer has no bias, since
        no path would use one: a bias set after the network was built raises
        ``ConfigError``."""
        options, absorbed = {}, set()
        for i, (layer, after) in enumerate(zip(self.layers, self.layers[1:])):
            if (i not in self.taps and isinstance(layer, BatchNormLayer)
                    and isinstance(after, ReluLayer)):
                options.setdefault(i, {})["relu"] = True
                absorbed.add(i + 1)
        for i in _before_batch_norm(self.layers, self.taps):
            if self.layers[i].bias is not None:
                raise ConfigError(f"layer {i} feeds a batch norm, which cancels its bias; "
                                  "it must have none")
            if mode == "eval" or (i == 0 and not input_grad and _covariance_pays(self.layers[0])):
                options.setdefault(i + 1, {})["affine"] = self.layers[i]
                absorbed.add(i)
        return options, absorbed

    def forward(self, x, mode: str = "eval", *, train: bool | None = None) -> Tensor:
        out, _ = self.forward_with_states(x, mode, train=train)
        return out

    __call__ = forward

    def parameters(self) -> dict[str, Tensor]:
        return {f"layer{i}.{name}": p for i, layer in enumerate(self.layers)
                for name, p in layer.parameters().items()}

    def buffers(self) -> dict[str, np.ndarray]:
        return {f"layer{i}.{name}": b for i, layer in enumerate(self.layers)
                for name, b in layer.buffers().items()}

    def tap_names(self) -> list[str]:
        return [f"h{j}" for j in range(len(self.taps))]

    def spec(self) -> dict:
        return {"layers": [l.spec() for l in self.layers], "taps": list(self.taps)}


def _before_batch_norm(layers: Sequence[Layer], taps: Sequence[int]) -> list[int]:
    """The dense and conv layers, by index, whose output goes untapped into a
    batch norm: those have no bias, and the batch norm's node may run them."""
    return [i for i, (layer, after) in enumerate(zip(layers, layers[1:]))
            if i not in taps and isinstance(layer, (DenseLayer, Conv2dLayer))
            and isinstance(after, BatchNormLayer)]


def _covariance_pays(layer: DenseLayer | Conv2dLayer) -> bool:
    """Whether ``affine_batch_norm`` pays off for ``layer``: its K x K input
    covariance, K the fan-in, costs at most half the layer's own GEMM (2K <=
    output channels).  Forcing the node on and off in 8 interleaved rounds
    (2-core Xeon, float64), the MIM objective step of train-mim's default
    CNN (9 -> 64 conv) took 0.80x as long with it, the DML step of the
    2 -> 400 MLP 0.97x, and that of the 512 -> 400 MLP 1.29x."""
    weight = _affine_op(layer)[1]
    return 2 * (weight.size // weight.shape[0]) <= weight.shape[0]


def _child_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def build_mlp(in_dim: int, hidden: Sequence[int], out_units: int | None, seed: int,
              batchnorm: bool = False, softmax_head: bool = True,
              activation: str = "relu") -> Network:
    """Dense encoder: per hidden width a Dense(+BatchNorm)+activation block,
    tapped after each activation, optionally followed by a Dense head with
    softmax.

    ``out_units=None`` builds a headless encoder whose output is the last tap.
    """
    act = {"relu": ReluLayer, "tanh": TanhLayer}
    if activation not in act:
        raise ConfigError(f"unknown activation {activation!r}")
    for width in hidden:
        if width < 1:
            raise ConfigError(f"hidden width {width} is not a positive number of units")
    seeds = _child_seeds(seed, len(hidden) + 1)
    layers, taps = [], []
    prev = in_dim
    for i, width in enumerate(hidden):
        layers.append(DenseLayer(prev, width, seed=seeds[i]))
        if batchnorm:
            layers.append(BatchNormLayer(width))
        layers.append(act[activation]())
        taps.append(len(layers) - 1)
        prev = width
    if out_units is not None:
        layers.append(DenseLayer(prev, out_units, seed=seeds[len(hidden)]))
        if softmax_head:
            layers.append(SoftmaxLayer())
    return Network(layers, taps)


_TOKEN_ARITY = {"C": 4, "P": 4, "FC": 1}


def _parse_token(tok: str) -> tuple[str, list[str]]:
    """A ``kind(a,b,...)`` architecture token as its kind and argument strings."""
    kind, _, rest = tok.partition("(")
    if not rest.endswith(")"):
        raise ConfigError(f"malformed architecture token {tok!r}")
    if kind not in _TOKEN_ARITY:
        raise ConfigError(f"unknown layer token {tok!r}")
    args = [a.strip() for a in rest[:-1].split(",")]
    if len(args) != _TOKEN_ARITY[kind]:
        raise ConfigError(f"architecture token {tok!r} takes {_TOKEN_ARITY[kind]} "
                          f"arguments, got {len(args)}")
    return kind, args


def _int_args(tok: str, args: list[str]) -> list[int]:
    try:
        return [int(a) for a in args]
    except ValueError:
        raise ConfigError(f"architecture token {tok!r} needs integer arguments") from None


def parse_cnn_arch(arch: str) -> list[tuple[str, tuple]]:
    """``build_cnn``'s layer string as one ``(kind, arguments)`` per token,
    with every check a token can fail: ``("C", (filters, kernel, stride,
    padding))``, ``("P", (kernel, stride, "max" | "avg"))``, ``("G", ())``
    for the global average pool and ``("FC", (n,))``.  Raises
    ``ConfigError`` naming the first bad token, so a command can check an
    architecture before it builds anything."""
    parsed = []
    for tok in (t.strip() for t in arch.split("-") if t.strip()):
        kind, args = _parse_token(tok)
        if kind != "P":
            parsed.append((kind, tuple(_int_args(tok, args))))
            continue
        mode = args[3]
        if args[0] == ".":
            if mode != "avg":
                raise ConfigError("global pooling is only defined for avg mode")
            parsed.append(("G", ()))
            continue
        k, s, p = _int_args(tok, args[:3])
        if p != 0:
            raise ConfigError(f"pool padding is not supported, got {tok!r}")
        if mode not in ("max", "avg"):
            raise ConfigError(f"unknown pool mode {mode!r}")
        parsed.append((kind, (k, s, mode)))
    return parsed


def build_cnn(arch: str, input_shape: tuple[int, int, int], seed: int,
              batchnorm: bool = True, softmax_head: bool = False) -> Network:
    """Build a convolutional encoder from a compact layer string.

    Tokens are '-'-separated: ``C(filters,kernel,stride,padding)`` for a conv
    block (conv + optional batch norm + ReLU, tapped after the ReLU),
    ``P(kernel,stride,padding,max|avg)`` for pooling (``P(.,.,.,avg)`` pools
    the whole spatial field to 1x1; pool padding must be 0, anything else
    raises ``ConfigError``), and ``FC(n)`` for flatten + dense.  A token
    with the wrong number of arguments or a non-integer one raises a
    ``ConfigError`` that names it (``parse_cnn_arch``).
    ``input_shape`` is (channels, height, width); FC input sizes are resolved
    by tracing a dummy forward through the layers built so far.
    """
    c, h, w = input_shape
    tokens = parse_cnn_arch(arch)
    seeds = _child_seeds(seed, len(tokens))
    layers, taps = [], []
    channels = c
    probe = np.zeros((1, c, h, w))
    for i, (kind, args) in enumerate(tokens):
        if kind == "C":
            f, k, s, p = args
            layers.append(Conv2dLayer(channels, f, k, s, p, seed=seeds[i]))
            if batchnorm:
                layers.append(BatchNormLayer(f))
            layers.append(ReluLayer())
            taps.append(len(layers) - 1)
            channels = f
        elif kind == "G":
            layers.append(AvgPool2dLayer(spatial_all=True))
        elif kind == "P":
            k, s, mode = args
            layers.append(MaxPool2dLayer(k, s) if mode == "max" else AvgPool2dLayer(k, s))
        else:
            out = Network(layers).forward(Tensor(probe), "eval").data
            if out.ndim == 4:
                layers.append(FlattenLayer())
                flat_dim = out.shape[1] * out.shape[2] * out.shape[3]
            else:
                flat_dim = out.shape[1]
            layers.append(DenseLayer(flat_dim, *args, seed=seeds[i]))
    if softmax_head:
        layers.append(SoftmaxLayer())
    return Network(layers, taps)


# --- checkpoint format: <stem>.json manifest + <stem>.bin little-endian float64 ---

CHECKPOINT_FORMAT = "nb-checkpoint-v1"


def _entries(layers: Sequence[Layer]) -> list[tuple[str, str, np.ndarray]]:
    """(name, kind, array) in declaration order; kind is 'param' or 'buffer'."""
    entries = []
    for i, layer in enumerate(layers):
        entries += [(f"layer{i}.{name}", "param", p.data) for name, p in layer.parameters().items()]
        entries += [(f"layer{i}.{name}", "buffer", b) for name, b in layer.buffers().items()]
    return entries


def save_checkpoint(net: Network, stem: str | Path) -> tuple[Path, Path]:
    """Write ``<stem>.json`` + ``<stem>.bin``; the round trip is bit-exact."""
    stem = Path(stem)
    entries = _entries(net.layers)
    manifest = {"format": CHECKPOINT_FORMAT, "dtype": "<f8", "architecture": net.spec(),
                "entries": [{"name": name, "kind": kind, "shape": list(arr.shape)}
                            for name, kind, arr in entries]}
    json_path = stem.with_suffix(".json")
    bin_path = stem.with_suffix(".bin")
    json_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    bin_path.write_bytes(b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                                  for _, _, arr in entries))
    return json_path, bin_path


# the layer arguments that need not be JSON integers: a batch norm's momentum,
# an average pool's flag, and the seed, which a loaded layer only records
_NON_INTEGER_ARGS = frozenset({"momentum", "spatial_all", "seed"})


def _layer_from_spec(index: int, spec: dict) -> Layer:
    """Rebuild layer ``index`` from its spec without its seeded init (the
    stored arrays overwrite it), then put back the recorded seed so re-saves
    are byte-identical.  An integer argument that is not a JSON integer is
    a ``FormatError`` naming the layer."""
    cls = _LAYER_TYPES.get(spec["type"])
    if cls is None:
        raise FormatError(f"unknown layer type {spec['type']!r} in checkpoint")
    args = {name: spec[name] for name in cls.ARGS}
    for name, value in args.items():
        if name not in _NON_INTEGER_ARGS and type(value) is not int:
            raise FormatError(f"checkpoint layer {index} ({cls.TYPE}) needs an integer "
                              f"{name}, got {value!r}")
    if "seed" not in args:
        return cls(**args)
    layer = cls(**{**args, "seed": None})
    layer.seed = args["seed"]
    return layer


def load_checkpoint(stem: str | Path) -> Network:
    """Read a checkpoint written by :func:`save_checkpoint`.

    The manifest is checked against the network its architecture builds:
    every tap and integer layer argument must be a JSON integer, and
    every entry's name, kind and shape must be the one ``save_checkpoint``
    would write there, and the binary must hold exactly their bytes; anything
    else raises ``FormatError``.  An older file also lists the bias of each
    layer before a batch norm: ``Network`` folds it into the running mean.
    """
    stem = Path(stem)
    json_path = stem if stem.suffix == ".json" else stem.with_suffix(".json")
    bin_path = json_path.with_suffix(".bin")
    try:
        manifest = json.loads(json_path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"checkpoint manifest {json_path} is not valid JSON: {exc}") from exc
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise FormatError(f"unsupported checkpoint format {fmt!r}")
    try:
        arch = manifest["architecture"]
        layers = [_layer_from_spec(i, spec) for i, spec in enumerate(arch["layers"])]
        taps = arch["taps"]
        for tap in taps:
            if type(tap) is not int:
                raise FormatError(f"checkpoint tap {tap!r} is not an integer layer index")
        listed = [(e["name"], e["kind"], tuple(e["shape"])) for e in manifest["entries"]]
        dropped = {f"layer{i}.bias" for i in _before_batch_norm(layers, taps)}
    except (KeyError, TypeError) as exc:
        raise FormatError(f"checkpoint manifest {json_path} is malformed: "
                          f"{type(exc).__name__} {exc}") from exc
    legacy = any(name in dropped for name, _, _ in listed)
    expected = [(n, k, a.shape) for n, k, a in _entries(layers) if legacy or n not in dropped]
    for i, (got, want) in enumerate(itertools.zip_longest(listed, expected)):
        if got != want:
            raise FormatError(f"checkpoint entry {i} is {got}; the architecture needs {want}")
    raw = bin_path.read_bytes()
    offset = 0
    for name, kind, shape in expected:
        n = int(np.prod(shape)) if shape else 1
        nbytes = n * 8
        if offset + nbytes > len(raw):
            raise FormatError(
                f"checkpoint binary truncated at byte {len(raw)}: entry {name} "
                f"needs bytes [{offset}, {offset + nbytes})")
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).reshape(shape).copy()
        offset += nbytes
        index, attr = name[len("layer"):].split(".", 1)
        if kind == "param":
            getattr(layers[int(index)], attr).data = arr
        else:
            setattr(layers[int(index)], attr, arr)
    if offset != len(raw):
        raise FormatError(f"checkpoint binary has {len(raw) - offset} trailing bytes at offset {offset}")
    return Network(layers, taps)
