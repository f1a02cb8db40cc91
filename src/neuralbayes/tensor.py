"""Dense float64 tensors with reverse-mode differentiation.

A dynamic tape: every operation returns a new ``Tensor`` that remembers its
parents and how to push gradients back to them.  ``stop_gradient`` yields a
node whose forward value is bitwise identical to its input but which
contributes exactly zero to every parent during backpropagation.

Conventions:
  * everything is float64; user-supplied values must be finite,
  * op outputs are never mutated (optimizers swap leaf ``.data`` buffers
    between tapes instead of writing into them),
  * log guards are always supplied by the caller (``log(x + eps)``), never
    added implicitly; ``state_objective`` takes its guard as an argument and
    masks exact zeros, whose terms are 0*log(1 + eps) = 0,
  * an op is its value plus a ``backward(g)`` that pushes ``g`` into its
    parents with ``_accum``; it returns ``Tensor._from_op(value, parents,
    op, backward)``, which owns the tape rule: a node that needs no gradient
    (every node built inside ``no_tape()``) keeps no closure.  ``_unary``
    and ``_binary`` build one-input and broadcasting two-input ops from just
    the value and the local gradient,
  * backward closures only reference parent nodes (the output's gradient is
    passed in), so a dropped tape is reference-count-freed immediately,
  * backward closures keep only what cannot be cheaply rebuilt from their
    parents: ``batch_norm`` recomputes its centred input and ``conv2d`` its
    patch matrix in the backward, with the forward's operations, so the
    values are bitwise those a kept copy would give; a node fused with the
    ReLU after it (``batch_norm``, ``linear`` or ``conv2d`` with
    ``relu=True``) keeps only its clamped output, which is also the ReLU's
    mask; ``affine_batch_norm`` keeps its output and its centred (K, N)
    input, K the fan-in, in place of the (C, N) map before the
    normalization; ``state_objective`` keeps the log of its posterior, a
    transcendental per entry,
  * ``backward()`` frees each non-leaf node's gradient as soon as that
    node's backward has run; only leaves keep ``.grad``,
  * inside ``lanes()`` OpenBLAS runs on one thread, and the library's
    independent work (the two branches of a backward, the perturbed forward
    beside the clean one, evaluation chunks) runs on two lanes: the caller
    and one worker thread.  A node gathers its incoming gradients and sums
    them when it runs, in one fixed order, so the values do not depend on
    the lanes or on the BLAS thread count,
  * inside ``no_tape()`` ops record no parents, so a forward whose output is
    only read frees every intermediate as soon as the next op has used it,
  * backward closures only read their incoming gradient, which may be a
    read-only broadcast view shared with other nodes,
  * 4-D tensors are logically (B, C, H, W), and ``conv2d`` and the pools
    store their outputs batch-innermost: a C-contiguous (C, H, W, B) buffer
    seen through ``transpose(3, 0, 1, 2)``.  They read any input through that
    layout (free for their own outputs, one copy otherwise), and the
    elementwise ops, ``softmax`` and ``batch_norm`` keep it because numpy
    allocates outputs in their inputs' memory order.  Values never depend
    on the layout.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import queue
import threading
from concurrent.futures import Future
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

Axis = int | tuple[int, ...] | None

BN_VAR_FLOOR = 1e-5   # batch norm's denominator is sqrt(max(var, BN_VAR_FLOOR))

BackwardFn = Callable[[np.ndarray], None]

_tape = threading.local()  # per thread: .off is True inside no_tape()
# per thread: .held inside lanes(), .second on the worker, .walk and .rank in a backward
_lane = threading.local()

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
# two lanes where two CPUs are usable and OpenBLAS can be held at one thread
_LANES = 2 if (_OPENBLAS_THREADS is not None and hasattr(os, "sched_getaffinity")
               and len(os.sched_getaffinity(0)) >= 2) else 1
_worker: tuple[int, queue.SimpleQueue] | None = None   # (pid, task queue) of the second lane
_worker_lock = threading.Lock()
_hold = [0, None]   # blocks inside lanes() in this process, and the count before the first
_hold_lock = threading.Lock()


@contextlib.contextmanager
def lanes() -> Iterator[None]:
    """Run the block with OpenBLAS on one thread and the second lane open,
    then restore the caller's thread count, also when the block raises.

    On a 2-core Xeon a second OpenBLAS thread speeds a 400-wide float64 GEMM
    only 1.2-1.7x and then spins on the other core: after one 400^3
    product, a 200 ms sleep used 136 ms of CPU.  Inside this block the
    library spends that core on its own independent work instead, on two
    lanes, the caller and one worker thread (``_both``).  One thread also
    fixes the bits: OpenBLAS sums some products in another order on one
    thread than on several.  Where fewer than two CPUs are usable, or numpy
    loaded no OpenBLAS whose thread count can be set, there is one lane and
    everything runs on the caller, in order; without such an OpenBLAS the
    thread count is left alone.  The count is process-wide, so the first
    block to enter, in any thread, sets it and the last to leave restores
    it.
    """
    held = getattr(_lane, "held", False)
    with _hold_lock:
        if _hold[0] == 0 and _OPENBLAS_THREADS is not None:
            _hold[1] = _OPENBLAS_THREADS[0]()
            _OPENBLAS_THREADS[1](1)
        _hold[0] += 1
    _lane.held = True
    try:
        yield
    finally:
        _lane.held = held
        with _hold_lock:
            _hold[0] -= 1
            if _hold[0] == 0 and _OPENBLAS_THREADS is not None:
                _OPENBLAS_THREADS[1](_hold[1])


def _both(first: Callable, second: Callable) -> tuple:
    """``(first(), second())``: inside ``lanes()`` with two lanes, ``second``
    runs on the worker while ``first`` runs here, else after ``first``.

    The worker runs ``second`` in this thread's ``no_tape()`` state, and it
    has finished, or failed, before this returns, also when ``first``
    raises.  An error on either lane reaches the caller as it was raised,
    ``first``'s before ``second``'s.  Work submitted from the worker runs
    there, in order: a lane never waits on itself.
    """
    if _LANES < 2 or not getattr(_lane, "held", False) or getattr(_lane, "second", False):
        return first(), second()
    done = Future()
    _second_lane().put((done, second, getattr(_tape, "off", False)))
    try:
        result = first()
    finally:
        done.exception()   # waits for the worker, whatever happened here
    return result, done.result()


def _second_lane() -> queue.SimpleQueue:
    """The worker's task queue.  The worker starts on first use, and again
    in a forked child, which has no copy of its parent's threads."""
    global _worker
    with _worker_lock:
        if _worker is None or _worker[0] != os.getpid():
            tasks = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(tasks,), name="neuralbayes-lane",
                             daemon=True).start()
            _worker = (os.getpid(), tasks)
        return _worker[1]


def _serve(tasks: queue.SimpleQueue) -> None:
    _lane.second = True
    while True:
        done, task, _tape.off = tasks.get()
        try:
            done.set_result(task())
        except BaseException as exc:   # handed to the caller, which re-raises it
            done.set_exception(exc)
        done = task = None   # an idle worker keeps no tape alive


@contextlib.contextmanager
def no_tape() -> Iterator[None]:
    """Run ops without recording them: every node built inside has no
    parents and needs no gradient, so nothing can backpropagate through it.

    Forward values are bitwise those of a taped run.  For evaluation-only
    forwards; leaves created inside still follow their ``requires_grad``.
    """
    previous = getattr(_tape, "off", False)
    _tape.off = True
    try:
        yield
    finally:
        _tape.off = previous


def _taping() -> bool:
    """Whether ops in this thread record a tape (outside ``no_tape()``)."""
    return not getattr(_tape, "off", False)


class Tensor:
    """A node of the evaluation record: numpy payload plus tape bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor values must be finite (got NaN or Inf)")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: BackwardFn = _noop
        self.op = "leaf"

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...], op: str,
                 backward: BackwardFn | None = None) -> "Tensor":
        """An op's output node; it keeps ``backward`` only if it needs a gradient."""
        if getattr(_tape, "off", False):
            parents = ()
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = parents
        out._backward = backward if out.requires_grad and backward is not None else _noop
        out.op = op
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{flag})"

    # arithmetic sugar; the functions below do the real work
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def backward(self) -> None:
        """Backpropagate from this scalar through the tape.

        Gradients of every visited node are reset first, so repeated calls on
        the same record are deterministic and bitwise equal.  A non-leaf
        node's gradient is dropped once its backward has pushed it to the
        parents, so afterwards only leaves hold a ``.grad``.

        The tape runs as a ready-queue walk (``_Walk``) inside ``lanes()``:
        a node runs once every node that consumes it has run, on whichever
        lane is free, so independent branches run side by side on two
        lanes.  A running node first sums what its consumers sent it, in
        their descending rank in the tape's topological order, so the values
        are bitwise those of one lane, which visits the nodes in that order.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return
        with lanes():
            walk = _Walk(self)
            _both(walk.run, walk.run)


def _noop(_g: np.ndarray) -> None:
    return None


class _Walk:
    """One backward pass as a ready-queue walk that one or two lanes share.

    Nodes are named by their rank in ``_toposort``'s order; a node's
    consumers are the nodes that list it as a parent.  A node gathers what
    its consumers send it and is ready once they have all run; a lane takes
    the highest-ranked ready node, so one lane visits the nodes in
    descending rank.  A running node first folds what it gathered in
    descending consumer rank, each consumer's arrays in the order it sent
    them: the order in which one lane would fold them as they arrived.  So
    a node holds every array sent to it until it runs.
    """

    def __init__(self, root: Tensor):
        self.order = order = _toposort(root)
        self.rank = rank = {id(node): i for i, node in enumerate(order)}
        # each node's distinct parents on the walk, and its consumers that have not run
        self.parents = [list(dict.fromkeys(rank[id(p)] for p in node._parents
                                           if p.requires_grad)) for node in order]
        self.waiting = [0] * len(order)
        for ps in self.parents:
            for p in ps:
                self.waiting[p] += 1
        self.sent = [[] for _ in order]      # (consumer rank, contribution) per node
        self.ready = [len(order) - 1]        # the root
        self.left = len(order)
        self.failed = False
        self.cond = threading.Condition()
        for node in order:
            node.grad = None
        root.grad = np.ones_like(root.data)

    def run(self) -> None:
        """Run ready nodes until none is left or a lane has failed."""
        _lane.walk = self
        try:
            while (c := self._take()) is not None:
                node = self.order[c]
                _lane.rank = c
                try:
                    self._fold(c)
                    if node.grad is not None:
                        node._backward(node.grad)
                        if node._parents:
                            node.grad = None
                except BaseException:
                    with self.cond:
                        self.failed = True
                        self.cond.notify_all()
                    raise
                self._finish(c)
        finally:
            _lane.walk = None

    def _take(self) -> int | None:
        with self.cond:
            while not (self.failed or self.left == 0):
                if self.ready:
                    c = max(self.ready)
                    self.ready.remove(c)
                    return c
                self.cond.wait()
            return None

    def deliver(self, t: Tensor, g: np.ndarray) -> None:
        """A contribution to ``t`` from the node this lane runs (``append`` needs no lock)."""
        self.sent[self.rank[id(t)]].append((_lane.rank, g))

    def _fold(self, c: int) -> None:
        """Sum what ``c`` gathered into its gradient, dropping each array once added."""
        sent, self.sent[c] = self.sent[c], None
        sent.sort(key=lambda s: -s[0])   # stable: a consumer's arrays keep their order
        node = self.order[c]
        for i, (_, g) in enumerate(sent):
            sent[i] = None
            node.grad = g if node.grad is None else node.grad + g

    def _finish(self, c: int) -> None:
        with self.cond:
            for p in self.parents[c]:
                self.waiting[p] -= 1
                if self.waiting[p] == 0:
                    self.ready.append(p)
            self.left -= 1
            self.cond.notify_all()


def _toposort(root: Tensor) -> list[Tensor]:
    """Deterministic postorder over the requires-grad subgraph (parents first)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in reversed(node._parents):
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    walk = getattr(_lane, "walk", None)
    if walk is not None:
        walk.deliver(t, g)
    else:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over broadcast axes so it matches the parent shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, op: str, fwd, grad_a, grad_b) -> Tensor:
    """A broadcasting elementwise op with value ``fwd(a, b)`` of the operand
    arrays.  The backward sums ``grad_a(g, a, b)`` (``grad_b``) over the
    broadcast axes into ``a`` (``b``), computing it only when that operand
    needs a gradient."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def backward(g):
        for t, grad in ((a, grad_a), (b, grad_b)):
            if t.requires_grad:
                _accum(t, _unbroadcast(grad(g, a.data, b.data), t.shape))

    return Tensor._from_op(data, (a, b), op, backward)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", np.add, lambda g, a, b: g, lambda g, a, b: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", np.subtract, lambda g, a, b: g, lambda g, a, b: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)


def div(a, b) -> Tensor:
    return _binary(a, b, "div", np.divide,
                   lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b))


def _unary(x, op: str, fwd, grad) -> Tensor:
    """A one-input op with value ``y = fwd(x)`` of the input array.  The
    backward pushes ``grad(g, x, y)`` into the input."""
    x = _as_tensor(x)
    y = fwd(x.data)

    def backward(g):
        _accum(x, grad(g, x.data, y))

    return Tensor._from_op(y, (x,), op, backward)


def neg(x) -> Tensor:
    return _unary(x, "neg", np.negative, lambda g, x, y: -g)


def _checked_log(a: np.ndarray) -> np.ndarray:
    if a.size and np.min(a) <= 0.0:
        raise DomainError("log requires strictly positive inputs; add a guard constant")
    return np.log(a)


def _guarded_log(a: np.ndarray, eps: float) -> np.ndarray:
    """log(a + eps) with the entries that are exactly zero masked to one: the
    callers multiply those logs by the zero they came from, so the
    convention 0*log(0) = 0 holds exactly.  Without a mask and with eps >= 0
    the argument is positive, so only the other cases check the domain."""
    masked = a.size and np.min(a) <= 0.0
    if masked:
        a = a + (a <= 0.0)
    arg = np.add(a, eps)  # a fresh buffer, logged in place
    if masked or eps < 0.0:
        return _checked_log(arg)
    return np.log(arg, out=arg)


def log(x) -> Tensor:
    """Natural log. The input must be strictly positive; guards are the caller's job."""
    x = _as_tensor(x)
    return _unary(x, "log", _checked_log, lambda g, x, y: g / x)


def relu(x) -> Tensor:
    return _unary(x, "relu", lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0.0))


def tanh(x) -> Tensor:
    return _unary(x, "tanh", np.tanh, lambda g, x, y: g * (1.0 - y * y))


def linear(x, weight, bias, relu: bool = False) -> Tensor:
    """Affine map ``x @ weight.T + bias`` of a (B, in) batch with (out, in)
    weights, as one node; with ``relu=True``, clamped at 0 (a ReLU after
    the map).  ``bias=None`` is no bias: no add, and two parents.

    The product reads the weight through its transposed view (BLAS takes
    the transpose as a flag, so nothing is copied).  The backward is
    ``g @ weight`` for the input (skipped when the input needs no
    gradient), ``g.T @ x`` for the weight and the column sums of ``g`` for
    the bias.  With the ReLU the output buffer is clamped in place and the
    node keeps no pre-ReLU copy: ``out > 0`` masks the incoming gradient.
    Eval-mode forwards fold a batch norm into the weight and a bias and run
    it, with its ReLU, as this node.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear of {x.shape} needs a 2-D (out, {x.shape[-1]}) weight, "
                         f"got {weight.shape}")
    bias = _checked_bias(bias, weight, "linear")
    out_data = x.data @ weight.data.T
    if bias is not None:
        out_data += bias.data
    if relu:
        np.maximum(out_data, 0.0, out=out_data)

    def backward(g):
        if relu:
            g = g * (out_data > 0.0)
        if x.requires_grad:
            _accum(x, g @ weight.data)
        _accum(weight, g.T @ x.data)
        if bias is not None:
            _accum(bias, g.sum(axis=0))

    return Tensor._from_op(out_data, (x, weight) if bias is None else (x, weight, bias),
                           "linear", backward)


def _checked_bias(bias, weight: Tensor, op: str) -> Tensor | None:
    """An affine op's (out,) bias as a tensor; ``None`` is no bias."""
    if bias is not None and (bias := _as_tensor(bias)).shape != weight.shape[:1]:
        raise ShapeError(f"{op} with a {weight.shape} weight needs a ({weight.shape[0]},) bias, "
                         f"got {bias.shape}")
    return bias


def reshape(x, shape: Sequence[int]) -> Tensor:
    return _unary(x, "reshape", lambda x: x.reshape(shape), lambda g, x, y: g.reshape(x.shape))


def _norm_axes(axis: Axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _unreduce(g: np.ndarray, axes: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    """A reduction's gradient spread back over the reduced axes, as a
    read-only broadcast view."""
    return np.broadcast_to(np.expand_dims(g, axes), shape)


def tsum(x, axis: Axis = None) -> Tensor:
    x = _as_tensor(x)
    axes = _norm_axes(axis, x.ndim)

    def backward(g):
        _accum(x, _unreduce(g, axes, x.shape))

    return Tensor._from_op(x.data.sum(axis=axes), (x,), "sum", backward)


def tmean(x, axis: Axis = None) -> Tensor:
    x = _as_tensor(x)
    if x.data.size == 0:
        raise ShapeError("mean of an empty tensor")
    axes = _norm_axes(axis, x.ndim)
    count = math.prod(x.shape[ax] for ax in axes)

    def backward(g):
        _accum(x, _unreduce(g / count, axes, x.shape))

    return Tensor._from_op(x.data.mean(axis=axes), (x,), "mean", backward)


def softmax(x) -> Tensor:
    """Row-stochastic softmax along axis 1, the feature/channel axis,
    computed with max subtraction.

    The forward and the backward each allocate one full-size buffer and work
    in it in place."""
    x = _as_tensor(x)
    s = x.data - x.data.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)

    def backward(g):
        gx = s * g
        dot = gx.sum(axis=1, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= s
        _accum(x, gx)

    return Tensor._from_op(s, (x,), "softmax", backward)


def column(x, k: int) -> Tensor:
    """Column ``k`` of a (B, K) tensor as a new (B,) array; the backward
    scatters the gradient into zeros at that column."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"column expects a 2-D tensor, got shape {x.shape}")

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[:, k] = g
        _accum(x, gx)

    return Tensor._from_op(np.array(x.data[:, k]), (x,), "column", backward)


def _batch_last(a: np.ndarray) -> np.ndarray:
    """A (B, C, H, W) array's memory as a C-contiguous (C, H, W, B) array:
    a view when it is already stored batch-innermost, else one copy."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0))


def _windows(H: int, W: int, kh: int, kw: int, stride: int
             ) -> tuple[int, int, list[tuple[slice, slice, slice]]]:
    """Output size and window offsets of a kh x kw window sliding with
    ``stride`` over a (C, H, W, B) map: (oh, ow, views), the views in
    row-major offset order.  The view of offset (di, dj) is (C, oh, ow, B):
    at every output position it holds the input element at that offset of
    the position's window.  Rows or columns past the last full window are
    cropped."""
    oh, ow = (H - kh) // stride + 1, (W - kw) // stride + 1
    views = [(slice(None), slice(di, di + (oh - 1) * stride + 1, stride),
              slice(dj, dj + (ow - 1) * stride + 1, stride))
             for di in range(kh) for dj in range(kw)]
    return oh, ow, views


def _pool_input(x: Tensor, op: str, kernel: int, stride: int):
    """A pool's input as (C, H, W, B), its window views, and whether the
    windows tile the map (every element in exactly one window: no overlap,
    no cropped rows or columns); a kernel larger than the map shrinks to the
    map."""
    if x.ndim != 4:
        raise ShapeError(f"{op} expects (B, C, H, W), got shape {x.shape}")
    xb = _batch_last(x.data)
    H, W = xb.shape[1], xb.shape[2]
    kh, kw = min(kernel, H), min(kernel, W)
    oh, ow, views = _windows(H, W, kh, kw, stride)
    tiles = all(n * k == size and (n == 1 or k == stride)
                for n, k, size in ((oh, kh, H), (ow, kw, W)))
    return xb, views, tiles


def avg_pool2d(x, kernel: int = 2, stride: int = 2) -> Tensor:
    """Spatial mean over kernel windows of a (B, C, H, W) tensor.

    When H (or W) is smaller than the kernel, the kernel shrinks to H (or W),
    so pooling a 1x1 map is the identity and any map can be pooled to 1x1 by
    passing ``kernel=max(H, W)``.  Computed as a running sum over the
    kernel's window offsets, each a strided view of the whole batch-last map.
    When the windows tile the map, the backward writes each offset's share
    straight into its view; otherwise it adds the shares onto zeros.
    """
    x = _as_tensor(x)
    xb, views, tiles = _pool_input(x, "avg_pool2d", kernel, stride)
    out_b = xb[views[0]].copy()
    for view in views[1:]:
        out_b += xb[view]
    out_b /= len(views)

    def backward(g):
        share = _batch_last(g) / len(views)
        gx = np.empty(xb.shape) if tiles else np.zeros(xb.shape)
        for view in views:
            if tiles:
                gx[view] = share
            else:
                gx[view] += share
        _accum(x, gx.transpose(3, 0, 1, 2))

    return Tensor._from_op(out_b.transpose(3, 0, 1, 2), (x,), "avg_pool2d", backward)


def max_pool2d(x, kernel: int = 2, stride: int = 2) -> Tensor:
    """Spatial max over kernel windows; gradient routes to the first maximum.

    "First" is in row-major order within the window.  The forward is a
    running maximum over the window offsets; the backward scans the offsets
    in the same order and routes each output's gradient to the first offset
    that holds its maximum.  When the windows tile the map, each offset's
    routed gradient is written straight into its view; otherwise it is
    added onto zeros.
    """
    x = _as_tensor(x)
    xb, views, tiles = _pool_input(x, "max_pool2d", kernel, stride)
    out_b = xb[views[0]].copy()
    for view in views[1:]:
        np.maximum(out_b, xb[view], out=out_b)

    def backward(g):
        gb = _batch_last(g)
        gx = np.empty(xb.shape) if tiles else np.zeros(xb.shape)
        unrouted = np.ones(out_b.shape, dtype=bool)
        first = np.empty(out_b.shape, dtype=bool)
        for view in views:
            np.equal(xb[view], out_b, out=first)
            first &= unrouted
            unrouted ^= first
            if tiles:
                np.multiply(gb, first, out=gx[view])
            else:
                gx[view] += gb * first
        _accum(x, gx.transpose(3, 0, 1, 2))

    return Tensor._from_op(out_b.transpose(3, 0, 1, 2), (x,), "max_pool2d", backward)


def conv2d(x, weight, bias, stride: int = 1, padding: int = 0, relu: bool = False) -> Tensor:
    """2-D cross-correlation of (B, Cin, H, W) with (Cout, Cin, kh, kw) kernels,
    plus a (Cout,) bias, or none for ``bias=None``, as one node that
    handles its bias and ``relu=True`` as ``linear`` does.  Eval-mode
    forwards fold a batch norm into the kernels and a bias and run it, with
    its ReLU, as this node.

    Lowered to one GEMM (im2col; Chellapilla et al., 2006): the kh*kw strided
    views of the padded batch-last input are copied into a (Cin*kh*kw,
    oh*ow*B) patch matrix and multiplied by the kernels as a (Cout,
    Cin*kh*kw) matrix; the (Cout, oh*ow*B) product is the batch-last output.
    The backward is one GEMM for the kernel gradient and one for the patch
    gradient, which goes back to the input as kh*kw strided adds (col2im).
    The node keeps no patch matrix: the backward rebuilds it from the
    padded batch-last input (a view of the input when that is batch-last and
    unpadded) for the kernel-gradient GEMM and drops it before the col2im.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    xp, views, (oh, ow), patches = _im2col(x, weight, stride, padding, "conv2d")
    bias = _checked_bias(bias, weight, "conv2d")
    B, Cin, H, W = x.shape
    Cout, _, kh, kw = weight.shape
    wmat = weight.data.reshape(Cout, Cin * kh * kw)
    out_b = wmat @ patches()
    if bias is not None:
        out_b += bias.data[:, None]
    if relu:
        np.maximum(out_b, 0.0, out=out_b)

    def backward(g):
        g2 = _batch_last(g).reshape(Cout, oh * ow * B)
        if relu:
            g2 = g2 * (out_b > 0.0)
        _accum(weight, (g2 @ patches().T).reshape(weight.shape))
        if bias is not None:
            _accum(bias, g2.sum(axis=1))
        if x.requires_grad:
            gcols = (wmat.T @ g2).reshape(Cin, kh * kw, oh, ow, B)
            gxp = np.zeros(xp.shape)
            for k, view in enumerate(views):
                gxp[view] += gcols[:, k]
            if padding:
                gxp = gxp[:, padding:padding + H, padding:padding + W]
            _accum(x, gxp.transpose(3, 0, 1, 2))

    return Tensor._from_op(out_b.reshape(Cout, oh, ow, B).transpose(3, 0, 1, 2),
                           (x, weight) if bias is None else (x, weight, bias), "conv2d",
                           backward)


def _im2col(x: Tensor, kernels: Tensor, stride: int, padding: int, op: str):
    """A convolution's input checked against its (Cout, Cin, kh, kw) kernels:
    ``(xp, views, (oh, ow), patches)``, the padded batch-last input, its
    window views, the output size and a function that copies the views into
    a fresh (Cin*kh*kw, oh*ow*B) patch matrix."""
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeError(f"{op} expects 4-D input and kernels, got {x.shape}, {kernels.shape}")
    B, Cin, _, _ = x.shape
    _, Cw, kh, kw = kernels.shape
    if Cw != Cin:
        raise ShapeError(f"{op} channel mismatch: input has {Cin}, kernels expect {Cw}")
    xp = _batch_last(x.data)
    if padding:
        xp = np.pad(xp, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    Hp, Wp = xp.shape[1], xp.shape[2]
    if Hp < kh or Wp < kw:
        raise ShapeError(f"{op} kernel {kh}x{kw} larger than padded input {Hp}x{Wp}")
    oh, ow, views = _windows(Hp, Wp, kh, kw, stride)

    def patches():
        cols = np.empty((Cin, kh * kw, oh, ow, B))
        for k, view in enumerate(views):
            cols[:, k] = xp[view]
        return cols.reshape(Cin * kh * kw, oh * ow * B)

    return xp, views, (oh, ow), patches


def _channel_dot(a: np.ndarray, b: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Per channel, the sum over ``axes`` of ``a * b``, without forming the
    product array."""
    letters = "abcdefghijklmnopqrstuvwxyz"[:a.ndim]
    kept = "".join(c for i, c in enumerate(letters) if i not in axes)
    return np.einsum(f"{letters},{letters}->{kept}", a, b)


def batch_norm(x, scale, shift, relu: bool = False) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Batch normalization with batch statistics as one node: ``(x - mean) /
    sqrt(max(var, BN_VAR_FLOOR))`` per channel, times ``scale`` plus
    ``shift``; with ``relu=True``, clamped at 0 (a ReLU after the
    normalization).

    ``x`` is (B, F) or (B, C, H, W), and its channels are axis 1: the
    statistics run over the batch axis, and over the spatial axes too for a
    4-D input.  ``scale`` and ``shift`` are (channels,).  Mean and variance
    are the batch's own (the biased variance) and the backward is the closed
    form through both; where ``var <= BN_VAR_FLOOR`` the denominator is the
    constant ``sqrt(BN_VAR_FLOOR)`` and no gradient flows through the
    variance.  Returns the output and the mean
    and variance it used (Ioffe & Szegedy, arXiv:1502.03167).  Eval mode,
    with running statistics, is not this node: it is an affine map per
    channel, folded into the layer before it (``nn.BatchNormLayer.eval_map``).

    The node keeps its output and no x-hat: the backward rebuilds the
    centred input with the forward's operation and divides by the
    denominator per channel.  Fused with the ReLU it keeps no pre-ReLU copy
    either: the output is non-negative, so ``out > 0`` is the ReLU's mask,
    and the value is bitwise ``relu`` of the unfused output.
    """
    x, scale, shift = _as_tensor(x), _as_tensor(scale), _as_tensor(shift)
    if x.ndim not in (2, 4):
        raise ShapeError(f"batch_norm expects (B, F) or (B, C, H, W), got shape {x.shape}")
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    keep = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    channels = (x.shape[1],)
    if scale.shape != channels or shift.shape != channels:
        raise ShapeError(f"batch_norm of {x.shape} needs scale and shift of shape {channels}, "
                         f"got {scale.shape} and {shift.shape}")
    count = math.prod(x.shape[a] for a in axes)  # elements per channel
    # full-size temporaries are few: each fresh one costs page faults.  The
    # output is formed in the centred input's buffer, in the input's memory
    # order, and the variance is a dot product of that buffer with itself.
    mean = x.data.mean(axis=axes)
    out_data = x.data - mean.reshape(keep)
    var = _channel_dot(out_data, out_data, axes) / count
    den = np.sqrt(np.maximum(var, BN_VAR_FLOOR))
    coef = (scale.data / den).reshape(keep)
    out_data *= coef
    out_data += shift.data.reshape(keep)
    if relu:
        np.maximum(out_data, 0.0, out=out_data)

    def backward(g):
        if relu:
            g = g * (out_data > 0.0)
        # x-hat is the centred input over den; the centred input is rebuilt
        # with the forward's operation and den is applied per channel
        centred = x.data - mean.reshape(keep)
        gscale = _channel_dot(g, centred, axes) / den
        gshift = g.sum(axis=axes)
        _accum(scale, gscale)
        _accum(shift, gshift)
        if not x.requires_grad:
            return
        # the input's gradient is formed in the centred input's buffer: the
        # components that flow back through the batch mean and, where the
        # variance is above the floor, the batch variance are removed
        through_var = np.where(var > BN_VAR_FLOOR, gscale, 0.0) / (count * den)
        centred *= through_var.reshape(keep)
        np.subtract(g, centred, out=centred)
        centred -= (gshift / count).reshape(keep)
        centred *= coef
        _accum(x, centred)

    return Tensor._from_op(out_data, (x, scale, shift), "batch_norm", backward), mean, var


def affine_batch_norm(x, weight, scale, shift, stride: int = 1, padding: int = 0,
                      relu: bool = False) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """``linear`` (2-D ``x`` and ``weight``) or ``conv2d`` (4-D, with
    ``stride`` and ``padding``) and then ``batch_norm`` over every axis but
    the channels, as one node, for an input that needs no gradient; with
    ``relu=True``, clamped at 0.

    The input is read as a (K, N) column matrix P, K the fan-in: the rows'
    transpose for a dense layer, the im2col patch matrix for a conv.  The
    batch statistics come from P's mean mu and its K x K covariance ``S =
    Pc Pc^T / N`` with ``Pc = P - mu``: the channel mean is ``W mu`` (the
    layer has no bias) and the channel variance ``diag(W S W^T)``, so the
    pre-normalization map is never formed.  The output is ``(coef W) Pc +
    shift``, ``den`` and ``coef`` as in ``batch_norm``, one GEMM with the
    shift in it.  The backward masks ``g`` with ``out > 0`` under the ReLU
    and forms ``G = g Pc^T`` and the sum of ``g`` in one GEMM; with ``wG``
    the per-channel dot of W and G, the shift's gradient is that sum, the
    scale's ``wG / den``, and the weight's ``coef (G - [var > BN_VAR_FLOOR]
    wG / den^2 W S)``.  Values match the ``linear``/``conv2d`` -> ``batch_norm``
    chain to rounding, not bitwise.  Returns the node and the mean and
    variance it used, as ``batch_norm`` does.  The node keeps Pc (over a
    row of ones) and its output.
    """
    x, weight, scale, shift = (_as_tensor(t) for t in (x, weight, scale, shift))
    if x.requires_grad:
        raise ConfigError("affine_batch_norm has no input gradient; its input must need none")
    if x.ndim == 2 and weight.ndim == 2:
        if x.shape[1] != weight.shape[1]:
            raise ShapeError(f"affine_batch_norm of {x.shape} needs a (out, {x.shape[1]}) "
                             f"weight, got {weight.shape}")
        cols, wmat = x.data.T, weight.data
        to_output, to_columns = np.transpose, np.transpose
    else:
        _, _, (oh, ow), patches = _im2col(x, weight, stride, padding, "affine_batch_norm")
        cols, wmat = patches(), weight.data.reshape(weight.shape[0], -1)
        out_shape = (weight.shape[0], oh, ow, x.shape[0])

        def to_output(a):
            return a.reshape(out_shape).transpose(3, 0, 1, 2)

        def to_columns(g):
            return _batch_last(g).reshape(out_shape[0], -1)
    channels = (wmat.shape[0],)
    if scale.shape != channels or shift.shape != channels:
        raise ShapeError(f"affine_batch_norm with {channels[0]} channels needs scale and shift "
                         f"of shape {channels}, got {scale.shape} and {shift.shape}")
    K, count = cols.shape
    mu = cols.mean(axis=1)
    # Pc over a row of ones, in the input's memory order (batch-first for a
    # dense layer): the ones carry the shift into the output's GEMM and its
    # gradient out of the weight gradient's, so neither costs its own pass
    order = "C" if cols.flags.c_contiguous else "F"
    lifted = np.empty((K + 1, count), order=order)
    centred = lifted[:K]
    np.subtract(cols, mu[:, None], out=centred)
    lifted[K] = 1.0
    wcov = wmat @ ((centred @ centred.T) / count)
    var = np.einsum("ck,ck->c", wcov, wmat)
    den = np.sqrt(np.maximum(var, BN_VAR_FLOOR))
    coef = scale.data / den
    a = np.hstack([wmat * coef[:, None], shift.data[:, None]])
    out = a @ lifted if order == "C" else (lifted.T @ a.T).T   # (out, N) in that order
    if relu:
        np.maximum(out, 0.0, out=out)

    def backward(g):
        g2 = to_columns(g)
        if relu:
            g2 = g2 * (out > 0.0)
        lifted_grad = g2 @ lifted.T
        grad = lifted_grad[:, :K]
        wg = np.einsum("ck,ck->c", wmat, grad)
        _accum(scale, wg / den)
        _accum(shift, lifted_grad[:, K])
        through_var = np.where(var > BN_VAR_FLOOR, wg, 0.0) / (den * den)
        grad -= through_var[:, None] * wcov
        grad *= coef[:, None]
        _accum(weight, grad.reshape(weight.shape))

    node = Tensor._from_op(to_output(out), (x, weight, scale, shift), "affine_batch_norm",
                           backward)
    return node, wmat @ mu, var


def state_objective(v, form: str, eps: float, mi_weight: float = 1.0,
                    prior_weight: float = 1.0) -> tuple[Tensor, float, float]:
    """One softmax state's MI term and uniform-prior penalty as one node,
    ``mi_weight * mi + prior_weight * rp``.

    ``v`` is the state's posterior, (B, K) or spatially (B, K, H, W): N =
    B*H*W rows over K states.  With <.> a stopped log whose exact zeros are
    masked (their terms are 0*log(1 + eps) = 0):
      * ``mi = -(1/N) sum v log<v + eps>``, the stop-gradient MI term;
      * ``rp`` is the penalty of the batch-mean prior p, per location for
        spatial states and averaged over locations: for ``form="v1"`` the
        negative entropy ``sum_k p log<p + eps>``, for ``"v2"`` the
        cross-entropy ``-sum_k [(1/K) log(p + eps) + ((K-1)/K) log(1 - p +
        eps)]``, whose logs are live and need positive arguments.
    The stopped log and the batch-mean prior make the gradient closed form
    (Neural Bayes, arXiv:2002.09046): ``(-mi_weight * log<v + eps> +
    prior_weight * dR/dp) / N`` per entry, with ``dR/dp = log<p + eps>`` for
    v1.  Returns the node, ``mi`` and ``rp``.  The node keeps the prior and
    the log of ``v``, which would cost an add and a log per entry to rebuild.
    """
    v = _as_tensor(v)
    if form not in ("v1", "v2"):
        raise ConfigError(f"unknown prior penalty form {form!r}")
    if v.ndim not in (2, 4) or v.size == 0:
        raise ShapeError(f"state_objective expects a nonempty (B, K) or (B, K, H, W) "
                         f"posterior, got shape {v.shape}")
    B, K = v.shape[:2]
    rows = v.size // K
    spatial = v.ndim == 4
    # v's values C-contiguous: (K, H, W, B) if spatial (a view of a batch-last
    # state), else (B, K); the log and the gradient are laid out the same way
    vb = _batch_last(v.data) if spatial else np.ascontiguousarray(v.data)
    lg = _guarded_log(vb, eps)
    mi = -float(np.dot(lg.ravel(), vb.ravel())) / rows
    ones = np.ones(B)
    p = (vb @ ones if spatial else ones @ vb) / B
    if form == "v1":
        penalty = (p * _guarded_log(p, eps)).sum(axis=0)
    else:
        penalty = -(_checked_log(p + eps).sum(axis=0) * (1.0 / K)
                    + _checked_log((1.0 - p) + eps).sum(axis=0) * ((K - 1.0) / K))
    rp = float(penalty.mean())

    def backward(g):
        if form == "v1":
            dp = _guarded_log(p, eps)
        else:
            dp = ((K - 1.0) / K) / ((1.0 - p) + eps) - (1.0 / K) / (p + eps)
        share = float(g) / rows
        gv = lg * (-mi_weight * share)
        gv += (dp[..., None] if spatial else dp) * (prior_weight * share)
        _accum(v, gv.transpose(3, 0, 1, 2) if spatial else gv)

    value = np.asarray(mi_weight * mi + prior_weight * rp)
    return Tensor._from_op(value, (v,), "state_objective", backward), mi, rp


def stop_gradient(x) -> Tensor:
    """Forward identity whose backward contribution is exactly zero.

    The returned node shares the input's buffer, so the forward value is
    bitwise identical; it has no parents on the tape, so nothing flows back.
    """
    x = _as_tensor(x)
    return Tensor._from_op(x.data, (), "stop_gradient")


def gradients(loss: Tensor, params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Backpropagate and hand over one gradient array per named parameter.

    This is the one owner of a parameter's ``.grad``.  Every parameter's
    ``.grad`` is cleared first, since ``backward`` resets only the nodes it
    visits, so parameters unreachable from the loss get zero gradients of
    matching shape.  On the way out, an error in the backward included, no
    parameter keeps a ``.grad``: the returned dict holds the only reference.
    The backward runs inside ``lanes()``, so the gradients are bitwise the
    same on one lane or two and at any BLAS thread count; an error on
    either lane reaches the caller as it was raised.
    """
    if loss.data.size != 1:
        raise ShapeError(f"gradients() requires a scalar loss, got shape {loss.shape}")
    for p in params.values():
        p.grad = None
    try:
        loss.backward()
        return {name: p.grad if p.grad is not None else np.zeros_like(p.data)
                for name, p in params.items()}
    finally:
        for p in params.values():
            p.grad = None
