"""Optimization loop with gradient accumulation, probes, and cluster scoring.

The accumulation schedule follows the two-level batch recipe: gradients are
computed on mini-batches of MBS samples (large enough for a faithful
batch-mean prior) and averaged over BS/MBS mini-batches before each parameter
update.  All randomness flows through seeded generators, so identical configs
reproduce identical trajectories bitwise.
"""

from __future__ import annotations

import ctypes
import json
import math
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .nn import Network, build_mlp
from . import tensor as T
from .tensor import Tensor, gradients


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam moments, learning rate and decoupled weight decay; the moment
    decays and the denominator guard are ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS``.  A learning rate that is not finite and > 0, or a weight
    decay that is not finite and >= 0, is a ``ConfigError``."""

    lr: float = 1e-3
    weight_decay: float = 0.0
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"learning rate must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ConfigError(f"weight decay must be finite and >= 0, got {self.weight_decay}")

    @classmethod
    def for_params(cls, params: Mapping[str, Tensor], lr: float = 1e-3,
                   weight_decay: float = 0.0) -> "AdamState":
        state = cls(lr=lr, weight_decay=weight_decay)
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


@T.lanes()
def adam_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected Adam update; swaps fresh buffers into the leaves.

    The moments are updated in place (they belong to ``state`` alone); the
    arithmetic is m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
    p - (lr mhat) / (sqrt(vhat) + eps) - (lr wd) p, operation for operation.
    Every gradient's shape is checked before any parameter moves.  The
    update runs inside ``tensor.lanes()``, with the parameters split over
    the two lanes by size (each parameter's arithmetic is unchanged): on
    the 4x400 MLP of the 512-D moons benchmark it took 8.0-8.4 ms on one
    lane and 4.2-4.3 ms on two (2-core Xeon).
    """
    for name, p in params.items():
        if grads[name].shape != p.data.shape:
            raise ShapeError(f"gradient shape {grads[name].shape} != parameter shape "
                             f"{p.data.shape} ({name})")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step

    def update(names: list[str]) -> None:
        for name in names:
            p, g = params[name], grads[name]
            m, v = state.m[name], state.v[name]
            m *= b1
            step = (1.0 - b1) * g
            m += step
            v *= b2
            np.multiply(1.0 - b2, g, out=step)
            step *= g
            v += step
            np.divide(m, c1, out=step)
            step *= state.lr
            vhat = v / c2
            np.sqrt(vhat, out=vhat)
            vhat += ADAM_EPS
            step /= vhat
            new = p.data - step
            if state.weight_decay > 0.0:
                np.multiply(state.lr * state.weight_decay, p.data, out=step)
                new -= step
            p.data = new

    # largest first, each onto the lane with fewer entries so far
    shares, entries = ([], []), [0, 0]
    for name in sorted(params, key=lambda k: -params[k].data.size):
        lane = entries.index(min(entries))
        shares[lane].append(name)
        entries[lane] += params[name].data.size
    T._both(lambda: update(shares[0]), lambda: update(shares[1]))


@dataclass
class AccumulationSchedule:
    """Mini-batch size, accumulation window, and epoch count.

    BS must be an integer multiple of MBS: configurations where the window is
    smaller than one mini-batch are invalid, not zero-accuracy corners.
    """

    mbs: int
    bs: int
    epochs: int

    def __post_init__(self):
        if self.mbs < 1 or self.bs < self.mbs:
            raise ConfigError(f"need BS >= MBS >= 1, got MBS={self.mbs}, BS={self.bs}")
        if self.bs % self.mbs != 0:
            raise ConfigError(f"BS must be a multiple of MBS, got MBS={self.mbs}, BS={self.bs}")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")

    def batches(self, n: int) -> int:
        """Mini-batches per epoch over ``n`` rows, the last incomplete one
        dropped; ``ConfigError`` when the rows cannot fill one."""
        if n < self.mbs:
            raise ConfigError(f"dataset of {n} samples cannot fill one mini-batch of {self.mbs}")
        return n // self.mbs


@dataclass
class TrainLog:
    """One record per update: its step and the objective's named terms,
    averaged over the update's window, as the objective returned them.
    ``train_log.jsonl`` holds one record per line; ``metrics.csv`` one
    ``step,term,value`` row per term, in the objective's order."""

    records: list = field(default_factory=list)

    def append(self, step: int, terms: Mapping[str, float]) -> None:
        if self.records and step <= self.records[-1]["step"]:
            raise ConfigError("log steps must increase monotonically")
        self.records.append({"step": step, **terms})

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def write_metrics_csv(self, path: str | Path) -> None:
        lines = ["step,term,value"]
        for rec in self.records:
            lines += [f"{rec['step']},{term},{value:.17g}"
                      for term, value in rec.items() if term != "step"]
        Path(path).write_text("\n".join(lines) + "\n")


# an objective returns its loss and its named terms' values, ending with "total"
ObjectiveFn = Callable[[Network, Tensor, np.random.Generator], tuple[Tensor, dict[str, float]]]


def _libc(name: str, argtypes: list):
    try:
        fn = getattr(ctypes.CDLL(None), name)
    except (OSError, TypeError, AttributeError):
        return None
    fn.argtypes, fn.restype = argtypes, ctypes.c_int
    return fn


_MALLOC_TRIM = _libc("malloc_trim", [ctypes.c_size_t])   # glibc only
# mallopt's parameter numbers are glibc's (<malloc.h>), so only where glibc is
_MALLOPT = _libc("mallopt", [ctypes.c_int, ctypes.c_int]) if _MALLOC_TRIM else None
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_KEPT_MMAP_THRESHOLD = 32 * 2**20   # glibc's 64-bit cap for its dynamic threshold
_KEPT_TRIM_THRESHOLD = 2**30        # far above one step's freed tape


def _keep_freed_heap() -> None:
    """Keep the heap pages that freed arrays leave, for the next step to reuse.

    By default glibc trims free memory off the top of its heap as soon as it
    exceeds a threshold that tracks the largest mmapped array freed so far,
    so a step that frees its whole tape hands the pages back and the next
    step faults every one of them in again.  This fixes the mmap threshold at
    32 MiB, where glibc's dynamic one stops climbing, and the trim threshold
    at 1 GiB.  It also caps glibc at one arena, so the second lane's worker
    thread (``tensor.lanes``) allocates from the same heap and reuses the
    pages the loop keeps, where an arena of its own would fault in its own
    copy: on the 16x16 MIM CNN benchmark (2-core Xeon, two 20 s runs each)
    the peak RSS was 208.1-208.2 MB with the cap and 252.8-253.7 MB
    without, at a step p50 of 47.2-47.4 against 44.6-46.0 ms.  The
    setting is process-wide and stays after training: glibc cannot restore
    its dynamic thresholds.  ``release_free_heap`` still returns every free
    page.  A no-op where the C library is not glibc.
    """
    if _MALLOPT is not None:
        _MALLOPT(_M_MMAP_THRESHOLD, _KEPT_MMAP_THRESHOLD)
        _MALLOPT(_M_TRIM_THRESHOLD, _KEPT_TRIM_THRESHOLD)
        _MALLOPT(_M_ARENA_MAX, 1)


def release_free_heap() -> None:
    """Hand the heap pages of freed arrays back to the operating system.

    glibc serves arrays below its mmap threshold from the heap (32 MiB once
    ``_keep_freed_heap`` has run, or once large arrays have come and gone), so
    training leaves hundreds of MB of freed chunks there.  Their pages stay
    resident, and how many of them later allocations can reuse depends on how
    the chunks happened to fragment, which changes with the number of steps
    run.  ``malloc_trim(0)`` returns every free page, whatever the trim
    threshold, so the resident set afterwards is the live arrays.  A no-op
    where the C library has no ``malloc_trim``.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _check_finite(loss: float, grads: Mapping[str, np.ndarray], step: int,
                  epoch: int, batch: int) -> None:
    # takes the loss value, not its tensor: a raised error's traceback keeps
    # this frame, and with a tensor argument the whole tape
    where = f"update step {step} (epoch {epoch}, mini-batch {batch})"
    if not np.isfinite(loss):
        raise DomainError(f"loss is {loss} at {where}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise DomainError(f"gradient of {name} is not finite at {where}")


@T.lanes()
def train_objective(net: Network, points: np.ndarray, objective: ObjectiveFn,
                    sched: AccumulationSchedule, opt: AdamState, seed: int,
                    epoch_callback: Callable[[int, Network], bool | None] | None = None) -> TrainLog:
    """Run the accumulation schedule over shuffled epochs of ``points``.

    Each mini-batch's loss uses its own batch statistics (the prior estimate
    is the MBS-batch mean inside the objective); gradients are averaged over
    the accumulation window before each Adam update (a window of one
    mini-batch hands its gradients to Adam as they are).  The last incomplete
    mini-batch of an epoch is dropped so every prior estimate sees a full MBS
    samples; a trailing partial *window* still triggers an update.
    Each update's log record holds the window's mean of every term the
    objective returned, by name (see :class:`TrainLog`).

    ``epoch_callback(epoch, net)`` runs after every epoch; returning True
    stops training early (the hook used for holdout-based early stopping).
    A mini-batch whose loss or any gradient is not finite raises
    ``DomainError`` before Adam or any caller sees it, naming the update
    step (numbered as in the log), the epoch and mini-batch (from 0) and
    the parameter.
    One tape is alive at a time: each mini-batch's loss, and with it its
    tape, is dropped once its gradients are checked, and ``gradients``
    leaves no ``.grad`` on any parameter, so the next forward sees only the
    parameters, the window's summed gradients, the Adam moments, the
    batch-norm running stats and the log.  The freed
    pages stay in the heap for the next step (``_keep_freed_heap``); that
    setting is process-wide and persists after the first call, because glibc
    cannot restore its dynamic thresholds.  On every exit, an error
    included, the free pages are handed back (``release_free_heap``), so the
    caller's resident set is its live arrays.
    The whole loop, the epoch callback included, runs inside
    ``tensor.lanes()``: OpenBLAS stays on one thread, so the run gives the
    same bits at any BLAS thread count, and each step's independent work
    runs on two lanes where the host has two CPUs (see ``gradients`` and
    ``dml.smoothed_objective``).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    batches = sched.batches(n)
    params = net.parameters()
    rng = np.random.default_rng(seed)
    log = TrainLog()
    window = sched.bs // sched.mbs
    _keep_freed_heap()
    step = 0
    try:
        for epoch in range(sched.epochs):
            perm = rng.permutation(n)
            for first in range(0, batches, window):
                accum, window_terms = {}, []
                for b in range(first, min(first + window, batches)):
                    idx = perm[b * sched.mbs:(b + 1) * sched.mbs]
                    loss, terms = objective(net, Tensor(points[idx]), rng)
                    grads = gradients(loss, params)
                    _check_finite(loss.item(), grads, step + 1, epoch, b)
                    loss = None   # the tape
                    # held, not copied: backward never writes into a gradient
                    accum = {name: accum[name] + g if accum else g for name, g in grads.items()}
                    grads = None
                    window_terms.append(terms)
                count = len(window_terms)
                if count > 1:
                    scale = 1.0 / count
                    accum = {name: g * scale for name, g in accum.items()}
                adam_step(params, accum, opt)
                accum = None   # before the next forward or the epoch callback
                step += 1
                log.append(step, {name: sum(t[name] for t in window_terms) / count
                                  for name in window_terms[0]})
            if epoch_callback is not None and epoch_callback(epoch, net):
                break
    finally:
        loss = None   # a failed step's tape, so that its pages go back too
        release_free_heap()
    return log


def holdout_early_stopper(evaluate: Callable[[Network], float], patience: int):
    """Build an epoch callback that stops when ``evaluate`` (lower is better,
    e.g. the objective on a designated holdout split) has not improved for
    ``patience`` consecutive epochs."""
    if patience < 1:
        raise ConfigError("patience must be at least 1")
    best = {"value": np.inf, "stale": 0}

    def callback(epoch: int, net: Network) -> bool:
        value = evaluate(net)
        if value < best["value"] - 1e-12:
            best["value"] = value
            best["stale"] = 0
            return False
        best["stale"] += 1
        return best["stale"] >= patience

    return callback


_CE_GUARD = 1e-12
_PROBE_BATCH_ROWS = 128
_PROBE_HOLDOUT = 0.25


def softmax_cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    probs = T.softmax(logits)
    return T.neg(T.tmean(T.tsum(Tensor(onehot) * T.log(probs + _CE_GUARD), axis=1)))


@T.lanes()
def linear_probe(features: np.ndarray, labels: np.ndarray, hidden_units: int = 200,
                 epochs: int = 30, lr: float = 1e-3, seed: int = 0) -> float:
    """Accuracy of a one-hidden-layer classifier on held-out features.

    The features are frozen inputs: nothing propagates back into whatever
    produced them.  A seeded quarter of the rows is held out for scoring,
    and the classifier trains on mini-batches of 128 of the rest.  The
    labels are any nonnegative class ids; the head has one output per
    distinct id, in increasing order.  A mini-batch whose loss or any
    gradient is not finite raises ``DomainError``, as in
    ``train_objective``.  It runs inside ``tensor.lanes()``, as
    ``train_objective`` does.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ShapeError(f"features (N, d) and labels (N,) required, got "
                         f"{features.shape} and {labels.shape}")
    n, d = features.shape
    n_test = max(1, int(round(_PROBE_HOLDOUT * n)))
    if n_test >= n:
        raise ConfigError(f"holdout {_PROBE_HOLDOUT} of {n} rows leaves no training rows")
    if labels.min() < 0:
        raise DomainError(f"labels must be nonnegative class ids, got {int(labels.min())}")
    ids, labels = np.unique(labels, return_inverse=True)   # one class per distinct id
    classes = ids.size
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    rows = min(_PROBE_BATCH_ROWS, train_idx.size)

    probe = build_mlp(d, [hidden_units], classes, seed=seed, batchnorm=False, softmax_head=False)
    params = probe.parameters()
    opt = AdamState.for_params(params, lr=lr)
    onehot = np.eye(classes)[labels]

    def step(idx, epoch, b):  # the tape and the gradients die with this frame
        loss = softmax_cross_entropy(probe.forward(Tensor(features[idx]), "train"), onehot[idx])
        grads = gradients(loss, params)
        _check_finite(loss.item(), grads, opt.step + 1, epoch, b)
        adam_step(params, grads, opt)

    for epoch in range(epochs):
        order = rng.permutation(train_idx.size)
        for b in range(train_idx.size // rows):
            step(train_idx[order[b * rows:(b + 1) * rows]], epoch, b)
    logits = extract_features(probe, features[test_idx], tap="out")
    return float((logits.argmax(axis=1) == labels[test_idx]).mean())


def near_equal_edges(n: int, size: int) -> list[int]:
    """Edges of ceil(n / ``size``) groups of n rows whose sizes differ by at
    most one, where fixed groups of ``size`` would leave a small remainder.
    Where that count would make a group of one row (``size`` < 3), there are
    n // 2 groups instead, because batch statistics need two rows."""
    groups = max(1, min(-(-n // size), n // 2))
    return [i * n // groups for i in range(groups + 1)]


# so the two lanes' chunks together fit in the heap pages one chunk of 16 MiB kept
_EVAL_CHUNK_BYTES = _KEPT_MMAP_THRESHOLD // 4
_BN_GROUP_ROWS = 1000


@T.lanes()
def extract_features(net: Network, points: np.ndarray, tap: str = "last",
                     bn_train_mode: bool = False) -> np.ndarray:
    """Frozen hidden-state features at a named tap ('h0'.., 'last', or 'out').

    The library's one read-only forward loop: every forward here records no
    tape and nothing in the network mutates.  The result is a C-ordered
    (N, D) array, filled chunk by chunk.  The whole body, the one-row sizing
    forward included, runs inside ``tensor.lanes()``: OpenBLAS stays on one
    thread, and the two lanes each forward the next chunk until none is
    left, each chunk's rows at their own place in the result.

    By default batch norm normalizes with its running statistics ("eval"
    mode), folded into the dense or conv node before it (see ``nn``; the
    values match a layer-by-layer forward up to last bits).  Rows are then
    independent, so the chunk size only bounds memory: each chunk holds
    ``max(1, min(8 MiB // (8 * widest), ceil(N / 2)))`` rows, where
    ``widest`` is the largest per-row size (in float64 entries) of the
    input, any tapped state or the output, read from a one-row forward, so
    N >= 2 rows make at least two chunks.  Two chunks in flight hold what
    one 16 MiB chunk held: half of the 32 MiB mmap threshold that
    ``_keep_freed_heap`` fixes.  glibc serves smaller arrays from its heap,
    so each chunk reuses the pages an earlier one freed, where a larger
    array is a fresh mmap whose every page faults in on every call.  On the
    benchmark's 16x16 MIM CNN encoder (widest state 64x14x14) a chunk is 83
    rows, and the traced peak beside the result is 63.4 MiB at 500 rows.  A
    4x400 MLP takes up to 2621 rows per chunk on 2-D input and 2048 on
    512-D.  Other chunk sizes move only last bits (at most 7.9e-16 relative
    on that encoder after one training epoch).

    With ``bn_train_mode`` batch norm normalizes with each group's own
    statistics ("batch" mode): the rows are split into
    ``near_equal_edges(N, _BN_GROUP_ROWS)``, ceil(N / 1000) near-equal
    groups with no group of a single row, which the lanes share the same
    way.
    """
    names = net.tap_names()
    if tap == "last":
        tap = names[-1] if names else "out"
    if tap != "out" and tap not in names:
        raise ConfigError(f"unknown tap {tap!r}; available: {names + ['out', 'last']}")
    n = points.shape[0]
    if n == 0:
        raise ShapeError("cannot extract features of an empty point set")
    with T.no_tape():
        if bn_train_mode:
            mode, edges = "batch", near_equal_edges(n, _BN_GROUP_ROWS)
        else:
            out, states = net.forward_with_states(Tensor(points[:1]), "eval")
            widest = max(a[0].size for a in (points, out.data, *(s.data for s in states)))
            chunk = max(1, min(_EVAL_CHUNK_BYTES // (8 * widest), -(-n // 2)))
            mode, edges = "eval", [*range(0, n, chunk), n]
        chunks, lock, features = list(zip(edges, edges[1:])), threading.Lock(), None

        def forward_chunks(net) -> None:   # each lane takes the next chunk until none is left
            nonlocal features
            while True:
                with lock:
                    if not chunks:
                        return
                    start, stop = chunks.pop(0)
                out, states = net.forward_with_states(Tensor(points[start:stop]), mode)
                h = out if tap == "out" else states[names.index(tap)]
                flat = h.data.reshape(h.shape[0], -1)
                with lock:
                    if features is None:
                        features = np.empty((n, flat.shape[1]))
                features[start:stop] = flat

        T._both(lambda: forward_chunks(net), lambda: forward_chunks(net))
    return features


def predict_components(net: Network, points: np.ndarray) -> np.ndarray:
    """Hard labels from the network head: the argmax over states (0.5
    threshold for a two-column head) of ``extract_features(net, points,
    tap="out")``, so eval-mode forwards that record no tape, with each batch
    norm folded into the node before it, in chunks of ``max(1, min(8 MiB //
    (8 * widest), ceil(N / 2)))`` rows that reuse kept heap pages, on two
    lanes.  A 4x400 MLP's 2000 rows are two chunks of 1000, so the
    benchmark's DML predictions are two forwards, one per lane.
    """
    return extract_features(net, points, tap="out").argmax(axis=1)


def _best_assignment(score: np.ndarray) -> np.ndarray:
    """Row matched to each column of a square score matrix so that the summed
    score is maximal: the Hungarian method with potentials (Kuhn, 1955), O(k^3).

    Integer-valued scores keep every potential an integer, so the matching is
    exact.
    """
    k = score.shape[0]
    cost = score.max() - score
    u, v = np.zeros(k + 1), np.zeros(k + 1)   # row / column potentials; index 0 is a sentinel
    match = np.zeros(k + 1, dtype=np.intp)   # match[j]: 1-based row on column j, 0 = none
    for row in range(1, k + 1):
        match[0], col = row, 0
        slack = np.full(k + 1, np.inf)
        way = np.zeros(k + 1, dtype=np.intp)
        used = np.zeros(k + 1, dtype=bool)
        while match[col]:   # grow the alternating tree until it reaches a free column
            used[col] = True
            reduced = cost[match[col] - 1] - u[match[col]] - v[1:]
            better = ~used[1:] & (reduced < slack[1:])
            slack[1:][better] = reduced[better]
            way[1:][better] = col
            open_slack = np.where(used, np.inf, slack)
            col = int(np.argmin(open_slack))
            delta = open_slack[col]
            u[match[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
        while col:   # flip the augmenting path
            prev = way[col]
            match[col] = match[prev]
            col = prev
    return match[1:] - 1


def cluster_accuracy(pred: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Best label-permutation agreement between predictions and ground truth,
    found exactly by an assignment over the k x k confusion matrix."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ShapeError("pred and truth must have matching shapes")
    if pred.size == 0:
        raise ShapeError("cannot score an empty prediction")
    if min(pred.min(), truth.min()) < 0 or max(pred.max(), truth.max()) >= k:
        raise DomainError(f"labels must lie in [0, {k})")
    conf = np.bincount(pred * k + truth, minlength=k * k).reshape(k, k)
    rows = _best_assignment(conf)
    return float(conf[rows, np.arange(k)].sum() / pred.size)
