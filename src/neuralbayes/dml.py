"""Disjoint-manifold labeling: Jensen-Shannon partition objectives.

A K-way posterior splits the batch-empirical data distribution into each
state's conditional and the pooled rest; maximizing their mean JS divergence
assigns a distinct constant label to every connected component of the
support, provided the labeling function stays smooth.  At K = 2 this is the
binary objective on the soft label L(x) = column 0.  One trainable loss, the
guarded log(1 + ratio) form, serves every K; the binary theory-form objective
(exact, with its +log 2 offset) is kept separately for reporting and oracle
comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import LOG_GUARD, PosteriorBatch, check_interior, conditional_weights, prior_estimate
from .errors import ConfigError, ShapeError
from . import tensor as T
from .tensor import Tensor

LOG2 = math.log(2.0)


@dataclass
class DmlConfig:
    """Partition count and smoothness weight.  The log guard is
    :data:`neuralbayes.bayes.LOG_GUARD` and the perturbation scale is
    :data:`NOISE_SIGMA`.  Fewer than 2 partitions, or a negative or
    non-finite ``beta``, is a ``ConfigError``."""

    partitions: int = 2
    beta: float = 0.0

    def __post_init__(self):
        if self.partitions < 2:
            raise ConfigError("need at least 2 partitions")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ConfigError(f"beta must be nonnegative and finite, got {self.beta}")


def _label_array(labels) -> np.ndarray:
    arr = labels.data if isinstance(labels, Tensor) else np.asarray(labels, dtype=np.float64)
    arr = arr.reshape(-1)
    if arr.size < 1:
        raise ShapeError("need at least one sample")
    if np.min(arr) < 0.0 or np.max(arr) > 1.0:
        raise ShapeError("soft labels must lie in [0, 1]")
    return arr


def dml_binary_objective(labels, prior: float) -> float:
    """Theory-form binary objective: JS divergence of the two implied
    conditionals on the batch atoms, so its value lies in [0, log 2] and its
    maximum log 2 is attained exactly when the labels split the support.

    ``labels`` holds L(x) per sample; ``prior`` is E[L] (pass the batch mean,
    or any hypothetical value to probe the landscape).  Zero-weight atoms
    follow the 0*log(0) = 0 convention exactly; no guards are applied.
    """
    L = _label_array(labels)
    check_interior(prior)
    f1 = L / prior
    f0 = (1.0 - L) / (1.0 - prior)
    denom = f1 + f0  # strictly positive: f1 and f0 cannot vanish together
    t1 = np.zeros_like(f1)
    m1 = f1 > 0.0
    t1[m1] = f1[m1] * np.log(f1[m1] / denom[m1])
    t0 = np.zeros_like(f0)
    m0 = f0 > 0.0
    t0[m0] = f0[m0] * np.log(f0[m0] / denom[m0])
    return 0.5 * float(t1.mean()) + 0.5 * float(t0.mean()) + LOG2


def dml_loss(p: PosteriorBatch) -> Tensor:
    """Trainable loss for every K >= 2: 0.5 mean_{b,k}[f log(1 + fbar/f) +
    fbar log(1 + f/fbar)], where ``f`` and ``fbar`` are
    :func:`neuralbayes.bayes.conditional_weights` against the batch-mean
    prior, each plus eps = :data:`neuralbayes.bayes.LOG_GUARD`.

    Equals log 2 minus the mean over states of the one-vs-rest JS objective,
    so it lies in [0, log 2] up to the guard; at K = 2 both columns give the
    same terms, so it is log 2 - :func:`dml_binary_objective` of column 0.
    The batch-mean prior stays live on the tape (this is why training needs
    batches large enough for a faithful prior estimate), and a state whose
    prior reaches 0 or 1 raises ``DegeneratePriorError``.  The smoothness
    term is added by :func:`smoothed_objective` as beta * R_c.
    """
    if p.num_states < 2:
        raise ShapeError("DML loss needs K >= 2 states")
    if p.batch_size < 2:
        raise ShapeError("DML loss needs a batch of at least 2")
    f, fbar = conditional_weights(p, prior_estimate(p))
    f, fbar = f + LOG_GUARD, fbar + LOG_GUARD
    per_entry = f * T.log(fbar / f + 1.0) + fbar * T.log(f / fbar + 1.0)
    return T.tmean(per_entry) * 0.5


NOISE_SIGMA = 0.1   # perturbation scale, calibrated for unit-variance data


def smoothness_penalty(net, batch, y0, rng: np.random.Generator, *,
                       noise: np.ndarray | None = None, zeta: float | None = None) -> Tensor:
    """Finite-difference smoothness of ``net`` under data-spanned perturbations.

    Per sample i, the direction is X v_i (X the n x B batch matrix, v_i i.i.d.
    standard normal), unit-normalized; a single scale zeta ~ N(0, sigma^2),
    sigma = :data:`NOISE_SIGMA`, is drawn per batch (re-drawn while
    |zeta| < 1e-4, which would blow up the 1/zeta^2 normalization).  Returns
    (1/B) sum_i ||y0_i - net(x_i + zeta * dhat_i)||^2 / zeta^2.

    ``y0`` is the clean output net(batch), which the caller's objective
    computes (and keeps on its tape), so only the perturbed batch is
    forwarded here.  It is a tensor, or a function that computes it: then
    ``v`` and zeta are drawn here first, so the generator is read in the
    same order, and inside ``tensor.lanes()`` the second lane builds the
    perturbed batch (the X v product, the norms, the tensor) and forwards
    it while ``y0()`` runs here.  A collapsed direction is a ``ShapeError``
    from whichever lane builds the batch, raised to the caller.
    ``net`` is any callable Tensor -> Tensor whose output is (B, d) or (B,),
    with ``y0``'s shape.
    ``noise`` and ``zeta`` override the random draws (used by tests that
    check the arithmetic against direct evaluation).
    """
    xb = batch.data if isinstance(batch, Tensor) else np.asarray(batch, dtype=np.float64)
    if xb.ndim < 2 or xb.shape[0] < 2:
        raise ShapeError(f"smoothness penalty needs a (B, ...) batch with B >= 2, got {xb.shape}")
    if not np.any(xb):
        raise ShapeError("batch matrix is all zeros; data-span directions are undefined")
    B = xb.shape[0]
    flat = xb.reshape(B, -1)  # direction algebra treats samples as vectors
    v = rng.standard_normal((B, B)) if noise is None else np.asarray(noise, dtype=np.float64)
    if zeta is None:
        zeta = float(rng.normal(0.0, NOISE_SIGMA))
        while abs(zeta) < 1e-4:  # would blow up the 1/zeta^2 normalization
            zeta = float(rng.normal(0.0, NOISE_SIGMA))

    def perturbed() -> Tensor:
        delta = flat.T @ v  # column i spans the batch: X v_i
        norms = np.linalg.norm(delta, axis=0)
        if np.min(norms) <= 0.0:
            raise ShapeError("a perturbation direction collapsed to zero")
        dhat = (delta / norms).T  # (B, n), unit rows
        return net(Tensor((flat + zeta * dhat).reshape(xb.shape)))

    y0, y1 = T._both(y0, perturbed) if callable(y0) else (y0, perturbed())
    if y0.shape != y1.shape:
        raise ShapeError(f"clean output {y0.shape} does not match the perturbed output {y1.shape}")
    diff = y0 - y1
    if diff.ndim == 1:
        diff = T.reshape(diff, (B, 1))
    return T.tmean(T.tsum(diff * diff, axis=1)) * (1.0 / zeta**2)


def smoothed_objective(head_loss, target, beta: float):
    """Build a training closure (net, batch, rng, mode="train") -> (loss, terms).

    One ``mode`` forward gives the output and every tapped state, from which
    ``head_loss(out, states)`` returns the loss and its leading terms.  When
    ``beta`` > 0 the closure adds beta * R_c, the :func:`smoothness_penalty`
    of ``target(out, states)``: the clean target stays on this forward's
    tape, and the penalty adds one batch-mode forward of the perturbed batch,
    so batch-norm running stats move once per call.  ``mode="batch"`` runs
    the clean forward in batch mode too, so the call moves nothing (holdout
    evaluation).  ``terms`` ends with ``smooth`` (beta * R_c, only when
    beta > 0) and ``total``.

    The closure runs inside ``tensor.lanes()``: the perturbation's draws
    come first, so the rng is read in the same order, then the second lane
    builds the perturbed batch and forwards it while the clean forward and
    ``head_loss`` run here (``head_loss`` may hand part of its own work to
    the second lane, which takes it once the perturbed forward is done).
    The values are those of running them one after the other.
    Inside ``no_tape()`` they do run one after the other: a holdout
    evaluation's peak memory is then one forward's, where two overlapping
    forwards would hold up to both (on a 16-64-64-2 MLP at 100 rows, 337 KB
    against up to 548 KB, depending on how they happened to overlap).
    """
    @T.lanes()
    def objective(net, xb: Tensor, rng: np.random.Generator, mode: str = "train"):
        if beta <= 0.0:
            total, terms = head_loss(*net.forward_with_states(xb, mode))
        else:
            head = []

            def clean() -> Tensor:
                out, states = net.forward_with_states(xb, mode)
                head.extend(head_loss(out, states))
                return target(out, states)

            rc = smoothness_penalty(lambda t: target(*net.forward_with_states(t, "batch")),
                                    xb, clean if T._taping() else clean(), rng)
            total, terms = head
            smooth = rc * beta
            total = total + smooth
            terms["smooth"] = smooth.item()
        terms["total"] = total.item()
        return total, terms

    return objective


def make_dml_objective(cfg: DmlConfig):
    """The :func:`smoothed_objective` of :func:`dml_loss` on the whole head.

    The network head must be a softmax with ``cfg.partitions`` outputs
    (``ShapeError`` otherwise).  For two partitions the smoothness target is
    its first column, the scalar label L, else the whole head.  ``terms``
    holds ``js_loss`` (the value of :func:`dml_loss`), ``smooth`` and
    ``total``, in that order.
    """
    binary = cfg.partitions == 2

    def head_loss(out: Tensor, states) -> tuple[Tensor, dict[str, float]]:
        if out.shape[1:] != (cfg.partitions,):
            raise ShapeError(f"head output {out.shape} is not (B, {cfg.partitions})")
        loss = dml_loss(PosteriorBatch(out))
        return loss, {"js_loss": loss.item()}

    def target(out: Tensor, states) -> Tensor:
        return T.column(out, 0) if binary else out

    return smoothed_objective(head_loss, target, cfg.beta)
