"""Posterior/prior parameterization: everything a softmax head implies.

A row-stochastic batch of soft assignments L(x) determines, in closed form,
the state prior (its batch mean, :func:`prior_estimate`) and the weights of
each state's conditional and of its complement relative to the data density
(:func:`conditional_weights`).  Those ratios exist only while every state
prior lies strictly in (0, 1); :func:`check_interior` is the one place that
rejects a degenerate prior.  The objectives in :mod:`neuralbayes.mim` and
:mod:`neuralbayes.dml` are built from these quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePriorError, ShapeError
from . import tensor as T
from .tensor import Tensor

ROW_SUM_TOL = 1e-9
LOG_GUARD = 1e-7   # added inside the trainable objectives' logs


@dataclass(frozen=True)
class PosteriorBatch:
    """A (B, K) matrix whose rows are soft class assignments summing to 1."""

    values: Tensor

    def __post_init__(self):
        v = self.values.data
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ShapeError(f"posterior batch must be (B, K) with B, K >= 1, got {v.shape}")
        if np.min(v) < -ROW_SUM_TOL or np.max(v) > 1.0 + ROW_SUM_TOL:
            raise ShapeError("posterior entries must lie in [0, 1]")
        sums = v.sum(axis=1)
        worst = np.max(np.abs(sums - 1.0))
        if worst > ROW_SUM_TOL:
            raise ShapeError(f"posterior rows must sum to 1 (worst deviation {worst:.3e})")

    @property
    def batch_size(self) -> int:
        return self.values.shape[0]

    @property
    def num_states(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PriorEstimate:
    """A K-vector of state probabilities plus the sample count behind it."""

    values: Tensor
    sample_count: int

    def __post_init__(self):
        v = self.values.data
        if v.ndim != 1:
            raise ShapeError(f"prior must be a 1-D vector, got shape {v.shape}")
        if np.min(v) < -ROW_SUM_TOL or np.max(v) > 1.0 + ROW_SUM_TOL:
            raise ShapeError("prior entries must lie in [0, 1]")
        if abs(float(v.sum()) - 1.0) > ROW_SUM_TOL:
            raise ShapeError(f"prior must sum to 1 (sum={float(v.sum())!r})")


def prior_estimate(p: PosteriorBatch) -> PriorEstimate:
    """Column means of the posterior batch: the plug-in estimate of p(z=k).

    The result stays on the tape, so gradients flow through it unless the
    caller wraps it in ``stop_gradient``.
    """
    return PriorEstimate(T.tmean(p.values, axis=0), sample_count=p.batch_size)


def check_interior(prior) -> None:
    """Raise ``DegeneratePriorError`` unless every entry of ``prior`` (a
    state prior, or a K-vector of them) lies strictly in (0, 1), naming the
    entry nearest 0 or 1.  Every path that divides by a prior or its
    complement checks here."""
    pv = np.atleast_1d(np.asarray(prior, dtype=np.float64))
    margin = np.minimum(pv, 1.0 - pv)
    bad = int(np.argmin(margin))
    if not margin[bad] > 0.0:
        raise DegeneratePriorError(f"prior entry {bad} = {float(pv[bad])!r} is degenerate; "
                                   "every state prior must lie in (0, 1)")


def conditional_weights(p: PosteriorBatch, prior: PriorEstimate) -> tuple[Tensor, Tensor]:
    """(B, K) conditional density weights of each state and of its complement.

    Returns ``(f, fbar)`` with ``f = L / prior``, the ratio p(x|z=k)/p(x) of
    state k's conditional to the data density on each atom, and ``fbar =
    (1 - L) / (1 - prior)``, that of the pooled other states.  Against the
    batch-mean prior each column of either has batch mean 1, and ``f``
    satisfies the mixture identity sum_k f[i, k] * prior[k] = 1 per row.
    Both are exact ratios on the tape: numeric guards are the caller's
    concern.
    """
    check_interior(prior.values.data)
    L, pk = p.values, prior.values
    return L / pk, (1.0 - L) / (1.0 - pk)
