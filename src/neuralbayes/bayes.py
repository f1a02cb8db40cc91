"""Posterior/prior parameterization: everything a softmax head implies.

A row-stochastic batch of soft assignments L(x) determines, in closed form,
the class prior (its batch mean) and per-class conditional density weights
relative to the data density.  The objectives in :mod:`neuralbayes.mim` and
:mod:`neuralbayes.dml` are built entirely from these three quantities.
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


def _check_interior(prior_value: float, what: str) -> None:
    if not 0.0 < prior_value < 1.0:
        raise DegeneratePriorError(
            f"{what} is degenerate (prior {prior_value!r}); state priors must lie strictly in (0, 1)")


def conditional_weights(p: PosteriorBatch, prior: PriorEstimate, k: int) -> tuple[Tensor, Tensor]:
    """Per-sample conditional density weights for state k versus the rest.

    Returns ``(f_k, fbar_k)`` with ``f_k = L_k / prior_k`` (the density ratio
    of the state-k conditional to the data density on each atom) and
    ``fbar_k = (1 - L_k) / (1 - prior_k)`` for the complement.  Both are exact
    ratios: numeric guards are the caller's concern.
    """
    _check_interior(float(prior.values.data[k]), f"state {k}")
    lk = T.column(p.values, k)
    pk = T.element(prior.values, k)
    f_k = lk / pk
    fbar_k = (1.0 - lk) / (1.0 - pk)
    return f_k, fbar_k


def density_ratio(p: PosteriorBatch, prior: PriorEstimate) -> Tensor:
    """(B, K) matrix of ratios p(x|z=k)/p(x) = L_k(x)/prior_k.

    Satisfies the mixture identity sum_k ratio[i, k] * prior[k] = 1 per row.
    """
    pv = prior.values.data
    if np.min(pv) <= 0.0:
        bad = int(np.argmin(pv))
        raise DegeneratePriorError(f"prior entry {bad} is zero; density ratios are undefined")
    return p.values / prior.values
