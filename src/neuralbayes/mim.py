"""Information-maximization objectives over discrete softmax states.

The core quantity is the closed-form mutual information between inputs and a
K-state latent implied by a row-stochastic posterior batch.  The trainable
losses replace the log's argument with a stop-gradient so that mini-batch
gradients stay unbiased, add a uniform-prior penalty that keeps states alive,
and optionally average over several hidden states at two spatial scales.
Each state's MI term and prior penalty are one closed-form tape node,
:func:`neuralbayes.tensor.state_objective`; ``mi_closed_form`` and
``uniform_prior_penalty_v1`` keep the fully live elementwise forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dml
from .bayes import LOG_GUARD, PosteriorBatch, PriorEstimate, check_interior, prior_estimate
from .errors import ConfigError
from . import tensor as T
from .tensor import Tensor


@dataclass
class MimConfig:
    """Hyper-parameters of the information objective.

    ``alpha`` strengthens the uniform-prior penalty beyond its baseline weight
    of 1, ``beta`` weights the smoothness penalty, and ``use_scales`` adds a
    2x2/stride-2 average-pooled copy of every spatial state.  The logs are
    guarded by :data:`neuralbayes.bayes.LOG_GUARD`, and the smoothness
    perturbation has scale :data:`neuralbayes.dml.NOISE_SIGMA`.  A negative
    or non-finite ``alpha`` or ``beta`` is a ``ConfigError``.
    """

    alpha: float = 0.0
    beta: float = 0.0
    use_scales: bool = False

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0.0 for v in (self.alpha, self.beta)):
            raise ConfigError(f"alpha and beta must be nonnegative and finite, got "
                              f"alpha={self.alpha}, beta={self.beta}")


@dataclass(frozen=True)
class SoftmaxState:
    """One softmaxed hidden state: (B, K) or, spatially, (B, K, H, W)."""

    state_id: str
    values: Tensor


def _guarded_log(t: Tensor) -> Tensor:
    """log(t) where entries that are exactly zero are masked to keep the log
    defined; callers only ever multiply those entries by the zero they came
    from, so the convention 0*log(0) = 0 holds exactly."""
    zero = t.data <= 0.0
    if zero.any():
        t = t + Tensor(zero.astype(np.float64))
    return T.log(t)


def mi_closed_form(p: PosteriorBatch) -> Tensor:
    """Closed-form mutual information of the batch-empirical joint.

    Computes mean_b sum_k L log(L / prior) with the prior
    :func:`neuralbayes.bayes.prior_estimate`, the batch mean, live on the
    tape.  It has no guard, so the value is exact for oracle comparisons;
    zero posterior entries contribute exactly zero.
    """
    v = p.values
    prior = prior_estimate(p).values
    terms = v * (_guarded_log(v) - _guarded_log(prior))
    return T.tmean(T.tsum(terms, axis=1))


def mim_v1_loss(p: PosteriorBatch, eps: float = LOG_GUARD) -> Tensor:
    """Decoupled negative-MI loss with stop-gradient logs.

    Forward value equals -MI (up to the guard); its gradient equals the full
    gradient of -MI because blocked log-argument terms cancel exactly.  It is
    the single-state MI term plus the negative-entropy prior penalty, one
    :func:`neuralbayes.tensor.state_objective` node.
    """
    return T.state_objective(p.values, "v1", eps)[0]


def uniform_prior_penalty_v1(prior: PriorEstimate) -> Tensor:
    """Negative entropy of the state prior: sum_k p_k log p_k, unguarded,
    with 0 log 0 = 0."""
    pv = prior.values
    return T.tsum(pv * _guarded_log(pv))


def uniform_prior_penalty_v2(prior: PriorEstimate) -> Tensor:
    """Cross-entropy push toward the uniform prior.

    -sum_k [ (1/K) log p_k + ((K-1)/K) log(1 - p_k) ], unguarded, so a
    prior entry at 0 or 1 is a ``DomainError``.  It is minimized at p_k =
    1/K and its gradients blow up as any p_k approaches 1, unlike the
    negative-entropy form whose gradients vanish there.  It is the v2
    penalty of :func:`neuralbayes.tensor.state_objective` on a one-row
    batch, whose batch-mean prior is that row.
    """
    pv = prior.values
    return T.state_objective(T.reshape(pv, (1, pv.shape[0])), "v2", 0.0, mi_weight=0.0)[0]


def prior_gradient_strength(prior_k: float, K: int) -> tuple[float, float]:
    """Multipliers of d(prior_k)/d(theta) in the two penalty gradients.

    Returns ``(v1_coeff, v2_coeff)`` where v1 is log(p) (vanishes as p -> 1)
    and v2 is -(1/K)(1/p - (K-1)/(1-p)) (diverges as p -> 1).  A prior
    outside (0, 1) raises ``DegeneratePriorError``.
    """
    check_interior(prior_k)
    v1 = math.log(prior_k)
    v2 = -(1.0 / K) * (1.0 / prior_k - (K - 1.0) / (1.0 - prior_k))
    return v1, v2


def _state_builders(states: Sequence[Tensor], cfg: MimConfig):
    """``(state_id, entries, build)`` of every collected state, in
    :func:`collect_states` order: ``build()`` softmaxes the state (its
    average-pooled copy, for a pooled one), and ``entries`` is the size of
    that softmax, about a quarter of the state's for a pooled copy."""
    builders = [(f"h{i}", s.size, lambda s=s: T.softmax(s)) for i, s in enumerate(states)]
    if cfg.use_scales:
        builders += [(f"h{i}_pooled", s.size // 4, lambda s=s: T.softmax(T.avg_pool2d(s, 2, 2)))
                     for i, s in enumerate(states) if s.ndim == 4]
    return builders


def collect_states(states: Sequence[Tensor], cfg: MimConfig) -> tuple[SoftmaxState, ...]:
    """Softmax every tapped state along its feature/channel axis.

    With ``use_scales`` each spatial state also contributes an average-pooled
    copy, appended after all original states.  Dense (2-D) states have no
    spatial axes and are never pooled.
    """
    return tuple(SoftmaxState(name, build()) for name, _, build in _state_builders(states, cfg))


def _weights(n: int, cfg: MimConfig) -> tuple[float, float]:
    """The MI and prior weights of each of ``n`` states' nodes."""
    if n == 0:
        raise ConfigError("state collection is empty")
    return 1.0 / n, (1.0 + cfg.alpha) / n


def _summed(parts, mi_weight: float, prior_weight: float) -> tuple[Tensor, dict[str, float]]:
    """The loss and terms of the states' ``(node, mi, prior)``, in state order."""
    total = parts[0][0]
    for node, _, _ in parts[1:]:
        total = total + node
    return total, {"mi": sum(mi for _, mi, _ in parts) * mi_weight,
                   "prior": sum(rp for _, _, rp in parts) * prior_weight}


def mim_v2_loss(sc: Sequence[SoftmaxState], cfg: MimConfig,
                prior_form: str = "v2") -> tuple[Tensor, dict[str, float]]:
    """Multi-state objective without smoothness: the state-averaged negative
    MI term plus (1 + alpha) times the state-averaged uniform-prior penalty.
    Each state adds one :func:`neuralbayes.tensor.state_objective` node
    carrying both weights.  Returns the loss and its terms ``{"mi": ...,
    "prior": ...}``, the weighted sums of the nodes' own MI and penalty
    values; :func:`make_mim_objective` adds beta * R_c and the total.

    ``prior_form='v1'`` swaps in the negative-entropy penalty for side-by-side
    comparisons; everything else stays identical.
    """
    mi_weight, prior_weight = _weights(len(sc), cfg)
    return _summed([T.state_objective(st.values, prior_form, LOG_GUARD, mi_weight, prior_weight)
                    for st in sc], mi_weight, prior_weight)


def _pooled_vector(s: Tensor) -> Tensor:
    """A tapped state as (B, C): spatial states averaged over the map."""
    return T.tmean(s, axis=(2, 3)) if s.ndim == 4 else s


def make_mim_objective(cfg: MimConfig, *, v1: bool = False):
    """The :func:`neuralbayes.dml.smoothed_objective` of :func:`mim_v2_loss`
    over every collected state, whose smoothness target is the final tapped
    state pooled to (B, C).  ``terms`` holds ``mi`` and ``prior``, then
    ``smooth`` and ``total``, in that order.

    The head builds each state's softmax (after its pooling, for a pooled
    copy) and its ``state_objective`` node on the two lanes, the states split
    by the size of their softmax; the nodes are then summed, and ``mi`` and
    ``prior`` accumulated, in :func:`collect_states` order, so the values
    are those of :func:`mim_v2_loss`.  Inside ``no_tape()`` (holdout
    evaluation) the head runs on the caller, state by state, as the two
    forwards of ``smoothed_objective`` do there.
    """
    prior_form = "v1" if v1 else "v2"

    def head_loss(out: Tensor, states) -> tuple[Tensor, dict[str, float]]:
        builders = _state_builders(states, cfg)
        mi_weight, prior_weight = _weights(len(builders), cfg)

        def build(share) -> list:
            return [T.state_objective(builders[i][2](), prior_form, LOG_GUARD, mi_weight,
                                      prior_weight) for i in share]

        if not T._taping():
            return _summed(build(range(len(builders))), mi_weight, prior_weight)
        shares = T._halves([entries for _, entries, _ in builders])
        parts = [None] * len(builders)
        for share, built in zip(shares, T._both(lambda: build(shares[0]),
                                                lambda: build(shares[1]))):
            for i, part in zip(share, built):
                parts[i] = part
        return _summed(parts, mi_weight, prior_weight)

    def target(out: Tensor, states) -> Tensor:
        return _pooled_vector(states[-1])

    return dml.smoothed_objective(head_loss, target, cfg.beta)
