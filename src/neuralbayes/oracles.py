"""Independent brute-force references used to cross-check the fast paths.

The references are deliberately primitive: plain Python loops, ``math.log``,
explicit skipping of zero entries.  ``brute_force_mi``,
``js_divergence_discrete`` and ``finite_diff_grad`` (which only calls the
loss it is given) reuse none of the tensor engine's arithmetic, so agreement
between their values and the library's vectorized implementations is
evidence, not tautology.  ``gradient_equality_check`` pits one against the
engine: its analytic side runs the tape (``mim_v1_loss`` and backward), as
``random_check_case``'s gradient-strength filter ``_live_grad`` does on the
library's live ``mi_closed_form``, while its numeric side is
``finite_diff_grad`` of a numpy objective (``_live_mi_value``) on the
network's forward values.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from . import nn
from .bayes import PosteriorBatch
from .errors import DomainError, ShapeError
from .mim import mi_closed_form, mim_v1_loss
from .tensor import Tensor, gradients, lanes, log, mul, neg, stop_gradient, tmean, tsum

FD_STEP = 1e-5          # central-difference step of finite_diff_grad
GRADCHECK_TOL = 1e-4    # criterion 2's tolerance on the max relative difference


def brute_force_mi(posterior) -> float:
    """Mutual information of the empirical joint built from a (B, K) posterior.

    Treats the batch as B equally weighted atoms, forms the joint table
    p(x_i, z=k) = L_k(x_i)/B, and sums joint * log(joint / (p_x * p_z))
    directly, skipping zero cells.
    """
    arr = np.asarray(posterior, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ShapeError(f"expected a (B, K) posterior matrix, got shape {arr.shape}")
    B, K = arr.shape
    joint = [[arr[i, k] / B for k in range(K)] for i in range(B)]
    # fsum: correctly rounded sums make the oracle exactly permutation-invariant
    pz = [math.fsum(joint[i][k] for i in range(B)) for k in range(K)]
    px = [math.fsum(joint[i][k] for k in range(K)) for i in range(B)]
    terms = [joint[i][k] * math.log(joint[i][k] / (px[i] * pz[k]))
             for i in range(B) for k in range(K) if joint[i][k] > 0.0]
    return math.fsum(terms)


def js_divergence_discrete(w0, w1) -> float:
    """Jensen-Shannon divergence of two discrete distributions on shared atoms."""
    a = np.asarray(w0, dtype=np.float64).ravel()
    b = np.asarray(w1, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"atom-weight vectors differ in length: {a.shape} vs {b.shape}")
    for name, w in (("w0", a), ("w1", b)):
        if np.min(w) < 0.0:
            raise DomainError(f"{name} has negative entries")
        if abs(w.sum() - 1.0) > 1e-9:
            raise DomainError(f"{name} does not sum to 1 (sum={w.sum()!r})")
    terms = []
    for i in range(a.size):
        m = 0.5 * (a[i] + b[i])
        if a[i] > 0.0:
            terms.append(0.5 * a[i] * math.log(a[i] / m))
        if b[i] > 0.0:
            terms.append(0.5 * b[i] * math.log(b[i] / m))
    return math.fsum(terms)


def finite_diff_grad(
    loss_fn: Callable[[Mapping[str, np.ndarray]], float],
    params: Mapping[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``loss_fn`` w.r.t. every parameter
    entry, with step ``FD_STEP``.

    Each parameter is perturbed through a flat view of a C-ordered copy, so
    any memory layout of the inputs is perturbed entry by entry."""
    work = {name: np.array(value, dtype=np.float64, order="C") for name, value in params.items()}
    grads: dict[str, np.ndarray] = {}
    for name, value in work.items():
        g = np.zeros_like(value)
        flat = value.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            hi = loss_fn(work)
            flat[idx] = orig - FD_STEP
            lo = loss_fn(work)
            flat[idx] = orig
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise DomainError(f"loss is not finite when perturbing {name}[{idx}]")
            gflat[idx] = (hi - lo) / (2.0 * FD_STEP)
        grads[name] = g
    return grads


def _live_mi_value(posterior: np.ndarray) -> float:
    """Fully live objective value: mean_b sum_k L log(L / mean_b L), no guards."""
    prior = posterior.mean(axis=0)
    return float((posterior * (np.log(posterior) - np.log(prior))).sum(axis=1).mean())


@lanes()
def gradient_equality_check(
    net: "nn.Network",
    batch: np.ndarray,
    *,
    wrong_branch: bool = False,
) -> float:
    """Compare the stop-gradient objective's analytic gradient with finite
    differences (step ``FD_STEP``) of the fully live negative-MI objective
    on one batch.

    The analytic side is the library's own :func:`neuralbayes.mim.mim_v1_loss`
    without a guard, which blocks backpropagation through the log's argument
    (the posterior/prior ratio); with ``wrong_branch=True`` the *live* factor
    is blocked instead, which breaks the equality and serves as a negative
    control.  Returns the max elementwise difference relative to max(1, |g|).
    Both sides run inside ``tensor.lanes()``, on one BLAS thread.
    """
    params = net.parameters()
    x = Tensor(np.asarray(batch, dtype=np.float64))
    posterior = net.forward(x, "eval")
    if np.min(posterior.data) <= 0.0:
        raise DomainError("posterior has zero entries; the guard-free objective is undefined")

    if wrong_branch:
        ratio = posterior / tmean(posterior, axis=0)
        objective = neg(tmean(tsum(mul(stop_gradient(posterior), log(ratio)), axis=1)))
    else:
        objective = mim_v1_loss(PosteriorBatch(posterior), eps=0.0)
    analytic = gradients(objective, params)

    originals = {name: p.data for name, p in params.items()}

    def live_loss(values: Mapping[str, np.ndarray]) -> float:
        for name, p in params.items():
            p.data = np.asarray(values[name], dtype=np.float64)
        try:
            out = net.forward(Tensor(x.data), "eval")
            return -_live_mi_value(out.data)
        finally:
            for name, p in params.items():
                p.data = originals[name]

    numeric = finite_diff_grad(live_loss, {name: p.data for name, p in params.items()})

    worst = 0.0
    for name in params:
        ga, gn = analytic[name], numeric[name]
        rel = np.abs(ga - gn) / np.maximum(1.0, np.abs(ga))
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
    return worst


@lanes()
def random_check_case(rng: np.random.Generator) -> tuple["nn.Network", np.ndarray]:
    """Sample a small random MLP-with-softmax-head and a matching batch.

    The nets use tanh activations: finite differences are only a valid oracle
    for smooth functions (a ReLU kink within the step h of zero contaminates
    the estimate).  Cases whose objective gradient is everywhere tiny are
    re-sampled, since they cannot distinguish a blocked branch from a live
    one.
    """
    while True:
        in_dim = int(rng.integers(2, 9))
        width = int(rng.integers(2, 33))
        depth = int(rng.integers(1, 4))
        k = int(rng.integers(2, 9))
        b = int(rng.integers(2, 65))
        seed = int(rng.integers(0, 2**31 - 1))
        net = nn.build_mlp(in_dim, [width] * depth, k, seed=seed, batchnorm=False,
                           softmax_head=True, activation="tanh")
        batch = 2.0 * rng.standard_normal((b, in_dim))
        grads = _live_grad(net, batch)
        strength = max(float(np.abs(g).max()) for g in grads.values())
        if strength > 0.05:
            return net, batch


def _live_grad(net: "nn.Network", batch: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic gradient of the fully live negative MI,
    :func:`neuralbayes.mim.mi_closed_form` (sampler guard)."""
    posterior = PosteriorBatch(net.forward(Tensor(batch), "eval"))
    return gradients(neg(mi_closed_form(posterior)), net.parameters())


def gradcheck_suite(seed: int, cases: int, *, wrong_branch: bool = False) -> list[dict]:
    """Run ``cases`` random gradient-equality checks; one result dict per
    case, which passes when its max relative difference is at most
    ``GRADCHECK_TOL``."""
    rng = np.random.default_rng(seed)
    results = []
    for case_id in range(cases):
        net, batch = random_check_case(rng)
        diff = gradient_equality_check(net, batch, wrong_branch=wrong_branch)
        results.append({"case_id": case_id, "max_rel_diff": diff, "pass": bool(diff <= GRADCHECK_TOL)})
    return results
