"""A tour of the softmax parameterization.

A row-stochastic matrix L (one soft class assignment per sample) pins down
everything else: the class prior is its column mean, the conditional density
weights are simple ratios, and the mutual information between samples and the
discrete latent has a closed form.  This script walks through those pieces
and cross-checks the closed form against a brute-force joint-table oracle.
"""

import numpy as np

from neuralbayes import (PosteriorBatch, Tensor, conditional_weights,
                         mi_closed_form, prior_estimate, prior_gradient_strength,
                         uniform_prior_penalty_v1, uniform_prior_penalty_v2)
from neuralbayes import oracles
from neuralbayes.tensor import softmax

rng = np.random.default_rng(0)

print("== posterior batch and its implied quantities ==")
logits = rng.standard_normal((6, 3))
p = PosteriorBatch(softmax(Tensor(logits)))
prior = prior_estimate(p)
print("posterior rows:\n", np.round(p.values.data, 3))
print("prior (column means):", np.round(prior.values.data, 3))

f, fbar = conditional_weights(p, prior)
print("density ratios L_k/prior_k:\n", np.round(f.data, 3))
print("mixture identity sum_k ratio*prior per row:",
      np.round((f.data * prior.values.data).sum(axis=1), 12))
print("state-0 conditional weights: mean f =", round(float(f.data[:, 0].mean()), 12),
      " mean fbar =", round(float(fbar.data[:, 0].mean()), 12), "(both are exactly 1)")

print("\n== closed-form mutual information vs. brute force ==")
for b, k in [(8, 2), (32, 5), (64, 8)]:
    logits = rng.standard_normal((b, k))
    batch = PosteriorBatch(softmax(Tensor(logits)))
    fast = mi_closed_form(batch).item()
    slow = oracles.brute_force_mi(batch.values.data)
    print(f"B={b:3d} K={k}: closed form {fast:.12f}  oracle {slow:.12f}  "
          f"|diff| {abs(fast - slow):.2e}")

one_hot = PosteriorBatch(Tensor(np.eye(4)))
print("one-hot balanced batch reaches the log K ceiling:",
      round(mi_closed_form(one_hot).item(), 10), "= log 4 =", round(np.log(4), 10))

print("\n== the two uniform-prior penalties ==")
from neuralbayes import PriorEstimate
for pk in (0.5, 0.9, 0.99, 0.999):
    est = PriorEstimate(Tensor([pk, 1 - pk]), sample_count=1)
    v1 = uniform_prior_penalty_v1(est).item()
    v2 = uniform_prior_penalty_v2(est).item()
    g1, g2 = prior_gradient_strength(pk, 2)
    print(f"prior ({pk}, {1-pk:0.3f}):  negative-entropy {v1:8.4f}  "
          f"cross-entropy {v2:8.4f}   gradient strengths |v1|={abs(g1):.2e} |v2|={abs(g2):.2e}")
print("the cross-entropy form keeps pushing hard as a state hogs the prior,"
      " which is what keeps every latent state alive during training")
