"""Three disjoint clusters, one-vs-rest: the multi-partition objective.

With K output states the loss is log 2 minus the mean, over states, of the
divergence between each state's conditional and the pooled rest.  Its floor
is 0, reached exactly when every state owns one component.
"""

import math

from neuralbayes import (AccumulationSchedule, AdamState, DmlConfig, PosteriorBatch,
                         Tensor, cluster_accuracy, data, dml, make_dml_objective,
                         nn, predict_components, train_objective)

ds = data.standardize(data.make_blobs(3, 500, noise=0.3, seed=61))
print(f"3 blobs, {ds.size} points, min inter-component distance "
      f"{ds.meta['min_inter_component_distance']:.2f}")

net = nn.build_mlp(2, [400] * 4, 3, seed=3, batchnorm=True, softmax_head=True)
cfg = DmlConfig(partitions=3, beta=2.0)
opt = AdamState.for_params(net.parameters(), lr=1e-3)
objective = make_dml_objective(cfg)

for chunk in range(10):
    sched = AccumulationSchedule(mbs=500, bs=500, epochs=10)
    train_objective(net, ds.points, objective, sched, opt, seed=9000 + chunk)
    pred = predict_components(net, ds.points)
    acc = cluster_accuracy(pred, ds.components, 3)
    out = net.forward(Tensor(ds.points), "eval").data
    loss = dml.dml_loss(PosteriorBatch(Tensor(out))).item()
    print(f"epoch {(chunk + 1) * 10:3d}: accuracy {acc:.3f}  "
          f"loss {loss:.4f} (floor 0, uniform posterior log 2 = {math.log(2):.4f})")
    if acc >= 0.99:
        break

priors = out.mean(axis=0)
print("final state priors:", [round(float(p), 3) for p in priors],
      "(one state per component, no collapse)")
