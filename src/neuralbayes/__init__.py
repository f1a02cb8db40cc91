"""Discrete-latent representation learning through a softmax parameterization.

A small numpy-backed library built around one idea: a row-stochastic network
head L(x) determines the latent posterior, prior, and conditional densities in
closed form, which turns mutual-information maximization and disjoint-manifold
labeling into ordinary differentiable objectives.  Ships with its own
reverse-mode tensor core (with a stop-gradient operator), reference
architectures, brute-force verification oracles, and a CLI.
"""

from .bayes import PosteriorBatch, PriorEstimate, conditional_weights, prior_estimate
from .dml import DmlConfig, dml_binary_objective, dml_loss, make_dml_objective, smoothness_penalty
from .mim import (MimConfig, collect_states, make_mim_objective,
                  mi_closed_form, mim_v1_loss, mim_v2_loss, prior_gradient_strength,
                  uniform_prior_penalty_v1, uniform_prior_penalty_v2)
from .nn import (BatchNormLayer, Conv2dLayer, DenseLayer, Network, build_cnn, build_mlp,
                 load_checkpoint, orthogonal_init, save_checkpoint)
from .tensor import Tensor, gradients, stop_gradient
from .train import (AccumulationSchedule, AdamState, TrainLog, adam_step, cluster_accuracy,
                    extract_features, linear_probe, predict_components, train_objective)

__version__ = "0.1.0"

__all__ = [
    "AccumulationSchedule", "AdamState", "BatchNormLayer", "Conv2dLayer", "DenseLayer",
    "DmlConfig", "MimConfig", "Network", "PosteriorBatch", "PriorEstimate",
    "Tensor", "TrainLog", "adam_step", "build_cnn",
    "build_mlp", "cluster_accuracy", "collect_states", "conditional_weights",
    "dml_binary_objective", "dml_loss", "extract_features",
    "gradients", "linear_probe", "load_checkpoint", "make_dml_objective", "make_mim_objective",
    "mi_closed_form", "mim_v1_loss", "mim_v2_loss", "orthogonal_init", "predict_components",
    "prior_estimate", "prior_gradient_strength", "save_checkpoint", "smoothness_penalty",
    "stop_gradient", "train_objective", "uniform_prior_penalty_v1", "uniform_prior_penalty_v2",
    "__version__",
]
