"""What each metric means: its layer, and which end-to-end metric it should
move on which workload.  Names, units and bounds live in BENCHMARK.json;
this table adds what that file's fixed schema has no room for.
"""

DML, MIM = "dml-moons-512d", "mim-cnn-16px"
BOTH = f"{DML}, {MIM}"
GRADCHECK = "none: criterion 2's gradcheck command, traced first in this workload's per-layer run"

# end-to-end metric -> what it measures
END_TO_END = {
    "setup_s": "data generation, net build and optimizer state, up to the first step "
               "(median of 5 set-ups)",
    "train_samples_per_s": "samples through objective, backward and update per second of "
                           "step time",
    "step_ms_p50": "median wall time of one mini-batch step",
    "step_ms_p90": "90th percentile of the mini-batch step times",
    "eval_samples_per_s": f"{DML}: predict_components over the full set; {MIM}: "
                          "extract_features over the full set (eval mode)",
    "peak_rss_mb": "the run's peak resident set size (ru_maxrss)",
}

# per-layer metric -> (end-to-end metric it should move, workloads where it does)
PER_LAYER = {
    "tensor.backward_ms": ("step_ms_p50, train_samples_per_s", BOTH),
    "tensor.tape_nodes": ("step_ms_p50", BOTH),
    "tensor.tape_mb": ("peak_rss_mb, step_ms_p50", BOTH),
    "tensor.gflop_per_step": ("train_samples_per_s", BOTH),
    "tensor.gemm_peak_gflop_s": ("train_samples_per_s", BOTH),
    "tensor.gemm_efficiency": ("train_samples_per_s", BOTH),
    "nn.forward_ms": ("step_ms_p50", BOTH),
    "nn.forwards_per_step": ("step_ms_p50", BOTH),
    "dml.objective_ms": ("step_ms_p50", DML),
    "dml.objective_self_ms": ("step_ms_p50", DML),
    "mim.objective_ms": ("step_ms_p50", MIM),
    "mim.objective_self_ms": ("step_ms_p50", MIM),
    "mim.states": ("step_ms_p50", MIM),
    "train.adam_ms": ("train_samples_per_s", DML),
    "train.loop_self_ms": ("train_samples_per_s", MIM),
    "train.predict_ms": ("eval_samples_per_s", BOTH),
    "train.updates": ("none (reported)", BOTH),
    "train.epochs_to_label": ("none (reported; 0 = not reached)", DML),
    "data.generate_s": ("setup_s", BOTH),
    "oracles.case_ms_p50": (GRADCHECK, DML),
    "oracles.case_ms_p90": (GRADCHECK, DML),
    "oracles.sample_ms": (GRADCHECK, DML),
    "oracles.fd_forwards": (GRADCHECK, DML),
    "oracles.fd_forward_us": (GRADCHECK, DML),
    "cli.command_s": (GRADCHECK + " (wall time of one 50-case command)", DML),
    "cli.self_ms": (GRADCHECK, DML),
    "bench.trace_overhead_pct": ("none (traced step p50 over untraced, minus 1)", BOTH),
}


def describe(name: str) -> str:
    """One line on a metric's layer and what it should move."""
    if name in END_TO_END:
        return f"[end to end] {END_TO_END[name]}"
    if name.startswith("tensor.tape_nodes."):
        moves, on = PER_LAYER["tensor.tape_nodes"]
    else:
        moves, on = PER_LAYER.get(name, ("?", "?"))
    return f"[{name.split('.')[0]}] moves {moves} on {on}"
