"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The image-protocol
criteria (6-8) require the MNIST train IDX pair (see tests/conftest.py:
$NB_MNIST_DIR or data/mnist); in environments without it they skip with an
explicit reason rather than asserting against a stand-in.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import (dead_unit_fraction, encoder_state_prior, probe_encoder,
                      run_mim_encoder, subset_dataset)
from neuralbayes import bayes, cli, data as D, dml, mim, nn, oracles, train
from neuralbayes import tensor as T
from neuralbayes.tensor import Tensor

pytestmark = pytest.mark.acceptance

LOG2 = math.log(2.0)


def report(num: int, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")


def skip(num: int, reason: str) -> None:
    print(f"[SKIP] criterion {num}: {reason}")
    pytest.skip(reason)


# --- criterion 1: closed-form MI equals the brute-force joint-table oracle ---

def test_criterion_1_mi_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        b = int(rng.integers(1, 65))
        k = int(rng.integers(2, 9))
        logits = rng.standard_normal((b, k))
        p = bayes.PosteriorBatch(T.softmax(Tensor(logits)))
        got = mim.mi_closed_form(p).item()
        want = oracles.brute_force_mi(p.values.data)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, ok, f"MI oracle equivalence over 200 batches: max |diff| = {worst:.2e} "
                  f"(tol 1e-10), {elapsed:.2f}s (< 5s)")
    assert worst <= 1e-10
    assert elapsed < 5.0


# --- criterion 2: stop-gradient objective carries the full live gradient ---

def test_criterion_2_gradient_equality():
    t0 = time.perf_counter()
    results = oracles.gradcheck_suite(seed=2024, cases=50)
    controls = oracles.gradcheck_suite(seed=2024, cases=50, wrong_branch=True)
    elapsed = time.perf_counter() - t0
    worst = max(r["max_rel_diff"] for r in results)
    weakest_control = min(r["max_rel_diff"] for r in controls)
    ok = worst <= 1e-4 and weakest_control > 1e-2 and elapsed < 60.0
    report(2, ok, f"gradient equality on 50 random nets: max rel diff {worst:.2e} "
                  f"(tol 1e-4); wrong-branch control min diff {weakest_control:.2e} "
                  f"(> 1e-2); {elapsed:.1f}s (< 60s)")
    assert worst <= 1e-4
    assert weakest_control > 1e-2
    assert elapsed < 60.0


# --- criteria 3 and 4: manifold labeling reaches the optimum ---

def _train_labeling(ds, partitions, beta, net_seed, shuffle_seed, mbs, bs,
                    max_epochs=500, check_every=10):
    """Chunked training with convergence checks; returns (epochs, acc, objective)."""
    net = nn.build_mlp(ds.dim, [400] * 4, partitions, seed=net_seed,
                       batchnorm=True, softmax_head=True)
    cfg = dml.DmlConfig(partitions=partitions, beta=beta)
    opt = train.AdamState.for_params(net.parameters(), lr=1e-3)
    objective = dml.make_dml_objective(cfg)
    acc, value = 0.0, float("-inf")
    for chunk in range(max_epochs // check_every):
        sched = train.AccumulationSchedule(mbs=mbs, bs=bs, epochs=check_every)
        train.train_objective(net, ds.points, objective, sched, opt,
                              seed=shuffle_seed + chunk)
        pred = train.predict_components(net, ds.points)
        acc = train.cluster_accuracy(pred, ds.components, partitions)
        out = net.forward(Tensor(ds.points), "eval").data
        if partitions == 2:
            L = out[:, 0]
            value = dml.dml_binary_objective(L, float(L.mean()))
            converged = acc >= 0.99 and value >= LOG2 - 0.05
        else:
            value = dml.dml_loss(bayes.PosteriorBatch(Tensor(out))).item()
            converged = acc >= 0.99
        if converged:
            return (chunk + 1) * check_every, acc, value
    return max_epochs, acc, value


def test_criterion_3_binary_labeling_optimality():
    moons = D.standardize(D.make_two_moons(1000, gap=0.25, noise=0.06, seed=51))
    circles = D.standardize(D.make_circles(1000, radii=(0.5, 2.0), noise=0.05, seed=53))
    arms = [
        ("two-moons 2-D", moons, 1),
        ("two-moons 512-D", D.lift_and_rotate(moons, 512, seed=52), 1),
        ("two-circles 2-D", circles, 2),
        ("two-circles 512-D", D.lift_and_rotate(circles, 512, seed=55), 2),
    ]
    outcomes = []
    for name, ds, net_seed in arms:
        epochs, acc, value = _train_labeling(ds, partitions=2, beta=2.0,
                                             net_seed=net_seed, shuffle_seed=7000,
                                             mbs=400, bs=400)
        outcomes.append((name, epochs, acc, value))
    all_ok = all(acc >= 0.99 and value >= LOG2 - 0.05 for _, _, acc, value in outcomes)
    details = "; ".join(f"{name}: acc {acc:.3f}, objective {value:.4f} @ {ep} epochs"
                        for name, ep, acc, value in outcomes)
    report(3, all_ok, f"binary labeling optimality (beta=2.0 in [0.5, 6]) -- {details}")
    for name, _, acc, value in outcomes:
        assert acc >= 0.99, (name, acc)
        assert value >= LOG2 - 0.05, (name, value)


def test_criterion_4_three_partition_labeling():
    ds = D.standardize(D.make_blobs(3, 500, noise=0.3, seed=61))
    epochs, acc, value = _train_labeling(ds, partitions=3, beta=2.0, net_seed=3,
                                         shuffle_seed=9000, mbs=500, bs=500,
                                         max_epochs=300)
    ok = acc >= 0.99
    report(4, ok, f"three-blob labeling: acc {acc:.3f} (>= 0.99), "
                  f"DML loss {value:.4f} @ {epochs} epochs")
    assert ok


# --- criterion 5: prior-penalty analytics ---

def test_criterion_5_prior_penalty_analytics():
    grad_ok = True
    for k in (2, 3, 5, 8):
        values = Tensor(np.full(k, 1.0 / k), requires_grad=True)
        mim.uniform_prior_penalty_v2(bayes.PriorEstimate(values, 1)).backward()
        grad_ok = grad_ok and np.abs(values.grad).max() <= 1e-9

    uniform2 = mim.uniform_prior_penalty_v2(
        bayes.PriorEstimate(Tensor([0.5, 0.5]), 1)).item()
    value_ok = abs(uniform2 - 2 * LOG2) <= 1e-12

    v1, v2 = mim.prior_gradient_strength(0.999, 2)
    ratio = abs(v2 / v1)
    ratio_ok = ratio > 100

    ok = grad_ok and value_ok and ratio_ok
    report(5, ok, f"penalty gradient at uniform <= 1e-9: {grad_ok}; "
                  f"K=2 uniform value {uniform2!r} == 2 log 2 within 1e-12: {value_ok}; "
                  f"strength ratio |v2/v1| at prior 0.999 = {ratio:.0f} (> 100)")
    assert ok


# --- criteria 6-8: the image protocol (requires real MNIST IDX files) ---

PROTOCOL = dict(hidden=[500, 500, 500], beta=4.0, epochs=20, lr=1e-3)
PROTOCOL_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def mnist_subset(mnist_pair):
    images, labels = mnist_pair
    full = D.load_idx(images, labels)
    sub = subset_dataset(full, 10_000, seed=0)
    return D.standardize(sub)


@pytest.fixture(scope="module")
def protocol_runs(mnist_subset):
    """Criterion-6 encoders, shared by criteria 6 and 7."""
    runs = {}
    for seed in PROTOCOL_SEEDS:
        for alpha in (0.0, 4.0):
            net = run_mim_encoder(mnist_subset.points, hidden=PROTOCOL["hidden"],
                                  alpha=alpha, beta=PROTOCOL["beta"], mbs=500, bs=2000,
                                  epochs=PROTOCOL["epochs"], seed=seed, lr=PROTOCOL["lr"])
            runs[(seed, alpha)] = net
    return runs


def test_criterion_6_dead_units(mnist_subset, protocol_runs):
    details, ok = [], True
    for seed in PROTOCOL_SEEDS:
        dead = {alpha: dead_unit_fraction(encoder_state_prior(
            protocol_runs[(seed, alpha)], mnist_subset.points)) for alpha in (0.0, 4.0)}
        ok = ok and dead[4.0] < dead[0.0]
        details.append(f"seed {seed}: dead(alpha=0) {dead[0.0]:.3f} vs "
                       f"dead(alpha=4) {dead[4.0]:.3f}")
    report(6, ok, "dead-unit fraction strictly lower with alpha=4 -- " + "; ".join(details))
    assert ok


def test_criterion_7_representation_usefulness(mnist_subset, protocol_runs):
    details, ok = [], True
    for seed in PROTOCOL_SEEDS:
        trained = probe_encoder(protocol_runs[(seed, 4.0)], mnist_subset.points,
                                mnist_subset.components, seed=seed)
        rnet = nn.build_mlp(mnist_subset.dim, PROTOCOL["hidden"], None, seed=seed + 1000)
        random_acc = probe_encoder(rnet, mnist_subset.points, mnist_subset.components,
                                   seed=seed)
        gap = (trained - random_acc) * 100
        ok = ok and gap >= 5.0
        details.append(f"seed {seed}: trained {trained:.3f} vs random {random_acc:.3f} "
                       f"(gap {gap:.1f} pts)")
    report(7, ok, "probe gap over random encoder >= 5 points -- " + "; ".join(details))
    assert ok


def test_criterion_8_accumulation_direction(mnist_subset):
    details, ok = [], True
    for seed in PROTOCOL_SEEDS:
        accs = {}
        for bs in (50, 2000):
            net = run_mim_encoder(mnist_subset.points, hidden=PROTOCOL["hidden"],
                                  alpha=4.0, beta=PROTOCOL["beta"], mbs=50, bs=bs,
                                  epochs=PROTOCOL["epochs"], seed=seed, lr=PROTOCOL["lr"])
            accs[bs] = probe_encoder(net, mnist_subset.points, mnist_subset.components,
                                     seed=seed)
        gap = (accs[2000] - accs[50]) * 100
        ok = ok and gap >= 3.0
        details.append(f"seed {seed}: BS=2000 {accs[2000]:.3f} vs BS=50 {accs[50]:.3f} "
                       f"(gap {gap:.1f} pts)")
    report(8, ok, "MBS=50 accumulation direction (BS 2000 vs 50) >= 3 points -- "
                  + "; ".join(details))
    assert ok


# --- criterion 9: bitwise reproducibility ---

def test_criterion_9_determinism_and_serialization(tmp_path):
    data = tmp_path / "d.csv"
    cli.main(["gen-data", "--kind", "moons", "--n", "100", "--seed", "9", "--out", str(data)])
    artifacts = ("checkpoint.json", "checkpoint.bin", "train_log.jsonl",
                 "metrics.csv", "predicted_labels.csv")
    payloads = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        code = cli.main(["train-dml", "--data", str(data), "--mbs", "100", "--bs", "100",
                         "--epochs", "4", "--beta", "1.0", "--seed", "17",
                         "--out-dir", str(out)])
        assert code == 0
        payloads.append({name: (out / name).read_bytes() for name in artifacts})
    identical = all(payloads[0][name] == payloads[1][name] for name in artifacts)

    net = nn.load_checkpoint(tmp_path / "a" / "checkpoint")
    nn.save_checkpoint(net, tmp_path / "roundtrip")
    round_trip = ((tmp_path / "roundtrip.bin").read_bytes()
                  == payloads[0]["checkpoint.bin"]
                  and (tmp_path / "roundtrip.json").read_bytes()
                  == (tmp_path / "a" / "checkpoint.json").read_bytes())
    ok = identical and round_trip
    report(9, ok, f"identical (config, seed) runs byte-identical: {identical}; "
                  f"checkpoint round trip bit-exact: {round_trip}")
    assert ok


# --- optional extended target (not gating) ---

@pytest.mark.optional
def test_optional_image_dml_probe(mnist_pair):
    import os
    if not os.environ.get("NB_RUN_OPTIONAL"):
        pytest.skip("extended image-labeling run is opt-in: set NB_RUN_OPTIONAL=1")
    images, labels = mnist_pair
    full = D.load_idx(images, labels)
    ds = D.standardize(full)
    side = int(round(math.sqrt(ds.dim)))
    net = nn.build_cnn(cli.MNIST_CNN_ARCH.format(k=10), (1, side, side), seed=0, batchnorm=True,
                       softmax_head=True)
    cfg = dml.DmlConfig(partitions=10, beta=1.0)
    sched = train.AccumulationSchedule(mbs=5000, bs=5000, epochs=100)
    opt = train.AdamState.for_params(net.parameters(), lr=1e-3)
    points = ds.points.reshape(ds.size, 1, side, side)
    train.train_objective(net, points, dml.make_dml_objective(cfg), sched, opt, seed=0)
    feats = train.extract_features(net, points, tap="out")
    acc = train.linear_probe(feats, ds.components, hidden_units=200, epochs=30, seed=0)
    print(f"[INFO] optional image-labeling probe accuracy: {acc:.4f} (target >= 0.95)")
    assert acc >= 0.95
