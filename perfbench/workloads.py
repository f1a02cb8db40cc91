"""The benchmark's workloads, each measured end to end or traced.

Every workload is a closed loop with one caller.  ``measure_training`` runs
the program as users run it (no spans) for a given number of seconds;
``trace_training`` runs a fixed amount of the same work twice: once through
the program's own entry point and once as a replica built from its public
pieces with spans around every layer, and checks that both give the same
result.  Criterion 2's gradcheck command is traced the same way inside
dml-moons-512d's traced run (``trace_gradcheck``).
"""

from __future__ import annotations

import json
import math
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from neuralbayes import cli, data, dml, mim, nn, oracles, train
from neuralbayes import tensor as T
from neuralbayes.tensor import Tensor

from tracing import TAPE_OPS, TimedNet, Tracer, descendants, duration, median, self_time, tape_stats

SETUP_REPS = 5
MAX_EPOCHS = 100_000           # training stops on time, through the epoch callback
MIN_STEPS = 100                # so that the p90 has at least 10 steps beyond it
LABEL_ACCURACY = 0.99          # criterion 3's labeling threshold
GRADCHECK_TOL = 1e-4           # criterion 2's equality tolerance
CASES_PER_COMMAND = 50         # the gradcheck command's default --cases
TRACE_COMMANDS = 2


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict = field(default_factory=dict)   # metric name -> value
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)    # (name, ok, detail)
    notes: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)   # sample counts behind percentiles

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else 0.0


def gemm_peak_gflop_s(n: int = 1024, reps: int = 8) -> float:
    """Best float64 GEMM rate over a few n x n products."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def same_bits(net_a, net_b) -> bool:
    """Parameters and buffers of two networks are bitwise identical."""
    pa, pb = net_a.parameters(), net_b.parameters()
    ba, bb = net_a.buffers(), net_b.buffers()
    return (pa.keys() == pb.keys() and ba.keys() == bb.keys()
            and all(pa[k].data.tobytes() == pb[k].data.tobytes() for k in pa)
            and all(ba[k].tobytes() == bb[k].tobytes() for k in ba))


# --- training workloads ---

def synthetic_images(n_per_class: int, classes: int = 10, side: int = 16,
                     noise: float = 0.9, seed: int = 0) -> data.ManifoldDataset:
    """Class-template images plus heavy pixel noise (the test suite's recipe)."""
    rng = np.random.default_rng(seed)
    templates = []
    for _ in range(classes):
        freq_x, freq_y = rng.uniform(0.5, 2.5, 2)
        phase = rng.uniform(0, 2 * np.pi, 2)
        xx, yy = np.meshgrid(np.linspace(0, np.pi, side), np.linspace(0, np.pi, side))
        templates.append(np.sin(freq_x * xx + phase[0]) * np.cos(freq_y * yy + phase[1]))
    points, labels = [], []
    for c, tpl in enumerate(templates):
        points.append(tpl.ravel() + rng.normal(0.0, noise, (n_per_class, side * side)))
        labels.append(np.full(n_per_class, c))
    idx = rng.permutation(classes * n_per_class)
    return data.ManifoldDataset(np.vstack(points)[idx], np.concatenate(labels)[idx],
                                seed=seed, meta={"kind": "synthetic-images", "side": side})


class DmlMoons:
    """Criterion 3's 512-D arm: 4x400 batch-norm MLP, beta = 2, MBS = BS = 400."""

    name, layer = "dml-moons-512d", "dml"
    mbs, bs, trace_epochs = 400, 400, 10
    traces_gradcheck = True   # the oracles and cli layers are traced in this process
    cfg = dml.DmlConfig(partitions=2, beta=2.0)

    def data(self, seed: int) -> data.ManifoldDataset:
        moons = data.make_two_moons(1000, gap=0.25, noise=0.06, seed=seed)
        return data.lift_and_rotate(data.standardize(moons), 512, seed=seed + 1)

    def points(self, ds) -> np.ndarray:
        return ds.points

    def model(self, seed: int):
        net = nn.build_mlp(512, [400] * 4, 2, seed=seed + 2, batchnorm=True, softmax_head=True)
        opt = train.AdamState.for_params(net.parameters(), lr=1e-3)
        return net, opt, dml.make_dml_objective(self.cfg)

    def evaluate(self, net, ds) -> tuple[float, float | None]:
        """(seconds spent in predict_components, cluster accuracy)."""
        t0 = time.perf_counter()
        pred = train.predict_components(net, ds.points)
        elapsed = time.perf_counter() - t0
        return elapsed, train.cluster_accuracy(pred, ds.components, 2)

    def check(self, out: Outcome, net, ds, workdir: Path) -> None:
        L = net.forward(Tensor(ds.points), train=False).data[:, 0]
        js = dml.dml_binary_objective(L, float(L.mean()))
        out.check("dml_binary_objective in [0, log 2]", -1e-12 <= js <= math.log(2) + 1e-12,
                  f"{js!r}")
        stem = workdir / "checkpoint"
        nn.save_checkpoint(net, stem)
        loaded = nn.load_checkpoint(stem)
        out.check("checkpoint round trip is bit-exact", same_bits(net, loaded))
        same_pred = np.array_equal(train.predict_components(net, ds.points),
                                   train.predict_components(loaded, ds.points))
        out.check("reloaded checkpoint predicts identical components", same_pred)


class MimCnn:
    """Multi-state MIM on train-mim's default CNN encoder over 16x16 synthetic images."""

    name, layer = "mim-cnn-16px", "mim"
    mbs, bs, trace_epochs = 50, 100, 5
    traces_gradcheck = False
    arch = "C(64,3,1,0)-P(2,2,0,max)-C(128,3,1,0)"   # train-mim's default cnn-arch
    cfg = mim.MimConfig(alpha=2.0, beta=4.0, use_scales=True)

    def data(self, seed: int) -> data.ManifoldDataset:
        return data.standardize(synthetic_images(50, seed=seed))

    def points(self, ds) -> np.ndarray:
        return ds.points.reshape(ds.size, 1, 16, 16)

    def model(self, seed: int):
        net = nn.build_cnn(self.arch, (1, 16, 16), seed=seed + 2, batchnorm=True)
        opt = train.AdamState.for_params(net.parameters(), lr=1e-3)
        return net, opt, mim.make_mim_objective(self.cfg)

    def evaluate(self, net, ds) -> tuple[float, float | None]:
        t0 = time.perf_counter()
        train.extract_features(net, self.points(ds), tap="last")
        return time.perf_counter() - t0, None

    def states(self, net, ds) -> int:
        _, states = net.forward_with_states(Tensor(self.points(ds)[:1]), train=False)
        return len(mim.collect_states(states, self.cfg))

    def check(self, out: Outcome, net, ds, workdir: Path) -> None:
        _, states = net.forward_with_states(Tensor(self.points(ds)), train=False)
        for st in mim.collect_states(states, self.cfg):
            v = st.values.data
            prior = v.mean(axis=(0, 2, 3)) if v.ndim == 4 else v.mean(axis=0)
            ok = bool(np.all((prior > 0.0) & (prior < 1.0)) and abs(prior.sum() - 1.0) <= 1e-9)
            out.check(f"state prior of {st.state_id} sums to 1 inside (0, 1)", ok,
                      f"sum {float(prior.sum())!r}, min {prior.min():.3g}, max {prior.max():.3g}")


TRAINING = {w.name: w for w in (DmlMoons(), MimCnn())}


class StepClock:
    """Objective wrapper that times mini-batch steps from the start times of
    successive objective calls; an epoch's last step ends where the epoch
    callback begins."""

    def __init__(self, objective):
        self.objective = objective
        self.steps: list[float] = []
        self.calls = 0
        self.nonfinite = 0
        self._open = None

    def __call__(self, net, xb, rng):
        self.close()
        self._open = time.perf_counter()
        self.calls += 1
        loss, report = self.objective(net, xb, rng)
        if not np.all(np.isfinite(loss.data)):
            self.nonfinite += 1
        return loss, report

    def close(self) -> None:
        if self._open is not None:
            self.steps.append(time.perf_counter() - self._open)
            self._open = None


def run_program(wl, net, opt, objective, ds, seed: int, epochs: int, seconds: float | None,
                out: Outcome):
    """``train_objective`` as users call it, stopped by epoch count or, with
    ``seconds``, at the first epoch end after both ``seconds`` and MIN_STEPS.

    Returns (step clock, predict seconds per epoch, epochs to label or None).
    """
    clock = StepClock(objective)
    evals, label = [], []
    start = time.perf_counter()

    def on_epoch(epoch, trained):
        clock.close()
        elapsed, acc = wl.evaluate(trained, ds)
        evals.append(elapsed)
        if acc is not None and acc >= LABEL_ACCURACY and not label:
            label.append(epoch + 1)
        return (seconds is not None and len(clock.steps) >= MIN_STEPS
                and time.perf_counter() - start >= seconds)

    sched = train.AccumulationSchedule(mbs=wl.mbs, bs=wl.bs, epochs=epochs)
    try:
        train.train_objective(net, wl.points(ds), clock, sched, opt, seed=seed + 3,
                              epoch_callback=on_epoch)
    except Exception:  # a failing step is counted, not fatal to the run
        traceback.print_exc()
        out.failed += 1
    out.attempted += clock.calls
    out.failed += clock.nonfinite
    out.check("every mini-batch loss is finite", clock.nonfinite == 0,
              f"{clock.nonfinite} of {clock.calls} non-finite")
    return clock, evals, (label[0] if label else None)


def measure_training(name: str, seed: int, seconds: float, workdir: Path) -> Outcome:
    wl, out = TRAINING[name], Outcome()
    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        ds = wl.data(seed)
        net, opt, objective = wl.model(seed)
        setup.append(time.perf_counter() - t0)
    clock, evals, label = run_program(wl, net, opt, objective, ds, seed, MAX_EPOCHS, seconds, out)
    if out.failed == 0:
        wl.check(out, net, ds, workdir)
    steps = clock.steps
    out.samples["steps"] = len(steps)
    out.samples["evaluations"] = len(evals)
    if wl.layer == "dml":
        out.notes.append("epochs to label: " + (str(label) if label else "not reached"))
    out.metrics.update({
        "setup_s": median(setup),
        "train_samples_per_s": len(steps) * wl.mbs / sum(steps) if steps else 0.0,
        "step_ms_p50": median(steps) * 1e3,
        "step_ms_p90": p90(steps) * 1e3,
        "eval_samples_per_s": ds.size / median(evals, math.inf),
        "peak_rss_mb": peak_rss_mb(),
    })
    return out


def trace_training(name: str, seed: int, workdir: Path, tracer: Tracer) -> Outcome:
    wl, out = TRAINING[name], Outcome()
    if wl.traces_gradcheck:  # first, while the process is fresh
        trace_gradcheck(seed, workdir, tracer, out)
    # the program's own loop, untraced: the reference for bits and for overhead
    ds = wl.data(seed)
    ref_net, ref_opt, ref_objective = wl.model(seed)
    failed = out.failed
    clock, _, label = run_program(wl, ref_net, ref_opt, ref_objective, ds, seed,
                                  wl.trace_epochs, None, out)
    if out.failed > failed:
        return out
    wl.check(out, ref_net, ds, workdir)

    with tracer.span("data.generate"):
        ds = wl.data(seed)
    with tracer.span("nn.build"):
        net, opt, objective = wl.model(seed)
    tapes = replay_training(wl, net, opt, objective, ds, seed, tracer, out)
    out.check("traced replica's parameters and buffers equal the program's bitwise",
              same_bits(ref_net, net))
    with tracer.span("tensor.gemm_peak"):
        peak = gemm_peak_gflop_s()

    kids = tracer.children()
    steps = tracer.named("train.step")
    step_s = [duration(s) for s in steps]

    def per_step(span_name):
        return [sum(duration(d) for d in descendants(s, kids, span_name)) for s in steps]

    forward = per_step("nn.forward")
    objective_s = per_step(f"{wl.layer}.objective")
    loop_self = [self_time(s, kids) for s in steps]
    tape = tapes[0] if tapes else {"nodes": 0, "ops": {}, "mb": 0.0, "gflop": 0.0}
    if any(t != tape for t in tapes):
        out.notes.append("tape differs between mini-batches; reporting the first")
    step_p50 = median(step_s)
    m = out.metrics
    m["tensor.backward_ms"] = median(per_step("tensor.backward")) * 1e3
    m["tensor.tape_nodes"] = tape["nodes"]
    for op in TAPE_OPS:
        m[f"tensor.tape_nodes.{op}"] = tape["ops"].get(op, 0)
    m["tensor.tape_mb"] = tape["mb"]
    m["tensor.gflop_per_step"] = tape["gflop"]
    m["tensor.gemm_peak_gflop_s"] = peak
    m["tensor.gemm_efficiency"] = tape["gflop"] / step_p50 / peak
    m["nn.forward_ms"] = median(forward) * 1e3
    m["nn.forwards_per_step"] = median(len(descendants(s, kids, "nn.forward")) for s in steps)
    m[f"{wl.layer}.objective_ms"] = median(objective_s) * 1e3
    m[f"{wl.layer}.objective_self_ms"] = median(o - f for o, f in zip(objective_s, forward)) * 1e3
    if wl.layer == "mim":
        m["mim.states"] = wl.states(net, ds)
    m["train.adam_ms"] = median(duration(s) for s in tracer.named("train.adam")) * 1e3
    m["train.loop_self_ms"] = median(loop_self) * 1e3
    m["train.predict_ms"] = median(duration(s) for s in tracer.named("train.predict")) * 1e3
    m["train.updates"] = len(tracer.named("train.adam"))
    if wl.layer == "dml":
        m["train.epochs_to_label"] = label or 0
        out.notes.append("epochs to label: " + (str(label) if label else
                                                f"not reached in {wl.trace_epochs} epochs (0)"))
    m["data.generate_s"] = duration(tracer.named("data.generate")[0])
    m["bench.trace_overhead_pct"] = (step_p50 / median(clock.steps) - 1.0) * 100.0
    out.samples["steps"] = len(steps)
    return out


def replay_training(wl, net, opt, objective, ds, seed: int, tracer: Tracer, out: Outcome) -> list:
    """``train_objective``'s loop rebuilt from public pieces, with spans.

    Same rng order (one permutation per epoch, then the objective's draws),
    same accumulation arithmetic, same Adam calls, so the final parameters
    match the untraced run bit for bit.  Returns the tape statistics of every
    mini-batch.
    """
    points = wl.points(ds)
    proxy = TimedNet(net, tracer)
    params = net.parameters()
    rng = np.random.default_rng(seed + 3)
    window = wl.bs // wl.mbs
    tapes = []

    def flush(accum, count):
        averaged = {k: g * (1.0 / count) for k, g in accum.items()}
        with tracer.span("train.adam"):
            train.adam_step(params, averaged, opt)

    for _ in range(wl.trace_epochs):
        perm = rng.permutation(points.shape[0])
        accum, count = None, 0
        for b in range(points.shape[0] // wl.mbs):
            with tracer.span("train.step"):
                xb = Tensor(points[perm[b * wl.mbs:(b + 1) * wl.mbs]])
                out.attempted += 1
                try:
                    with tracer.span(f"{wl.layer}.objective"):
                        loss, _ = objective(proxy, xb, rng)
                except Exception:  # a failing step is counted, not fatal to the run
                    traceback.print_exc()
                    out.failed += 1
                    return tapes
                with tracer.span("bench.tape_walk"):
                    tapes.append(tape_stats(loss))
                with tracer.span("tensor.backward"):
                    grads = T.gradients(loss, params)
                if accum is None:
                    accum = {k: g.copy() for k, g in grads.items()}
                else:
                    for k, g in grads.items():
                        accum[k] += g
                count += 1
                if count == window:
                    flush(accum, count)
                    accum, count = None, 0
        if count:
            flush(accum, count)
        with tracer.span("train.predict"):
            wl.evaluate(net, ds)
    return tapes


# --- criterion 2's gradcheck command, traced inside dml-moons-512d ---

def suite_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


class CaseClock:
    """Times gradcheck cases inside the unmodified command.

    While active it stands in for ``oracles.random_check_case`` (stamping each
    case's start and counting its finite-difference forwards, 2 per parameter
    entry) and for ``oracles.gradcheck_suite`` (an ``oracles.suite`` span that
    also ends the last case).
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.cases: list[dict] = []

    def __enter__(self):
        self._real = (oracles.random_check_case, oracles.gradcheck_suite)
        oracles.random_check_case, oracles.gradcheck_suite = self._case, self._suite
        return self

    def __exit__(self, *exc):
        oracles.random_check_case, oracles.gradcheck_suite = self._real

    def _close(self) -> None:
        if self.cases and self.cases[-1]["end"] is None:
            self.cases[-1]["end"] = time.perf_counter()

    def _case(self, rng):
        self._close()
        start = time.perf_counter()
        net, batch = self._real[0](rng)
        fd = 2 * sum(p.data.size for p in net.parameters().values())
        self.cases.append({"start": start, "end": None, "fd": fd})
        return net, batch

    def _suite(self, *args, **kwargs):
        try:
            with self.tracer.span("oracles.suite"):
                return self._real[1](*args, **kwargs)
        finally:
            self._close()


def gradcheck_command(seed: int, cases: int, path: Path, extra: tuple = ()) -> tuple[int, list]:
    """``neuralbayes gradcheck`` in-process; returns (exit code, results)."""
    path.unlink(missing_ok=True)
    code = cli.main(["gradcheck", "--seed", str(seed), "--cases", str(cases),
                     "--out", str(path), *extra])
    return code, json.loads(path.read_text())["results"] if path.exists() else []


def trace_gradcheck(seed: int, workdir: Path, tracer: Tracer, out: Outcome) -> None:
    """The oracles and cli layers: criterion 2's command, then its replica.

    The command runs unmodified (spans only around the command and the
    suite); the replica calls ``random_check_case`` and
    ``gradient_equality_check`` with the suite's rng, its networks wrapped in
    ``TimedNet``, and must reproduce every case's ``max_rel_diff``.
    """
    reference = []
    with CaseClock(tracer) as clock:
        for i in range(TRACE_COMMANDS):
            with tracer.span("cli.command"):
                code, results = gradcheck_command(suite_seed(seed, i), CASES_PER_COMMAND,
                                                  workdir / "gradcheck.json")
            ok = [r for r in results if r["pass"] and r["max_rel_diff"] <= GRADCHECK_TOL]
            worst = max((r["max_rel_diff"] for r in results), default=math.nan)
            out.check(f"gradcheck --seed {suite_seed(seed, i)} exits 0 with max_rel_diff <= "
                      f"{GRADCHECK_TOL:g}", code == 0 and len(ok) == CASES_PER_COMMAND,
                      f"exit {code}, worst {worst:.3g}")
            out.attempted += CASES_PER_COMMAND
            out.failed += CASES_PER_COMMAND - len(ok)
            reference.extend(r["max_rel_diff"] for r in results)
    code, _ = gradcheck_command(seed, 3, workdir / "negative.json", ("--negative-control",))
    out.check("gradcheck --negative-control exits 1", code == 1, f"exit {code}")

    replica = []
    for i in range(TRACE_COMMANDS):
        rng = np.random.default_rng(suite_seed(seed, i))
        for _ in range(CASES_PER_COMMAND):
            with tracer.span("oracles.case"):
                with tracer.span("oracles.sample"):
                    net, batch = oracles.random_check_case(rng)
                with tracer.span("oracles.check"):
                    replica.append(oracles.gradient_equality_check(TimedNet(net, tracer), batch))
    out.check("replica's per-case results equal gradcheck_suite's", replica == reference,
              f"{len(replica)} replica cases, {len(reference)} command cases")

    kids = tracer.children()
    case_s = [duration(s) for s in tracer.named("oracles.case")]
    # a check's first forward is the analytic one; the rest are finite differences
    fd_spans = [f for c in tracer.named("oracles.check")
                for f in sorted(descendants(c, kids, "nn.forward"), key=lambda s: s["start"])[1:]]
    fd_count = sum(c["fd"] for c in clock.cases)
    out.check("every finite-difference forward is counted", len(fd_spans) == fd_count,
              f"{len(fd_spans)} traced, {fd_count} computed")
    commands, suites = tracer.named("cli.command"), tracer.named("oracles.suite")
    command_cases = [c["end"] - c["start"] for c in clock.cases if c["end"] is not None]
    m = out.metrics
    m["oracles.case_ms_p50"] = median(case_s) * 1e3
    m["oracles.case_ms_p90"] = p90(case_s) * 1e3
    m["oracles.sample_ms"] = median(duration(s) for s in tracer.named("oracles.sample")) * 1e3
    m["oracles.fd_forwards"] = fd_count
    m["oracles.fd_forward_us"] = sum(duration(f) for f in fd_spans) / max(fd_count, 1) * 1e6
    m["cli.command_s"] = median(duration(c) for c in commands)
    m["cli.self_ms"] = median(duration(c) - duration(s) for c, s in zip(commands, suites)) * 1e3
    out.notes.append(f"gradcheck: {len(case_s)} cases; traced case p50 over the command's "
                     f"untraced case p50: {median(case_s) / median(command_cases):.3f}")
