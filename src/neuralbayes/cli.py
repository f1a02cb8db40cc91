"""Command-line surface: data generation, training, probing, verification,
and grid export.

Every command resolves its configuration as JSON-config-then-flag-overrides,
persists the fully resolved config next to its outputs, and writes a
MANIFEST.json with a sha256 per artifact.  Given identical flags and seed,
every output byte is reproducible.  Exit codes: 0 success, 1 verification or
training failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import data as D
from . import dml as dml_mod
from . import mim as mim_mod
from . import nn, oracles, train as train_mod
from .bayes import PosteriorBatch
from .errors import ConfigError
from .tensor import Tensor, no_tape

DML_ARCH_HIDDEN = [400, 400, 400, 400]   # 4-layer MLP, 400 units, batch norm, softmax head
# the --preset mnist-cnn network; its head has one output per partition k
MNIST_CNN_ARCH = "C(100,3,1,0)-P(2,2,0,max)-C(100,3,1,0)-C(200,3,1,0)-P(2,2,0,max)-C(500,3,1,0)-P(.,.,.,avg)-FC({k})"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("NB_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"NB_SEED must be an integer, got {env!r}") from None


def _config_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: a config must be a JSON object, got {type(value).__name__}")
    return value


def _load_config(args, known: dict) -> dict:
    """The ``--config`` file's object with the ``--sweep`` entry being run
    applied over it, unknown keys rejected; flags override these values."""
    cfg = {}
    if args.config is not None:
        cfg.update(_config_object(json.loads(Path(args.config).read_text()), args.config))
    cfg.update(getattr(args, "sweep_entry", None) or {})
    unknown = set(cfg) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)} (known: {sorted(known)})")
    return cfg


def _merge_config(defaults: dict, file_cfg: dict, args, flag_names: list[str]) -> dict:
    resolved = dict(defaults)
    resolved.update(file_cfg)
    for name in flag_names:
        value = getattr(args, name.replace("-", "_"))
        if value is not None:
            resolved[name] = value
    return resolved


def _write_manifest(out_dir: Path, paths: list[Path]) -> None:
    arts = []
    for p in sorted(paths):
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        arts.append({"path": p.name, "sha256": digest, "bytes": p.stat().st_size})
    (out_dir / "MANIFEST.json").write_text(json.dumps({"artifacts": arts}, indent=1) + "\n")


def _meta_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".meta.json")


# --- gen-data ---

def cmd_gen_data(args) -> int:
    seed = _resolve_seed(args)
    kind = args.kind
    if kind == "moons":
        ds = D.make_two_moons(args.n, gap=args.gap, noise=args.noise, seed=seed)
    elif kind == "circles":
        ds = D.make_circles(args.n, noise=args.noise, seed=seed)
    elif kind == "blobs":
        ds = D.make_blobs(args.k, args.n, noise=args.noise, seed=seed)
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    # normalize in the base space, then lift: the smoothness perturbation
    # scale is calibrated for unit-variance data
    ds = D.standardize(ds)
    if args.dim is not None:
        ds = D.lift_and_rotate(ds, args.dim, seed=seed + 1)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    D.save_csv(ds, out)
    meta = dict(ds.meta)
    meta["seed"] = seed
    meta["standardized"] = True
    _meta_path(out).write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ds.size} points of dimension {ds.dim} ({ds.num_components} components) to {out}")
    return 0


def _stopping_split(args, points: np.ndarray, objective, seed: int, mbs: int):
    """Optionally hold out a user-designated stopping split.

    Returns (training points, epoch callback or None).  The callback scores
    the held-out points as the mean objective over ceil(n / ``mbs``)
    near-equal groups, the statistic each training step computes, so its
    memory is one group's, and stops after ``--patience`` epochs without
    improvement.  The evaluation runs in batch mode and records no tape, so
    it leaves the model's running statistics alone.
    """
    fraction = getattr(args, "stop_split", 0.0) or 0.0
    if fraction <= 0.0:
        return points, None
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"--stop-split must lie in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed + 99)
    perm = rng.permutation(points.shape[0])
    n_hold = max(2, int(round(fraction * points.shape[0])))
    hold, keep = points[perm[:n_hold]], points[perm[n_hold:]]
    edges = train_mod.near_equal_edges(n_hold, mbs)

    def evaluate(net) -> float:
        noise = np.random.default_rng(0)
        with no_tape():
            losses = [objective(net, Tensor(hold[start:stop]), noise, mode="batch")[0].item()
                      for start, stop in zip(edges, edges[1:])]
        return sum(losses) / len(losses)

    return keep, train_mod.holdout_early_stopper(evaluate, patience=args.patience)


def _load_dataset(args) -> D.ManifoldDataset:
    data_path = Path(args.data)
    if getattr(args, "labels", None):
        return D.load_idx(data_path, Path(args.labels))
    meta = {}
    mp = _meta_path(data_path)
    if mp.exists():
        meta = json.loads(mp.read_text())
    return D.load_csv(data_path, meta=meta)


def _load_standardized(args) -> D.ManifoldDataset:
    ds = _load_dataset(args)
    return ds if ds.meta.get("standardized") else D.standardize(ds)


def _square_images(ds: D.ManifoldDataset) -> np.ndarray:
    """The points as (N, 1, S, S) single-channel images, the input of a CNN."""
    side = math.isqrt(ds.dim)
    if side * side != ds.dim:
        raise ConfigError(f"arch cnn needs square images; dimension {ds.dim} is not a "
                          f"perfect square")
    return ds.points.reshape(ds.size, 1, side, side)


# --- train-dml, train-mim ---

def _train_command(args, command: str, defaults: dict, flags: list[str], build, finish,
                   **recorded) -> int:
    """Resolve the config, load and standardize the data, build ``(net,
    objective) = build(cfg, ds, input_shape, seed)`` (input shape (D,) for an
    MLP, (1, S, S) for a CNN on square images; ``build`` may reject the data
    with ``ConfigError`` before any training) and train with the schedule,
    Adam and the stopping split.  Then ``finish(run)`` evaluates and writes
    the command's own artifacts, returning their paths, so a failure there
    leaves no checkpoint; the checkpoint, log, metrics, resolved config
    (plus ``recorded``) and manifest come last."""
    seed = _resolve_seed(args)
    cfg = _merge_config(defaults, _load_config(args, defaults), args, flags)
    ds = _load_standardized(args)
    points = _square_images(ds) if cfg["arch"] == "cnn" else ds.points
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    net, objective = build(cfg, ds, points.shape[1:], seed)
    sched = train_mod.AccumulationSchedule(mbs=cfg["mbs"], bs=cfg["bs"], epochs=cfg["epochs"])
    opt = train_mod.AdamState.for_params(net.parameters(), lr=cfg["lr"],
                                         weight_decay=cfg["weight-decay"])
    train_points, callback = _stopping_split(args, points, objective, seed, cfg["mbs"])
    log = train_mod.train_objective(net, train_points, objective, sched, opt, seed=seed,
                                    epoch_callback=callback)

    run = argparse.Namespace(cfg=cfg, ds=ds, points=points, net=net, log=log, seed=seed,
                             out_dir=out_dir)
    paths = [*finish(run), *nn.save_checkpoint(net, out_dir / "checkpoint")]
    log_path, metrics_path = out_dir / "train_log.jsonl", out_dir / "metrics.csv"
    log.write_jsonl(log_path)
    log.write_metrics_csv(metrics_path)
    cfg_path = out_dir / "resolved_config.json"
    cfg_path.write_text(json.dumps({**cfg, **recorded, "seed": seed, "command": command,
                                    "data": str(args.data)}, indent=1, sort_keys=True) + "\n")
    _write_manifest(out_dir, [*paths, log_path, metrics_path, cfg_path])
    return 0


def _dml_build(cfg: dict, ds: D.ManifoldDataset, shape: tuple, seed: int):
    k, ids = cfg["k"], ds.components
    if not 0 <= ids.min() <= ids.max() < k:
        # the report scores the labels against k states: fail before training
        raise ConfigError(f"component ids {ids.min()}..{ids.max()} of the data do not fit "
                          f"k = {k} states; every id must lie in [0, {k})")
    print(f"smoothness weight beta={cfg['beta']} (useful sweep range: 0.5 to 6)")
    if len(shape) == 3:
        net = nn.build_cnn(MNIST_CNN_ARCH.format(k=k), shape, seed=seed, batchnorm=True,
                           softmax_head=True)
    else:
        net = nn.build_mlp(shape[0], DML_ARCH_HIDDEN, k, seed=seed,
                           batchnorm=True, softmax_head=True)
    return net, dml_mod.make_dml_objective(dml_mod.DmlConfig(partitions=k, beta=cfg["beta"]))


def _dml_report(run) -> list[Path]:
    """Predicted labels, cluster accuracy, and the head's loss and objective
    on up to 5000 points."""
    k = run.cfg["k"]
    pred = train_mod.predict_components(run.net, run.points)
    accuracy = train_mod.cluster_accuracy(pred, run.ds.components, k)
    out_head = train_mod.extract_features(run.net, run.points[:5000], tap="out")
    final_loss = float(dml_mod.dml_loss(PosteriorBatch(Tensor(out_head))).item())
    L = out_head[:, 0]
    final_obj = dml_mod.dml_binary_objective(L, float(L.mean())) if k == 2 else None
    labels_path = run.out_dir / "predicted_labels.csv"
    labels_path.write_text("\n".join(["index,predicted,truth"] +
                                     [f"{i},{p},{t}" for i, (p, t) in
                                      enumerate(zip(pred, run.ds.components))]) + "\n")
    report = {"cluster_accuracy": accuracy, "final_loss": final_loss,
              "final_objective": final_obj, "updates": len(run.log.records), "seed": run.seed}
    report_path = run.out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"cluster accuracy {accuracy:.4f}; loss {final_loss:.6f}; objective {final_obj}")
    return [labels_path, report_path]


def cmd_train_dml(args) -> int:
    defaults = {"k": 2, "beta": 2.0, "mbs": 400, "bs": 400, "lr": 1e-3,
                "epochs": 300, "weight-decay": 0.0, "arch": "mlp"}
    if args.preset == "mnist-cnn":
        defaults.update({"k": 10, "beta": 1.0, "mbs": 5000, "bs": 5000,
                         "epochs": 100, "arch": "cnn"})
    return _train_command(args, "train-dml", defaults, ["k", "beta", "mbs", "bs", "lr", "epochs"],
                          _dml_build, _dml_report)


def cmd_train_mim(args) -> int:
    defaults = {"alpha": 2.0, "beta": 4.0, "mbs": 500, "bs": 2000, "lr": 1e-3,
                "epochs": 20, "weight-decay": 0.0, "hidden": [500, 500, 500],
                "scales": "off", "arch": "mlp",
                "cnn-arch": "C(64,3,1,0)-P(2,2,0,max)-C(128,3,1,0)"}

    def build(cfg, ds, shape, seed):
        if len(shape) == 3:
            net = nn.build_cnn(cfg["cnn-arch"], shape, seed=seed, batchnorm=True)
        else:
            net = nn.build_mlp(shape[0], list(cfg["hidden"]), out_units=None, seed=seed)
        mim_cfg = mim_mod.MimConfig(alpha=cfg["alpha"], beta=cfg["beta"],
                                    use_scales=(cfg["scales"] == "on"))
        return net, mim_mod.make_mim_objective(mim_cfg, v1=args.v1)

    def summary(run):
        print(f"trained {len(run.log.records)} updates; "
              f"final total {run.log.records[-1]['total']:.6f}")
        return []

    return _train_command(args, "train-mim", defaults,
                          ["alpha", "beta", "mbs", "bs", "lr", "epochs", "scales"],
                          build, summary, v1=bool(args.v1))


# --- probe ---

def cmd_probe(args) -> int:
    seed = _resolve_seed(args)
    net = nn.load_checkpoint(args.checkpoint)
    ds = _load_standardized(args)
    points = _square_images(ds) if isinstance(net.layers[0], nn.Conv2dLayer) else ds.points
    features = train_mod.extract_features(net, points, tap=args.layer,
                                          bn_train_mode=(args.bn_mode == "train"))
    accuracy = train_mod.linear_probe(features, ds.components, hidden_units=args.hidden,
                                      epochs=args.epochs, lr=args.lr, seed=seed)
    print(f"probe accuracy at tap {args.layer}: {accuracy:.4f}")
    return 0


# --- gradcheck ---

def cmd_gradcheck(args) -> int:
    seed = _resolve_seed(args)
    # negative-control mode blocks the live branch instead; the equality gate
    # must then fail, so the command exits 1 with every case id listed
    results = oracles.gradcheck_suite(seed=seed, cases=args.cases,
                                      wrong_branch=args.negative_control)
    ok = all(r["pass"] for r in results)
    payload = {"seed": seed, "cases": args.cases, "negative_control": args.negative_control,
               "results": results, "pass": ok}
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if not ok:
        failing = [r["case_id"] for r in results if not r["pass"]]
        print(f"FAILED cases: {failing}", file=sys.stderr)
        return 1
    return 0


# --- export-grid ---

def cmd_export_grid(args) -> int:
    net = nn.load_checkpoint(args.checkpoint)
    ds = _load_dataset(args)
    lift_meta = ds.meta.get("lift")
    if ds.dim != 2 and lift_meta is None:
        raise ConfigError("grid export needs 2-D data or stored lift metadata")
    base = ds.points if ds.dim == 2 else D.unlift_points(ds.points, lift_meta)
    lo, hi = base.min(axis=0), base.max(axis=0)
    r = args.resolution
    xs = np.linspace(lo[0], hi[0], r)
    ys = np.linspace(lo[1], hi[1], r)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    lifted = grid if lift_meta is None else D.lift_points(grid, lift_meta)
    if not ds.meta.get("standardized"):
        stats = D.standardize(ds)
        lifted = (lifted - stats.mean) / stats.std

    out = train_mod.extract_features(net, lifted, tap="out")
    rows = ["x,y,argmax_label,max_prob"]
    for (x, y), lab, pr in zip(grid, out.argmax(axis=1), out.max(axis=1)):
        rows.append(f"{x:.17g},{y:.17g},{lab},{pr:.17g}")
    Path(args.out).write_text("\n".join(rows) + "\n")
    print(f"wrote {r * r} grid predictions to {args.out}")
    return 0


def _run_sweep(args, runner) -> int:
    """Run each entry of the ``--sweep`` list, applied over ``--config``, into
    its own ``sweepNNN`` directory under ``--out-dir``."""
    configs = json.loads(Path(args.sweep).read_text())
    if not isinstance(configs, list):
        raise ConfigError("--sweep expects a JSON list of config objects")
    entries = [_config_object(c, f"{args.sweep} entry {i}") for i, c in enumerate(configs)]
    code = 0
    for i, entry in enumerate(entries):
        sub = argparse.Namespace(**{**vars(args), "sweep": None, "sweep_entry": entry,
                                    "out_dir": str(Path(args.out_dir) / f"sweep{i:03d}")})
        code = max(code, runner(sub))
    return code


def _training_parser(sub, name: str, summary: str, func) -> argparse.ArgumentParser:
    """A training command's parser with the flags both commands share."""
    t = sub.add_parser(name, help=summary)
    t.add_argument("--data", required=True)
    t.add_argument("--labels", default=None, help="IDX label file (treats --data as IDX images)")
    for flag in ("--beta", "--lr"):
        t.add_argument(flag, type=float, default=None)
    for flag in ("--mbs", "--bs", "--epochs", "--seed"):
        t.add_argument(flag, type=int, default=None)
    t.add_argument("--out-dir", required=True)
    t.add_argument("--config", default=None, help="JSON config; flags override")
    t.add_argument("--stop-split", type=float, default=0.0,
                   help="hold out this fraction as the early-stopping split (0 = off)")
    t.add_argument("--patience", type=int, default=10,
                   help="epochs without holdout improvement before stopping")
    t.add_argument("--sweep", default=None, help="JSON list of configs, run sequentially")
    t.set_defaults(func=func)
    return t


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuralbayes",
        description="Discrete-latent objectives: data generation, training, probing, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a labeled synthetic point cloud")
    g.add_argument("--kind", required=True, choices=["moons", "circles", "blobs"])
    g.add_argument("--n", type=int, default=1000, help="points per component")
    g.add_argument("--noise", type=float, default=0.06)
    g.add_argument("--gap", type=float, default=0.25, help="extra separation (moons)")
    g.add_argument("--k", type=int, default=3, help="number of blobs")
    g.add_argument("--dim", type=int, default=None, help="lift to this dimension and rotate")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = _training_parser(sub, "train-dml", "train the manifold-labeling objective", cmd_train_dml)
    t.add_argument("--k", type=int, default=None)
    t.add_argument("--preset", choices=["default", "mnist-cnn"], default="default")

    m = _training_parser(sub, "train-mim", "train the information-maximization objective",
                         cmd_train_mim)
    m.add_argument("--alpha", type=float, default=None)
    m.add_argument("--scales", choices=["on", "off"], default=None)
    m.add_argument("--v1", action="store_true",
                   help="use the negative-entropy prior penalty (side-by-side comparison mode)")

    p = sub.add_parser("probe", help="train a classifier on frozen checkpoint features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--layer", default="last", help="tap name: h0.., last, or out")
    p.add_argument("--hidden", type=int, default=200)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--bn-mode", choices=["train", "eval"], default="eval",
                   help="batch-norm statistics of the features: train = each batch's own "
                        "(running stats untouched), eval = the running stats")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_probe)

    c = sub.add_parser("gradcheck", help="run the oracle verification suite")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--cases", type=int, default=50)
    c.add_argument("--negative-control", action="store_true",
                   help="block the live branch instead; the equality check must fail")
    c.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    c.set_defaults(func=cmd_gradcheck)

    e = sub.add_parser("export-grid", help="evaluate the head on a 2-D grid for plotting")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--labels", default=None)
    e.add_argument("--resolution", type=int, default=200)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_export_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "sweep", None):
            return _run_sweep(args, args.func)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
