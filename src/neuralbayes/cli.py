"""Command-line surface: data generation, training, probing, verification,
and grid export.

A training command reads every setting from its flags, and parses a preset,
a ``--config`` object and a ``--sweep`` entry as the same flags.  It persists
the resolved settings and a MANIFEST.json with a sha256 per artifact; the
same flags and seed reproduce every output byte.  Each run, one per sweep
entry, is planned once after the data loads: ``_plan`` makes every check
that can fail before training and builds the objective and schedule that
``_train`` then trains with.  Every run is planned, in sweep order, before
the first one trains, so the first faulty run is the one reported and a
failing command leaves no ``--out-dir``.  Exit codes: 0 success, 1
verification or training failure or a malformed config, 2 usage error,
including a config value that its flag rejects.
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

# Each training setting's name and default; its type and choices live in its
# flag, and a --config object or --sweep entry names settings by flag name.
TRAINING_DEFAULTS = {
    "train-dml": {"k": 2, "beta": 2.0, "mbs": 400, "bs": 400, "lr": 1e-3, "epochs": 300,
                  "weight-decay": 0.0, "arch": "mlp", "stop-split": 0.0, "patience": 10},
    "train-mim": {"alpha": 2.0, "beta": 4.0, "mbs": 500, "bs": 2000, "lr": 1e-3,
                  "epochs": 20, "weight-decay": 0.0, "hidden": [500, 500, 500],
                  "scales": "off", "arch": "mlp",
                  "cnn-arch": "C(64,3,1,0)-P(2,2,0,max)-C(128,3,1,0)",
                  "stop-split": 0.0, "patience": 10},
}
# train-dml --preset: settings applied beneath --config, --sweep and the flags
PRESETS = {"default": {},
           "mnist-cnn": {"k": 10, "beta": 1.0, "mbs": 5000, "bs": 5000, "epochs": 100,
                         "arch": "cnn"}}


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
    else:   # blobs, the last of the flag's choices
        ds = D.make_blobs(args.k, args.n, noise=args.noise, seed=seed)
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


def _held_out(fraction: float, n: int) -> int:
    """Rows of ``n`` that a ``--stop-split`` of ``fraction`` holds out: none
    at 0, else at least the two that batch statistics need."""
    return max(2, int(round(fraction * n))) if fraction > 0.0 else 0


def _stopping_split(args, points: np.ndarray, objective, seed: int, mbs: int):
    """Optionally hold out a user-designated stopping split.

    Returns (training points, epoch callback or None).  The callback scores
    the held-out points as the mean objective over ceil(n / ``mbs``)
    near-equal groups, the statistic each training step computes, so its
    memory is one group's, and stops after ``--patience`` epochs without
    improvement.  The evaluation runs in batch mode and records no tape, so
    it leaves the model's running statistics alone.  ``_plan`` has checked
    the fraction and the patience.
    """
    n_hold = _held_out(args.stop_split, points.shape[0])
    if n_hold == 0:
        return points, None
    rng = np.random.default_rng(seed + 99)
    perm = rng.permutation(points.shape[0])
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
    """The ``--data`` points: IDX images with ``--labels``, else a CSV with
    the metadata of its ``.meta.json`` sidecar, when there is one."""
    data_path = Path(args.data)
    if args.labels:
        return D.load_idx(data_path, Path(args.labels))
    ds, sidecar = D.load_csv(data_path), _meta_path(data_path)
    if sidecar.exists():
        ds.meta = _sidecar(sidecar, ds.dim)
    return ds


def _sidecar(path: Path, dim: int) -> dict:
    """The sidecar ``path`` of a ``dim``-column CSV: a JSON object whose
    ``standardized``, when present, is a boolean, and whose ``lift``, when
    present, is an object of integer ``dim`` (the CSV's), ``seed`` >= 0 and
    ``base_dim`` in [1, dim].  Anything else is a ``ConfigError`` naming it."""
    meta = _read_json("--data sidecar", path)
    if not isinstance(meta, dict):
        raise ConfigError(f"--data sidecar {path} must hold a JSON object, got "
                          f"{type(meta).__name__}")
    if type(meta.get("standardized", False)) is not bool:
        raise ConfigError(f"--data sidecar {path}: standardized must be true or false, got "
                          f"{meta['standardized']!r}")
    if "lift" not in meta:
        return meta
    lift = meta["lift"]
    keys = ("dim", "seed", "base_dim")
    ints = isinstance(lift, dict) and all(type(lift.get(key)) is int for key in keys)
    if not (ints and lift["dim"] == dim and lift["seed"] >= 0 and 1 <= lift["base_dim"] <= dim):
        raise ConfigError(f"--data sidecar {path}: lift must be an object of integer dim = {dim}, "
                          f"seed >= 0 and base_dim in [1, {dim}], got {lift!r}")
    return meta


def _load_standardized(args) -> D.ManifoldDataset:
    ds = _load_dataset(args)
    return ds if ds.meta.get("standardized") else D.standardize(ds)


def _square_images(rows: np.ndarray, needs: str) -> np.ndarray:
    """The rows as (N, 1, S, S) single-channel images, the input of a CNN;
    ``needs`` names what needs them."""
    dim = rows.shape[1]
    side = math.isqrt(dim)
    if side * side != dim:
        raise ConfigError(f"{needs} needs square images; dimension {dim} is not a "
                          f"perfect square")
    return rows.reshape(len(rows), 1, side, side)


def _checkpoint_input(net: nn.Network, rows: np.ndarray) -> np.ndarray:
    """``rows`` as the input of a loaded network's layer 0, checked before
    any forward: rows of a dense layer's ``in_dim``, or a conv layer's
    square single-channel images."""
    first, dim = net.layers[0], rows.shape[1]
    if isinstance(first, nn.Conv2dLayer):
        return _square_images(rows, "the checkpoint's conv layer 0")
    if isinstance(first, nn.DenseLayer) and first.in_dim != dim:
        raise ConfigError(f"the checkpoint's dense layer 0 needs {first.in_dim}-D rows; "
                          f"the data are {dim}-D")
    return rows


# --- train-dml, train-mim ---

def _settings(run: argparse.Namespace) -> dict:
    """A training run's settings, keyed by flag name."""
    return {key: getattr(run, key.replace("-", "_")) for key in TRAINING_DEFAULTS[run.command]}


def _dml_components(k: int, ds: D.ManifoldDataset) -> None:
    """The report scores the data's component ids against ``k`` states, so
    an id outside [0, k) fails before training."""
    ids = ds.components
    if not 0 <= ids.min() <= ids.max() < k:
        raise ConfigError(f"component ids {ids.min()}..{ids.max()} of the data do not fit "
                          f"k = {k} states; every id must lie in [0, {k})")


def _plan(run: argparse.Namespace, ds: D.ManifoldDataset) -> argparse.Namespace:
    """A training run resolved against its data, with every check that can
    fail before training, each through the code that owns it: the
    ``--stop-split`` range, a CNN's square images, DML's component ids (ahead
    of the objective's own checks, so ``--k 1`` names the ids that do not
    fit), the objective, a MIM encoder's ``--cnn-arch`` tokens or
    ``--hidden`` widths (without building the MLP), the schedule with
    one full mini-batch in the rows the stopping split leaves, and Adam's
    and the early stopper's settings.  ``_train`` trains with the plan's
    objective and schedule."""
    cfg = _settings(run)
    if not 0.0 <= cfg["stop-split"] < 1.0:
        raise ConfigError(f"--stop-split must lie in [0, 1), got {cfg['stop-split']}")
    points = _square_images(ds.points, "arch cnn") if cfg["arch"] == "cnn" else ds.points
    if run.command == "train-dml":
        _dml_components(cfg["k"], ds)
        objective = dml_mod.make_dml_objective(
            dml_mod.DmlConfig(partitions=cfg["k"], beta=cfg["beta"]))
    else:
        objective = mim_mod.make_mim_objective(
            mim_mod.MimConfig(alpha=cfg["alpha"], beta=cfg["beta"],
                              use_scales=(cfg["scales"] == "on")), v1=run.v1)
        if cfg["arch"] == "cnn":
            nn.parse_cnn_arch(cfg["cnn-arch"])
        else:
            nn.check_widths(cfg["hidden"])
    schedule = train_mod.AccumulationSchedule(mbs=cfg["mbs"], bs=cfg["bs"], epochs=cfg["epochs"])
    n = points.shape[0]
    schedule.batches(n - _held_out(cfg["stop-split"], n))
    train_mod.AdamState(lr=cfg["lr"], weight_decay=cfg["weight-decay"])
    train_mod.holdout_early_stopper(lambda net: 0.0, cfg["patience"])
    return argparse.Namespace(run=run, cfg=cfg, seed=_resolve_seed(run), points=points,
                              objective=objective, schedule=schedule)


def _network(plan: argparse.Namespace) -> nn.Network:
    """The run's network on the plan's input shape: (D,) rows for an MLP,
    (1, S, S) images for a CNN."""
    cfg, shape, seed = plan.cfg, plan.points.shape[1:], plan.seed
    if plan.run.command == "train-dml":
        if cfg["arch"] == "cnn":
            return nn.build_cnn(MNIST_CNN_ARCH.format(k=cfg["k"]), shape, seed=seed,
                                batchnorm=True, softmax_head=True)
        return nn.build_mlp(shape[0], DML_ARCH_HIDDEN, cfg["k"], seed=seed,
                            batchnorm=True, softmax_head=True)
    if cfg["arch"] == "cnn":
        return nn.build_cnn(cfg["cnn-arch"], shape, seed=seed, batchnorm=True)
    return nn.build_mlp(shape[0], cfg["hidden"], out_units=None, seed=seed)


def _train(plan: argparse.Namespace, ds: D.ManifoldDataset) -> None:
    """Build the network and train it with the plan's objective and
    schedule, Adam and the stopping split.  Only then is ``--out-dir`` made,
    so a run that fails earlier leaves none.  ``train-dml``'s report comes
    first, so a failure there leaves no checkpoint; the checkpoint, log,
    metrics, resolved config and manifest come last."""
    run, cfg, seed = plan.run, plan.cfg, plan.seed
    if run.command == "train-dml":
        print(f"smoothness weight beta={cfg['beta']} (useful sweep range: 0.5 to 6)")
    net = _network(plan)
    opt = train_mod.AdamState.for_params(net.parameters(), lr=cfg["lr"],
                                         weight_decay=cfg["weight-decay"])
    train_points, callback = _stopping_split(run, plan.points, plan.objective, seed, cfg["mbs"])
    log = train_mod.train_objective(net, train_points, plan.objective, plan.schedule, opt,
                                    seed=seed, epoch_callback=callback)

    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if run.command == "train-dml":
        paths, recorded = _dml_report(plan, ds, net, log, out_dir), {}
    else:
        print(f"trained {len(log.records)} updates; final total {log.records[-1]['total']:.6f}")
        paths, recorded = [], {"v1": run.v1}
    paths += nn.save_checkpoint(net, out_dir / "checkpoint")
    log_path, metrics_path = out_dir / "train_log.jsonl", out_dir / "metrics.csv"
    log.write_jsonl(log_path)
    log.write_metrics_csv(metrics_path)
    cfg_path = out_dir / "resolved_config.json"
    cfg_path.write_text(json.dumps({**cfg, **recorded, "seed": seed, "command": run.command,
                                    "data": str(run.data)}, indent=1, sort_keys=True) + "\n")
    _write_manifest(out_dir, [*paths, log_path, metrics_path, cfg_path])


def _dml_report(plan, ds, net, log, out_dir: Path) -> list[Path]:
    """Predicted labels, cluster accuracy, and the head's loss and objective
    on up to 5000 points, all from one ``extract_features`` pass of the head."""
    k = plan.cfg["k"]
    head = train_mod.extract_features(net, plan.points, tap="out")
    pred = head.argmax(axis=1)
    accuracy = train_mod.cluster_accuracy(pred, ds.components, k)
    out_head = head[:5000]
    final_loss = float(dml_mod.dml_loss(PosteriorBatch(Tensor(out_head))).item())
    L = out_head[:, 0]
    final_obj = dml_mod.dml_binary_objective(L, float(L.mean())) if k == 2 else None
    labels_path = out_dir / "predicted_labels.csv"
    labels_path.write_text("\n".join(["index,predicted,truth"] +
                                     [f"{i},{p},{t}" for i, (p, t) in
                                      enumerate(zip(pred, ds.components))]) + "\n")
    report = {"cluster_accuracy": accuracy, "final_loss": final_loss,
              "final_objective": final_obj, "updates": len(log.records), "seed": plan.seed}
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"cluster accuracy {accuracy:.4f}; loss {final_loss:.6f}; objective {final_obj}")
    return [labels_path, report_path]


# --- probe ---

def cmd_probe(args) -> int:
    seed = _resolve_seed(args)
    net = nn.load_checkpoint(args.checkpoint)
    ds = _load_standardized(args)
    points = _checkpoint_input(net, ds.points)
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
    if (ds.dim if lift_meta is None else lift_meta["base_dim"]) != 2:
        raise ConfigError("grid export needs 2-D data or stored lift metadata from 2-D data")
    base = ds.points if lift_meta is None else D.unlift_points(ds.points, lift_meta)
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

    out = train_mod.extract_features(net, _checkpoint_input(net, lifted), tap="out")
    rows = ["x,y,argmax_label,max_prob"]
    for (x, y), lab, pr in zip(grid, out.argmax(axis=1), out.max(axis=1)):
        rows.append(f"{x:.17g},{y:.17g},{lab},{pr:.17g}")
    Path(args.out).write_text("\n".join(rows) + "\n")
    print(f"wrote {r * r} grid predictions to {args.out}")
    return 0


def _config_flags(obj, where: str, known: dict) -> list[str]:
    """A config object as the flags it names: ``--key=value``, or ``--key v1
    v2 ...`` for a list, so the command's parser checks every value."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: a config must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)} (known: {sorted(known)})")
    tokens = []
    for key, value in obj.items():
        listed = isinstance(value, list)
        tokens += [f"--{key}", *map(str, value)] if listed else [f"--{key}={value}"]
    return tokens


def _read_json(flag: str, path: str | Path):
    """The JSON value in the file that ``flag`` names; a file that cannot be
    read or parsed, or nests too deep to parse, is a ``ConfigError`` naming
    the flag and the path."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{flag} {path} is not readable JSON: {exc}") from exc


def _training_runs(parser, args, argv: list[str]) -> list[argparse.Namespace]:
    """Each run of a training command, parsed before any starts: the preset,
    the ``--config`` object and one ``--sweep`` entry go ahead of the command
    line as flags, so later ones override earlier ones; each sweep entry runs
    into its own ``sweepNNN`` directory under ``--out-dir``."""
    known = TRAINING_DEFAULTS[args.command]
    preset = PRESETS[getattr(args, "preset", "default")]   # only train-dml has --preset
    head = [args.command, *_config_flags(preset, "preset", known)]
    if args.config is not None:
        head += _config_flags(_read_json("--config", args.config), args.config, known)
    if args.sweep is None:
        return [parser.parse_args([*head, *argv[1:]])]
    entries = _read_json("--sweep", args.sweep)
    if not isinstance(entries, list):
        raise ConfigError("--sweep expects a JSON list of config objects")
    if not entries:
        raise ConfigError(f"--sweep {args.sweep} lists no configs; it needs at least one")
    return [parser.parse_args([*head, *_config_flags(entry, f"{args.sweep} entry {i}", known),
                               *argv[1:], f"--out-dir={Path(args.out_dir) / f'sweep{i:03d}'}"])
            for i, entry in enumerate(entries)]


def _training_parser(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """A training command's parser with the flags both commands share; every
    setting's default comes from ``TRAINING_DEFAULTS``."""
    t = sub.add_parser(name, help=summary)
    t.add_argument("--data", required=True)
    t.add_argument("--labels", default=None, help="IDX label file (treats --data as IDX images)")
    for flag in ("--beta", "--lr", "--weight-decay"):
        t.add_argument(flag, type=float)
    for flag in ("--mbs", "--bs", "--epochs", "--seed"):
        t.add_argument(flag, type=int)
    t.add_argument("--arch", choices=["mlp", "cnn"])
    t.add_argument("--out-dir", required=True)
    t.add_argument("--config", help="JSON object of settings, keyed by flag name; flags override")
    t.add_argument("--stop-split", type=float,
                   help="hold out this fraction as the early-stopping split (0 = off)")
    t.add_argument("--patience", type=int,
                   help="epochs without holdout improvement before stopping")
    t.add_argument("--sweep", help="JSON list of configs, run sequentially")
    t.set_defaults(**{key.replace("-", "_"): value
                      for key, value in TRAINING_DEFAULTS[name].items()})
    return t


def _positive_int(text: str) -> int:
    """A count that must be at least 1, so no command runs vacuously."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


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

    t = _training_parser(sub, "train-dml", "train the manifold-labeling objective")
    t.add_argument("--k", type=int)
    t.add_argument("--preset", choices=list(PRESETS), default="default")

    m = _training_parser(sub, "train-mim", "train the information-maximization objective")
    m.add_argument("--alpha", type=float)
    m.add_argument("--scales", choices=["on", "off"])
    m.add_argument("--hidden", type=int, nargs="+", help="MLP hidden widths")
    m.add_argument("--cnn-arch", help="CNN encoder spec (with --arch cnn)")
    m.add_argument("--v1", action="store_true",
                   help="use the negative-entropy prior penalty (side-by-side comparison mode)")

    p = sub.add_parser("probe", help="train a classifier on frozen checkpoint features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--layer", default="last", help="tap name: h0.., last, or out")
    p.add_argument("--hidden", type=_positive_int, default=200)
    p.add_argument("--epochs", type=_positive_int, default=30)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--bn-mode", choices=["train", "eval"], default="eval",
                   help="batch-norm statistics of the features: train = each batch's own "
                        "(running stats untouched), eval = the running stats")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_probe)

    c = sub.add_parser("gradcheck", help="run the oracle verification suite")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--cases", type=_positive_int, default=50)
    c.add_argument("--negative-control", action="store_true",
                   help="block the live branch instead; the equality check must fail")
    c.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    c.set_defaults(func=cmd_gradcheck)

    e = sub.add_parser("export-grid", help="evaluate the head on a 2-D grid for plotting")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--labels", default=None)
    e.add_argument("--resolution", type=_positive_int, default=200)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_export_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.command not in TRAINING_DEFAULTS:
            return args.func(args)
        runs = _training_runs(parser, args, argv)
        ds = _load_standardized(args)   # every run reads the same --data and --labels
        plans = [_plan(run, ds) for run in runs]   # every check, before the first run trains
        for plan in plans:
            _train(plan, ds)
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
