"""Fixed runs of every command, for showing that a refactor is pure.

    python tools/fixed_runs.py CHECKOUT OUTDIR

Imports ``neuralbayes`` from ``CHECKOUT/src`` and, inside the new or empty
directory OUTDIR, runs a fixed set of small commands in-process through
``cli.main``: ``gen-data``, ``train-dml`` (2-D moons at MBS 100 / BS 200,
64-D moons with a stopping split, K = 3 blobs, a two-entry sweep and the
``mnist-cnn`` preset on IDX images), ``train-mim`` (an MLP, a CNN with
multi-scale states, a v1 CNN at BS = 2 MBS), ``probe`` in both batch-norm
modes and on a DML tap, ``export-grid`` and ``gradcheck`` with and without
the negative control.  Its first line is provenance: numpy's version, its
BLAS library and version, and that library's thread count in this shell.
It is not the scope of the promise: the library computes with OpenBLAS
held at one thread, so the lines after it are the same at any thread
count (checkouts from before that held it only for their inits).  It
reads numpy alone, through the benchmark's ``blas_info``, never the
checkout, so every checkout prints the same first line in one shell, and
no file in OUTDIR records it.  Then it prints each command with
its exit code, stdout and stderr, and one ``sha256  path`` line per file
in OUTDIR.  Every path is relative to OUTDIR, so the same checkout prints
the same lines into any directory, and two checkouts that compute the same
bytes print the same lines:

    python tools/fixed_runs.py OLD old-runs > old.txt
    python tools/fixed_runs.py NEW new-runs > new.txt
    diff old.txt new.txt

It calls only ``cli.main`` and ``data.write_idx``, so it also runs against
older checkouts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.run import blas_info  # noqa: E402

DML = ["train-dml", "--seed", "1"]
MIM = ["train-mim", "--seed", "2"]
COMMANDS = [
    ["gen-data", "--kind", "moons", "--n", "200", "--seed", "5", "--out", "moons2.csv"],
    ["gen-data", "--kind", "moons", "--n", "100", "--dim", "64", "--seed", "6",
     "--out", "moons64.csv"],
    ["gen-data", "--kind", "blobs", "--k", "3", "--n", "40", "--seed", "7", "--out", "blobs.csv"],
    [*DML, "--data", "moons2.csv", "--mbs", "100", "--bs", "200", "--epochs", "2",
     "--out-dir", "dml2"],
    [*DML, "--data", "moons64.csv", "--mbs", "40", "--bs", "40", "--epochs", "4",
     "--stop-split", "0.2", "--patience", "1", "--out-dir", "dml64"],
    [*DML, "--data", "blobs.csv", "--k", "3", "--mbs", "40", "--bs", "40", "--epochs", "2",
     "--out-dir", "dml3"],
    [*DML, "--data", "moons2.csv", "--mbs", "100", "--bs", "100", "--sweep", "sweep.json",
     "--out-dir", "dmlsweep"],
    [*DML, "--preset", "mnist-cnn", "--data", "img28.idx", "--labels", "lab28.idx",
     "--mbs", "20", "--bs", "20", "--epochs", "1", "--out-dir", "dmlcnn"],
    [*MIM, "--data", "blobs.csv", "--hidden", "32", "16", "--mbs", "40", "--bs", "40",
     "--epochs", "2", "--out-dir", "mimmlp"],
    [*MIM, "--data", "img12.idx", "--labels", "lab12.idx", "--arch", "cnn", "--scales", "on",
     "--mbs", "20", "--bs", "20", "--epochs", "1", "--out-dir", "mimcnn"],
    [*MIM, "--data", "img12.idx", "--labels", "lab12.idx", "--arch", "cnn", "--v1",
     "--mbs", "10", "--bs", "20", "--epochs", "1", "--out-dir", "mimv1"],
    ["probe", "--checkpoint", "mimcnn/checkpoint", "--data", "img12.idx", "--labels",
     "lab12.idx", "--bn-mode", "eval", "--hidden", "8", "--epochs", "2", "--seed", "3"],
    ["probe", "--checkpoint", "mimcnn/checkpoint", "--data", "img12.idx", "--labels",
     "lab12.idx", "--bn-mode", "train", "--hidden", "8", "--epochs", "2", "--seed", "3"],
    ["probe", "--checkpoint", "dml64/checkpoint", "--data", "moons64.csv", "--layer", "h1",
     "--hidden", "8", "--epochs", "2", "--seed", "3"],
    ["export-grid", "--checkpoint", "dml64/checkpoint", "--data", "moons64.csv",
     "--resolution", "20", "--out", "grid.csv"],
    ["gradcheck", "--seed", "2024", "--cases", "2", "--out", "gradcheck.json"],
    ["gradcheck", "--seed", "2024", "--cases", "2", "--negative-control",
     "--out", "gradcheck_negative.json"],
]


def scope() -> str:
    """numpy's version, its BLAS and the BLAS's thread count, as one line of
    provenance; the benchmark's ``blas_info`` reads the last two from numpy
    alone."""
    blas, threads = blas_info()
    return f"# numpy {np.__version__}; blas {blas}; blas threads {threads}"


def _write_inputs(data) -> None:
    """The sweep file and two labeled IDX image sets: 28x28 for the preset,
    12x12 for the MIM encoders."""
    Path("sweep.json").write_text(json.dumps([{"epochs": 1}, {"epochs": 1, "beta": 1}]))
    rng = np.random.default_rng(11)
    for side, classes in ((28, 10), (12, 3)):
        images = rng.integers(0, 256, (40, side, side), dtype=np.uint8)
        labels = (np.arange(40) % classes).astype(np.uint8)
        data.write_idx(images, labels, f"img{side}.idx", f"lab{side}.idx")


def _run(cli, argv: list[str]) -> list[str]:
    """One command's lines: the command, its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse's usage error
            code = exc.code
    lines = ["$ " + " ".join(argv), f"exit {code}"]
    lines += ["| " + line for line in out.getvalue().splitlines()]
    lines += ["! " + line for line in err.getvalue().splitlines()]
    return lines


def fixed_runs(checkout: Path, outdir: Path) -> list[str]:
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    from neuralbayes import cli, data
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"neuralbayes was imported from {cli.__file__}, not from {src}")
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        raise SystemExit(f"{outdir} is not empty")
    os.chdir(outdir)
    _write_inputs(data)
    lines = [line for argv in COMMANDS for line in _run(cli, argv)]
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/fixed_runs.py CHECKOUT OUTDIR", file=sys.stderr)
        return 2
    print("\n".join([scope(), *fixed_runs(Path(argv[0]), Path(argv[1]))]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
