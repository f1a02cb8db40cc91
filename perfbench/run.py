"""Benchmark entry point.

    python3 perfbench/run.py --workload dml-moons-512d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics
with no spans; ``--trace 1`` runs the traced replica and reports the
per-layer metrics.  Metric names and units come from BENCHMARK.json.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  Provenance, checks, notes and spans go to perfbench/results/.
With ``--workload all`` every workload runs in a fresh process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description="neuralbayes benchmark")
    p.add_argument("--workload", required=True, choices=[*workloads, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> tuple[str, int | None]:
    """BLAS name/version from numpy's build config, and OpenBLAS's thread count."""
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype, getter.argtypes = ctypes.c_int, []
                return name, int(getter())
    return name, None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, run_id: str) -> dict:
    import numpy as np
    blas, threads = blas_info()
    return {"run_id": run_id, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": git_commit(), "source_sha256": source_sha256()}


def run_one(args, spec: dict) -> int:
    package = ROOT / "src" / "neuralbayes"
    if not (package / "__init__.py").is_file():
        print(f"error: no neuralbayes package at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W
    from spec import describe
    from tracing import Tracer

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = RESULTS / f"work-{run_id}-{os.getpid()}"
    workdir.mkdir()
    info = provenance(args, run_id)
    tracer = Tracer(run_id)
    try:
        if args.trace:
            outcome = W.trace_training(args.workload, args.seed, workdir, tracer)
        else:
            outcome = W.measure_training(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in declared}
    undeclared = sorted(set(outcome.metrics) - names)
    if undeclared:
        outcome.check("every reported metric is declared in BENCHMARK.json", False,
                      ", ".join(undeclared))
    metrics, absent = {}, []
    for m in declared:
        if m["name"] not in outcome.metrics:
            absent.append(m["name"])
        value = outcome.metrics.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if absent:
        outcome.notes.append(f"absent on {args.workload} (layer not run, reported as 0): "
                             + ", ".join(absent))

    for key, value in info.items():
        print(f"# {key}: {value}")
    for name, ok, detail in outcome.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    for note in outcome.notes:
        print(f"# note: {note}")
    print(f"# samples: {outcome.samples}")
    for name, entry in metrics.items():
        mark = "-" if name in absent else " "
        print(f"{mark} {name:28s} {entry['value']:>14.6g} {entry['unit']:10s} {describe(name)}")

    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    record = {"provenance": info, "result": result, "samples": outcome.samples,
              "checks": outcome.checks, "notes": outcome.notes}
    (RESULTS / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_jsonl(RESULTS / f"{run_id}-spans.jsonl")
    print(json.dumps(result))
    return 0 if outcome.correct else 1


def run_all(args, spec: dict) -> int:
    """Each workload in its own fresh process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"## {w['name']}: {w['why']}", flush=True)
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {w['name']} printed no result (exit {done.returncode})", file=sys.stderr)
            return 2
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
