"""``tools/fixed_runs.py``: the same flags and seeds reproduce every output
byte, every stdout and every exit code of every command."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fixed_runs(outdir: Path, **env: str) -> list[str]:
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "fixed_runs.py"), str(ROOT),
                           str(outdir)], capture_output=True, text=True, check=True,
                          env={**os.environ, **env})
    return done.stdout.splitlines()


def test_two_fixed_runs_print_the_same_lines(tmp_path):
    first = _fixed_runs(tmp_path / "a")
    assert _fixed_runs(tmp_path / "b") == first
    # every command succeeds but the negative control, which must fail
    exits = [line for line in first if line.startswith("exit ")]
    assert exits == ["exit 0"] * (len(exits) - 1) + ["exit 1"]
    files = {m[1] for m in map(re.compile(r"[0-9a-f]{64}  (.+)").fullmatch, first) if m}
    assert {"dml2/MANIFEST.json", "dmlsweep/sweep001/MANIFEST.json", "mimv1/checkpoint.bin",
            "grid.csv", "gradcheck.json"} <= files


def test_lines_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the first line is provenance: it names the thread count
    one, two = (_fixed_runs(tmp_path / n, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert len(one) > 100 and one[1:] == two[1:]
