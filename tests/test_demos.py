"""The fast narrative demos run end to end as scripts.

Demos 02 (about 6 s), 03 (about 31 s) and 04 (4 to 16 s) are left to be
run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, last_line", [
    ("01_posterior_prior_and_mi.py", "which is what keeps every latent state alive during training"),
    ("05_accumulation_schedules.py", "MBS = 8 with constant prior: gap"),
])
def test_demo_runs(tmp_path, script, last_line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert last_line in done.stdout.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []  # a demo writes nothing into its working directory
