"""Smoke tests of the three experiment scripts: each runs in its own
process on a fresh quotient cache, exits 0 and reports its check passed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hlslab

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(hlslab.__file__).resolve().parent.parent)


@pytest.mark.parametrize("script,args,trailer", [
    ("run_gap_experiment.py", ["--n-max", "2", "--radius", "4"],
     "gap_flagged=true"),
    ("run_tau_table.py", ["--n-max", "3"], "snapshot_ok=true"),
    ("run_amenability_demo.py", ["--n", "3"], "passed=true"),
])
def test_script_runs(tmp_path, script, args, trailer):
    path = filter(None, [SRC, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, HLSLAB_CACHE=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], env=env,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert f"# result {trailer}\n" in done.stdout
