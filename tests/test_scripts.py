"""Smoke tests of the three experiment scripts and of the traced CLI run
(perfbench/traced_cli.py, read and never changed here): each runs in its
own process on a fresh quotient cache, exits 0 and reports its check
passed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hlslab

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(hlslab.__file__).resolve().parent.parent)


def script_env(tmp_path):
    """The environment with a fresh cache and this checkout's src first on
    PYTHONPATH."""
    path = filter(None, [SRC, os.environ.get("PYTHONPATH")])
    return dict(os.environ, HLSLAB_CACHE=str(tmp_path / "cache"),
                PYTHONPATH=os.pathsep.join(path))


@pytest.mark.parametrize("script,args,trailer", [
    ("run_gap_experiment.py", ["--n-max", "2", "--radius", "4"],
     "gap_flagged=true"),
    ("run_tau_table.py", ["--n-max", "3"], "snapshot_ok=true"),
    ("run_amenability_demo.py", ["--n", "3"], "passed=true"),
])
def test_script_runs(tmp_path, script, args, trailer):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=script_env(tmp_path), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert f"# result {trailer}\n" in done.stdout


def test_traced_cli_times_a_run_without_touching_its_report(tmp_path):
    # perfbench/traced_cli.py is the one way to time a run: it records a
    # span per phase, and the report keeps its fixed columns
    spans = tmp_path / "spans.jsonl"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
         str(spans), "demo", "--", "quotients", "--family", "fd",
         "--n-max", "3"], env=script_env(tmp_path), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert ("level,order,degree,schreier_sims_ok,nesting_ok,"
            "separation_radius\n") in done.stdout
    header, *lines = spans.read_text().splitlines()
    assert '"skipped": []' in header
    names = [json.loads(line)["name"] for line in lines]
    assert names.count("perms.schreier_sims") == 3
    assert names.count("quotients.nesting") == 2
