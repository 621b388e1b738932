"""Smoke tests for the command-line scripts under ``scripts/``: each runs
in its own interpreter, as a user would start it."""

import os
import subprocess
import sys
from pathlib import Path

import voacalc

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    src = str(Path(voacalc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_sewing_convergence_prints_limit():
    proc = run_script("sewing_convergence.py", "--max-cutoff", "8")
    assert proc.returncode == 0, proc.stderr
    assert "limit: 49/36" in proc.stdout


def test_budget_census_runs():
    proc = run_script("budget_census.py", "--level", "4", "--window", "2",
                      "--max-weight", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split()[0] == "total"
