"""The scripts under ``scripts/`` run to completion from any working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["duality_sweep.py", "--trials", "3"],
        ["run_equivalence.py"],
        ["p_dependence_probe.py"],
        ["distance_ladder.py", "--max-grid", "6"],
        ["modulus_ladder.py", "--max-grid", "5"],
        ["json_ladder.py", "--max-grid", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]]
    proc = subprocess.run(script, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
