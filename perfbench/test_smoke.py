"""Smoke test of the benchmark itself: ``python3 -m pytest perfbench``.

Runs a small version of every workload once, checks every output, and
requires each check to reject perturbed outputs.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_smoke_workloads_and_perturbations():
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["smoke"] is True
    for name, entry in summary["workloads"].items():
        assert entry["failed"] == 0, name
        assert entry["perturbations"] > 0 and not entry["missed"], name
