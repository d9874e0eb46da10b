"""Wiring test of the benchmark: python3 -m pytest perfbench/test_smoke.py

Runs `run.py --smoke` from the repository root: each workload's coarsest
level, untraced and traced, and every metric of BENCHMARK.json must be
emitted.  Takes about 20 s.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_emits_every_metric():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
