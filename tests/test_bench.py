"""The benchmark reads names of the package (`BoundModel.step`, `decoder_step`,
`core.gaussian_vec`, ...). Its self-check runs every workload briefly and
fails when one of them is gone; no timing is asserted here."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_self_check_passes():
    run = subprocess.run([sys.executable, "bench/run.py", "--self-check"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
