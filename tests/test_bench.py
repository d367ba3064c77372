"""The benchmark's self-check runs every workload briefly, traced and not,
and fails when a run fails or a traced output differs from the untraced one.
It catches a missing name the tracer reads eagerly (`BoundModel.step`), but
not one it looks up with a default: without `core.gaussian_vec`,
`decoder_step` or `attention_context` it passes and their isolated metrics
read 0. No timing is asserted here."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_self_check_passes():
    run = subprocess.run([sys.executable, "bench/run.py", "--self-check"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
