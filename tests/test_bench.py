"""The benchmark's self-check runs every workload briefly, traced and not,
and fails when a run fails or a traced output differs from the untraced one.
It catches a missing name the tracer reads eagerly (`BoundModel.step`), but
not one it looks up with a default, whose metric would read 0. The name
guard below covers those: every isolated metric (`core.gaussian_vec`,
`model.decoder_step`, `model.attention_context`, ...) must read non-zero,
and the decode spans must replace the library attributes the per-layer
metrics are built from. No timing is asserted here."""
import importlib.util
import os
import subprocess
import sys

from conftest import make_params

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(ROOT, "bench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_self_check_passes():
    run = subprocess.run([sys.executable, "bench/run.py", "--self-check"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]


def test_benchmark_finds_every_name_it_reads():
    tracing = load_tracing()
    metrics = tracing.isolated_metrics(make_params(3), budget=0.002)
    assert metrics and all(value > 0 for value in metrics.values()), metrics
    replaced = {(mod.__name__, attr)
                for mod, attr, _ in tracing.decode_instrumentation(tracing.Tracer())}
    assert {("npad.evaluate", "BoundModel"), ("npad.evaluate", "greedy_search"),
            ("npad.evaluate", "beam_search"), ("npad.chains", "select_best")} <= replaced
