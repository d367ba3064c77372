"""Runs one workload (untraced or traced), assembles its metrics, prints
them and the result line, and the fast self-check."""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import tracing
import workloads as wl
from calibration import Clock
from npad.core import RngStream
from npad.model import EOS, Dims, init_params

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7
SELF_CHECK_TRAIN_PAIRS = 64
# Metrics printed for people but not compared: failed_share is 0 when all is
# well, and raw seconds move with the machine's speed (calibration.py).
EXTRA_UNITS = {"failed_share": "share", "trace.untraced_s": "s", "trace.traced_s": "s",
               "raw.setup_s": "s", "raw.import_s": "s", "raw.sentences_per_s": "1/s",
               "raw.sentence_ms_p50": "ms", "raw.sentence_ms_p90": "ms",
               "calibration.speed": "x", "calibration.probes": "count"}


def load_metric_units() -> tuple[dict, dict]:
    """(end-to-end name -> unit, per-layer name -> unit) from BENCHMARK.json."""
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment(loadavg) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": loadavg[0]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """What one run produced: metrics, operations attempted, failure messages."""

    def __init__(self):
        self.metrics: dict = {}
        self.attempted = 0
        self.failures: list[str] = []


def timed_setup(workload, seed, repeats, **fixtures):
    """Set up `repeats` times; returns the last context, the (start, end)
    of each set-up and the set-up layers' metrics."""
    spans, phases, ctx = [], [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        ctx = wl.setup(workload, seed, **fixtures)
        spans.append((t0, time.perf_counter()))
        phases.append(ctx.phases)
    layer = {"serialize.load_model_ms": 0.0 if workload == wl.TRAIN_WORKLOAD else
             1e3 * statistics.median(p["load_model"] for p in phases),
             "tasks.gen_task_ms": 1e3 * statistics.median(p["gen_task"] for p in phases)}
    return ctx, spans, layer


def setup_metrics(clock: Clock, import_span, spans) -> dict:
    """setup_s: import time plus the median set-up, in reference seconds;
    the same in raw seconds under `raw.`."""
    return {"setup_s": clock.scaled(*import_span) +
            statistics.median(clock.scaled(a, b) for a, b in spans),
            "raw.setup_s": import_span[1] - import_span[0] +
            statistics.median(clock.unprobed(a, b) for a, b in spans),
            "raw.import_s": import_span[1] - import_span[0]}


def run_decode(ctx, seconds: float, trace: bool, out: Outcome, micro_budget: float, clock):
    cell = wl.DECODE_CELLS[ctx.workload]
    n_ref = wl.REFERENCE_BLOCK[ctx.workload]
    if not trace:
        plain = wl.decode_loop(ctx.params, cell, wl.decode_items(ctx), seconds, min_count=n_ref)
        out.attempted += len(plain.items)
        out.failures += wl.check_decode(ctx, plain)
        out.metrics.update(wl.decode_metrics(ctx, plain, clock))
        return None
    # Each sentence is decoded twice, untraced and traced, in alternating
    # order, so the two wall times see the same machine conditions.
    tracer = tracing.Tracer()
    instrumentation = tracing.decode_instrumentation(tracer)
    plain, traced = wl.DecodeRun([], [], [], 0.0), wl.DecodeRun([], [], [], 0.0)
    deadline = time.perf_counter() + seconds
    for i, item in enumerate(wl.decode_items(ctx)):
        for run, patches in ((plain, []), (traced, instrumentation))[::1 if i % 2 else -1]:
            with tracing.patched(patches):
                run.extend(wl.decode_loop(ctx.params, cell, [item], math.inf))
        if time.perf_counter() >= deadline and len(plain.items) >= n_ref:
            break
    out.attempted += len(plain.items) + len(traced.items)
    out.failures += wl.check_decode(ctx, plain)
    out.failures += [f"traced sentence {i}: output differs from the untraced run"
                     for i, (a, b) in enumerate(zip(plain.outputs, traced.outputs)) if a != b]
    out.metrics.update(tracing.decode_layer_metrics(tracer, traced.outputs))
    out.metrics.update(dict.fromkeys(tracing.TRAIN_LAYER_METRICS, 0.0))
    out.metrics.update(overhead(plain.wall, traced.wall))
    out.metrics.update(tracing.isolated_metrics(ctx.params, micro_budget))
    return tracer


def run_train(ctx, seconds: float, trace: bool, out: Outcome, micro_budget: float, clock):
    plain = wl.train_loop(ctx, 0.0 if trace else seconds)
    out.attempted += len(plain.results)
    out.failures += wl.check_train(ctx, plain)
    if not trace:
        out.metrics.update(wl.train_metrics(ctx, plain, clock))
        return None
    tracer = tracing.Tracer()
    with tracing.patched(tracing.train_instrumentation(tracer)):
        traced = wl.train_loop(ctx, 0.0)
    out.attempted += len(traced.results)
    reference, got = plain.results[0], traced.results[0]
    if reference is None or got is None or any(
            not np.array_equal(reference[0].tensors[k], got[0].tensors[k])
            for k in reference[0].tensors):
        out.failures.append("traced training call: parameters differ from the untraced call")
    out.metrics.update(tracing.train_layer_metrics(tracer))
    out.metrics.update(dict.fromkeys(tracing.DECODE_LAYER_METRICS, 0.0))
    out.metrics.update(overhead(sum(plain.durations), sum(traced.durations)))
    out.metrics.update(tracing.isolated_metrics(ctx.params, micro_budget))
    return tracer


def overhead(untraced: float, traced: float) -> dict:
    return {"trace.overhead_s": traced - untraced,
            "trace.overhead_share": (traced - untraced) / untraced,
            "trace.untraced_s": untraced, "trace.traced_s": traced}


def run_workload(workload, seed, seconds, trace, import_span, setup_repeats=SETUP_REPEATS,
                 micro_budget=0.05, **fixtures):
    """One benchmark run; returns (Outcome, tracer or None). Untraced runs
    run calibration probes throughout (calibration.py) and report end-to-end
    timings in reference seconds; the traced run's timings are raw."""
    out = Outcome()
    clock = Clock()
    runner = run_train if workload == wl.TRAIN_WORKLOAD else run_decode
    with contextlib.nullcontext() if trace else clock:
        ctx, setup_spans, setup_layers = timed_setup(workload, seed, setup_repeats, **fixtures)
        tracer = runner(ctx, seconds, trace, out, micro_budget, clock)
    if trace:
        out.metrics.update(setup_layers)
    else:
        out.metrics.update(setup_metrics(clock, import_span, setup_spans))
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        out.metrics["calibration.speed"] = clock.speed()
        out.metrics["calibration.probes"] = len(clock.durations)
    out.metrics["failed_share"] = len(out.failures) / max(out.attempted, 1)
    return out, tracer


def result_line(out: Outcome, units: dict) -> str:
    """The contract's last line: the metrics BENCHMARK.json names, with units."""
    missing = sorted(set(units) - set(out.metrics))
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    metrics = {name: {"value": float(out.metrics[name]) if math.isfinite(out.metrics[name])
                      else None, "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": not out.failures, "attempted": out.attempted,
                       "failed": len(out.failures), "metrics": metrics})


def print_report(header: dict, out: Outcome, units: dict) -> None:
    for key, value in header.items():
        print(f"# {key}: {value}")
    for message in out.failures:
        print(f"FAILED {message}")
    all_units = {**units, **EXTRA_UNITS}
    for name in sorted(out.metrics):
        print(f"{name:34s} {out.metrics[name]:14.6g} {all_units.get(name, '')}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="npad benchmark (see bench/README.md)")
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload briefly on a tiny random model and check "
                         "that every named metric is produced")
    args = ap.parse_args(argv)
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv, start: float, loadavg) -> int:
    args = parse_args(argv)
    env = environment(loadavg)
    end_to_end, per_layer = load_metric_units()
    if args.self_check:
        return self_check(end_to_end, per_layer)
    try:
        out, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                   (start, time.perf_counter()))
    except wl.BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl.gz"))
        for line in tracing.span_table(tracer):
            print(f"# span {line}")
    units = per_layer if args.trace else end_to_end
    print_report({**env, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace}, out, units)
    print(result_line(out, units), flush=True)
    return 0 if not out.failures else 1


def tiny_fixtures(workload: str) -> dict:
    """A small random model whose EOS bias makes decodes end quickly, and the
    reference outputs it gives."""
    dims = Dims(d_emb=4, d_hid=5, n_src=35, n_tgt=35)
    params = init_params(RngStream(1), dims, scale=0.3)
    params.tensors["out.b"][EOS] = 3.0
    corpus = wl.gen_task(*wl.TASK, wl.corpus_count(workload), seed=wl.GEN_SEED).pairs
    return {"params": params, "train_pairs": SELF_CHECK_TRAIN_PAIRS,
            "references": wl.reference_outputs(workload, params, corpus, SELF_CHECK_TRAIN_PAIRS)}


def self_check(end_to_end: dict, per_layer: dict) -> int:
    """Every workload, untraced and traced, on a tiny random model: every
    metric BENCHMARK.json names must come out as a finite number, and every
    check must pass. Also verifies the stored fixtures."""
    problems = []
    try:
        wl.load_frozen_model()
        refs = wl.load_references()["outputs"]
        for workload in wl.WORKLOADS:
            want = wl.REFERENCE_BLOCK.get(workload, wl.VALID_COUNT)
            if len(refs.get(workload, ())) != want:
                problems.append(f"{workload}: stored references hold "
                                f"{len(refs.get(workload, ()))} outputs, expected {want}")
    except (OSError, ValueError, wl.BenchError) as e:
        problems.append(f"fixtures: {e}")
    for workload in wl.WORKLOADS:
        fixtures = tiny_fixtures(workload)
        for trace, units in ((False, end_to_end), (True, per_layer)):
            label = f"{workload} trace={int(trace)}"
            now = time.perf_counter()
            out, _ = run_workload(workload, 1, 0.3, trace, (now, now), setup_repeats=1,
                                  micro_budget=0.002, **fixtures)
            problems += [f"{label}: {m}" for m in out.failures]
            bad = [n for n in units if not math.isfinite(out.metrics.get(n, math.nan))]
            if bad:
                problems.append(f"{label}: missing or non-finite metrics {bad}")
                continue
            line = json.loads(result_line(out, units))
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: bad result keys {sorted(line)}")
            print(f"self-check {label}: {len(line['metrics'])} metrics, "
                  f"{out.attempted} operations")
    for p in problems:
        print(f"self-check FAILED {p}")
    print("self-check " + ("ok" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1

