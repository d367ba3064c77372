"""The four benchmark workloads: inputs, timed closed loops and output checks.

Every workload uses the translate configuration of `scripts/run_tables.py`
(lexical-translate, |V| = 35, d_emb 16, d_hid 24). One caller runs the
library in a closed loop: the next sentence (or training call) starts only
after the previous one has returned, as `npad experiment` and `npad train`
do. Decoding goes through `evaluate.decode_with_cell`, training through
`train.train`; nothing here reaches into `src/` beyond those public calls.

Inputs. The corpus is the `gen_task("lexical-translate", 32, (12, 20), N,
seed=101)` stream. Its first 1,650 pairs are the acceptance fixture's
train/valid/test split; the benchmark decodes only pairs after them, so no
decoded sentence was ever trained on. Of the held-out pairs, the first
`REFERENCE_BLOCK` form the reference block: every decode run starts with it,
decoded exactly as at the default seed, so `mean_nll` and
`output_match_share` are deterministic and comparable across runs. The run
then decodes pairs from the rest of the held-out stream in an order and with
a decode base seed that both come from `--seed`, until the time is up.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from calibration import Clock
from npad import evaluate, serialize
from npad.core import RngStream, derive_seed
from npad.decode import default_limits
from npad.evaluate import Cell
from npad.model import EOS, Dims, init_params
from npad.tasks import gen_task, split_pairs
from npad.train import TrainConfig

# The package re-exports the function `train` under the module's name.
train = importlib.import_module("npad.train")

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL_PATH = os.path.join(HERE, "data", "translate.bin")
MODEL_SHA_PATH = MODEL_PATH + ".sha256"
REFERENCES_PATH = os.path.join(HERE, "data", "references.json")

DEFAULT_SEED = 0

# The acceptance fixture's corpus recipe (tests/test_acceptance.py).
TASK = ("lexical-translate", 32, (12, 20))
GEN_SEED = 101
TRAIN_COUNT, VALID_COUNT, TEST_COUNT = 1400, 150, 100
FIXTURE_COUNT = TRAIN_COUNT + VALID_COUNT + TEST_COUNT
D_EMB, D_HID = 16, 24
INIT_SEED, TRAIN_SEED = 7, 13
TRAIN_RECIPE = dict(lr=0.25, seed=TRAIN_SEED, batch_size=16, patience=100)

# Sentences of the reference block; sized to a few seconds per workload.
REFERENCE_BLOCK = {"npad-translate": 40, "beam-translate": 100, "greedy-translate": 200}
REFERENCE_SPAN = max(REFERENCE_BLOCK.values())
# Held-out sentences after the reference block that a run may draw from; a
# run that exhausts them starts over in the same order with fresh decode seeds.
FRESH_POOL = {"npad-translate": 500, "beam-translate": 3000, "greedy-translate": 6000}

DECODE_CELLS = {
    # The paper's headline cell: 50 greedy chains, sigma0 = 0.3, zero chain on.
    "npad-translate": Cell(strategy="npad", sigma0=0.3, chains=50),
    # Beam-10 without noise: decode's own top-K bookkeeping, one rescore.
    "beam-translate": Cell(strategy="beam", beam_width=10),
    # One row per step; encode is a large share, nothing to batch.
    "greedy-translate": Cell(strategy="greedy"),
}
TRAIN_WORKLOAD = "train-translate"
WORKLOADS = tuple(DECODE_CELLS) + (TRAIN_WORKLOAD,)
TRAIN_EPOCHS = 1
WARMUP_SENTENCES = 2


class BenchError(RuntimeError):
    """The benchmark cannot run: missing or corrupt fixture."""


def decode_base_seed(seed: int) -> int:
    return derive_seed(seed, 0)


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_frozen_model():
    """The stored translate model, after checking its sha256."""
    try:
        expected = open(MODEL_SHA_PATH).read().split()[0]
    except OSError as e:
        raise BenchError(f"missing model hash file: {e}") from e
    if sha256_file(MODEL_PATH) != expected:
        raise BenchError(f"{MODEL_PATH}: sha256 does not match {MODEL_SHA_PATH}")
    return serialize.load_model(MODEL_PATH)


def load_references() -> dict:
    with open(REFERENCES_PATH) as f:
        return json.load(f)


@dataclass
class Context:
    """Everything a workload needs, built by `setup` (the timed set-up)."""

    workload: str
    seed: int
    params: object                  # decode model, or initial params for training
    corpus: list                    # the whole generated stream
    references: list | None = None  # reference tokens for the reference block
    phases: dict = field(default_factory=dict)   # set-up phase -> seconds
    train_pairs: int = TRAIN_COUNT  # training pairs used (fewer only in the self-check)

    @property
    def held_out(self):
        return self.corpus[FIXTURE_COUNT:]


def initial_params(data):
    """The training workload's starting point: init seed 7 at the translate sizes."""
    dims = Dims(d_emb=D_EMB, d_hid=D_HID, n_src=len(data.src_vocab), n_tgt=len(data.tgt_vocab))
    return init_params(RngStream(INIT_SEED), dims)


def corpus_count(workload: str) -> int:
    if workload == TRAIN_WORKLOAD:
        return FIXTURE_COUNT
    return FIXTURE_COUNT + REFERENCE_SPAN + FRESH_POOL[workload]


def setup(workload: str, seed: int, params=None, references=None,
          train_pairs: int = TRAIN_COUNT) -> Context:
    """Generate the corpus, load the model and warm up.

    `params`, `references` and a smaller `train_pairs` let the self-check
    substitute a tiny model for the frozen fixtures.
    """
    phases = {}
    t0 = time.perf_counter()
    data = gen_task(*TASK, corpus_count(workload), seed=GEN_SEED)
    t1 = time.perf_counter()
    phases["gen_task"] = t1 - t0
    if params is None:
        params = initial_params(data) if workload == TRAIN_WORKLOAD else load_frozen_model()
        if references is None:
            references = load_references()["outputs"][workload]
    t2 = time.perf_counter()
    phases["load_model"] = t2 - t1
    ctx = Context(workload, seed, params, data.pairs, references, phases, train_pairs)
    if workload == TRAIN_WORKLOAD:
        train.nll_loss(params, training_split(ctx)[0][:TRAIN_RECIPE["batch_size"]])
    else:
        for pair in ctx.corpus[FIXTURE_COUNT - WARMUP_SENTENCES:FIXTURE_COUNT]:
            evaluate.decode_with_cell(params, pair.source, DECODE_CELLS[workload], 0)
    phases["warmup"] = time.perf_counter() - t2
    return ctx


# ----------------------------------------------------------------- decoding

def reference_items(workload: str, held_out) -> list:
    """(source, decode seed) of the reference block, as decoded at the default seed."""
    base = decode_base_seed(DEFAULT_SEED)
    return [(p.source, derive_seed(base, i))
            for i, p in enumerate(held_out[:REFERENCE_BLOCK[workload]])]


def decode_items(ctx: Context):
    """Endless (source, decode seed) stream: the reference block, then
    seed-ordered held-out sentences with seed-derived decode seeds."""
    yield from reference_items(ctx.workload, ctx.held_out)
    fresh = ctx.held_out[REFERENCE_SPAN:]
    order = RngStream(derive_seed(ctx.seed, 1)).permutation(len(fresh))
    base = decode_base_seed(ctx.seed)
    position = REFERENCE_BLOCK[ctx.workload]
    while True:
        for k in order:
            yield fresh[int(k)].source, derive_seed(base, position)
            position += 1


@dataclass
class DecodeRun:
    items: list          # (source, decode seed) in decode order
    outputs: list        # (tokens, rescored_logp, complete), or None if it raised
    spans: list          # (start, end) perf_counter seconds of each decode_with_cell call
    wall: float          # seconds from the first call to the last return

    def extend(self, other: "DecodeRun") -> None:
        self.items += other.items
        self.outputs += other.outputs
        self.spans += other.spans
        self.wall += other.wall


def decode_loop(params, cell: Cell, items, seconds: float, min_count: int = 0) -> DecodeRun:
    """Decode sentences one after another until `seconds` have passed and at
    least `min_count` sentences are done. `items` may be an iterator."""
    run = DecodeRun([], [], [], 0.0)
    start = time.perf_counter()
    deadline = start + seconds
    for source, dseed in items:
        t0 = time.perf_counter()
        try:
            out = evaluate.decode_with_cell(params, source, cell, dseed)
        except Exception as e:        # counted as a failed operation
            print(f"decode error: {type(e).__name__}: {e}", flush=True)
            out = None
        t1 = time.perf_counter()
        run.items.append((source, dseed))
        run.outputs.append(out)
        run.spans.append((t0, t1))
        if t1 >= deadline and len(run.items) >= min_count:
            break
    run.wall = time.perf_counter() - start
    return run


def check_decode(ctx: Context, run: DecodeRun) -> list[str]:
    """Per-sentence output checks; returns one message per failed sentence."""
    cell = DECODE_CELLS[ctx.workload]
    failures = []
    for i, ((source, dseed), out) in enumerate(zip(run.items, run.outputs)):
        if out is None:
            failures.append(f"sentence {i}: raised")
            continue
        tokens, logp, complete = out
        problems = []
        # A complete output ends in its only EOS within max_len; an incomplete
        # one ran into max_len without EOS. The mid-trained model does loop on
        # some sources, so incompleteness is model quality (decode.complete_share),
        # while a malformed output is a program fault.
        max_len = default_limits(len(source)).max_len
        eos_at = [k for k, tok in enumerate(tokens) if tok == EOS]
        if complete:
            well_formed = eos_at == [len(tokens) - 1] and len(tokens) <= max_len
        else:
            well_formed = not eos_at and len(tokens) == max_len
        if not well_formed:
            problems.append(f"malformed output (complete={complete}, {len(tokens)} tokens, "
                            f"EOS at {eos_at}, max_len {max_len})")
        if not math.isfinite(logp):
            problems.append(f"non-finite score {logp!r}")
        if cell.strategy == "npad" and cell.include_zero_chain:
            # The zero chain is bit-identical to greedy, so the selection can
            # only lose to it when greedy completes and the selection does not.
            _, g_logp, g_complete = evaluate.decode_with_cell(
                ctx.params, source, Cell(strategy="greedy"), dseed)
            if logp < g_logp and not (complete and not g_complete):
                problems.append(f"selected score {logp!r} < zero chain {g_logp!r}")
        if problems:
            failures.append(f"sentence {i}: " + "; ".join(problems))
    return failures


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def timing_metrics(count: int, total_s: float, item_ms: list) -> dict:
    return {"sentences_per_s": count / total_s,
            "sentence_ms_p50": quantile(item_ms, 0.5),
            "sentence_ms_p90": quantile(item_ms, 0.9)}


def decode_metrics(ctx: Context, run: DecodeRun, clock: Clock) -> dict:
    """Timings in reference seconds (see calibration.py), with the raw ones
    under `raw.`; quality on the reference block."""
    n_ref = REFERENCE_BLOCK[ctx.workload]
    ref_out = run.outputs[:n_ref]
    matches = sum(out is not None and list(out[0]) == list(ref)
                  for out, ref in zip(ref_out, ctx.references))
    scored = [-out[1] for out in ref_out if out is not None]
    def timings(measure):
        seconds = [measure(a, b) for a, b in run.spans]
        return timing_metrics(len(run.items), sum(seconds), [1e3 * x for x in seconds])

    return {
        **timings(clock.scaled),
        **{f"raw.{k}": v for k, v in timings(clock.unprobed).items()},
        "mean_nll": sum(scored) / len(scored) if scored else float("nan"),
        "output_match_share": matches / n_ref,
    }


# ----------------------------------------------------------------- training

def training_split(ctx: Context):
    train_set, valid_set, _ = split_pairs(ctx.corpus[:FIXTURE_COUNT],
                                          TRAIN_COUNT, VALID_COUNT, TEST_COUNT)
    return train_set[:ctx.train_pairs], valid_set


def train_config() -> TrainConfig:
    return TrainConfig(epochs=TRAIN_EPOCHS, **TRAIN_RECIPE)


@dataclass
class TrainRun:
    results: list        # (best params, trace) per train.train call, or None
    calls: list          # (start, end) perf_counter seconds of each call
    batches: list        # (start, next start, pairs) of each training batch
    pairs: int           # training pairs per call

    @property
    def durations(self) -> list:
        return [b - a for a, b in self.calls]


def train_loop(ctx: Context, seconds: float) -> TrainRun:
    """Call `train.train` from the same initial parameters until `seconds`
    would be exceeded by one more call; there is always at least one call.

    Per-batch latency comes from one timestamp at each `train.nll_loss`
    call, taken by a thin probe that leaves arguments and results alone.
    """
    train_set, valid_set = training_split(ctx)
    cfg = train_config()
    run = TrainRun([], [], [], len(train_set) * cfg.epochs)
    stamps = []
    inner = train.nll_loss

    def probe(params, batch):
        stamps.append((time.perf_counter(), len(batch)))
        return inner(params, batch)

    start = time.perf_counter()
    train.nll_loss = probe
    try:
        while True:
            stamps.clear()
            t0 = time.perf_counter()
            try:
                result = train.train(ctx.params, train_set, valid_set, cfg)
            except Exception as e:    # counted as a failed operation
                print(f"train error: {type(e).__name__}: {e}", flush=True)
                result = None
            t1 = time.perf_counter()
            run.results.append(result)
            run.calls.append((t0, t1))
            run.batches += [(a, b, n) for (a, n), (b, _) in zip(stamps, stamps[1:])]
            if t1 + (t1 - t0) > start + seconds:
                break
    finally:
        train.nll_loss = inner
    return run


def greedy_tokens(params, pairs) -> list[list[int]]:
    greedy = Cell(strategy="greedy")
    return [list(evaluate.decode_with_cell(params, p.source, greedy, 0)[0]) for p in pairs]


def check_train(ctx: Context, run: TrainRun) -> list[str]:
    """Finite losses, validation NLL below its value at init, and identical
    parameters from every call (training is deterministic)."""
    _, valid_set = training_split(ctx)
    init_nll, _ = train.valid_nll(ctx.params, valid_set)
    failures = []
    first = next((r for r in run.results if r is not None), None)
    for i, result in enumerate(run.results):
        if result is None:
            failures.append(f"call {i}: raised")
            continue
        params, trace = result
        rows = [(r.train_nll, r.valid_nll) for r in trace]
        if not all(math.isfinite(v) for row in rows for v in row):
            failures.append(f"call {i}: non-finite loss in {rows}")
        elif not trace[-1].valid_nll < init_nll:
            failures.append(f"call {i}: valid NLL {trace[-1].valid_nll!r} not below "
                            f"init {init_nll!r}")
        if any(not np.array_equal(params.tensors[k], first[0].tensors[k])
               for k in params.tensors):
            failures.append(f"call {i}: parameters differ from call 0")
    return failures


def train_metrics(ctx: Context, run: TrainRun, clock: Clock) -> dict:
    """Timings in reference seconds (see calibration.py), with the raw ones
    under `raw.`; quality of the first call's parameters."""
    done = [r for r in run.results if r is not None]
    _, valid_set = training_split(ctx)
    if done:
        params, trace = done[0]
        outputs = greedy_tokens(params, valid_set)
        matches = sum(out == list(ref) for out, ref in zip(outputs, ctx.references))
        nll = trace[-1].valid_nll
    else:
        matches, nll = 0, float("nan")
    def timings(measure):
        return timing_metrics(run.pairs, float(np.median([measure(a, b) for a, b in run.calls])),
                              [1e3 * measure(a, b) / n for a, b, n in run.batches])

    return {
        **timings(clock.scaled),
        **{f"raw.{k}": v for k, v in timings(clock.unprobed).items()},
        "mean_nll": nll,
        "output_match_share": matches / len(valid_set),
    }


def reference_outputs(workload: str, params, corpus,
                      train_pairs: int = TRAIN_COUNT) -> list[list[int]]:
    """The outputs a run must reproduce on its reference block."""
    if workload == TRAIN_WORKLOAD:
        ctx = Context(workload, DEFAULT_SEED, params, corpus, train_pairs=train_pairs)
        train_set, valid_set = training_split(ctx)
        trained, _ = train.train(params, train_set, valid_set, train_config())
        return greedy_tokens(trained, valid_set)
    cell = DECODE_CELLS[workload]
    return [list(evaluate.decode_with_cell(params, src, cell, dseed)[0])
            for src, dseed in reference_items(workload, corpus[FIXTURE_COUNT:])]

