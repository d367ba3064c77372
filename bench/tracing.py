"""The traced run: spans around the library's layer boundaries, recorded from
the benchmark's own code, and the per-layer metrics derived from them.

Spans are kept in memory as tuples (name, start, end, parent, sentence, mark)
and written out when the run ends. `parent` is the index of the enclosing
span (-1 at top level), `sentence` the index of the decoded sentence (or of
the `train.train` call), and `mark` a per-layer count: 1 for a step that got
non-zero noise, 1 for a gradient that was clipped, the pair count of an
`nll_loss` batch.

Instrumentation replaces module attributes for the duration of the traced
pass only and restores them afterwards:

  * `evaluate.BoundModel` becomes a factory whose construction is the
    `model.encode` span and which returns a step-interface proxy timing each
    `step` (the decoders accept any object with that surface);
  * `decode.greedy_search`, `decode.beam_search`, `decode.force_score`,
    `chains.run_chain_on` and `chains.select_best` get spans at the call
    sites `decode_with_cell` and `npad_search` use;
  * `train.nll_loss`, `train.clip_gradients` and `train.valid_nll` get spans
    at the call sites `train.train` uses.

An attribute a later version of the library no longer has is skipped, so its
metrics read 0 instead of the run failing.
"""
from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from npad import chains, core, decode, evaluate, model
from npad.core import RngStream
from npad.model import EOS

# The package re-exports the function `train` under the module's name.
train = importlib.import_module("npad.train")

DECODE_SPANS = {
    evaluate: ("greedy_search", "beam_search", "force_score"),
    chains: ("greedy_search", "beam_search", "force_score", "run_chain_on", "select_best"),
}
LAYER_OF = {"greedy_search": "decode", "beam_search": "decode", "force_score": "decode",
            "run_chain_on": "chains", "select_best": "chains"}
TRAIN_SPANS = ("nll_loss", "clip_gradients", "valid_nll")

DECODE_LAYER_METRICS = (
    "model.encode_us", "model.encode_calls", "model.step_us", "model.steps_per_sentence",
    "model.noisy_steps_per_sentence", "model.step_share",
    "decode.self_ms_per_sentence", "decode.complete_share",
    "chains.rescore_ms_per_sentence", "chains.rescore_steps_per_sentence",
    "chains.distinct_share", "chains.zero_chain_win_share", "chains.noise_improved_share",
    "chains.select_us",
)
TRAIN_LAYER_METRICS = ("train.nll_loss_ms_per_pair", "train.clip_share", "train.valid_ms",
                       "train.other_share")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.sentence = -1
        self.selections: list[tuple] = []   # (chains, distinct, winner, zero logp, best logp)

    def wrap(self, name, fn, mark=None, top=False):
        """`fn` with a span around every call. `mark(args, result)` gives the
        span's count; `top` starts a new sentence at each call."""
        spans, stack = self.spans, self.stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if top:
                self.sentence += 1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self.sentence,
                              mark(args, result) if mark and result is not None else 0)
        return traced

    def select_mark(self, args, best):
        results = args[0]
        zero = results[0] if results[0].sigma0_effective == 0.0 else None
        self.selections.append((
            len(results), len({tuple(r.hypothesis.tokens) for r in results}),
            best.chain_index, zero.rescored_logp if zero else None, best.rescored_logp))
        return 0

    def write(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            for name, start, end, parent, sentence, mark in self.spans:
                f.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9),
                                    parent, sentence, mark]) + "\n")


class TracedModel:
    """Step-interface proxy around a bound model: same surface, timed `step`."""

    def __init__(self, inner, step):
        self.__dict__.update(vars(inner))
        self._inner = inner
        self.step = step

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _noisy(args, result):
    noise = args[2] if len(args) > 2 else None
    return int(noise is not None and bool(np.any(noise)))


@contextmanager
def patched(replacements):
    """Set module attributes for the duration of the block, then restore them."""
    saved = []
    try:
        for mod, attr, new in replacements:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)


def decode_instrumentation(tracer: Tracer):
    out = [(evaluate, "decode_with_cell",
            tracer.wrap("evaluate.decode_with_cell", evaluate.decode_with_cell, top=True))]
    if hasattr(evaluate, "BoundModel"):
        encode = tracer.wrap("model.encode", evaluate.BoundModel)

        def bound_model(params, source):
            inner = encode(params, source)
            return TracedModel(inner, tracer.wrap("model.step", inner.step, mark=_noisy))

        out.append((evaluate, "BoundModel", bound_model))
    for mod, names in DECODE_SPANS.items():
        for attr in names:
            if hasattr(mod, attr):
                mark = tracer.select_mark if attr == "select_best" else None
                out.append((mod, attr, tracer.wrap(f"{LAYER_OF[attr]}.{attr}",
                                                   getattr(mod, attr), mark=mark)))
    return out


def train_instrumentation(tracer: Tracer):
    marks = {"nll_loss": lambda args, result: len(args[1]),
             "clip_gradients": lambda args, result: int(result is not args[0])}
    out = [(train, "train", tracer.wrap("train.train", train.train, top=True))]
    for attr in TRAIN_SPANS:
        if hasattr(train, attr):
            out.append((train, attr, tracer.wrap(f"train.{attr}", getattr(train, attr),
                                                 mark=marks.get(attr))))
    return out


def _span_stats(spans):
    """name -> [count, total seconds, self seconds, sum of marks]."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for i, (name, start, end, _, _, mark) in enumerate(spans):
        st = stats[name]
        st[0] += 1
        st[1] += end - start
        st[2] += end - start - child[i]
        st[3] += mark
    return stats


def span_table(tracer: Tracer) -> list[str]:
    """Per span name: calls, and total and self time per operation (sentence
    or training call)."""
    n = max(tracer.sentence + 1, 1)
    return [f"{name:26s} calls {st[0]:8d}  total {1e3 * st[1] / n:10.3f} ms  "
            f"self {1e3 * st[2] / n:10.3f} ms per operation"
            for name, st in sorted(_span_stats(tracer.spans).items())]


def _mean(total, count):
    return total / count if count else 0.0


def decode_layer_metrics(tracer: Tracer, outputs) -> dict:
    spans = tracer.spans
    stats = _span_stats(spans)
    n = max(stats["evaluate.decode_with_cell"][0], 1)
    enc, step, sel = stats["model.encode"], stats["model.step"], stats["chains.select_best"]
    rescore_steps = sum(1 for sp in spans if sp[0] == "model.step" and sp[3] >= 0
                        and spans[sp[3]][0] == "decode.force_score")
    picks = tracer.selections
    zero_picks = [p for p in picks if p[3] is not None]
    return {
        "model.encode_us": 1e6 * _mean(enc[1], enc[0]),
        "model.encode_calls": enc[0] / n,
        "model.step_us": 1e6 * _mean(step[1], step[0]),
        "model.steps_per_sentence": step[0] / n,
        "model.noisy_steps_per_sentence": step[3] / n,
        "model.step_share": _mean(step[1], stats["evaluate.decode_with_cell"][1]),
        "decode.self_ms_per_sentence":
            1e3 * (stats["decode.greedy_search"][2] + stats["decode.beam_search"][2]) / n,
        "decode.complete_share": _mean(sum(bool(o and o[2]) for o in outputs), len(outputs)),
        "chains.rescore_ms_per_sentence": 1e3 * stats["decode.force_score"][1] / n,
        "chains.rescore_steps_per_sentence": rescore_steps / n,
        "chains.distinct_share": _mean(sum(p[1] / p[0] for p in picks), len(picks)),
        "chains.zero_chain_win_share": _mean(sum(p[2] == 0 for p in zero_picks), len(picks)),
        "chains.noise_improved_share": _mean(sum(p[4] > p[3] for p in zero_picks), len(picks)),
        "chains.select_us": 1e6 * _mean(sel[1], sel[0]),
    }


def train_layer_metrics(tracer: Tracer) -> dict:
    stats = _span_stats(tracer.spans)
    loss, clip = stats["train.nll_loss"], stats["train.clip_gradients"]
    valid = stats["train.valid_nll"]
    whole = stats["train.train"][1]
    return {
        "train.nll_loss_ms_per_pair": 1e3 * _mean(loss[1], loss[3]),
        "train.clip_share": _mean(clip[3], clip[0]),
        "train.valid_ms": 1e3 * _mean(valid[1], valid[0]),
        "train.other_share": _mean(whole - loss[1] - clip[1] - valid[1], whole),
    }


def _time_per_call(fn, budget: float, repeats: int = 5) -> float:
    """Median seconds per call over `repeats` blocks of about `budget` seconds."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= budget / 4 or n >= 1 << 20:
            break
        n *= 2
    n = max(1, int(n * budget / max(time.perf_counter() - t0, 1e-9)))
    blocks = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        blocks.append((time.perf_counter() - t0) / n)
    return float(np.median(blocks))


def isolated_metrics(params, budget: float = 0.05) -> dict:
    """Microseconds per call of the step's building blocks at the workload
    shapes: a 16-token source, a 17-token forced output, d_hid and |V|."""
    dims = params.dims
    rng = RngStream(0)
    source = tuple(3 + (5 * i) % (dims.n_src - 3) for i in range(16))
    tokens = [3 + (7 * i) % (dims.n_tgt - 3) for i in range(16)] + [EOS]
    bound = model.BoundModel(params, source)
    state = bound.initial()
    logits = rng.normal_vec(dims.n_tgt)
    hidden = rng.normal_vec(dims.d_hid)
    calls = {
        "core.log_softmax_us": (core, "log_softmax", (logits,)),
        "core.sigmoid_us": (core, "sigmoid", (hidden,)),
        "core.gaussian_vec_us": (core, "gaussian_vec", (rng, dims.d_hid, 0.3)),
        "model.attention_us": (model, "attention_context", (params, state, bound.enc)),
        "model.decoder_step_us": (model, "decoder_step", (params, state, 3, bound.enc)),
        "decode.force_score_us": (decode, "force_score", (bound, tokens)),
    }
    out = {}
    for name, (mod, attr, args) in calls.items():
        fn = getattr(mod, attr, None)
        out[name] = 1e6 * _time_per_call(lambda: fn(*args), budget) if fn else 0.0
    return out
