"""Corpus metrics (sentence-level NLL, corpus BLEU) and the experiment
harness that decodes a test set under a grid of strategy cells.

The harness is deterministic given the spec's base seed: sentence i of a
cell always decodes with seed derive_seed(base_seed, i), so the degree of
worker parallelism cannot change any result.
"""
from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from math import exp, inf, log

from .chains import ChainResult, npad_search
from .core import ContractError, derive_seed, is_integer, is_number
from .decode import (
    MAX_SCALE,
    DecodeLimits,
    beam_search,
    diverse_beam_search,
    exact_search,
    greedy_search,
)
from .model import EOS, BoundModel
from .serialize import load_model, load_pairs, load_vocab
from .tasks import ConfigError

# Each hyperparameter a cell may set, with its JSON type, in results-column order.
HYPERPARAMETERS = {"beam_width": int, "sigma0": float, "chains": int, "eta": float}
# The hyperparameters each strategy reads, True where it requires one. A cell
# sets no other: the results would print it as if it applied.
READS = {"greedy": {}, "beam": {"beam_width": True},
         "sample": {"sigma0": False, "chains": False},
         "diverse": {"beam_width": True, "eta": True},
         "npad": {"beam_width": False, "sigma0": True, "chains": True}, "exact": {}}
STRATEGIES = tuple(READS)
# The strategies that run chains (`chains.npad_search`).
CHAINED = tuple(strategy for strategy, reads in READS.items() if "chains" in reads)
RESULT_COLUMNS = ("strategy", *HYPERPARAMETERS, "mean_nll", "mean_nll_per_token", "bleu")
# Most decoder rows a cell may keep in flight, chains x beam_width: the
# chains of a sentence step together, so their tables grow with this count.
# On the translate model (d_hid 24, 35 words, a 12-word sentence) an npad
# cell's peak RSS grows by about 13 KB a row: 31 MB at 1 chain, 161 MB at
# 10,000. The bound counts rows only; a larger model or sentence costs more.
MAX_ROWS = 10_000


@dataclass(frozen=True)
class Cell:
    """One experiment cell: a strategy plus its hyperparameters."""

    strategy: str
    beam_width: int | None = None
    sigma0: float | None = None
    chains: int | None = None
    eta: float | None = None
    include_zero_chain: bool = True

    def __post_init__(self):
        # an integer (not a bool) is at least 1; a number (not a bool) is
        # finite, at most MAX_SCALE and at least 0 where a strategy reads it
        for name, kind in HYPERPARAMETERS.items():
            value = getattr(self, name)
            if value is None:
                continue
            if kind is int and not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r:.40}")
            if kind is int and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value!r:.40}")
            if kind is float and not is_number(value):
                raise ConfigError(f"{name} must be a number, got {value!r:.40}")
            # compared as Python numbers: numpy would cast MAX_SCALE to a float32
            # value's type (inf), and float() of an int past 1.8e308 overflows
            number = int(value) if is_integer(value) else float(value)
            if not -inf < number < inf:
                raise ConfigError(f"{name} must be finite, got {value!r:.40}")
            if kind is float and number > MAX_SCALE:
                raise ConfigError(f"{name} must be <= {MAX_SCALE:g}, got {value!r:.40}")
        if not isinstance(self.include_zero_chain, bool):
            raise ConfigError(f"zero_chain must be true or false, "
                              f"got {self.include_zero_chain!r:.40}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r:.40}, "
                              f"expected one of {STRATEGIES}")
        reads = READS[self.strategy]
        for name, kind in HYPERPARAMETERS.items():
            value = getattr(self, name)
            if name not in reads and value is not None:
                raise ConfigError(f"{self.strategy} does not take {name}")
            if (value is None and reads.get(name)) or (value or 0) < 0:
                raise ConfigError(f"{self.strategy} requires {name} >= {1 if kind is int else 0}")
        if self.strategy not in CHAINED and not self.include_zero_chain:
            raise ConfigError(f"{self.strategy} has no chains, so no zero chain to leave out")
        rows = (self.chains or 1) * (self.beam_width or 1)
        if rows > MAX_ROWS:
            raise ConfigError(f"chains x beam_width is {rows} rows, more than the "
                              f"{MAX_ROWS} allowed")


@dataclass
class EvalRecord:
    input_id: int
    strategy: str
    tokens: list[int]
    rescored_logp: float
    reference: tuple[int, ...]
    complete: bool
    chains: list[ChainResult] | None = field(default=None, repr=False, compare=False)


def mean_nll(records: list[EvalRecord]) -> float:
    """Mean per-sentence negative log-probability (lower is better)."""
    if not records:
        raise ContractError("mean_nll of an empty record list")
    return sum(-r.rescored_logp for r in records) / len(records)


def mean_nll_per_token(records: list[EvalRecord]) -> float:
    if not records:
        raise ContractError("mean_nll_per_token of an empty record list")
    total = sum(-r.rescored_logp for r in records)
    tokens = sum(len(r.tokens) for r in records)
    return total / max(tokens, 1)


def _ngrams(seq, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def corpus_bleu(hypotheses, references) -> float:
    """Corpus BLEU-4: geometric mean of modified n-gram precisions (n=1..4)
    times the brevity penalty. One reference per hypothesis; an empty one has
    length 0 and no n-grams. Any zero precision gives 0.
    """
    if len(hypotheses) != len(references):
        raise ContractError("hypotheses and references must have equal length")
    if not references:
        raise ContractError("empty corpus")
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    if hyp_len == 0:
        return 0.0
    log_precisions = []
    for n in range(1, 5):
        matches = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            matches += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            total += max(len(hyp) - n + 1, 0)
        if matches == 0:
            return 0.0
        log_precisions.append(log(matches / total))
    bp = 1.0 if hyp_len > ref_len else exp(1.0 - ref_len / hyp_len)
    return bp * exp(sum(log_precisions) / 4)


def _decode_cell(params, source, cell: Cell, seed: int, max_len: int | None = None,
                 keep_chains: bool = False):
    """`decode_with_cell` plus, with `keep_chains`, the chain results of a
    sample or npad cell (else None). Without them, chains that can no longer
    win stop early (`chains.npad_search`).

    A noise-free decoder's own score is already the non-noisy replay of its
    output, bit for bit, so only chain outputs are rescored.
    """
    model = BoundModel(params, source)
    limits = None if max_len is None else DecodeLimits(max_len)
    if cell.strategy in CHAINED:
        best, results = npad_search(model, cell, seed, limits, keep_chains)
        hyp = best.hypothesis
        return list(hyp.tokens), best.rescored_logp, hyp.complete, results
    if cell.strategy == "greedy":
        hyp = greedy_search(model, limits)
    elif cell.strategy == "beam":
        hyp, _ = beam_search(model, cell.beam_width, limits=limits)
    elif cell.strategy == "diverse":
        hyp, _ = diverse_beam_search(model, cell.beam_width, cell.eta, limits)
    else:
        hyp = exact_search(model, limits)
    return list(hyp.tokens), hyp.logp, hyp.complete, None


def decode_with_cell(params, source, cell: Cell, seed: int,
                     max_len: int | None = None):
    """Decode one source under a cell; returns (tokens, rescored_logp, complete)."""
    return _decode_cell(params, source, cell, seed, max_len)[:3]


# The decode context of a pool worker process, set by its initializer.
_WORKER_CTX: dict | None = None


def _init_worker(ctx: dict) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _decode_item(i: int, ctx: dict | None = None):
    """Decode sentence i of the context (a pool worker's own by default)."""
    ctx = ctx or _WORKER_CTX
    return _decode_cell(ctx["params"], ctx["sources"][i], ctx["cell"],
                        derive_seed(ctx["base_seed"], i), ctx["max_len"], ctx["keep_chains"])


def decode_corpus(params, sources, references, cell: Cell, base_seed: int,
                  max_len: int | None = None, workers: int = 1,
                  keep_chains: bool = False) -> list[EvalRecord]:
    """Decode every source under a cell; per-sentence seeds derive from
    (base_seed, input_id), so results are independent of worker count.
    The pool has at most one worker per sentence and per usable CPU.
    With keep_chains, each record of a sample or npad cell keeps its chain
    results. Results are read in index order, in `pool.map`'s chunks, so a
    failure raises the lowest-index failing sentence's error.
    """
    n = len(sources)
    ctx = {"params": params, "sources": sources, "cell": cell,
           "base_seed": base_seed, "max_len": max_len, "keep_chains": keep_chains}
    # sched_getaffinity, the CPUs this process may use, exists only on Linux
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, n, cpus or 1)
    if workers > 1:
        import multiprocessing as mp    # only a pool needs it: `import npad` stays without it

        with mp.get_context("fork").Pool(workers, _init_worker, (ctx,)) as pool:
            outcomes = list(pool.imap(_decode_item, range(n), chunksize=-(-n // (4 * workers))))
    else:
        outcomes = [_decode_item(i, ctx) for i in range(n)]
    records = []
    for i, (tokens, logp, complete, chains) in enumerate(outcomes):
        ref = tuple(references[i]) if references is not None else ()
        records.append(EvalRecord(i, cell.strategy, tokens, logp, ref, complete, chains))
    return records


@dataclass
class ExperimentSpec:
    model: str
    test_set: str
    vocab_src: str
    vocab_tgt: str
    base_seed: int
    cells: list[Cell]
    max_len: int | None = None


# Each spec field and its JSON type; every one but max_len is required.
_SPEC_TYPES = {"model": str, "test_set": str, "vocab_src": str, "vocab_tgt": str,
               "base_seed": int, "cells": list, "max_len": int}
_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list"}
# The fields a cell may have; `Cell` checks their values.
_CELL_FIELDS = {"strategy", "zero_chain", *HYPERPARAMETERS}


def load_spec(path: str) -> ExperimentSpec:
    """Read an experiment spec, checking its structure; `Cell` checks each cell."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    # not UTF-8, not JSON, nested too deep, or an integer of more digits than int() reads
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the spec is not a JSON object")
    missing = set(_SPEC_TYPES) - {"max_len"} - set(raw)
    if missing:
        raise ConfigError(f"{path}: missing spec fields {sorted(missing)}")
    unknown = sorted(set(raw) - set(_SPEC_TYPES))
    if unknown:
        raise ConfigError(f"{path} has unknown fields {unknown}")
    for name, value in raw.items():
        # a bool is not an integer; only max_len may be null
        if not (isinstance(value, _SPEC_TYPES[name]) and not isinstance(value, bool)
                or value is None and name == "max_len"):
            raise ConfigError(f"{path}: {name!r} must be {_TYPE_NAMES[_SPEC_TYPES[name]]}, "
                              f"got {value!r:.40}")
    if raw.get("max_len") is not None and raw["max_len"] < 1:
        raise ConfigError(f"{path}: 'max_len' must be >= 1, got {raw['max_len']}")
    cells = []
    for i, c in enumerate(raw["cells"]):
        if not isinstance(c, dict) or "strategy" not in c:
            raise ConfigError(f"{path}: cell {i} is not an object with a 'strategy'")
        unknown = sorted(set(c) - _CELL_FIELDS)
        if unknown:
            raise ConfigError(f"{path}: cell {i} has unknown fields {unknown}")
        try:
            cells.append(Cell(c["strategy"], include_zero_chain=c.get("zero_chain", True),
                              **{name: c.get(name) for name in HYPERPARAMETERS}))
        except ConfigError as e:
            raise ConfigError(f"{path}: cell {i}: {e}") from None
    if not cells:
        raise ConfigError(f"{path}: spec has no cells")
    return ExperimentSpec(**dict(raw, cells=cells))


@dataclass
class CellResult:
    cell: Cell
    mean_nll: float | None = None
    mean_nll_per_token: float | None = None
    bleu: float | None = None
    records: list[EvalRecord] = field(default_factory=list)
    error: str | None = None


def run_cells(params, pairs, cells, base_seed: int, max_len: int | None = None,
              workers: int = 1) -> list[CellResult]:
    """Decode the full test set for every cell; a failing cell records its
    error and the remaining cells still run.
    """
    sources = [p.source for p in pairs]
    references = [p.target for p in pairs]
    results = []
    for cell in cells:
        try:
            records = decode_corpus(params, sources, references, cell, base_seed,
                                    max_len, workers)
            hyps = [_strip_eos(r.tokens) for r in records]
            refs = [_strip_eos(r.reference) for r in records]
            results.append(CellResult(cell, mean_nll(records), mean_nll_per_token(records),
                                      corpus_bleu(hyps, refs), records))
        except Exception as e:           # keep the table going; the row records the failure
            results.append(CellResult(cell, error=f"{type(e).__name__}: {e}"))
    return results


def run_experiment(spec: ExperimentSpec, workers: int = 1,
                   base_seed: int | None = None) -> list[CellResult]:
    params = load_model(spec.model)
    src_vocab = load_vocab(spec.vocab_src)
    tgt_vocab = load_vocab(spec.vocab_tgt)
    pairs = load_pairs(spec.test_set, src_vocab, tgt_vocab)
    if not pairs:
        raise ConfigError(f"{spec.test_set}: the test set has no pairs")
    seed = spec.base_seed if base_seed is None else base_seed
    return run_cells(params, pairs, spec.cells, seed, spec.max_len, workers)


def _strip_eos(tokens):
    return [t for t in tokens if t != EOS]


def _fmt(value) -> str:
    """A CSV cell: blank for unset, else str(), which writes a float as repr()
    does (shortest round trip) and a numpy number as its bare value."""
    return "" if value is None else str(value)


def write_results_csv(f, results: list[CellResult]) -> None:
    f.write(",".join(RESULT_COLUMNS) + "\n")
    for r in results:
        c = r.cell
        row = (c.strategy, *(getattr(c, name) for name in HYPERPARAMETERS),
               r.mean_nll, r.mean_nll_per_token, r.bleu)
        f.write(",".join(map(_fmt, row)) + "\n")
