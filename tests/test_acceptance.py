"""Acceptance criteria, one test per criterion, each printing a PASS line.

The two session-scoped model fixtures train from scratch (a few minutes of
CPU total); every number downstream is deterministic given the seeds frozen
here.
"""
import json
import math
from dataclasses import dataclass

import pytest

from npad.cli import main as cli_main
from npad.core import RngStream
from npad.decode import (
    DecodeLimits,
    beam_search,
    diverse_beam_search,
    exact_search,
    greedy_search,
    score_sequence,
)
from npad.evaluate import Cell, corpus_bleu, decode_corpus, mean_nll, run_cells
from npad.model import EOS, BoundModel, Dims, init_params
from npad.serialize import save_model, save_pairs, save_vocab
from npad.tasks import gen_task, split_pairs
from npad.train import TrainConfig, grad_check, train
from conftest import make_params


def report(name, ok, detail=""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


@dataclass
class Trained:
    params: object
    test: list
    data: object
    dirpath: str


@pytest.fixture(scope="session")
def translate_model(tmp_path_factory):
    """Mid-trained lexical-translate model: the regime where noisy chains
    beat output sampling (long targets, 32-word vocab, 9 epochs)."""
    data = gen_task("lexical-translate", 32, (12, 20), 1650, seed=101)
    train_set, valid_set, test_set = split_pairs(data.pairs, 1400, 150, 100)
    dims = Dims(d_emb=16, d_hid=24, n_src=len(data.src_vocab), n_tgt=len(data.tgt_vocab))
    params0 = init_params(RngStream(7), dims)
    cfg = TrainConfig(epochs=9, lr=0.25, seed=13, batch_size=16, patience=100)
    params, _ = train(params0, train_set, valid_set, cfg)
    d = tmp_path_factory.mktemp("translate")
    save_model(str(d / "model.bin"), params)
    save_vocab(str(d / "vocab_src.txt"), data.src_vocab)
    save_vocab(str(d / "vocab_tgt.txt"), data.tgt_vocab)
    save_pairs(str(d / "test.tsv"), test_set, data.src_vocab, data.tgt_vocab)
    return Trained(params, test_set, data, str(d))


@pytest.fixture(scope="session")
def reverse_model(tmp_path_factory):
    data = gen_task("reverse", 10, (2, 8), 2200, seed=301)
    train_set, valid_set, test_set = split_pairs(data.pairs, 1500, 200, 500)
    dims = Dims(d_emb=16, d_hid=32, n_src=len(data.src_vocab), n_tgt=len(data.tgt_vocab))
    params0 = init_params(RngStream(9), dims)
    cfg = TrainConfig(epochs=12, lr=0.25, seed=17, batch_size=16, patience=100)
    params, _ = train(params0, train_set, valid_set, cfg)
    d = tmp_path_factory.mktemp("reverse")
    save_model(str(d / "model.bin"), params)
    save_vocab(str(d / "vocab_src.txt"), data.src_vocab)
    save_vocab(str(d / "vocab_tgt.txt"), data.tgt_vocab)
    save_pairs(str(d / "test.tsv"), test_set, data.src_vocab, data.tgt_vocab)
    return Trained(params, test_set, data, str(d))


GRID_SEED = 55
NOISE_LEVELS = (0.1, 0.2, 0.3, 0.5)


@pytest.fixture(scope="session")
def translate_grid(translate_model):
    """The table cells shared by criteria 3, 5 and 6, decoded once."""
    cells = [Cell(strategy="greedy"),
             Cell(strategy="sample", chains=50)]
    cells += [Cell(strategy="npad", sigma0=s, chains=50) for s in NOISE_LEVELS]
    cells += [Cell(strategy="beam", beam_width=10),
              Cell(strategy="npad", sigma0=0.2, chains=10, beam_width=10)]
    cells += [Cell(strategy="diverse", beam_width=10, eta=eta)
              for eta in (0.001, 0.01, 0.1, 1.0)]
    results = run_cells(translate_model.params, translate_model.test, cells, GRID_SEED)
    assert all(r.error is None for r in results)
    return {id(c): r for c, r in zip(cells, results)} | {
        "greedy": results[0], "sample": results[1],
        "npad": {s: r for s, r in zip(NOISE_LEVELS, results[2:6])},
        "beam10": results[6], "npad_b10": results[7],
        "diverse": {r.cell.eta: r for r in results[8:]},
    }


def test_criterion_1_oracle_equivalence():
    """Beam covering the whole space equals exhaustive search; K=1 is greedy."""
    max_len = 3
    width = 4 ** max_len
    for seed in range(200):
        rng = RngStream(seed)
        params = make_params(seed, d_emb=2, d_hid=3, n_src=5, n_tgt=4,
                             scale=0.5 + float(rng.uniform_vec(())))
        source = [3 + int(rng.integers(0, 2)) for _ in range(1 + int(rng.integers(0, 3)))]
        model = BoundModel(params, source)
        limits = DecodeLimits(max_len)
        exact = exact_search(model, limits)
        big_beam, _ = beam_search(model, width, limits=limits)
        assert big_beam.tokens == exact.tokens, f"seed {seed}"
        assert big_beam.logp == exact.logp, f"seed {seed}"
        greedy = greedy_search(model, limits=limits)
        k1, _ = beam_search(model, 1, limits=limits)
        assert k1.tokens == greedy.tokens and k1.logp == greedy.logp, f"seed {seed}"
    report("C1 oracle equivalence (200 random tiny models)", True)


def test_criterion_2_quality_guarantee(reverse_model):
    """Zero-noise chain: the selection is never worse than the inner decoder,
    on 100% of 500 held-out sentences, for greedy and beam-5 inners."""
    params, test = reverse_model.params, reverse_model.test
    assert len(test) == 500
    sources = [p.source for p in test]
    refs = [p.target for p in test]
    violations = {"greedy": 0, "beam5": 0}
    inner_cells = {"greedy": (Cell(strategy="greedy"), Cell(strategy="npad", sigma0=0.3, chains=5)),
                   "beam5": (Cell(strategy="beam", beam_width=5),
                             Cell(strategy="npad", sigma0=0.3, chains=5, beam_width=5))}
    means = {}
    for name, (inner, wrapped) in inner_cells.items():
        inner_recs = decode_corpus(params, sources, refs, inner, GRID_SEED)
        wrapped_recs = decode_corpus(params, sources, refs, wrapped, GRID_SEED)
        for a, b in zip(inner_recs, wrapped_recs):
            if not (b.rescored_logp >= a.rescored_logp):
                violations[name] += 1
        means[name] = (mean_nll(inner_recs), mean_nll(wrapped_recs))
        assert means[name][1] <= means[name][0]
    ok = violations == {"greedy": 0, "beam5": 0}
    report("C2 quality guarantee (500 sentences, exact)", ok,
           f"violations={violations}, mean NLL inner vs wrapped: "
           f"greedy {means['greedy'][0]:.3f}/{means['greedy'][1]:.3f}, "
           f"beam5 {means['beam5'][0]:.3f}/{means['beam5'][1]:.3f}")


def test_criterion_3_noise_injection_ordering(translate_grid):
    """Best-noise chains beat 50 samplers and greedy, with the improvement
    at least 3x the sampling improvement, at one or more noise levels."""
    g = translate_grid["greedy"].mean_nll
    s = translate_grid["sample"].mean_nll
    sampling_impr = g - s
    passing = []
    for sigma, r in translate_grid["npad"].items():
        impr = g - r.mean_nll
        if r.mean_nll < s and r.mean_nll < g and impr >= 3 * sampling_impr:
            passing.append((sigma, impr))
    report("C3 noise-injection ordering", bool(passing),
           f"greedy {g:.4f}, sampling {s:.4f} (impr {sampling_impr:+.4f}), "
           f"passing sigmas {[(s_, round(i, 4)) for s_, i in passing]}")


def test_criterion_4_chain_count_monotonicity(translate_model):
    """Nested chain seeds: per-sentence and corpus NLL exactly non-increasing
    in the chain count."""
    params, test = translate_model.params, translate_model.test
    per_m = {}
    for m in (1, 5, 10, 50):
        cell = Cell(strategy="npad", sigma0=0.3, chains=m)
        per_m[m] = run_cells(params, test, [cell], GRID_SEED)[0]
    corpus = [per_m[m].mean_nll for m in (1, 5, 10, 50)]
    corpus_ok = all(a >= b for a, b in zip(corpus, corpus[1:]))
    sentence_ok = True
    for small, large in ((1, 5), (5, 10), (10, 50)):
        for a, b in zip(per_m[small].records, per_m[large].records):
            if not (b.rescored_logp >= a.rescored_logp):
                sentence_ok = False
    report("C4 chain-count monotonicity (exact)", corpus_ok and sentence_ok,
           f"corpus NLL by M: {[round(x, 4) for x in corpus]}")


def test_criterion_5_gap_closing(translate_grid):
    """Wrapping both decoders in noisy chains shrinks the greedy/beam gap."""
    g = translate_grid["greedy"].mean_nll
    b10 = translate_grid["beam10"].mean_nll
    npad_g = translate_grid["npad"][0.3].mean_nll
    npad_b10 = translate_grid["npad_b10"].mean_nll
    base_gap = g - b10
    wrapped_gap = npad_g - npad_b10
    ok = base_gap > wrapped_gap >= 0
    report("C5 greedy/beam gap closing", ok,
           f"gap {base_gap:.4f} -> {wrapped_gap:.4f}")


def test_criterion_6_diverse_decoding_parity(translate_model, translate_grid):
    """eta=0 diverse equals beam bit-for-bit; noisy beam is no worse than the
    best rank-penalty diverse cell."""
    params = translate_model.params
    for pair in translate_model.test[:10]:
        model = BoundModel(params, pair.source)
        b_best, b_done = beam_search(model, 5)
        d_best, d_done = diverse_beam_search(model, 5, 0.0)
        assert d_best.tokens == b_best.tokens and d_best.logp == b_best.logp
        assert [(h.tokens, h.logp) for h in d_done] == [(h.tokens, h.logp) for h in b_done]
    diverse_cells = translate_grid["diverse"]
    assert sorted(diverse_cells) == [0.001, 0.01, 0.1, 1.0]
    best_diverse = min(r.mean_nll for r in diverse_cells.values())
    npad_b10 = translate_grid["npad_b10"].mean_nll
    ok = npad_b10 <= best_diverse
    report("C6 diverse-decoding parity", ok,
           f"noisy beam {npad_b10:.4f} <= best diverse {best_diverse:.4f}; "
           f"eta=0 bit-identical on 10 sentences")


def test_criterion_7_gradient_correctness():
    """Analytic BPTT matches central finite differences on every tensor."""
    from npad.tasks import SequencePair

    params = make_params(3, d_emb=2, d_hid=3, n_src=5, n_tgt=4, scale=0.5)
    pair = SequencePair((3, 4, 3), (1, 3, 3, EOS))
    rep = grad_check(params, pair, tolerance=1e-4, h=1e-5)
    report("C7 gradient correctness", rep.passed,
           f"max relative error {rep.max_rel_error:.2e} over {len(rep.per_tensor)} tensors "
           f"({params.n_params()} params)")


def test_criterion_8_determinism_and_parallel_invariance(reverse_model, tmp_path):
    """experiment reruns and worker-count changes are byte-identical."""
    d = reverse_model.dirpath
    small_test = str(tmp_path / "subset.tsv")
    with open(f"{d}/test.tsv") as f, open(small_test, "w") as out:
        for line in list(f)[:25]:
            out.write(line)
    spec = {"model": f"{d}/model.bin", "test_set": small_test,
            "vocab_src": f"{d}/vocab_src.txt", "vocab_tgt": f"{d}/vocab_tgt.txt",
            "base_seed": 0,
            "cells": [{"strategy": "greedy"},
                      {"strategy": "sample", "chains": 3},
                      {"strategy": "npad", "sigma0": 0.3, "chains": 5},
                      {"strategy": "npad", "sigma0": 0.3, "chains": 10}]}
    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    outs = [str(tmp_path / f"r{i}.csv") for i in range(3)]
    assert cli_main(["experiment", "--spec", spec_path, "--seed", "7", "--output", outs[0]]) == 0
    assert cli_main(["experiment", "--spec", spec_path, "--seed", "7", "--output", outs[1]]) == 0
    assert cli_main(["experiment", "--spec", spec_path, "--seed", "7", "--output", outs[2],
                     "--workers", "3"]) == 0
    blobs = [open(o, "rb").read() for o in outs]
    ok = blobs[0] == blobs[1] == blobs[2]
    report("C8 determinism and parallel invariance", ok,
           f"{len(blobs[0])} CSV bytes, 3 runs identical")


def test_criterion_9_metric_identities(tiny_params):
    """corpus_bleu(X, X) = 1; uniform-model NLL = L ln|V|; BP hand value."""
    corpus = [list("abcd"), list("wxyz"), list("abcdef")]
    bleu_self = corpus_bleu(corpus, corpus)

    p = tiny_params.copy()
    p.tensors["out.W"][:] = 0.0
    p.tensors["out.b"][:] = 0.0
    targets = [(3, 3, EOS), (1, 3, EOS), (3, 1, EOS)]
    from npad.evaluate import EvalRecord
    records = [EvalRecord(i, "greedy", list(t), score_sequence(p, (3,), t), t, True)
               for i, t in enumerate(targets)]
    uniform_nll = mean_nll(records)
    expected_nll = 3 * math.log(4)

    bp_example = corpus_bleu([list("abcd")], [list("abcde")])
    ok = (bleu_self == 1.0
          and abs(uniform_nll - expected_nll) < 1e-9
          and abs(bp_example - math.exp(-0.25)) < 1e-6)
    report("C9 metric identities", ok,
           f"self-BLEU {bleu_self}, uniform NLL {uniform_nll:.12f} vs {expected_nll:.12f}, "
           f"BP example {bp_example:.6f} vs {math.exp(-0.25):.6f}")
