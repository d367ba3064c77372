import json
import math
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npad
from npad import chains, evaluate
from npad.core import ContractError, RngStream
from npad.evaluate import (
    Cell,
    EvalRecord,
    corpus_bleu,
    decode_corpus,
    decode_with_cell,
    load_spec,
    mean_nll,
    mean_nll_per_token,
    run_cells,
    run_experiment,
    write_results_csv,
)
from npad.decode import score_sequence
from npad.model import EOS, Vocab
from npad.serialize import save_model, save_pairs, save_vocab
from npad.tasks import ConfigError, SequencePair, gen_task
from conftest import damaged, make_params


def record(logp, tokens=(3, EOS)):
    return EvalRecord(0, "greedy", list(tokens), logp, (3, EOS), True)


class TestMeanNll:
    def test_single_record(self):
        assert mean_nll([record(-3.0)]) == 3.0

    def test_duplication_invariant(self):
        records = [record(-1.5), record(-4.0)]
        assert mean_nll(records + records) == pytest.approx(mean_nll(records), rel=1e-12)

    def test_uniform_model_analytic(self, tiny_params):
        p = tiny_params.copy()
        p.tensors["out.W"][:] = 0.0
        p.tensors["out.b"][:] = 0.0
        pairs = [((3,), (3, 3, EOS)), ((4,), (1, 1, EOS)), ((3, 4), (3, 1, EOS))]
        records = [record(score_sequence(p, s, t), t) for s, t in pairs]
        assert mean_nll(records) == pytest.approx(3 * math.log(4), abs=1e-9)

    def test_per_token_variant(self):
        records = [record(-6.0, (3, 3, EOS)), record(-3.0, (3, EOS, 0))]
        assert mean_nll_per_token(records) == pytest.approx(9.0 / 6.0)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            mean_nll([])


class TestCorpusBleu:
    def test_identity_is_one(self):
        corpus = [list("abcd"), list("efghij")]
        assert corpus_bleu(corpus, corpus) == 1.0

    def test_zero_fourgram_matches_zero_without_smoothing(self):
        hyp = [list("abcd")]
        ref = [list("abce")]   # 4-gram differs
        assert corpus_bleu(hyp, ref) == 0.0

    def test_brevity_penalty_hand_example(self):
        # all precisions are 1; BP = exp(1 - 5/4)
        got = corpus_bleu([list("abcd")], [list("abcde")])
        assert got == pytest.approx(math.exp(-0.25), abs=1e-6)

    def test_longer_hypothesis_no_penalty(self):
        got = corpus_bleu([list("abcde")], [list("abcd")])
        # precisions: 4/5, 3/4, 2/3, 1/2; BP = 1
        expected = math.exp(sum(math.log(x) for x in (4 / 5, 3 / 4, 2 / 3, 1 / 2)) / 4)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ContractError):
            corpus_bleu([list("ab")], [list("ab"), list("cd")])

    def test_empty_reference_has_length_zero_and_no_ngrams(self):
        assert corpus_bleu([list("ab")], [[]]) == 0.0
        # "ab" against nothing adds 2 unigrams and 1 bigram, none matching:
        # precisions 4/6, 3/4, 2/2, 1/1; BP = 1 (6 hypothesis tokens, 4 reference)
        got = corpus_bleu([list("abcd"), list("ab")], [list("abcd"), []])
        assert got == pytest.approx(0.5 ** 0.25, rel=1e-12)

    def test_empty_hypotheses_zero(self):
        assert corpus_bleu([[]], [list("abcd")]) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = RngStream(seed)
        corpus = []
        for _ in range(5):
            n = 3 + int(rng.integers(0, 5))
            corpus.append([int(rng.integers(0, 4)) for _ in range(n)])
        refs = []
        for sent in corpus:
            ref = list(sent)
            if float(rng.uniform_vec(())) < 0.5:
                ref[0] = (ref[0] + 1) % 4
            refs.append(ref)
        base = corpus_bleu(corpus, refs)
        perm = list(rng.permutation(len(corpus)))
        assert corpus_bleu([corpus[i] for i in perm], [refs[i] for i in perm]) == \
            pytest.approx(base, rel=1e-12)


@pytest.fixture(scope="module")
def toy_setup():
    data = gen_task("copy", 4, (1, 3), 20, seed=6)
    pairs = data.pairs[:8]
    params = make_params(3, d_emb=3, d_hid=4, n_src=len(data.src_vocab),
                         n_tgt=len(data.tgt_vocab), scale=0.9)
    return params, data, pairs


class TestDecodeCorpus:
    def test_deterministic_given_seed(self, toy_setup):
        params, data, pairs = toy_setup
        cell = Cell(strategy="npad", sigma0=0.3, chains=4)
        sources = [p.source for p in pairs]
        refs = [p.target for p in pairs]
        a = decode_corpus(params, sources, refs, cell, base_seed=9)
        b = decode_corpus(params, sources, refs, cell, base_seed=9)
        assert [(r.tokens, r.rescored_logp) for r in a] == [(r.tokens, r.rescored_logp) for r in b]

    def test_worker_count_does_not_change_results(self, toy_setup):
        params, data, pairs = toy_setup
        cell = Cell(strategy="npad", sigma0=0.3, chains=3)
        sources = [p.source for p in pairs]
        refs = [p.target for p in pairs]
        seq = decode_corpus(params, sources, refs, cell, base_seed=4, workers=1)
        par = decode_corpus(params, sources, refs, cell, base_seed=4, workers=3)
        assert [(r.input_id, r.tokens, r.rescored_logp, r.complete) for r in seq] == \
            [(r.input_id, r.tokens, r.rescored_logp, r.complete) for r in par]

    def test_worker_count_does_not_change_kept_chains(self, frozen_translate):
        # each sentence's kept chain results, every bit, whichever worker ran it
        params, pairs, _ = frozen_translate
        sources = [p.source for p in pairs]

        def kept(cell, workers):
            records = decode_corpus(params, sources, None, cell, 8, workers=workers,
                                    keep_chains=True)
            return [[(c.chain_index, c.hypothesis.tokens, c.noisy_logp.hex(),
                      c.rescored_logp.hex(), c.hypothesis.complete, c.sigma0_effective)
                     for c in r.chains] for r in records]

        for cell in (Cell(strategy="npad", sigma0=0.3, chains=20),
                     Cell(strategy="sample", sigma0=0.3, chains=20),
                     Cell(strategy="npad", sigma0=0.3, chains=5, beam_width=5)):
            assert kept(cell, 1) == kept(cell, 3), cell

    def test_spawn_pool_where_there_is_no_fork(self, frozen_translate, monkeypatch):
        # a platform without fork (Windows) raised ValueError from
        # get_context("fork"); a spawn pool decodes every bit as one process does
        params, pairs, _ = frozen_translate
        sources = [p.source for p in pairs[:4]]
        cell = Cell(strategy="npad", sigma0=0.3, chains=5)
        get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: set(range(2)))

        def bits(workers):
            records = decode_corpus(params, sources, None, cell, 8, workers=workers,
                                    keep_chains=True)
            return [(r.tokens, r.rescored_logp.hex(), r.complete,
                     [(c.chain_index, c.hypothesis.tokens, c.noisy_logp.hex(),
                       c.rescored_logp.hex(), c.hypothesis.complete, c.sigma0_effective)
                      for c in r.chains]) for r in records]

        assert bits(2) == bits(1)

    def test_max_len_zero_or_non_integral_refused(self, toy_setup):
        # max_len=0 decoded at the default length, 2.5 failed inside the search
        # and True ran as 1
        params, data, pairs = toy_setup
        for bad in (0, 2.5, True):
            with pytest.raises(ContractError, match="max_len must be"):
                decode_with_cell(params, pairs[0].source, Cell("greedy"), 0, max_len=bad)
            with pytest.raises(ContractError, match="max_len must be"):
                decode_corpus(params, [p.source for p in pairs], None, Cell("greedy"), 0,
                              max_len=bad)
        results = run_cells(params, pairs, [Cell("greedy")], base_seed=1, max_len=0)
        assert results[0].error == "ContractError: max_len must be >= 1, got 0"

    def test_lowest_index_failure_is_raised_whatever_arrives_first(self, toy_setup,
                                                                    monkeypatch):
        # sentence 0 fails last in time: a pool that reports the first failure
        # to arrive raises a later sentence's error, and which one can vary
        params, data, pairs = toy_setup

        def failing(params, source, cell, seed, max_len=None, keep_chains=False):
            if source == (0,):
                time.sleep(0.3)
            raise ContractError(f"sentence {source[0]}")

        monkeypatch.setattr(evaluate, "_decode_cell", failing)
        monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: set(range(3)))
        with pytest.raises(ContractError, match="sentence 0"):
            decode_corpus(params, [(i,) for i in range(6)], None, Cell(strategy="greedy"),
                          base_seed=1, workers=3)

    @pytest.mark.parametrize("workers, n, cpus, pool", [
        (10**9, 5, 8, 5), (10**9, 5, 2, 2), (3, 5, 8, 3), (4, 5, 1, None), (4, 1, 8, None)])
    def test_pool_capped_by_sentences_and_cpus(self, toy_setup, monkeypatch, workers, n, cpus, pool):
        # the pool constructor is replaced, so no process starts whatever N is asked for
        params, data, pairs = toy_setup
        sizes = []

        class FakePool:
            def __init__(self, processes, initializer, initargs):
                sizes.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
        monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(evaluate, "_WORKER_CTX", None)      # restored after the test
        sources = [p.source for p in pairs[:n]]
        cell = Cell(strategy="greedy")
        records = decode_corpus(params, sources, None, cell, base_seed=4, workers=workers)
        assert sizes == ([] if pool is None else [pool])
        assert [r.tokens for r in records] == \
            [r.tokens for r in decode_corpus(params, sources, None, cell, base_seed=4)]
        # an os without sched_getaffinity (macOS, Windows) caps the pool by its CPU count
        monkeypatch.delattr(evaluate.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(evaluate.os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert decode_corpus(params, sources, None, cell, base_seed=4, workers=workers) == records
        assert sizes == ([] if pool is None else [pool])

    def test_every_logp_replay_verifies(self, toy_setup):
        # a record's logp, and every chain's rescored logp, is the non-noisy
        # replay of its tokens, bit for bit: the noise-free decoders' and
        # zero-noise chains' own scores are reported without a rescore, so this
        # holds for complete and (at max_len 3) unfinished outputs alike
        params, data, pairs = toy_setup
        cells = [Cell(strategy="greedy"), Cell(strategy="beam", beam_width=3),
                 Cell(strategy="diverse", beam_width=3, eta=0.5),
                 Cell(strategy="sample", chains=2), Cell(strategy="npad", sigma0=0.2, chains=3),
                 Cell(strategy="npad", sigma0=0.2, chains=3, beam_width=2)]
        incomplete = chains = 0
        for max_len in (None, 3):
            for cell in cells + ([Cell(strategy="exact")] if max_len else []):
                records = decode_corpus(params, [p.source for p in pairs],
                                        [p.target for p in pairs], cell, base_seed=2,
                                        max_len=max_len, keep_chains=True)
                for r, p in zip(records, pairs):
                    assert r.rescored_logp == score_sequence(params, p.source, r.tokens)
                    incomplete += not r.complete
                    for c in r.chains or []:
                        assert c.rescored_logp == score_sequence(params, p.source,
                                                                 c.hypothesis.tokens)
                        chains += 1
        assert incomplete > 0 and chains == 2 * len(pairs) * (2 + 3 + 3)

    def test_sample_cell_rescores_nothing(self, toy_setup, monkeypatch):
        # sampling chains without noise each report their own score, and noisy
        # greedy chains are rescored by their replay rows inside the search:
        # only NPAD around beam runs a forced search to rescore
        params, data, pairs = toy_setup
        rescored = []
        forced_scores = chains.forced_scores
        monkeypatch.setattr(chains, "forced_scores", lambda model, seqs, max_len:
                            rescored.extend(seqs) or forced_scores(model, seqs, max_len))
        records = decode_corpus(params, [p.source for p in pairs], None,
                                Cell(strategy="sample", chains=4), base_seed=2)
        assert len(records) == len(pairs) and rescored == []
        decode_corpus(params, [p.source for p in pairs], None,
                      Cell(strategy="npad", sigma0=0.3, chains=4), base_seed=2)
        assert rescored == []
        decode_corpus(params, [p.source for p in pairs], None,
                      Cell(strategy="npad", sigma0=0.3, chains=4, beam_width=2), base_seed=2)
        assert rescored


class TestRunCells:
    def test_zero_chain_cell_never_worse_than_inner(self, toy_setup):
        params, data, pairs = toy_setup
        cells = [Cell(strategy="greedy"),
                 Cell(strategy="npad", sigma0=0.3, chains=5)]
        results = run_cells(params, pairs, cells, base_seed=8)
        greedy, npad_cell = results
        assert npad_cell.mean_nll <= greedy.mean_nll
        for g_rec, n_rec in zip(greedy.records, npad_cell.records):
            assert n_rec.rescored_logp >= g_rec.rescored_logp

    def test_failing_cell_recorded_and_rest_continue(self, toy_setup):
        params, data, pairs = toy_setup
        cells = [Cell(strategy="exact"), Cell(strategy="greedy")]
        results = run_cells(params, pairs, cells, base_seed=1, max_len=20)
        assert results[0].error is not None           # 7^20 search space refused
        assert results[0].mean_nll is None
        assert results[1].error is None
        assert results[1].mean_nll > 0

    def test_empty_target_is_a_zero_length_reference(self, toy_setup):
        # an empty target line is legal in a pair file; it failed every cell
        params, data, pairs = toy_setup
        pairs = pairs + [SequencePair(pairs[0].source, (EOS,))]
        result, = run_cells(params, pairs, [Cell(strategy="greedy")], base_seed=1)
        assert result.error is None
        hyps = [[t for t in r.tokens if t != EOS] for r in result.records]
        refs = [[t for t in p.target if t != EOS] for p in pairs]
        assert refs[-1] == [] and result.bleu == corpus_bleu(hyps, refs)

    def test_csv_shape_and_determinism(self, toy_setup, tmp_path):
        import io

        params, data, pairs = toy_setup
        # the last cell is the npad cell in numpy numbers, which were written
        # as their repr, np.float64(0.1), a cell `npad report` cannot read
        cells = [Cell(strategy="greedy"), Cell(strategy="npad", sigma0=0.1, chains=2),
                 Cell(strategy="npad", sigma0=np.float64(0.1), chains=np.int64(2))]
        results = run_cells(params, pairs, cells, base_seed=3)
        one, two = io.StringIO(), io.StringIO()
        write_results_csv(one, results)
        write_results_csv(two, results)
        assert one.getvalue() == two.getvalue()
        header, *rows = one.getvalue().strip().split("\n")
        assert header == "strategy,beam_width,sigma0,chains,eta,mean_nll,mean_nll_per_token,bleu"
        assert len(rows) == 3
        assert rows[0].startswith("greedy,,,,,")
        assert rows[1].startswith("npad,,0.1,2,,") and rows[2] == rows[1]


class TestSpecFiles:
    def _write_spec(self, tmp_path, body):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(body))
        return str(path)

    def test_load_and_run(self, toy_setup, tmp_path):
        params, data, pairs = toy_setup
        save_model(str(tmp_path / "m.bin"), params)
        save_vocab(str(tmp_path / "vs.txt"), data.src_vocab)
        save_vocab(str(tmp_path / "vt.txt"), data.tgt_vocab)
        save_pairs(str(tmp_path / "test.tsv"), pairs, data.src_vocab, data.tgt_vocab)
        spec_path = self._write_spec(tmp_path, {
            "model": str(tmp_path / "m.bin"), "test_set": str(tmp_path / "test.tsv"),
            "vocab_src": str(tmp_path / "vs.txt"), "vocab_tgt": str(tmp_path / "vt.txt"),
            "base_seed": 5,
            "cells": [{"strategy": "greedy"},
                      {"strategy": "npad", "sigma0": 0.2, "chains": 3}],
        })
        spec = load_spec(spec_path)
        results = run_experiment(spec)
        assert len(results) == 2
        assert results[1].mean_nll <= results[0].mean_nll

    def test_empty_test_set_rejected_before_any_cell_runs(self, toy_setup, tmp_path, monkeypatch):
        # it printed one mean_nll warning per cell and wrote blank metrics
        params, data, _ = toy_setup
        save_model(str(tmp_path / "m.bin"), params)
        save_vocab(str(tmp_path / "vs.txt"), data.src_vocab)
        save_vocab(str(tmp_path / "vt.txt"), data.tgt_vocab)
        (tmp_path / "test.tsv").write_text("\n")
        spec = load_spec(self._write_spec(tmp_path, {
            "model": str(tmp_path / "m.bin"), "test_set": str(tmp_path / "test.tsv"),
            "vocab_src": str(tmp_path / "vs.txt"), "vocab_tgt": str(tmp_path / "vt.txt"),
            "base_seed": 5, "cells": [{"strategy": "greedy"}]}))
        monkeypatch.setattr(evaluate, "run_cells", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(ConfigError) as e:
            run_experiment(spec)
        assert str(e.value) == f"{tmp_path / 'test.tsv'}: the test set has no pairs"

    def test_missing_fields_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_spec(self._write_spec(tmp_path, {"model": "x"}))

    def test_unknown_cell_fields_rejected(self, tmp_path):
        body = {"model": "m", "test_set": "t", "vocab_src": "a", "vocab_tgt": "b",
                "base_seed": 1, "cells": [{"strategy": "greedy", "beem": 4}]}
        with pytest.raises(ConfigError):
            load_spec(self._write_spec(tmp_path, body))

    def test_structure_and_field_types_checked(self, tmp_path):
        base = {"model": "m", "test_set": "t", "vocab_src": "a", "vocab_tgt": "b",
                "base_seed": 1, "cells": [{"strategy": "greedy"}]}
        bad = [[base], dict(base, cells={"strategy": "greedy"}), dict(base, cells=["greedy"]),
               dict(base, base_seed="x"), dict(base, base_seed=True), dict(base, model=3),
               dict(base, max_len="7"), dict(base, max_len=0), dict(base, extra=1)]
        bad += [dict(base, cells=[cell]) for cell in (
            {"strategy": "beam", "beam_width": "3"}, {"strategy": "beam", "beam_width": 2.0},
            {"strategy": "npad", "chains": 2.5, "sigma0": 0.3},
            {"strategy": "npad", "chains": True, "sigma0": 0.3},
            {"strategy": "npad", "chains": 2, "sigma0": "0.3"},
            {"strategy": "npad", "chains": 2, "sigma0": 10**400},
            {"strategy": "npad", "chains": 2, "sigma0": 0.3, "zero_chain": None},
            {"strategy": "diverse", "beam_width": 2, "eta": [0.1]}, {"strategy": 1})]
        for body in bad:
            with pytest.raises(ConfigError):
                load_spec(self._write_spec(tmp_path, body))
        spec = load_spec(self._write_spec(tmp_path, dict(base, max_len=None, cells=[
            {"strategy": "npad", "chains": 2, "sigma0": 0, "beam_width": None,
             "zero_chain": False}])))
        assert spec.max_len is None and spec.cells[0].sigma0 == 0
        assert not spec.cells[0].include_zero_chain

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_spec_truncations_and_bit_flips(self, tmp_path_factory, data):
        # a damaged spec loads or ends in ConfigError, never in another error
        blob = json.dumps({
            "model": "m.bin", "test_set": "t.tsv", "vocab_src": "a", "vocab_tgt": "b",
            "base_seed": 17, "max_len": 9,
            "cells": [{"strategy": "greedy"}, {"strategy": "beam", "beam_width": 5},
                      {"strategy": "npad", "sigma0": 0.25, "chains": 10, "zero_chain": True},
                      {"strategy": "diverse", "beam_width": 3, "eta": 0.1}]}).encode()
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_bytes(damaged(data, blob))
        try:
            load_spec(str(path))
        except ConfigError:
            pass

    def test_unreadable_json_rejected(self, tmp_path):
        # each ended in a traceback: a RecursionError, and a ValueError from
        # an integer of more digits than int() reads
        path = tmp_path / "spec.json"
        for blob in ("[" * 100_000, '{"base_seed": ' + "7" * 5000 + "}"):
            path.write_text(blob)
            with pytest.raises(ConfigError, match="not valid JSON"):
                load_spec(str(path))

    def test_invalid_cells_rejected(self):
        with pytest.raises(ConfigError):
            Cell(strategy="mystery")
        with pytest.raises(ConfigError):
            Cell(strategy="npad", sigma0=0.1)       # chains missing
        with pytest.raises(ConfigError):
            Cell(strategy="beam")                   # width missing
        with pytest.raises(ConfigError):
            Cell(strategy="diverse", beam_width=2)  # eta missing

    def test_chains_and_beam_width_below_one_rejected(self, tmp_path):
        # a given count below 1 is an error for every strategy, not a silent
        # one-chain or greedy-inner run
        for fields in ({"strategy": "sample", "chains": 0},
                       {"strategy": "npad", "chains": 3, "sigma0": 0.3, "beam_width": 0},
                       {"strategy": "npad", "chains": -1, "sigma0": 0.3},
                       {"strategy": "beam", "beam_width": -4},
                       {"strategy": "greedy", "beam_width": 0}):
            with pytest.raises(ConfigError):
                Cell(**fields)
            body = {"model": "m", "test_set": "t", "vocab_src": "a", "vocab_tgt": "b",
                    "base_seed": 1, "cells": [fields]}
            with pytest.raises(ConfigError):
                load_spec(self._write_spec(tmp_path, body))

    def test_fields_the_strategy_never_reads_rejected(self, tmp_path):
        # a stray field would print in the results CSV as if it applied
        needed = {"greedy": {}, "beam": {"beam_width": 2}, "diverse": {"beam_width": 2, "eta": 0.5},
                  "sample": {"chains": 2}, "npad": {"chains": 2, "sigma0": 0.3}, "exact": {}}
        stray = {"beam_width": ("greedy", "sample", "exact"),
                 "eta": ("greedy", "beam", "sample", "npad", "exact"),
                 "sigma0": ("greedy", "beam", "diverse", "exact"),
                 "chains": ("greedy", "beam", "diverse", "exact"),
                 "include_zero_chain": ("greedy", "beam", "diverse", "exact")}
        values = {"beam_width": 3, "eta": 0.5, "sigma0": 0.3, "chains": 4,
                  "include_zero_chain": False}
        for strategy, fields in needed.items():
            for name, value in values.items():
                cell = dict(fields, strategy=strategy, **{name: value})
                if strategy in stray[name]:
                    with pytest.raises(ConfigError, match=f"{strategy} (does not take|has no)"):
                        Cell(**cell)
                else:
                    Cell(**cell)
        body = {"model": "m", "test_set": "t", "vocab_src": "a", "vocab_tgt": "b",
                "base_seed": 1, "cells": [{"strategy": "beam", "beam_width": 5, "zero_chain": False}]}
        with pytest.raises(ConfigError, match="beam has no chains"):
            load_spec(self._write_spec(tmp_path, body))

    def test_rows_in_flight_bounded(self, tmp_path):
        # chains x beam_width rows step together; past MAX_ROWS the cell is
        # refused before anything is allocated, from a spec as from flags
        Cell(strategy="npad", sigma0=0.3, chains=50, beam_width=100)
        Cell(strategy="npad", sigma0=0.3, chains=evaluate.MAX_ROWS)
        Cell(strategy="beam", beam_width=evaluate.MAX_ROWS)
        for fields in ({"strategy": "npad", "sigma0": 0.3, "chains": evaluate.MAX_ROWS + 1},
                       {"strategy": "sample", "chains": 10**8},
                       {"strategy": "beam", "beam_width": evaluate.MAX_ROWS + 1},
                       {"strategy": "diverse", "beam_width": 10**8, "eta": 0.5},
                       {"strategy": "npad", "sigma0": 0.3, "chains": 101, "beam_width": 100}):
            with pytest.raises(ConfigError, match="rows, more than"):
                Cell(**fields)
            body = {"model": "m", "test_set": "t", "vocab_src": "a", "vocab_tgt": "b",
                    "base_seed": 1, "cells": [fields]}
            with pytest.raises(ConfigError, match="rows, more than"):
                load_spec(self._write_spec(tmp_path, body))

    @pytest.mark.parametrize("fields, message", [
        ({"strategy": "beam", "beam_width": 2.5}, "beam_width must be an integer, got 2.5"),
        ({"strategy": "npad", "chains": 2.5, "sigma0": 0.1}, "chains must be an integer, got 2.5"),
        ({"strategy": "beam", "beam_width": True}, "beam_width must be an integer, got True"),
        ({"strategy": "sample", "chains": True}, "chains must be an integer, got True"),
        ({"strategy": "npad", "chains": 2, "sigma0": 0.1, "beam_width": 3.0},
         "beam_width must be an integer, got 3.0"),
        ({"strategy": "npad", "chains": 2, "sigma0": True}, "sigma0 must be a number, got True"),
        ({"strategy": "diverse", "beam_width": 2, "eta": False}, "eta must be a number, got False"),
        ({"strategy": "diverse", "beam_width": 2, "eta": "0.5"}, "eta must be a number, got '0.5'"),
        ({"strategy": "npad", "chains": 2, "sigma0": 10**400},
         f"sigma0 must be <= 1e\\+100, got {'1' + '0' * 39}"),
        ({"strategy": "diverse", "beam_width": 2, "eta": -10**400}, "diverse requires eta >= 0"),
        ({"strategy": "npad", "chains": 2, "sigma0": 0.3, "include_zero_chain": "no"},
         "zero_chain must be true or false, got 'no'"),
        ({"strategy": "sample", "chains": 2, "include_zero_chain": 1},
         "zero_chain must be true or false, got 1"),
    ])
    def test_bools_non_integral_counts_and_non_numbers_rejected(self, fields, message):
        # each was accepted and failed inside the decoder, or ran as another
        # value; a number past the float range raised OverflowError, and a
        # non-bool zero chain ran as its truth value
        with pytest.raises(ConfigError, match=f"^{message}$"):
            Cell(**fields)

    def test_numpy_numbers_and_integer_scales_accepted(self):
        Cell("beam", beam_width=np.int64(3))
        Cell("npad", chains=np.int32(2), sigma0=np.float64(0.1), beam_width=np.int16(2))
        Cell("diverse", beam_width=2, eta=0)

    def test_non_finite_cell_values_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError):
                Cell(strategy="npad", sigma0=bad, chains=2)
            with pytest.raises(ConfigError):
                Cell(strategy="diverse", beam_width=2, eta=bad)

    @pytest.mark.filterwarnings("error")
    def test_numpy_float_scales_compare_without_a_warning(self):
        # numpy cast the bound 1e100 to a float32 or float16 value's type,
        # which overflowed to inf with a RuntimeWarning
        for kind in (np.float32, np.float16):
            assert Cell("npad", chains=2, sigma0=kind(0.1)).sigma0 == kind(0.1)
            Cell("sample", chains=2, sigma0=kind(0.1))
            Cell("diverse", beam_width=2, eta=kind(0.5))
        with pytest.raises(ConfigError, match="sigma0 must be <= 1e\\+100"):
            Cell("npad", chains=2, sigma0=np.float64(1e101))

    def test_overflowing_scales_rejected(self, tmp_path):
        # sigma0 or eta near the float maximum overflowed the chain noise to
        # NaN scores and the rank penalty to -inf ties; both are refused as
        # Cell objects and as spec fields
        Cell(strategy="npad", sigma0=evaluate.MAX_SCALE, chains=3)
        Cell(strategy="diverse", beam_width=3, eta=evaluate.MAX_SCALE)
        for fields, name in (({"strategy": "npad", "sigma0": 1.7e308, "chains": 3}, "sigma0"),
                             ({"strategy": "diverse", "beam_width": 3, "eta": 1.7e308}, "eta")):
            with pytest.raises(ConfigError, match=f"{name} must be <= 1e\\+100, got 1.7e\\+308"):
                Cell(**fields)
            body = {"model": "m", "test_set": "t", "vocab_src": "a", "vocab_tgt": "b",
                    "base_seed": 1, "cells": [fields]}
            with pytest.raises(ConfigError, match=f"{name} must be <= 1e\\+100"):
                load_spec(self._write_spec(tmp_path, body))


# Runs in a fresh interpreter whose address space is capped at 1 GiB.
BOUNDED_DECODE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from npad.cli import main
from npad.evaluate import Cell, decode_with_cell
from npad.model import EOS
from npad.serialize import load_model

params = load_model(sys.argv[1])
for cell in (Cell(strategy="greedy"), Cell(strategy="beam", beam_width=3),
             Cell(strategy="sample", chains=4), Cell(strategy="npad", sigma0=0.3, chains=4)):
    tokens, logp, complete = decode_with_cell(params, [3, 4], cell, 5, max_len=10**9)
    assert complete and tokens[-1] == EOS, (cell, tokens)
sys.exit(main(["decode", "--strategy", "npad", "--chains", "4", "--sigma0", "0.3",
               "--seed", "5", "--max-len", str(10**9)] + sys.argv[2:]))
"""


def test_huge_max_len_allocates_only_the_steps_taken(tmp_path):
    # a max_len far beyond memory costs nothing until steps are taken: the
    # tokens, noise rows and uniforms grow with the steps, so a model that
    # ends at once decodes in 1 GiB where the tables sized by max_len alone
    # would need 7.45 GiB (greedy) and 179 GiB (npad)
    params = make_params(3, n_tgt=5)
    params.tensors["out.b"][EOS] = 40.0
    vocab = Vocab.from_content(["a", "b"])
    paths = {name: str(tmp_path / name) for name in ("model.bin", "vocab.txt", "in.txt", "out")}
    save_model(paths["model.bin"], params)
    save_vocab(paths["vocab.txt"], vocab)
    with open(paths["in.txt"], "w") as f:
        f.write("a b\nb\n")
    src_dir = os.path.dirname(os.path.dirname(npad.__file__))
    run = subprocess.run(
        [sys.executable, "-c", BOUNDED_DECODE, paths["model.bin"],
         "--model", paths["model.bin"], "--vocab-src", paths["vocab.txt"],
         "--vocab-tgt", paths["vocab.txt"], "--input", paths["in.txt"], "--output", paths["out"]],
        env={**os.environ, "PYTHONPATH": src_dir}, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = [json.loads(line) for line in open(paths["out"])]
    assert [line["tokens"] for line in lines] == [["</s>"], ["</s>"]]
