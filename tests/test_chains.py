import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npad.chains import ChainResult, _streams, npad_search, run_chains, select_best
from npad.core import ContractError, RngStream, derive_seed
from npad import decode
from npad.decode import (
    DecodeLimits,
    Hypothesis,
    beam_search,
    exact_search,
    forced_scores,
    greedy_search,
    score_sequence,
)
from npad.evaluate import Cell
from npad.model import BoundModel
from npad.tasks import ConfigError
from conftest import make_params
from table_models import RecordingModel, TableModel, garden_path


SEED = 11
LIMITS = DecodeLimits(4)


def cfg_for(chains, sigma0, inner="greedy", width=1, zero_chain=True):
    """The cell of `chains` chains of an inner decoder: greedy, beam or sample."""
    return Cell(strategy="sample" if inner == "sample" else "npad", chains=chains,
                sigma0=sigma0, beam_width=None if inner == "sample" else width,
                include_zero_chain=zero_chain)


def test_config_validation():
    with pytest.raises(ConfigError):
        cfg_for(0, 0.3)
    with pytest.raises(ConfigError):
        Cell(strategy="mystery", chains=1, sigma0=0.1)


class TestChainNoise:
    """The noise a chain adds, as the model's step receives it."""

    def test_noisy_rows_have_std_sigma0_over_t(self):
        # std of a sample std over n draws is sigma/sqrt(2n): under 1% here.
        # Greedy chains take one row per step, beam chains one row per live
        # hypothesis per step (one live row at step 1, two from then on). The
        # greedy chains' replay rows run in the same steps with exact zeros.
        for inner, width, chains in (("greedy", 1, 200), ("beam", 2, 100)):
            model = RecordingModel({}, default=[0.5, 0.5, 0.0], state_dim=50)
            run_chains(model, cfg_for(chains, 0.4, inner=inner, width=width, zero_chain=False),
                       SEED, range(chains), LIMITS)
            for t in range(1, 5):
                rows = np.stack([row for step, row in model.noise if step == t and row.any()])
                assert rows.shape == (chains * (1 if t == 1 else width), 50)
                assert rows.std() == pytest.approx(0.4 / t, rel=0.05)

    def test_rows_are_the_chains_stream_times_sigma0_over_t(self, monkeypatch):
        # bit for bit: chain m's k-th noise row is sigma0 / t times the k-th
        # standard normal row of its own stream, whatever its row count (one
        # per step for greedy, one per live hypothesis for beam); the chain
        # draws exactly the rows it can use: 1 + (max_len - 1) * width. A
        # greedy chain's one replay row per step gets a zero row.
        draws = []
        normal_vec = RngStream.normal_vec
        monkeypatch.setattr(RngStream, "normal_vec", lambda rng, shape, out=None:
                            draws.append(shape) or normal_vec(rng, shape, out))
        for inner, width, rows in (("greedy", 1, 5), ("beam", 2, 1 + 2 * 4)):
            cfg = cfg_for(3, 0.7, inner=inner, width=width)
            for m in (1, 2):
                model = RecordingModel({}, default=[0.5, 0.5, 0.0], state_dim=4)
                run_chains(model, cfg, SEED, [m], DecodeLimits(5))
                assert draws.pop() == (rows, 4)
                noisy = [(t, row) for t, row in model.noise if row.any()]
                assert len(model.noise) - len(noisy) == (5 if width == 1 else 0)
                steps = np.array([t for t, _ in noisy])
                assert len(steps) == rows and list(steps) == sorted(steps)
                stream = RngStream(derive_seed(derive_seed(11, m), 0)).normal_vec((rows, 4))
                assert np.array_equal(np.stack([row for _, row in noisy]),
                                      stream * (0.7 / steps)[:, None])

    def test_zero_chain_gets_no_noise_and_draws_nothing(self, monkeypatch):
        draws = []
        normal_vec = RngStream.normal_vec
        monkeypatch.setattr(RngStream, "normal_vec", lambda rng, shape, out=None:
                            draws.append(shape) or normal_vec(rng, shape, out))
        for inner, width in (("greedy", 1), ("beam", 2)):
            model = RecordingModel({}, default=[0.5, 0.5, 0.0], state_dim=3)
            [r] = run_chains(model, cfg_for(4, 0.4, inner=inner, width=width), SEED, [0], LIMITS)
            assert r.sigma0_effective == 0.0
            assert model.noise == [] and model.silent_steps == 4
        assert draws == []
        # run with noisy chains in lockstep, the zero chain's rows are exact
        # zeros, and so is the fourth row of each step: the replay row of the
        # one prefix the two noisy chains share
        model = RecordingModel({}, default=[0.5, 0.5, 0.0], state_dim=3)
        run_chains(model, cfg_for(3, 0.4), SEED, [0, 1, 2], LIMITS)
        assert len(model.noise) == 16 and draws
        rows = [row for step, row in model.noise]
        assert all(not rows[i].any() for i in range(16) if i % 4 in (0, 3))
        assert all(rows[i].all() for i in range(16) if i % 4 in (1, 2))

    def test_sampling_chains_take_sigma0_and_the_zero_chain(self, monkeypatch):
        # a sample cell's sigma0 noises its chains as an npad cell's does:
        # chain m's step-t row is the t-th row of its stream times sigma0 / t,
        # and under zero_chain chain 0 samples without noise and draws nothing
        draws = []
        normal_vec = RngStream.normal_vec
        monkeypatch.setattr(RngStream, "normal_vec", lambda rng, shape, out=None:
                            draws.append(shape) or normal_vec(rng, shape, out))
        model = RecordingModel({}, default=[0.5, 0.5, 0.0], state_dim=4)
        results = run_chains(model, cfg_for(3, 0.7, inner="sample"), SEED, range(3),
                             DecodeLimits(5))
        assert [r.sigma0_effective for r in results] == [0.0, 0.7, 0.7]
        assert draws == [(5, 4), (5, 4)]
        # each step runs the three chains' rows, then the noisy chains' replay rows
        steps = [np.stack([row for step, row in model.noise if step == t]) for t in range(1, 6)]
        assert not any(rows[3:].any() for rows in steps)
        rows = np.stack([rows[:3] for rows in steps])
        assert not rows[:, 0].any()
        for m in (1, 2):
            stream = RngStream(derive_seed(derive_seed(SEED, m), 0)).normal_vec((5, 4))
            assert np.array_equal(rows[:, m], stream * (0.7 / np.arange(1, 6))[:, None])
        # the tokens are still picked by each chain's own uniforms
        for r in results:
            u = RngStream(derive_seed(derive_seed(SEED, r.chain_index), 1)).uniform_vec(5)
            assert r.hypothesis.tokens == [int(x >= 0.5) for x in u]

    def test_output_one_token_longer_than_its_source_draws_once(self, monkeypatch):
        # a chain's first block holds the rows of an output one token longer
        # than its source: a 21-token greedy output of a 20-token source draws
        # its 21 rows in one call, not 16 and then 16 more
        draws = []
        normal_vec = RngStream.normal_vec
        monkeypatch.setattr(RngStream, "normal_vec", lambda rng, shape, out=None:
                            draws.append(shape) or normal_vec(rng, shape, out))
        model = RecordingModel({(20, 0): [0.0, 0.0, 1.0]}, default=[1.0, 0.0, 0.0], state_dim=4)
        model.source_len = 20
        [r] = run_chains(model, cfg_for(2, 0.5), SEED, [1], DecodeLimits(100))
        assert r.hypothesis.tokens == [0] * 20 + [2] and r.hypothesis.complete
        assert draws == [(21, 4)]

    def test_chains_share_each_step(self):
        # every live hypothesis of every chain is a row of one step: a 6-chain
        # beam-3 NPAD at max_len 4 decodes in 4 calls (one per step, all noisy
        # since 5 chains are), and its rescoring adds at most 4 noise-free ones
        model = RecordingModel({}, n_tokens=5, default=[1, 1, 0, 1, 1], state_dim=3)
        results = run_chains(model, cfg_for(6, 0.4, inner="beam", width=3), SEED, range(6),
                             LIMITS)
        assert all(len(r.hypothesis.tokens) == 4 for r in results)
        assert model.calls - model.silent_steps == 4
        assert model.silent_steps <= 4
        rows_per_step = np.bincount([step for step, _ in model.noise])[1:]
        assert list(rows_per_step) == [6, 18, 18, 18]

    def test_kernel_calls_split_at_kernel_rows(self, monkeypatch, tiny_params):
        # rows never interact, so a step split into kernel calls of at most
        # KERNEL_ROWS rows leaves every bit of every chain unchanged
        model = BoundModel(tiny_params, [3, 4])
        cfg = cfg_for(6, 0.5, inner="beam", width=3)
        whole = run_chains(model, cfg, SEED, range(6), DecodeLimits(6))
        exact = exact_search(model, DecodeLimits(4))
        sizes = []
        step_batch = BoundModel.step_batch
        monkeypatch.setattr(BoundModel, "step_batch", lambda self, H, prev, noise=None:
                            sizes.append(prev.size) or step_batch(self, H, prev, noise))
        monkeypatch.setattr(decode, "KERNEL_ROWS", 4)
        split = run_chains(model, cfg, SEED, range(6), DecodeLimits(6))
        assert max(sizes) == 4 and len(sizes) > 6 * 2
        assert [(r.hypothesis, r.noisy_logp, r.rescored_logp) for r in split] == \
            [(r.hypothesis, r.noisy_logp, r.rescored_logp) for r in whole]
        assert exact_search(model, DecodeLimits(4)) == exact

    def test_config_rejects_bad_sigma0(self):
        for bad in (float("nan"), float("inf"), -0.1):
            with pytest.raises(ConfigError):
                cfg_for(2, bad)
            with pytest.raises(ConfigError):
                cfg_for(2, bad, inner="sample")


class TestChainStreams:
    """Chain m's private streams, seeded for all the chains in one pass."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 10_000), max_size=6),
           st.integers(0, 1))
    def test_chain_m_gets_its_nested_seed(self, seed, chains, which):
        for m, stream in zip(chains, _streams(seed, chains, which), strict=True):
            one = RngStream(derive_seed(derive_seed(seed, m), which))
            assert stream.seed == one.seed
            assert stream.normal_vec(2).tolist() == one.normal_vec(2).tolist()

    def test_chains_seeded_together_get_the_streams_they_get_among_more(self, tiny_params):
        # C2's nesting: chains 3 and 7 seeded alone draw what they draw among
        # range(10), and so decode the same, noise and uniforms alike
        for which in (0, 1):
            ten = _streams(SEED, range(10), which)
            for stream, other in zip(_streams(SEED, [3, 7], which), (ten[3], ten[7])):
                assert stream.seed == other.seed
                assert stream.uniform_vec(4).tolist() == other.uniform_vec(4).tolist()
        model = BoundModel(tiny_params, [3, 4])
        cfg = cfg_for(10, 0.6, inner="sample")
        ten = run_chains(model, cfg, SEED, range(10), DecodeLimits(6))
        pair = run_chains(model, cfg, SEED, [3, 7], DecodeLimits(6))
        assert pair == [ten[3], ten[7]]


class TestRunChain:
    def test_zero_chain_is_plain_greedy(self, tiny_params):
        src = [3, 4]
        cfg = cfg_for(4, 0.3)
        model = BoundModel(tiny_params, src)
        [result] = run_chains(model, cfg, SEED, [0], LIMITS)
        plain = greedy_search(model, limits=LIMITS)
        assert result.sigma0_effective == 0.0
        assert result.hypothesis.tokens == plain.tokens
        assert result.noisy_logp == plain.logp
        assert result.rescored_logp == plain.logp

    def test_deterministic_per_chain(self, tiny_params):
        cfg = cfg_for(6, 0.3)
        model = BoundModel(tiny_params, [3, 4])
        for m in range(6):
            [a] = run_chains(model, cfg, SEED, [m], LIMITS)
            [b] = run_chains(model, cfg, SEED, [m], LIMITS)
            assert a.hypothesis.tokens == b.hypothesis.tokens
            assert a.noisy_logp == b.noisy_logp
            assert a.rescored_logp == b.rescored_logp

    def test_chain_index_validated(self, tiny_params):
        with pytest.raises(ContractError):
            run_chains(BoundModel(tiny_params, [3]), cfg_for(3, 0.1), SEED, [3], LIMITS)

    def test_zero_chain_noisy_equals_rescored(self, tiny_params):
        [result] = run_chains(BoundModel(tiny_params, [3, 4]), cfg_for(5, 0.5), SEED, [0],
                              LIMITS)
        assert result.noisy_logp == pytest.approx(result.rescored_logp, abs=1e-9)

    def test_some_chain_escapes_garden_path(self):
        # noise shifts the step-1 logit of the trap token; sigma0=0.3 flips
        # the opening choice with probability ~0.39 per chain
        model = garden_path(noise_weight=5.0)
        cfg, limits = cfg_for(50, 0.3), DecodeLimits(3)
        [greedy_score] = forced_scores(model, [greedy_search(model, limits=limits).tokens],
                                       limits.max_len)
        escaped = []
        for m in range(1, 50):
            [r] = run_chains(model, cfg, 1234, [m], limits)
            if r.rescored_logp > greedy_score:
                escaped.append(r)
        assert escaped, "no chain escaped the trap"
        assert any(r.hypothesis.tokens == [1, 2] for r in escaped)
        best = max(r.rescored_logp for r in escaped)
        assert best == pytest.approx(math.log(0.39 * 0.98), abs=1e-12)


class TestNpadDecode:
    def test_degenerate_single_zero_chain_is_greedy(self, tiny_params):
        cfg = cfg_for(1, 0.0)
        model = BoundModel(tiny_params, [3, 4])
        best, results = npad_search(model, cfg, SEED, LIMITS)
        plain = greedy_search(model, limits=LIMITS)
        assert len(results) == 1
        assert best.hypothesis.tokens == plain.tokens
        assert best.rescored_logp == plain.logp

    def test_quality_guarantee_greedy_and_beam(self):
        # with the zero chain present the selection can never be worse than
        # a single run of the inner decoder, on any input
        for seed in range(25):
            params = make_params(seed, d_emb=2, d_hid=3, n_src=5, n_tgt=4, scale=1.0)
            src = [3 + (seed % 2), 4, 3][: 1 + seed % 3]
            model = BoundModel(params, src)
            limits = DecodeLimits(5)
            best, _ = npad_search(model, cfg_for(6, 0.3), seed, limits)
            inner = greedy_search(model, limits=limits)
            assert best.rescored_logp >= score_sequence(params, src, inner.tokens)
            best_b, _ = npad_search(model, cfg_for(4, 0.3, inner="beam", width=3), seed, limits)
            inner_b, _ = beam_search(model, 3, limits=limits)
            assert best_b.rescored_logp >= score_sequence(params, src, inner_b.tokens)

    def test_chain_sets_nest_and_selection_monotone_in_m(self, tiny_params):
        src = [3, 4]
        per_m = {}
        for m_count in (1, 5, 10, 50):
            cfg = cfg_for(m_count, 0.3)
            best, results = npad_search(BoundModel(tiny_params, src), cfg, 77, DecodeLimits(5))
            per_m[m_count] = (best, results)
        small = per_m[5][1]
        large = per_m[50][1]
        for a, b in zip(small, large):
            assert a.hypothesis.tokens == b.hypothesis.tokens
            assert a.rescored_logp == b.rescored_logp
        scores = [per_m[m][0].rescored_logp for m in (1, 5, 10, 50)]
        assert all(x <= y for x, y in zip(scores, scores[1:]))

    def test_lockstep_equals_single_chains(self):
        # chains run together as rows give, bit for bit, what each chain gives alone
        params = make_params(21, d_emb=4, d_hid=6, n_src=6, n_tgt=7, scale=1.0)
        model = BoundModel(params, [3, 5, 4])
        for inner, width, zero_chain in [("greedy", 1, True), ("greedy", 1, False),
                                         ("sample", 1, False), ("beam", 3, True)]:
            cfg = cfg_for(12, 0.4, inner=inner, width=width, zero_chain=zero_chain)
            _, together = npad_search(model, cfg, 5, DecodeLimits(6))
            assert [r.chain_index for r in together] == list(range(12))
            assert len({tuple(r.hypothesis.tokens) for r in together}) > 1
            for r in together:
                [alone] = run_chains(model, cfg, 5, [r.chain_index], DecodeLimits(6))
                assert r.hypothesis.tokens == alone.hypothesis.tokens
                assert r.hypothesis.complete == alone.hypothesis.complete
                assert r.noisy_logp == alone.noisy_logp
                assert r.rescored_logp == alone.rescored_logp
                assert r.sigma0_effective == alone.sigma0_effective

    def test_selection_uses_only_rescored_values(self, tiny_params):
        src = [3, 4]
        cfg = cfg_for(10, 0.5)
        best, results = npad_search(BoundModel(tiny_params, src), cfg, 3, DecodeLimits(5))
        for r in results:
            independent = score_sequence(tiny_params, src, r.hypothesis.tokens)
            assert r.rescored_logp == pytest.approx(independent, abs=1e-9)
        completed = [r for r in results if r.hypothesis.complete]
        assert best.rescored_logp == max(r.rescored_logp for r in completed)

    def test_ties_break_to_lowest_chain_index(self):
        def result(idx, logp, complete=True):
            return ChainResult(idx, Hypothesis([2], logp, complete), logp, logp, 0.1)

        picked = select_best([result(0, -1.0), result(1, -1.0), result(2, -0.5, complete=False)])
        assert picked.chain_index == 0

    def test_incomplete_only_when_all_incomplete(self):
        never_eos = TableModel({}, default=[0.5, 0.5, 0.0])
        cfg = cfg_for(3, 0.2)
        best, results = npad_search(never_eos, cfg, SEED, DecodeLimits(3))
        assert all(not r.hypothesis.complete for r in results)
        assert not best.hypothesis.complete

    def test_sampling_inner_uses_chain_private_rng(self, tiny_params):
        cfg = cfg_for(6, 0.0, inner="sample", zero_chain=False)
        best, results = npad_search(BoundModel(tiny_params, [3, 4]), cfg, 42, DecodeLimits(5))
        rerun_best, rerun = npad_search(BoundModel(tiny_params, [3, 4]), cfg, 42,
                                        DecodeLimits(5))
        assert [r.hypothesis.tokens for r in results] == [r.hypothesis.tokens for r in rerun]
        assert best.rescored_logp == rerun_best.rescored_logp
        assert best.rescored_logp == max(r.rescored_logp for r in results
                                         if r.hypothesis.complete)

    def test_sampling_picks_consume_stream_one_uniforms_in_step_order(self):
        # with p = (0.5, 0.5, 0) a sampling chain's step-t token is 0 when its
        # t-th stream-1 uniform is below 0.5 and 1 otherwise, whichever chains
        # run with it
        # (40 and 150 steps take the uniforms in more than one block, and 150
        # the tokens in more than one)
        model = TableModel({}, default=[0.5, 0.5, 0.0])
        cfg = cfg_for(8, 0.0, inner="sample", zero_chain=False)
        for chains, steps in product(([2, 5, 7], [5], list(range(8))), (6, 40, 150)):
            for r in run_chains(model, cfg, 31, chains, DecodeLimits(steps)):
                u = RngStream(derive_seed(derive_seed(31, r.chain_index), 1)).uniform_vec(steps)
                assert r.hypothesis.tokens == [int(x >= 0.5) for x in u]

    def test_noisy_chains_around_sampling(self, tiny_params):
        # hidden noise and output sampling can be combined; replay soundness
        # of the rescore is unaffected
        src = [3, 4]
        cfg = cfg_for(8, 0.4, inner="sample", zero_chain=False)
        best, results = npad_search(BoundModel(tiny_params, src), cfg, 6, DecodeLimits(5))
        assert len({tuple(r.hypothesis.tokens) for r in results}) > 1
        for r in results:
            assert r.sigma0_effective == 0.4
            assert r.rescored_logp == pytest.approx(
                score_sequence(tiny_params, src, r.hypothesis.tokens), abs=1e-9)
        rerun, _ = npad_search(BoundModel(tiny_params, src), cfg, 6, DecodeLimits(5))
        assert rerun.hypothesis.tokens == best.hypothesis.tokens


class TestReplayInSearch:
    """Noisy greedy and sampling chains are rescored inside their search: one
    zero-noise replay row per distinct noisy prefix runs in each step."""

    def test_rescored_is_score_sequence_bit_for_bit(self, monkeypatch):
        # strong noise on a 5-token model: chains end at different steps, stop
        # at max_len unfinished, repeat each other's outputs and share long
        # prefixes; each chain's rescore is its own teacher-forced replay
        seen = {"lengths": set(), "incomplete": 0, "repeated": 0, "long_shared": 0}
        for kernel_rows in (decode.KERNEL_ROWS, 3):
            monkeypatch.setattr(decode, "KERNEL_ROWS", kernel_rows)
            for seed in range(3):
                params, source = make_params(seed, n_tgt=5, scale=1.2), [3, 4, 3]
                model = BoundModel(params, source)
                for inner, zero_chain, max_len in product(("greedy", "sample"), (True, False),
                                                          (4, 10)):
                    cell = cfg_for(16, 0.9, inner=inner, zero_chain=zero_chain)
                    results = run_chains(model, cell, seed, range(16), DecodeLimits(max_len))
                    for r in results:
                        assert r.rescored_logp == score_sequence(params, source,
                                                                 r.hypothesis.tokens)
                    outputs = [tuple(r.hypothesis.tokens) for r in results]
                    seen["lengths"] |= {len(o) for o in outputs}
                    seen["incomplete"] += sum(not r.hypothesis.complete for r in results)
                    seen["repeated"] += len(outputs) - len(set(outputs))
                    seen["long_shared"] += sum(a != b and a[:3] == b[:3]
                                               for a, b in combinations(set(outputs), 2))
        assert len(seen["lengths"]) >= 4
        assert min(seen["incomplete"], seen["repeated"], seen["long_shared"]) > 0

    def test_one_replay_row_per_distinct_noisy_prefix(self, monkeypatch):
        # step t runs every live chain's row and one replay row per distinct
        # prefix of length t - 1 among the live noisy chains, whichever
        # kernel calls the step is split into
        model_rows = {(0, TableModel.bos): [0.3, 0.3, 0.1, 0.3]}
        for kernel_rows, inner, zero_chain in product((decode.KERNEL_ROWS, 3),
                                                      ("greedy", "sample"), (True, False)):
            monkeypatch.setattr(decode, "KERNEL_ROWS", kernel_rows)
            model = RecordingModel(model_rows, n_tokens=4, default=[0.3, 0.3, 0.15, 0.25],
                                   noise_weight=3.0)
            cell = cfg_for(12, 0.5, inner=inner, zero_chain=zero_chain)
            results = run_chains(model, cell, SEED, range(12), DecodeLimits(6))
            outputs = [r.hypothesis.tokens for r in results]
            assert len({tuple(o) for o in outputs}) > 2
            rows = np.bincount([step for step, _ in model.noise])[1:]
            for t, count in enumerate(rows, start=1):
                live = [(o, r.sigma0_effective) for o, r in zip(outputs, results) if len(o) >= t]
                prefixes = {tuple(o[:t - 1]) for o, sigma0 in live if sigma0}
                assert count == len(live) + len(prefixes)
            assert len(rows) == max(len(o) for o in outputs)


class CountingModel:
    """A bound model that counts the `step_batch` calls and the rows passed
    to them."""

    def __init__(self, model):
        self.model = model
        self.rows = 0
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def step_batch(self, H, prev, noise=None):
        self.rows += prev.size
        self.calls += 1
        return self.model.step_batch(H, prev, noise)


def pick_bits(best):
    return (best.chain_index, best.hypothesis.tokens, best.rescored_logp.hex(),
            best.hypothesis.complete)


def pruned_and_full(model, cell, seed, limits=None):
    """(best, rows) of npad_search with chains dropped, then of the full run."""
    out = []
    for keep_chains in (False, True):
        counted = CountingModel(model)
        best, results = npad_search(counted, cell, seed, limits, keep_chains)
        assert (results is None) != keep_chains
        out.append((best, counted.rows))
    return out


# Every chain kind the bound applies to: noisy greedy chains with and
# without the zero chain, and sampling chains without and with noise.
BOUND_CELLS = [cfg_for(chains, sigma0, inner=inner, zero_chain=zero_chain)
               for chains, sigma0, inner, zero_chain in (
                   (50, 0.3, "greedy", True), (50, 0.3, "greedy", False),
                   (50, 0.5, "greedy", True), (50, 0.5, "greedy", False),
                   (20, 0.0, "sample", False), (20, 0.3, "sample", True))]


class TestCompletedBound:
    """Without kept chain results, a live chain whose non-noisy total is
    strictly below a completed chain's selection score stops, and the
    selection keeps every bit."""

    def test_selection_unchanged_and_rows_dropped_on_the_translate_model(self,
                                                                         frozen_translate):
        params, pairs, _ = frozen_translate
        saved = {}
        for cell in BOUND_CELLS:
            saved[cell] = [0, 0]
            for i, pair in enumerate(pairs):
                (pruned, rows), (full, all_rows) = pruned_and_full(
                    BoundModel(params, pair.source), cell, derive_seed(55, i))
                assert pick_bits(pruned) == pick_bits(full)
                assert rows <= all_rows
                saved[cell][0] += rows
                saved[cell][1] += all_rows
        # the bound must act, or it could switch itself off unseen
        assert all(rows < all_rows for rows, all_rows in saved.values()), saved

    def test_selection_unchanged_on_table_models(self):
        models = [garden_path(noise_weight=4.0),
                  TableModel({(0, TableModel.bos): [0.3, 0.3, 0.1, 0.3]}, n_tokens=4,
                             default=[0.3, 0.3, 0.15, 0.25], noise_weight=3.0)]
        dropped = 0
        for model, cell, seed in product(models, BOUND_CELLS, range(4)):
            (pruned, rows), (full, all_rows) = pruned_and_full(model, cell, seed,
                                                               DecodeLimits(6))
            assert pick_bits(pruned) == pick_bits(full)
            dropped += all_rows - rows
        assert dropped > 0

    @pytest.mark.parametrize("cell", [cfg_for(8, 0.5), cfg_for(8, 0.0, inner="sample",
                                                                   zero_chain=False)])
    def test_a_tie_with_the_bound_is_kept(self, cell):
        # at step 1 the table gives token 0 and EOS log(1/2) each, and token 0
        # is then followed by EOS with probability 1: a chain that took token 0
        # has the total of one that ended at once, and both complete with equal
        # scores. Noise moves token 0's logit, so the greedy chains split too
        model = TableModel({(0, TableModel.bos): [0.5, 0.0, 0.5], (1, 0): [0.0, 0.0, 1.0]},
                           noise_weight=1.0)
        (pruned, rows), (full, all_rows) = pruned_and_full(model, cell, SEED, DecodeLimits(3))
        results = run_chains(model, cell, SEED, range(8), DecodeLimits(3))
        assert {tuple(r.hypothesis.tokens) for r in results} == {(2,), (0, 2)}
        # the lowest-index chain took token 0, so it wins only if its tie was kept
        assert full.hypothesis.tokens == [0, 2] and full.chain_index == 0
        assert pick_bits(pruned) == pick_bits(full)
        assert rows == all_rows

    def test_nothing_dropped_when_no_chain_completes(self):
        never_eos = TableModel({}, default=[0.5, 0.5, 0.0], noise_weight=2.0)
        for cell in BOUND_CELLS:
            (pruned, rows), (full, all_rows) = pruned_and_full(never_eos, cell, SEED,
                                                               DecodeLimits(5))
            assert not full.hypothesis.complete
            assert pick_bits(pruned) == pick_bits(full)
            assert rows == all_rows

    def test_a_dropped_chain_reports_its_prefix(self, tiny_params):
        # run_chains' own results under prune: a dropped chain's result is the
        # prefix it stopped at, flagged incomplete, with that prefix's replay
        model = BoundModel(tiny_params, [3, 4])
        cell = cfg_for(30, 0.8)
        results = run_chains(model, cell, SEED, range(30), DecodeLimits(8), prune=True)
        full = run_chains(model, cell, SEED, range(30), DecodeLimits(8))
        stopped = [r for r, f in zip(results, full) if r.hypothesis.tokens != f.hypothesis.tokens]
        assert stopped
        for r in stopped:
            assert not r.hypothesis.complete
            assert r.rescored_logp == score_sequence(tiny_params, [3, 4], r.hypothesis.tokens)
            assert r.rescored_logp < select_best(full).rescored_logp
        assert select_best(results) == select_best(full)

    def test_beam_searches_refuse_to_prune(self, tiny_params):
        with pytest.raises(ContractError, match="only pick searches"):
            decode.search_rows(BoundModel(tiny_params, [3]), 2, 2, prune=True)


class TestZeroChainFirst:
    """Without kept chain results, a greedy npad cell's zero chain runs alone
    first, and its completed score bounds the noisy chains from step 1."""

    def test_noisy_chains_below_the_zero_chain_stop_at_step_1(self):
        # step 1 gives token 0 probability 0.2 and token 1 0.8, and EOS follows
        # token 1 with probability 1: the zero chain completes [1, 2] at log
        # 0.8 in step 2. Noise pushes some chains onto token 0, whose non-noisy
        # log 0.2 is below that at step 1, when no chain of theirs has completed
        model = TableModel({(0, TableModel.bos): [0.2, 0.8, 0.0], (1, 1): [0.0, 0.0, 1.0]},
                           default=[1.0, 1.0, 0.0], noise_weight=3.0)
        cell = cfg_for(12, 0.5)
        pruned = run_chains(model, cell, SEED, range(12), DecodeLimits(4), prune=True)
        full = run_chains(model, cell, SEED, range(12), DecodeLimits(4))
        zero = full[0].hypothesis
        assert (zero.tokens, zero.complete) == ([1, 2], True)
        assert zero.logp == pytest.approx(math.log(0.8))
        stopped = [r for r, f in zip(pruned, full) if f.hypothesis.tokens[0] == 0]
        assert stopped and len(stopped) < 11
        for r in stopped:
            assert r.hypothesis == Hypothesis([0], r.noisy_logp, False)
            assert [r.rescored_logp] == forced_scores(model, [[0]], 1)
            assert r.rescored_logp == pytest.approx(math.log(0.2))
        assert [r for r, f in zip(pruned, full) if f.hypothesis.tokens[0] != 0] == \
            [f for f in full if f.hypothesis.tokens[0] != 0]
        assert select_best(pruned) == select_best(full)

    def test_an_unfinished_zero_chain_bounds_nothing(self):
        # after token 1 the table gives token 1 0.6 and EOS 0.4, so at max_len
        # 2 the zero chain stops unfinished at log 0.8 + log 0.6, above the log
        # 0.2 of the chains that noise pushed onto token 0 and then EOS. Those
        # complete, so one of them is selected and none may stop
        model = TableModel({(0, TableModel.bos): [0.2, 0.8, 0.0], (1, 0): [0.0, 0.0, 1.0],
                            (1, 1): [0.0, 0.6, 0.4]}, noise_weight=3.0)
        cell = cfg_for(12, 0.5)
        (pruned, rows), (full, all_rows) = pruned_and_full(model, cell, SEED, DecodeLimits(2))
        assert not run_chains(model, cell, SEED, [0], DecodeLimits(2))[0].hypothesis.complete
        assert full.hypothesis.tokens == [0, 2] and full.chain_index > 0
        assert pick_bits(pruned) == pick_bits(full)
        assert rows == all_rows

    @pytest.mark.parametrize("cell, runs", [
        (cfg_for(8, 0.5), 2),
        (cfg_for(8, 0.5, zero_chain=False), 1),
        (cfg_for(4, 0.5, width=2), 1),
        (cfg_for(8, 0.0, inner="sample", zero_chain=False), 1),
        (cfg_for(8, 0.3, inner="sample"), 1)])
    def test_only_greedy_npad_with_its_zero_chain_runs_it_first(self, cell, runs):
        # every sequence ends at step 3, so nothing drops: a search costs 3
        # calls, and only the zero-chain pre-pass doubles them
        model = TableModel({(2, 0): [0.0, 0.0, 1.0], (2, 1): [0.0, 0.0, 1.0]},
                           default=[1.0, 1.0, 0.0], noise_weight=2.0)
        calls = []
        for keep_chains in (True, False):
            counted = CountingModel(model)
            npad_search(counted, cell, SEED, DecodeLimits(5), keep_chains)
            calls.append(counted.calls)
        rescore = 3 if cell.beam_width and cell.beam_width > 1 else 0
        assert calls == [3 + rescore, 3 * runs + rescore]

    def test_rows_fall_to_at_most_0_7_of_the_full_run(self, frozen_translate):
        params, pairs, _ = frozen_translate
        rows = all_rows = 0
        for i, pair in enumerate(pairs):
            (pruned, r), (full, a) = pruned_and_full(BoundModel(params, pair.source),
                                                     cfg_for(50, 0.3), derive_seed(55, i))
            assert pick_bits(pruned) == pick_bits(full)
            rows, all_rows = rows + r, all_rows + a
        assert rows <= 0.7 * all_rows, (rows, all_rows)
