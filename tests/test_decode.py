import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npad import decode
from npad.chains import _chain_noise, run_chains
from npad.core import ContractError, RngStream, derive_seed
from npad.decode import (
    DecodeLimits,
    SearchSpaceError,
    beam_search,
    default_limits,
    exact_search,
    force_score,
    forced_scores,
    greedy_search,
    score_sequence,
    search_rows,
)
from npad.evaluate import MAX_ROWS, Cell
from npad.model import EOS, BoundModel, VocabError
from npad.tasks import ConfigError
from conftest import make_params
from table_models import TableModel, garden_path, point_mass_eos


def random_case(seed):
    """Small random model plus a random source for equivalence sweeps."""
    rng = RngStream(seed)
    params = make_params(seed, d_emb=2, d_hid=3, n_src=5, n_tgt=4,
                         scale=0.5 + float(rng.uniform_vec(())))
    src_len = 1 + int(rng.integers(0, 3))
    source = [3 + int(rng.integers(0, 2)) for _ in range(src_len)]
    return params, source


def random_model(seed):
    """`random_case` bound: the model the decoders run on."""
    return BoundModel(*random_case(seed))


def samples(model, n, seed, limits=None):
    """n ancestral samples, run as the lockstep chains of sample cells of at
    most MAX_ROWS chains each, the k-th cell's from seed + k."""
    hyps = []
    for k, start in enumerate(range(0, n, MAX_ROWS)):
        cell = Cell(strategy="sample", chains=min(MAX_ROWS, n - start))
        results = run_chains(model, cell, seed + k, range(cell.chains), limits)
        hyps += [r.hypothesis for r in results]
    return hyps


class TestNoiseSchedule:
    """The sigma_t = sigma0 / t schedule as the chains draw it: each noisy
    chain's rows take the next standard normal rows of its stream."""

    @staticmethod
    def stream(seed, m, rows, dim):
        """Chain m's standard normal noise rows, unscaled."""
        return RngStream(derive_seed(derive_seed(seed, m), 0)).normal_vec((rows, dim))

    @staticmethod
    def one_row_per_step(noise, chains, steps):
        """The noise of `chains` one-row searches over `steps` steps, (steps, chains, d)."""
        return np.stack([noise(t, np.arange(chains)) for t in range(1, steps + 1)])

    def test_inverse_t_values(self):
        cell = Cell(strategy="npad", chains=2, sigma0=0.3)
        rows = self.one_row_per_step(_chain_noise(cell, 5, [0, 1], 4, (16, 7)), 2, 7)
        z = self.stream(5, 1, 7, 4)
        assert np.array_equal(rows[0, 1], z[0] * 0.3)
        assert np.array_equal(rows[1, 1], z[1] * (0.3 / 2))
        assert np.allclose(rows[1, 1], z[1] * 0.15, rtol=1e-15, atol=0)
        assert not rows[:, 0].any()
        silent = Cell(strategy="npad", chains=2, sigma0=0.0, include_zero_chain=False)
        assert _chain_noise(silent, 0, [0, 1], 4, (16, 7)) is None

    def test_strictly_decreasing(self):
        cell = Cell(strategy="npad", chains=2, sigma0=0.5)
        rows = self.one_row_per_step(_chain_noise(cell, 9, [1], 6, (16, 19)), 1, 19)[:, 0]
        z = self.stream(9, 1, 19, 6)
        sigmas = np.linalg.norm(rows, axis=1) / np.linalg.norm(z, axis=1)
        assert np.allclose(sigmas, 0.5 / np.arange(1, 20), rtol=1e-12, atol=0)
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_rejects_bad_args(self):
        for bad in (-0.1, -1e-300):
            with pytest.raises(ConfigError):
                Cell(strategy="npad", chains=2, sigma0=bad)

    def test_rows_and_table_equal_successive_vectors(self):
        # each chain walks its one stream in step order, whatever its row
        # count: chain 1 has one row at step 1 and two from step 2 on, chain 2
        # one row throughout, so at step 3 chain 1 takes stream rows 3 and 4;
        # a first block of one row makes every step grow the table
        cell = Cell(strategy="npad", chains=3, sigma0=0.7)
        noise = _chain_noise(cell, 8, [1, 2], 5, (1, 12))
        steps = [noise(1, np.array([0, 1])), noise(2, np.array([0, 0, 1])),
                 noise(3, np.array([0, 0, 1]))]
        z1, z2 = self.stream(8, 1, 5, 5), self.stream(8, 2, 3, 5)
        assert np.array_equal(steps[0], np.stack([z1[0], z2[0]]) * 0.7)
        assert np.array_equal(steps[1], np.stack([z1[1], z1[2], z2[1]]) * (0.7 / 2))
        assert np.array_equal(steps[2], np.stack([z1[3], z1[4], z2[2]]) * (0.7 / 3))

    def test_non_finite_sigma0_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                Cell(strategy="npad", chains=2, sigma0=bad)


def test_long_searches_keep_every_token():
    # a search's tokens grow in blocks as it steps: 150 steps of a model
    # whose step-t favourite is t % 2 keep every token, in greedy and in beam
    rows = {(t, prev): [0.6, 0.3, 0.1] if t % 2 == 0 else [0.3, 0.6, 0.1]
            for t in range(150) for prev in (0, 1, TableModel.bos)}
    model = TableModel(rows)
    alternating = [t % 2 for t in range(150)]
    assert greedy_search(model, DecodeLimits(150)).tokens == alternating
    best, completed = beam_search(model, 2, limits=DecodeLimits(150))
    assert best.tokens == alternating and not best.complete and completed == []


def test_default_limits_follow_source_length():
    assert default_limits(4).max_len == 13
    with pytest.raises(ContractError):
        DecodeLimits(0)


def test_limits_and_widths_are_integers(tiny_params):
    # 2.5 and True were accepted and failed later inside the search, or ran
    # as another width; a numpy integer is an integer
    model = BoundModel(tiny_params, [3])
    for bad in (2.5, 3.0, True):
        with pytest.raises(ContractError, match="max_len must be an integer"):
            DecodeLimits(bad)
        with pytest.raises(ContractError, match="beam width must be an integer"):
            beam_search(model, bad)
        with pytest.raises(ContractError, match="beam width must be an integer"):
            search_rows(model, 2, bad)
    assert DecodeLimits(np.int64(3)).max_len == 3
    assert beam_search(model, np.int64(3)) == beam_search(model, 3)


class TestGreedy:
    def test_point_mass_stops_immediately(self):
        hyp = greedy_search(point_mass_eos(), limits=DecodeLimits(5))
        assert hyp.tokens == [TableModel.eos]
        assert hyp.logp == pytest.approx(0.0, abs=1e-12)
        assert hyp.complete

    def test_silent_noise_deterministic(self, tiny_params):
        model = BoundModel(tiny_params, [3, 4])
        a = greedy_search(model)
        b = greedy_search(model)
        assert a.tokens == b.tokens and a.logp == b.logp

    def test_hand_set_table_path(self):
        # stepwise argmax by hand: 0 (0.6), then EOS (0.5)
        hyp = greedy_search(garden_path(), limits=DecodeLimits(3))
        assert hyp.tokens == [0, TableModel.eos]
        assert hyp.logp == pytest.approx(math.log(0.6 * 0.5), abs=1e-12)

    def test_incomplete_flagged_at_max_len(self):
        never_eos = TableModel({}, default=[0.5, 0.5, 0.0])
        hyp = greedy_search(never_eos, limits=DecodeLimits(4))
        assert not hyp.complete
        assert len(hyp.tokens) == 4


class TestBeam:
    def test_k1_equals_greedy_thousand_cases(self):
        for seed in range(1000):
            model = random_model(seed)
            g = greedy_search(model)
            b, _ = beam_search(model, 1)
            assert g.tokens == b.tokens, f"seed {seed}"
            assert g.logp == b.logp
            assert g.complete == b.complete

    def test_huge_beam_matches_exact_oracle(self):
        # the last case has 3^7 prefixes at its deepest level, more than one
        # kernel call of the exhaustive search takes
        for seed, max_len in [(seed, 3) for seed in range(30)] + [(30, 8)]:
            model = random_model(seed)
            limits = DecodeLimits(max_len)
            e = exact_search(model, limits)
            b, _ = beam_search(model, 4 ** max_len, limits=limits)
            assert b.tokens == e.tokens, f"seed {seed}"
            assert b.logp == e.logp

    def test_garden_path_beats_greedy(self):
        model = garden_path()
        limits = DecodeLimits(3)
        g = greedy_search(model, limits=limits)
        b, _ = beam_search(model, 2, limits=limits)
        assert b.logp > g.logp
        assert b.tokens == [1, TableModel.eos]
        assert b.logp == pytest.approx(math.log(0.39 * 0.98), abs=1e-12)
        # verified against full enumeration
        e = exact_search(model, limits)
        assert e.tokens == b.tokens and e.logp == b.logp

    def test_live_width_shrinks_as_hypotheses_complete(self):
        model = garden_path()
        _, completed = beam_search(model, 2, limits=DecodeLimits(3))
        assert len(completed) == 2
        assert sorted(h.tokens for h in completed) == [[0, 2], [1, 2]]

    def test_incomplete_beam_flagged(self):
        # width 2 over two always-viable tokens: EOS never enters the beam
        never_eos = TableModel({}, default=[0.5, 0.5, 0.0])
        best, completed = beam_search(never_eos, 2, limits=DecodeLimits(3))
        assert completed == []
        assert not best.complete

    def test_rejects_bad_width(self, tiny_params):
        with pytest.raises(ContractError):
            beam_search(BoundModel(tiny_params, [3]), 0)

    def test_exact_ties_break_by_parent_then_token(self):
        # four equal step-1 scores keep tokens 0 and 1 (token asc); at step 2
        # four candidates tie again and parent [0]'s EOS and token 3 win
        # (parent asc, then token asc); [0, 3] then completes through row (2, 3)
        rows = {
            (0, TableModel.bos): [0.25, 0.25, 0.25, 0.25],
            (1, 0): [0.1, 0.1, 0.4, 0.4],
            (1, 1): [0.4, 0.4, 0.1, 0.1],
            (2, 3): [0.0, 0.0, 1.0, 0.0],
        }
        model = TableModel(rows, n_tokens=4)
        best, completed = beam_search(model, 2, limits=DecodeLimits(3))
        assert [h.tokens for h in completed] == [[0, 2], [0, 3, 2]]
        assert completed[0].logp == completed[1].logp
        assert completed[0].logp == pytest.approx(math.log(0.25 * 0.4), abs=1e-12)
        assert best.tokens == [0, 2]
        # equal-score siblings rank by token ascending for the diversity penalty
        ranks = TableModel({(0, TableModel.bos): [0.3, 0.3, 0.1, 0.3]}, n_tokens=4,
                           default=[0.0, 0.0, 1.0, 0.0])
        _, done = beam_search(ranks, 2, limits=DecodeLimits(2), eta=1.0)
        assert [h.tokens for h in done] == [[0, 2], [1, 2]]


def per_search_top_k(raw, logp, beams, k_live, eta):
    """`decode._top_k` by one stable argsort per search over the candidates
    of the rows `beams` maps to it, in (parent, token) order, with each row's
    token ranks set one row at a time."""
    n_tokens = logp.shape[1]
    sel = raw.copy()
    if eta:
        for i, row in enumerate(logp):
            sel[i, np.argsort(-row, kind="stable")] -= eta * np.arange(1.0, n_tokens + 1)
    chosen = []
    for s, k in enumerate(k_live):
        rows = np.flatnonzero(beams == s)
        if rows.size:
            order = np.argsort(-sel[rows].ravel(), kind="stable")[:k]
            chosen += (order + rows[0] * n_tokens).tolist()
    return chosen


class TestTopK:
    @pytest.mark.parametrize("eta", [0.0, 0.7])
    def test_equals_per_search_reference(self, eta):
        # small integer scores tie exactly across parents and across tokens;
        # search 1 has no rows left, and search 2's one row has fewer
        # candidates than its live width, one of them NaN
        n_tokens = 4
        rows = np.array([3, 0, 1, 6, 2])
        k_live = np.array([4, 2, 6, 6, 2])
        beams = np.repeat(np.arange(rows.size), rows)
        ties = 0
        for seed in range(50):
            rng = RngStream(seed)
            logp = rng.integers(-3, 1, size=(beams.size, n_tokens)).astype(float)
            logp[0, 1], logp[3, 2] = -np.inf, np.nan
            raw = rng.integers(-2, 1, size=(beams.size, 1)) + logp
            got = decode._top_k(raw, logp, beams, k_live, eta)
            want = per_search_top_k(raw, logp, beams, k_live, eta)
            assert got.tolist() == want, f"seed {seed}"
            ties += len(set(raw.ravel()[want].tolist())) < len(want)
        assert ties > 40

    @staticmethod
    def lone(raw, k, eta=0.0, logp=None):
        """`_top_k` of one search over every row of `raw`, checked against the
        reference; returns the chosen flat indices."""
        logp = raw if logp is None else logp
        beams, k_live = np.zeros(raw.shape[0], dtype=np.int64), np.array([k])
        got = decode._top_k(raw, logp, beams, k_live, eta).tolist()
        assert got == per_search_top_k(raw, logp, beams, k_live, eta)
        return got

    @pytest.mark.parametrize("eta", [0.0, 0.7])
    @pytest.mark.parametrize("rows, n_tokens", [(10, 35), (3, 1000)])
    def test_lone_search_equals_reference(self, rows, n_tokens, eta):
        # a beam-10 step: the shapes beam-translate and a larger vocabulary give
        for seed in range(20):
            rng = RngStream(seed)
            logp = rng.uniform_vec((rows, n_tokens), -8.0, 0.0)
            raw = rng.uniform_vec((rows, 1), -5.0, 0.0) + logp
            assert len(self.lone(raw, 10, eta, logp)) == 10

    def test_ties_at_the_kth_value_break_by_parent_then_token(self):
        # by hand: two 0s, then four -1s of which the first in flat order
        raw = np.array([[0.0, -1.0, -1.0], [-1.0, 0.0, -1.0]])
        assert self.lone(raw, 3) == [0, 4, 1]
        # every value equal: the first k in flat order
        assert self.lone(np.zeros((10, 35)), 10) == list(range(10))
        # small integer scores tie at the k-th value across several parents
        for seed in range(20):
            rng = RngStream(seed)
            raw = rng.integers(-4, 1, size=(10, 35)).astype(float)
            got = self.lone(raw, 10)
            bound = raw.ravel()[got[-1]]
            assert np.count_nonzero(raw >= bound) > 10
            assert np.unique(np.flatnonzero(raw.ravel() == bound) // 35).size > 1

    def test_minus_inf_at_the_kth_value(self):
        # three finite expansions for a width of 5: two -inf ones fill it, in flat order
        raw = np.full((4, 6), -np.inf)
        raw[1, 2], raw[3, 0], raw[0, 5] = -1.0, -0.5, -2.0
        assert self.lone(raw, 5) == [18, 8, 5, 0, 1]

    def test_fewer_non_nan_values_than_k(self):
        # the k-th value is NaN: NaNs come last, in flat order
        raw = np.full((3, 4), np.nan)
        raw[2, 1], raw[0, 3], raw[1, 1] = -1.0, -3.0, -np.inf
        assert self.lone(raw, 5) == [9, 3, 5, 0, 1]
        assert self.lone(raw, 2) == [9, 3]

    def test_k_at_least_the_number_of_candidates(self):
        raw = np.array([[-2.0, -1.0, -1.0], [0.0, -3.0, -1.0]])
        for k in (6, 7, 10):
            assert self.lone(raw, k) == [3, 1, 2, 5, 0, 4]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), eta=st.sampled_from([0.0, 0.7]))
    def test_any_searches_equal_reference(self, data, eta):
        n_tokens = data.draw(st.integers(1, 8), label="n_tokens")
        rows = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)
                         .filter(any), label="rows per search")
        k_live = np.array(data.draw(st.lists(st.integers(1, 10), min_size=len(rows),
                                             max_size=len(rows)), label="k_live"))
        beams = np.repeat(np.arange(len(rows)), rows)
        value = st.one_of(st.integers(-3, 0).map(float),
                          st.sampled_from([-np.inf, np.nan]), st.floats(-5.0, 0.0))
        cells = data.draw(st.lists(value, min_size=2 * beams.size * n_tokens,
                                   max_size=2 * beams.size * n_tokens), label="values")
        logp, raw = np.array(cells).reshape(2, beams.size, n_tokens)
        got = decode._top_k(raw, logp, beams, k_live, eta)
        assert got.tolist() == per_search_top_k(raw, logp, beams, k_live, eta)


def test_step_split_at_kernel_rows_gives_one_calls_bits(monkeypatch, tiny_params):
    model = BoundModel(tiny_params, [3, 4, 3])
    rng = RngStream(4)
    H = rng.uniform_vec((8, tiny_params.dims.d_hid), -1.0, 1.0)
    prev = rng.integers(0, tiny_params.dims.n_tgt, size=8)
    noise = rng.uniform_vec(H.shape, -0.5, 0.5)
    sizes = []
    step_batch = BoundModel.step_batch
    monkeypatch.setattr(BoundModel, "step_batch", lambda self, H, prev, noise=None:
                        sizes.append(prev.size) or step_batch(self, H, prev, noise))
    whole = [decode._step(model, H, prev, rows_noise) for rows_noise in (noise, None)]
    monkeypatch.setattr(decode, "KERNEL_ROWS", 3)
    split = [decode._step(model, H, prev, rows_noise) for rows_noise in (noise, None)]
    assert sizes == [8, 8] + [3, 3, 2] * 2
    for one, parts in zip(whole, split):
        assert all(np.array_equal(a, b) for a, b in zip(one, parts))


class TestSample:
    def test_point_mass_always_same(self):
        for hyp in samples(point_mass_eos(), 20, seed=0, limits=DecodeLimits(4)):
            assert hyp.tokens == [TableModel.eos]

    def test_same_seed_same_sample(self, tiny_params):
        model = BoundModel(tiny_params, [3, 4])
        a = samples(model, 5, seed=5)
        b = samples(model, 5, seed=5)
        assert [(h.tokens, h.logp) for h in a] == [(h.tokens, h.logp) for h in b]

    def test_empirical_frequencies_match_enumeration(self):
        model = garden_path()
        limits = DecodeLimits(2)
        # enumerate the full outcome space of a 2-step decode by hand
        expected = {
            (2,): 0.01,
            (0, 2): 0.6 * 0.5, (1, 2): 0.39 * 0.98,
            (0, 0): 0.6 * 0.25, (0, 1): 0.6 * 0.25,
            (1, 0): 0.39 * 0.01, (1, 1): 0.39 * 0.01,
        }
        n = 100_000
        counts = {}
        for hyp in samples(model, n, seed=99, limits=limits):
            key = tuple(hyp.tokens)
            counts[key] = counts.get(key, 0) + 1
        assert sum(expected.values()) == pytest.approx(1.0, abs=1e-12)
        for key, p in expected.items():
            assert counts.get(key, 0) / n == pytest.approx(p, abs=0.01)


class TestDiverse:
    def test_eta_zero_identical_to_beam(self):
        for seed in range(200):
            model = random_model(seed)
            b_best, b_done = beam_search(model, 3)
            d_best, d_done = beam_search(model, 3, eta=0.0)
            assert d_best.tokens == b_best.tokens
            assert d_best.logp == b_best.logp
            assert [(h.tokens, h.logp) for h in d_done] == [(h.tokens, h.logp) for h in b_done]

    def test_k1_equals_greedy_for_any_eta(self):
        for seed in range(100):
            model = random_model(seed)
            g = greedy_search(model)
            for eta in (0.001, 0.1, 1.0, 10.0):
                d, _ = beam_search(model, 1, eta=eta)
                assert d.tokens == g.tokens and d.logp == g.logp

    def test_large_eta_flips_second_slot_to_other_parent(self):
        # under parent [0]: EOS 0.4 (rank 1) vs token 0 0.38 (rank 2);
        # parent [1]'s best child EOS has 0.3*0.55; the flip needs
        # eta > ln(0.19/0.165) ~ 0.141
        rows = {
            (0, TableModel.bos): [0.5, 0.3, 0.2],
            (1, 0): [0.38, 0.22, 0.4],
            (1, 1): [0.25, 0.2, 0.55],
        }
        model = TableModel(rows)
        limits = DecodeLimits(2)
        # step 1 keeps parents [0] and [1] either way; the flip is at step 2
        _, small_eta = beam_search(model, 2, limits=limits, eta=0.001)
        assert sorted(h.tokens for h in small_eta) == [[0, 2]]
        _, large_eta = beam_search(model, 2, limits=limits, eta=1.0)
        assert sorted(h.tokens for h in large_eta) == [[0, 2], [1, 2]]
        flipped = [h for h in large_eta if h.tokens == [1, 2]][0]
        assert flipped.logp == pytest.approx(math.log(0.3) + math.log(0.55), abs=1e-12)

    def test_rejects_negative_eta(self, tiny_params):
        with pytest.raises(ContractError):
            beam_search(BoundModel(tiny_params, [3]), 2, eta=-0.5)

    def test_rejects_eta_that_overflows(self, tiny_params):
        # eta * rank near the float maximum ranked every lower expansion -inf
        model = BoundModel(tiny_params, [3])
        beam_search(model, 2, eta=decode.MAX_SCALE)
        for bad in (1.7e308, math.inf, math.nan):
            with pytest.raises(ContractError, match="eta must be finite, >= 0 and <= 1e"):
                beam_search(model, 2, eta=bad)

    @pytest.mark.filterwarnings("error")
    def test_numpy_float_eta_compares_without_a_warning(self, tiny_params):
        # the bound 1e100 cast to float32 or float16 overflowed with a warning
        model = BoundModel(tiny_params, [3])
        for kind in (np.float32, np.float16):
            assert beam_search(model, 2, eta=kind(0.5)) == beam_search(model, 2, eta=0.5)


class TestExact:
    def test_point_mass_forced_sequence(self):
        hyp = exact_search(point_mass_eos(), DecodeLimits(4))
        assert hyp.tokens == [TableModel.eos]

    def test_uniform_model_prefers_shortest(self, tiny_params):
        p = tiny_params.copy()
        p.tensors["out.W"][:] = 0.0
        p.tensors["out.b"][:] = 0.0
        hyp = exact_search(BoundModel(p, [3]), DecodeLimits(3))
        assert hyp.tokens == [EOS]
        assert hyp.logp == pytest.approx(-math.log(4), abs=1e-12)

    def test_dominates_other_decoders(self):
        # the chain e >= b >= g compares complete hypotheses only: an
        # unfinished prefix's logp is not a sequence probability
        chains_checked = 0
        for seed in range(40):
            params, source = random_case(seed)
            model = BoundModel(params, source)
            limits = DecodeLimits(3)
            e = exact_search(model, limits)
            b, _ = beam_search(model, 10, limits=limits)
            g = greedy_search(model, limits=limits)
            assert e.complete
            if b.complete:
                assert e.logp >= b.logp
            if b.complete and g.complete:
                assert b.logp >= g.logp
                chains_checked += 1
            for hyp in (e, b, g):
                if hyp.complete:
                    assert score_sequence(params, source, hyp.tokens) == pytest.approx(hyp.logp, abs=1e-9)
        assert chains_checked >= 10, f"only {chains_checked} fully comparable cases"

    def test_matches_brute_force_scores(self, tiny_params):
        limits = DecodeLimits(3)
        source = [3, 4]
        best_logp, best_tokens = -np.inf, None
        others = [t for t in range(4) if t != EOS]
        for length in range(1, 4):
            for prefix in product(others, repeat=length - 1):
                tokens = list(prefix) + [EOS]
                lp = score_sequence(tiny_params, source, tokens)
                if lp > best_logp or (lp == best_logp and tokens < best_tokens):
                    best_logp, best_tokens = lp, tokens
        hyp = exact_search(BoundModel(tiny_params, source), limits)
        assert hyp.tokens == best_tokens
        assert hyp.logp == pytest.approx(best_logp, abs=1e-12)

    def test_equal_scores_across_depths_break_lexicographically(self):
        # [0, EOS] and [EOS] both score log 0.4; [0, EOS] wins because
        # hypotheses order by their tokens on ties, not shortest first
        eos = TableModel.eos
        model = TableModel({(0, TableModel.bos): [0.4, 0.2, 0.4], (1, 0): [0.0, 0.0, 1.0]})
        limits = DecodeLimits(3)
        hyp = exact_search(model, limits)
        assert hyp.tokens == [0, eos] and [hyp.logp] == forced_scores(model, [[eos]], 3)
        best, completed = beam_search(model, 3, limits=limits)
        assert best == hyp and [eos] in [h.tokens for h in completed]

    @pytest.mark.parametrize("rows, best", [
        ({(1, 0): [0, 0, 1, 0], (1, 3): [0, 0, 1, 0]}, [0]),
        ({(1, 0): [0, 0, 0, 1], (1, 3): [1, 0, 0, 0], (2, 0): [0, 0, 1, 0],
          (2, 3): [0, 0, 1, 0]}, [0, 3])])
    def test_equal_scores_within_one_depth_break_lexicographically(self, rows, best):
        # [0, EOS] ties [3, EOS], and [0, 3, EOS] ties [3, 0, EOS], at log 0.5:
        # the lexicographically smaller one wins, not the later one
        eos = TableModel.eos
        model = TableModel({(0, TableModel.bos): [0.5, 0.0, 0.0, 0.5], **rows}, n_tokens=4)
        limits = DecodeLimits(3)
        hyp = exact_search(model, limits)
        assert hyp.tokens == best + [eos] and hyp.logp == np.log(0.5)
        assert beam_search(model, 4, limits=limits)[0] == hyp

    def test_refuses_huge_spaces(self, tiny_params):
        with pytest.raises(SearchSpaceError):
            exact_search(BoundModel(tiny_params, [3]), DecodeLimits(15))


class TestReplaySoundness:
    def test_batched_rescoring_equals_single_replays(self):
        for seed in range(20):
            params, source = random_case(seed)
            model = BoundModel(params, source)
            # what a search of max_len 4 emits: each ends at its EOS or has 4 tokens
            seqs = [[3, 2], [2], [3, 3, 1, 2], [3, 2], [1, 0, 3, 3]]
            scores = forced_scores(model, seqs, 4)
            assert scores == [force_score(model, s) for s in seqs]
            assert scores == [score_sequence(params, source, s) for s in seqs]
            assert force_score(model, [1, 0, 3]) == score_sequence(params, source, [1, 0, 3])
        for seqs in ([[3], []], [[3, 2], [3, 3, 3, 3, 2]]):
            with pytest.raises(ContractError):
                forced_scores(model, seqs, 4)
        # no EOS and shorter than max_len: the pick would run past its tokens
        with pytest.raises(ContractError):
            forced_scores(BoundModel(make_params(7), [3, 4]), [[0]], 4)

    def test_rescoring_rejects_out_of_range_tokens(self):
        model = random_model(0)
        for bad in (-1, model.n_tokens, 2**63, 2**70, -2**63 - 1):
            for seq in ([bad], [1, 0, bad], [3, bad, 2]):
                with pytest.raises(VocabError):
                    force_score(model, seq)
        with pytest.raises(ContractError):
            force_score(model, [])
        assert forced_scores(model, [[0, model.n_tokens - 1]], 2) == [
            force_score(model, [0, model.n_tokens - 1])]
        # a negative index would score the last vocabulary column
        with pytest.raises(VocabError):
            forced_scores(BoundModel(make_params(7), [3, 4]), [[-1, EOS]], 3)

    def test_force_score_refuses_eos_before_its_last_token(self):
        # a forced search ends at the first EOS and would score only a prefix
        model = random_model(0)
        for seq in ([3, EOS, 3], [EOS, EOS], [EOS, 1, 0, EOS]):
            with pytest.raises(ContractError):
                force_score(model, seq)
        with pytest.raises(ContractError):
            forced_scores(BoundModel(make_params(7), [3, 4]), [[3, EOS, 3]], 3)
        assert force_score(model, [3, 1, EOS]) == score_sequence(*random_case(0), [3, 1, EOS])

    def test_silent_decoders_replay_to_their_logp(self):
        for seed in range(100):
            params, source = random_case(seed)
            model = BoundModel(params, source)
            hyps = [greedy_search(model)]
            hyps.append(beam_search(model, 3)[0])
            hyps.append(beam_search(model, 3, eta=0.01)[0])
            hyps += samples(model, 3, seed)
            for hyp in hyps:
                assert score_sequence(params, source, hyp.tokens) == hyp.logp

    def test_all_decoders_respect_max_len(self):
        never_eos = TableModel({}, default=[0.5, 0.5, 0.0])
        limits = DecodeLimits(3)
        assert len(greedy_search(never_eos, limits=limits).tokens) <= 3
        assert len(beam_search(never_eos, 2, limits=limits)[0].tokens) <= 3
        assert all(len(h.tokens) <= 3 for h in samples(never_eos, 3, 0, limits))
        assert len(beam_search(never_eos, 2, limits=limits, eta=0.5)[0].tokens) <= 3


def test_table_model_rows_match_the_per_row_formula():
    # TableModel.step_batch computes its rows together; each must be the
    # per-row formula, bit for bit, whatever rows stand beside it
    rng = RngStream(0)
    for model in (garden_path(noise_weight=1.5), point_mass_eos(4), TableModel({}, n_tokens=5)):
        for trial in range(30):
            B = 1 + int(rng.integers(0, 20))
            H = np.stack([rng.normal_vec(B), rng.integers(0, 4, B).astype(float)], axis=1)
            prev = rng.integers(0, model.n_tokens, B)
            noise = None if trial % 2 else rng.normal_vec((B, 1))
            H_next, logp = model.step_batch(H, prev, noise)
            for i, ((h, t), p) in enumerate(zip(H, prev)):
                row = model.rows.get((int(t), int(p)), model.default)
                with np.errstate(divide="ignore"):
                    logits = np.log(row / row.sum())
                    if model.noise_weight and noise is not None:
                        logits[0] += model.noise_weight * float(h + noise[i, 0])
                    shifted = logits - logits.max()
                    expected = shifted - np.log(np.exp(shifted).sum())
                assert np.array_equal(logp[i], expected)
                assert H_next[i].tolist() == [0.0, t + 1]
