import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from npad.core import ContractError, RngStream
from npad.decode import score_sequence
from npad.model import EOS, Dims, init_params
from npad.tasks import TASK_KINDS, SequencePair, gen_task, split_pairs
from npad import backprop
from npad.train import (
    DivergenceError,
    TrainConfig,
    clip_gradients,
    grad_check,
    grad_global_norm,
    nll_loss,
    relative_errors,
    train,
    valid_nll,
)
from conftest import make_params

# The package re-exports the function `train` under the module's name.
train_module = importlib.import_module("npad.train")


def small_params(seed=3):
    # d_hid=3, d_emb=2: ~360 parameters, cheap to finite-difference
    return make_params(seed, d_emb=2, d_hid=3, n_src=5, n_tgt=4, scale=0.5)


PAIR = SequencePair((3, 4), (3, 1, EOS))


class TestLoss:
    def test_uniform_model_analytic(self, tiny_params):
        p = tiny_params.copy()
        p.tensors["out.W"][:] = 0.0
        p.tensors["out.b"][:] = 0.0
        pair = SequencePair((3,), (3, 3, EOS))
        loss, _ = nll_loss(p, [pair])
        assert loss == pytest.approx(3 * math.log(4), abs=1e-12)

    def test_duplicated_batch_same_mean(self, tiny_params):
        batch = [PAIR, SequencePair((4, 3), (1, EOS))]
        one, _ = nll_loss(tiny_params, batch)
        two, _ = nll_loss(tiny_params, batch + batch)
        assert two == pytest.approx(one, rel=1e-12)

    def test_loss_matches_score_sequence(self, tiny_params):
        loss, _ = nll_loss(tiny_params, [PAIR])
        # training and scoring run the same kernel: the values agree bit for bit
        assert loss == -score_sequence(tiny_params, PAIR.source, PAIR.target)

    def test_empty_batch_rejected(self, tiny_params):
        with pytest.raises(ContractError):
            nll_loss(tiny_params, [])

    def test_divergence_detected(self, tiny_params):
        p = tiny_params.copy()
        p.tensors["out.W"][0, 0] = 1e308   # overflow in the readout
        with np.errstate(all="ignore"), pytest.raises((DivergenceError, ContractError)):
            nll_loss(p, [PAIR])


def random_pairs(lengths, seed, n_src=35, n_tgt=35):
    """One pair per (source length, target length), with random content tokens."""
    rng = RngStream(seed)
    return [SequencePair(tuple(int(x) for x in rng.integers(3, n_src, size=ls)),
                         tuple(int(x) for x in rng.integers(3, n_tgt, size=lt - 1)) + (EOS,))
            for ls, lt in lengths]


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


class TestRowsMatchPerPairReference:
    """Training runs a batch's pairs as rows; every bit of loss and gradient is
    that of the per-pair reference in tests/reference.py."""

    BATCHES = {
        "one pair": [(5, 6)],
        "one group": [(4, 5)] * 6,
        "two groups": [(3, 4)] * 3 + [(6, 7)] * 4,
        "interleaved": [(3, 4), (5, 6), (3, 4), (3, 5), (5, 6), (3, 4), (1, 2), (5, 6)],
        "more than a window": [(4, 5), (2, 3)] * backprop.WINDOW,
        # a group is a maximal run of consecutive pairs of equal lengths, cut
        # at WINDOW pairs: this batch runs as ten small groups, the (4, 5)
        # pairs alone as four
        "runs cut by groups and the window": [(4, 5)] * 3 + [(2, 3)] + [(4, 5)] * 2
        + [(3, 4), (2, 3), (4, 5)] + [(3, 4)] * 4 + [(4, 5)] * 7,
        "a run longer than a window": [(2, 3)] + [(3, 4)] * (backprop.WINDOW + 3),
    }

    @staticmethod
    def assert_matches_reference(params, pairs):
        loss, g = nll_loss(params, pairs)
        ref_loss, ref_g = reference.nll_loss(params, pairs)
        assert loss == ref_loss
        assert list(g) == list(ref_g)
        for name in g:
            assert_bitwise(g[name], ref_g[name])

    @pytest.mark.parametrize("dims", [(1, 1, 4, 4), (2, 3, 5, 4), (16, 24, 35, 35)])
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_nll_loss_bitwise(self, batch, dims):
        d_emb, d_hid, n_src, n_tgt = dims
        params = make_params(11, d_emb=d_emb, d_hid=d_hid, n_src=n_src, n_tgt=n_tgt, scale=0.5)
        pairs = random_pairs(self.BATCHES[batch], seed=len(batch), n_src=n_src, n_tgt=n_tgt)
        self.assert_matches_reference(params, pairs)

    @pytest.mark.parametrize("batch", ["one group", "interleaved", "runs cut by groups and the window"])
    def test_terms_summed_one_at_a_time(self, batch, monkeypatch):
        # a buffer of one term: every run of more than one term is summed in parts
        monkeypatch.setattr(backprop, "TERM_BYTES", 1)
        params = make_params(11, d_emb=4, d_hid=5, n_src=35, n_tgt=35, scale=0.5)
        self.assert_matches_reference(params, random_pairs(self.BATCHES[batch], seed=len(batch)))

    def test_repeated_tokens_in_one_run(self):
        # tokens 3 and 4 only: each embedding row gets several terms from
        # every pair of a run, so np.add.at must take them pair after pair
        params = make_params(11, d_emb=4, d_hid=5, n_src=35, n_tgt=35, scale=0.5)
        pairs = random_pairs([(6, 7)] * 5 + [(2, 3)] + [(6, 7)] * 3, seed=2, n_src=5, n_tgt=5)
        self.assert_matches_reference(params, pairs)

    def test_valid_nll_is_sequential_sum_of_scores(self):
        params = make_params(5, d_emb=16, d_hid=24, n_src=35, n_tgt=35, scale=0.5)
        pairs = random_pairs([(3, 4), (5, 6), (3, 4), (2, 3), (5, 6)] * 5, seed=9)
        assert valid_nll(params, pairs) == reference.valid_nll(params, pairs)

    def test_two_epochs_match_reference_loop(self, monkeypatch):
        data = gen_task("lexical-translate", 8, (2, 5), 60, seed=3)
        ds, valid = split_pairs(data.pairs, 48, 12)
        params = make_params(4, d_emb=4, d_hid=6, n_src=len(data.src_vocab),
                             n_tgt=len(data.tgt_vocab), scale=0.3)
        cfg = TrainConfig(epochs=2, lr=0.3, seed=5, batch_size=8)
        rows_params, rows_trace = train(params, ds, valid, cfg)
        monkeypatch.setattr(train_module, "nll_loss", reference.nll_loss)
        monkeypatch.setattr(train_module, "valid_nll", reference.valid_nll)
        ref_params, ref_trace = train(params, ds, valid, cfg)
        assert rows_trace == ref_trace
        for name in params.tensors:
            assert_bitwise(rows_params.tensors[name], ref_params.tensors[name])


@pytest.mark.parametrize("shape", [(3, 4), (1, 1)])
def test_einsum_terms_sum_as_outer_products_with_signed_zeros(shape, monkeypatch):
    # einsum forms a -0.0 product as +0.0; summed onto gradients that start
    # at +0.0, its terms still give the bits of `g += np.outer(a, b)`, sign
    # bits included. The terms come as two groups, of 3 pairs and of 1; the
    # (3, 4) terms are summed five at a time, so the first group's 18 are
    # flushed in parts. A one-element g takes each group's terms in one
    # np.add.accumulate, where a pairwise sum would round differently.
    monkeypatch.setattr(backprop, "TERM_BYTES", 5 * 8 * 12)
    rng = RngStream(7)
    values = np.array([0.0, -0.0, 1e-200, -1e-200, 0.1, -1 / 3, 1e5])
    S, B = 6, 4
    a, b = (values[rng.integers(0, len(values), size=(S, B, n))] for n in shape)
    g = np.zeros(shape)
    for rows in (slice(0, 3), slice(3, 4)):
        backprop._add_terms(g, *backprop._group_terms("out.W", None, (a[:, rows], b[:, rows])))
    expected, negative_zero_terms = np.zeros(shape), 0
    for row in range(B):
        for step in range(S):
            term = np.outer(a[step, row], b[step, row])
            negative_zero_terms += np.count_nonzero((term == 0) & np.signbit(term))
            expected += term
    assert negative_zero_terms > 0
    assert_bitwise(g, expected)


def assert_batches_group_as_length_classes(ds, valid, params, monkeypatch):
    """Two epochs of train at batch 16 (= WINDOW): in every batch the groups
    are the batch's equal-length classes whole, none split by pairs of other
    lengths between them."""
    batches = []

    def record(params, batch):
        batches.append(batch)
        return 0.0, backprop.zero_grads(params)
    monkeypatch.setattr(train_module, "nll_loss", record)
    train(params, ds, valid, TrainConfig(epochs=2, seed=7, batch_size=16))
    assert len(batches) == 2 * math.ceil(len(ds) / 16)
    for batch in batches:
        classes: dict[tuple[int, int], list[int]] = {}
        for i, pair in enumerate(batch):
            classes.setdefault((len(pair.source), len(pair.target)), []).append(i)
        assert backprop._groups(batch, range(len(batch))) == list(classes.values())


@pytest.mark.parametrize("kind", TASK_KINDS)
def test_training_batches_group_as_their_length_classes(kind, monkeypatch):
    # every gen-data task has len(target) == len(source) + 1, so the epoch's
    # sort by target length alone makes equal-length pairs consecutive
    data = gen_task(kind, 8, (1, 20), 400, seed=41)
    assert all(len(p.target) == len(p.source) + 1 for p in data.pairs)
    ds, valid = split_pairs(data.pairs, 390, 10)
    params = make_params(1, d_emb=2, d_hid=3, n_src=len(data.src_vocab), n_tgt=len(data.tgt_vocab))
    assert_batches_group_as_length_classes(ds, valid, params, monkeypatch)


def test_training_batches_of_mixed_source_lengths_group_as_length_classes(monkeypatch):
    # source lengths vary within each target length, as in a user's corpus:
    # the epoch is sorted by target then source length, so the groups are
    # still whole length classes
    rng = RngStream(43)
    lengths = [(int(s), int(t)) for s, t in zip(rng.integers(3, 9, size=300),
                                                rng.integers(2, 6, size=300))]
    pairs = list(dict.fromkeys(random_pairs(lengths, seed=44)))
    ds, valid = pairs[:-10], pairs[-10:]
    params = make_params(1, d_emb=2, d_hid=3, n_src=35, n_tgt=35)
    assert_batches_group_as_length_classes(ds, valid, params, monkeypatch)


def test_train_calls_hook_points_once_per_batch(monkeypatch):
    # bench/ patches these module globals to time each training batch
    calls = []
    for name in ("nll_loss", "clip_gradients", "valid_nll"):
        inner = getattr(train_module, name)
        monkeypatch.setattr(train_module, name,
                            lambda *args, inner=inner, name=name: calls.append(name) or inner(*args))
    data = gen_task("copy", 4, (2, 4), 30, seed=5)
    ds, valid = split_pairs(data.pairs, 22, 8)
    params = make_params(1, d_emb=3, d_hid=4, n_src=7, n_tgt=7)
    train(params, ds, valid, TrainConfig(epochs=2, seed=9, batch_size=5))
    per_epoch = ["nll_loss", "clip_gradients"] * 5 + ["valid_nll"]      # 22 pairs: 5 batches
    assert calls == per_epoch * 2


class TestGradCheck:
    def test_small_model_all_tensors(self):
        report = grad_check(small_params(), PAIR)
        assert report.passed, f"worst: {sorted(report.per_tensor.items(), key=lambda kv: -kv[1])[:3]}"
        assert report.max_rel_error < 1e-4

    def test_second_pair_and_seed(self):
        pair = SequencePair((4, 3, 4), (1, 3, 3, EOS))
        report = grad_check(small_params(seed=11), pair)
        assert report.max_rel_error < 1e-4

    def test_negative_control_detects_corruption(self):
        report = grad_check(small_params(), PAIR)
        corrupted = {k: v.copy() for k, v in report.analytic.items()}
        corrupted["dec.Wz"] *= 2.0
        err = relative_errors(corrupted["dec.Wz"], report.numeric["dec.Wz"]).max()
        assert err > 1e-4

    def test_unused_embedding_rows_report_zero(self):
        report = grad_check(small_params(), PAIR)
        # source tokens 3,4 used; row 0 (pad) of src_embed never touched
        row_err = relative_errors(report.analytic["src_embed"][0],
                                  report.numeric["src_embed"][0])
        assert row_err.max() == 0.0

    def test_refuses_large_models(self, tiny_params):
        big = make_params(0, d_emb=16, d_hid=32, n_src=20, n_tgt=20)
        with pytest.raises(ContractError):
            grad_check(big, PAIR)


class TestClip:
    def _unit_buffer(self, norm):
        g = {"a": np.array([3.0, 0.0]), "b": np.array([[0.0, 4.0]])}
        scale = norm / 5.0
        return {k: v * scale for k, v in g.items()}

    def test_above_threshold_renormalized(self):
        g = self._unit_buffer(2.0)
        out = clip_gradients(g, 1.0)
        assert grad_global_norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_below_threshold_untouched(self):
        g = self._unit_buffer(0.5)
        out = clip_gradients(g, 1.0)
        assert out is g
        assert out["a"] is g["a"]

    def test_zero_gradient_fixed_point(self):
        g = {"a": np.zeros(3)}
        out = clip_gradients(g, 1.0)
        np.testing.assert_array_equal(out["a"], np.zeros(3))

    @given(st.integers(0, 10_000), st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_never_increases_norm_and_keeps_direction(self, seed, clip):
        rng = RngStream(seed)
        g = {"x": rng.normal_vec(6) * 3.0, "y": rng.normal_vec(4).reshape(2, 2)}
        before = grad_global_norm(g)
        out = clip_gradients(g, clip)
        after = grad_global_norm(out)
        assert after <= before + 1e-12
        assert after <= clip + 1e-9 or out is g
        if out is not g:
            ratio = out["x"][0] / g["x"][0]
            for k in g:
                np.testing.assert_allclose(out[k], g[k] * ratio, rtol=1e-12)


class TestTrain:
    def test_non_finite_config_rejected(self):
        for name in ("lr", "lr_decay", "clip_norm"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ContractError):
                    TrainConfig(epochs=1, **{name: bad})

    @pytest.mark.parametrize("name, bad", [("patience", -1), ("lr", -0.1), ("lr_decay", -0.5)])
    def test_negative_config_rejected(self, name, bad):
        # lr = 0 stays legal (test_zero_lr_leaves_params_unchanged)
        with pytest.raises(ContractError, match=f"{name} must be >= 0"):
            TrainConfig(epochs=1, **{name: bad})

    def _task_splits(self, count=12, seed=5):
        data = gen_task("copy", 4, (2, 4), count, seed)
        return split_pairs(data.pairs, count - 4, 4)

    def test_zero_lr_leaves_params_unchanged(self, tiny_params):
        ds, valid = self._task_splits()
        # vocab of the task: 3 specials + 4 words = 7 symbols
        params = make_params(1, d_emb=3, d_hid=4, n_src=7, n_tgt=7)
        cfg = TrainConfig(epochs=1, lr=0.0, seed=9)
        out, trace = train(params, ds, valid, cfg)
        for name in params.tensors:
            np.testing.assert_array_equal(out.tensors[name], params.tensors[name])
        assert len(trace) == 1

    def test_non_finite_validation_nll_is_divergence(self, monkeypatch):
        # lr 1e300 overflows the next forward pass after the first update: it
        # ended as a finished run with the initial weights kept as the best,
        # then as numpy overflow warnings before the error; now the overflow
        # itself is the error, under any caller's errstate
        ds, valid = self._task_splits()
        params = make_params(1, d_emb=3, d_hid=4, n_src=7, n_tgt=7)
        for outer in ("ignore", "warn"):
            with np.errstate(all=outer), pytest.raises(
                    DivergenceError, match="^overflow encountered in matmul in epoch 1$"):
                train(params, ds, valid, TrainConfig(epochs=1, lr=1e300, seed=9))
        monkeypatch.setattr(train_module, "valid_nll", lambda p, v: (float("nan"), float("nan")))
        with pytest.raises(DivergenceError, match="validation NLL nan after epoch 1"):
            train(params, ds, valid, TrainConfig(epochs=1, lr=0.1, seed=9))

    def test_same_seed_same_trace(self):
        ds, valid = self._task_splits()
        params = make_params(2, d_emb=3, d_hid=4, n_src=7, n_tgt=7)
        cfg = TrainConfig(epochs=3, lr=0.1, seed=13)
        _, t1 = train(params, ds, valid, cfg)
        _, t2 = train(params, ds, valid, cfg)
        assert [(r.train_nll, r.valid_nll) for r in t1] == [(r.train_nll, r.valid_nll) for r in t2]

    def test_identical_final_params_across_runs(self):
        ds, valid = self._task_splits()
        params = make_params(2, d_emb=3, d_hid=4, n_src=7, n_tgt=7)
        cfg = TrainConfig(epochs=2, lr=0.1, seed=13)
        a, _ = train(params, ds, valid, cfg)
        b, _ = train(params, ds, valid, cfg)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_overfits_ten_pairs(self):
        # optimizer sanity: training loss on 10 pairs drops below 0.05 nats/token
        data = gen_task("copy", 4, (2, 4), 14, seed=8)
        ds, valid = split_pairs(data.pairs, 10, 4)
        params = make_params(4, d_emb=8, d_hid=16, n_src=7, n_tgt=7)
        cfg = TrainConfig(epochs=120, lr=0.3, seed=21, batch_size=4, patience=10_000)
        _, trace = train(params, ds, valid, cfg)
        avg_len = sum(len(p.target) for p in ds) / len(ds)
        assert min(r.train_nll for r in trace) / avg_len < 0.05

    def test_plain_sgd_step_is_lr_times_clipped_gradient(self):
        # one batch of pairs with distinct target lengths, so the length
        # sort fixes the batch order whatever the shuffle
        data = gen_task("copy", 4, (1, 4), 30, seed=5)
        by_len = {len(p.target): p for p in data.pairs}
        batch = [by_len[n] for n in sorted(by_len)]
        valid = [p for p in data.pairs if p not in batch][:3]
        params = make_params(2, d_emb=3, d_hid=4, n_src=7, n_tgt=7)
        cfg = TrainConfig(epochs=1, lr=0.3, clip_norm=0.5, batch_size=len(batch),
                          adaptive=False, seed=4)
        out, _ = train(params, batch[::-1], valid, cfg)
        _, g = nll_loss(params, batch)
        assert grad_global_norm(g) > cfg.clip_norm
        g = clip_gradients(g, cfg.clip_norm)
        for name, tensor in params.tensors.items():
            np.testing.assert_array_equal(out.tensors[name], tensor - cfg.lr * g[name])

    @pytest.mark.parametrize("patience", [0, 2])
    def test_patience_stops_after_that_many_epochs_without_improvement(self, patience):
        # lr 0 never improves on epoch 1, so epochs 2 .. patience + 2 are the
        # patience + 1 epochs without improvement that end the run
        ds, valid = self._task_splits()
        params = make_params(1, d_emb=3, d_hid=4, n_src=7, n_tgt=7)
        _, trace = train(params, ds, valid, TrainConfig(epochs=20, lr=0.0, patience=patience))
        assert len(trace) == patience + 2
        assert len({r.valid_nll for r in trace}) == 1

    @pytest.mark.parametrize("empty", ["training", "validation"])
    def test_empty_sets_refused_before_the_first_batch(self, empty, monkeypatch):
        # an empty training set divided by zero after the epoch; an empty
        # validation set failed only after a whole epoch of batches
        monkeypatch.setattr(train_module, "nll_loss", lambda *args: pytest.fail("a batch ran"))
        ds, valid = self._task_splits()
        params = make_params(1, d_emb=3, d_hid=4, n_src=7, n_tgt=7)
        sets = {"training": ds, "validation": valid, empty: []}
        with pytest.raises(ContractError, match=f"{empty} set must be non-empty"):
            train(params, sets["training"], sets["validation"], TrainConfig(epochs=1, seed=0))

    def test_disjointness_enforced(self, tiny_params):
        ds, _ = self._task_splits()
        params = make_params(1, d_emb=3, d_hid=4, n_src=7, n_tgt=7)
        with pytest.raises(ContractError):
            train(params, ds, ds[:2], TrainConfig(epochs=1, seed=0))

    def test_copy_task_reaches_low_nll(self):
        # deterministic task: per-token NLL -> 0 with enough capacity
        data = gen_task("copy", 8, (1, 8), 2500, seed=31)
        ds, valid = split_pairs(data.pairs, 2000, 300)
        dims = Dims(d_emb=16, d_hid=32, n_src=len(data.src_vocab), n_tgt=len(data.tgt_vocab))
        params = init_params(RngStream(17), dims)
        cfg = TrainConfig(epochs=50, lr=0.25, seed=23, batch_size=16,
                          patience=50, stop_below_token_nll=0.1)
        out, trace = train(params, ds, valid, cfg)
        assert trace[-1].valid_nll_token < 0.1, f"reached {trace[-1].valid_nll_token} in {len(trace)} epochs"
        assert len(trace) <= 50
