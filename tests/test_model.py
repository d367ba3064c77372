import math
from itertools import product

import numpy as np
import pytest

from npad.core import ContractError, RngStream
from npad.model import (
    BOS,
    EOS,
    BoundModel,
    Dims,
    EncodedSource,
    Vocab,
    VocabError,
    attention_context,
    decoder_step,
    encode_rows,
    init_params,
    initial_rows,
    _attend_rows,
    _gru_stacks,
    _gru_step,
    step_rows,
)
from npad.backprop import forward_rows
from npad.decode import score_sequence
from npad.tasks import SequencePair
from conftest import make_params
from reference import _attend, _gru_fwd, encode_with_cache, log_softmax


def uniform_readout(params):
    """Zero readout weights: every step distribution is exactly uniform."""
    p = params.copy()
    p.tensors["out.W"][:] = 0.0
    p.tensors["out.b"][:] = 0.0
    return p


def manual_encoded(params, annotations):
    """One source of the given (L, 2*d_hid) annotations, as a stack of one."""
    ann = np.asarray(annotations, dtype=np.float64)[None]
    keys = ann @ params.tensors["att.Wk"].T + params.tensors["att.b"]
    return EncodedSource(ann, keys, _gru_stacks(params.tensors, "dec"))


def encode_one(params, source):
    """One source encoded as a stack of one, as `BoundModel` binds it."""
    return encode_rows(params, [source])[0]


class TestVocab:
    def test_layout_and_lookup(self):
        v = Vocab.from_content(["a", "b"])
        assert len(v) == 5
        assert v.index("</s>") == EOS
        assert v.index("a") == 3
        assert v.decode(v.encode(["a", "b", "a"])) == ["a", "b", "a"]

    def test_unknown_token(self):
        v = Vocab.from_content(["a"])
        with pytest.raises(VocabError):
            v.index("zz")
        with pytest.raises(VocabError):
            v.token(99)

    def test_requires_specials_and_uniqueness(self):
        with pytest.raises(ContractError):
            Vocab(("a", "b", "c"))
        with pytest.raises(ContractError):
            Vocab.from_content(["a", "a"])


class TestEncode:
    def test_single_token_shape(self, tiny_params):
        enc = encode_one(tiny_params, [3])
        assert enc.source_len == 1
        assert enc.annotations.shape == (1, 1, 2 * tiny_params.dims.d_hid)
        assert enc.att_keys.shape == (1, 1, tiny_params.dims.d_hid)

    def test_zero_encoder_weights_give_zero_annotations(self, tiny_params):
        p = tiny_params.copy()
        for name in p.tensors:
            if name.startswith(("enc_f.", "enc_b.")):
                p.tensors[name][:] = 0.0
        enc = encode_one(p, [3, 4, 3])
        np.testing.assert_array_equal(enc.annotations, np.zeros((1, 3, 8)))

    def test_deterministic(self, tiny_params):
        a = encode_one(tiny_params, [3, 4])
        b = encode_one(tiny_params, [3, 4])
        np.testing.assert_array_equal(a.annotations, b.annotations)

    def test_unknown_token_rejected(self, tiny_params):
        with pytest.raises(VocabError):
            encode_one(tiny_params, [3, 99])

    def test_index_beyond_int64_is_a_vocab_error(self, tiny_params):
        # the int64 conversion raised OverflowError, an undocumented class
        for bad in (2**63, 2**70, -2**63 - 1):
            with pytest.raises(VocabError):
                BoundModel(tiny_params, [bad])
            with pytest.raises(VocabError):
                BoundModel(tiny_params, [3, bad])

    def test_empty_source_rejected(self, tiny_params):
        with pytest.raises(ContractError):
            encode_one(tiny_params, [])

    def test_scalar_gru_oracle(self):
        # independent scalar recurrence for a 1-unit bidirectional encoder
        dims = Dims(d_emb=1, d_hid=1, n_src=5, n_tgt=3)
        p = init_params(RngStream(0), dims)
        t = p.tensors
        t["src_embed"][:, 0] = [0.0, 0.0, 0.0, 0.5, -0.3]
        fw = dict(wz=0.4, uz=0.3, bz=0.1, wr=-0.2, ur=0.5, br=0.0, wn=0.7, un=-0.6, bn=0.2)
        bw = dict(wz=-0.5, uz=0.2, bz=0.0, wr=0.3, ur=-0.4, br=0.1, wn=0.8, un=0.5, bn=-0.2)
        for pre, w in (("enc_f", fw), ("enc_b", bw)):
            t[f"{pre}.Wz"][:] = w["wz"]; t[f"{pre}.Uz"][:] = w["uz"]; t[f"{pre}.bz"][:] = w["bz"]
            t[f"{pre}.Wr"][:] = w["wr"]; t[f"{pre}.Ur"][:] = w["ur"]; t[f"{pre}.br"][:] = w["br"]
            t[f"{pre}.Wn"][:] = w["wn"]; t[f"{pre}.Un"][:] = w["un"]; t[f"{pre}.bn"][:] = w["bn"]

        def sig(x):
            return 1.0 / (1.0 + math.exp(-x))

        def cell(w, x, h):
            z = sig(w["wz"] * x + w["uz"] * h + w["bz"])
            r = sig(w["wr"] * x + w["ur"] * h + w["br"])
            n = math.tanh(w["wn"] * x + w["un"] * (r * h) + w["bn"])
            return (1.0 - z) * h + z * n

        source = [3, 4, 3]
        xs = [0.5, -0.3, 0.5]
        f = [0.0]
        for x in xs:
            f.append(cell(fw, x, f[-1]))
        g = [0.0]
        for x in reversed(xs):
            g.append(cell(bw, x, g[-1]))
        expected = np.array([[f[1], g[3]], [f[2], g[2]], [f[3], g[1]]])
        enc = encode_one(p, source)
        np.testing.assert_allclose(enc.annotations[0], expected, atol=1e-14)


@pytest.mark.parametrize("batch", [1, 2, 7, 16])
def test_encode_rows_bitwise_equal_per_vector_encoder(batch):
    # each row of the rows encoder, and a source encoded alone, is bitwise
    # the per-vector reference encoder, whatever the other rows, and so is
    # every step array backpropagation reads, in both directions
    for d_hid, length in product([1, 5, 24], [1, 13]):
        params = make_params(batch, d_emb=16, d_hid=d_hid, n_src=35, n_tgt=35, scale=0.3)
        rng = RngStream(batch)
        for pre in ("enc_f", "enc_b"):            # biases start at zero; these are not
            for gate in "zrn":
                params.tensors[f"{pre}.b{gate}"][:] = rng.uniform_vec(d_hid, -0.3, 0.3)
        sources = rng.integers(3, 35, size=(batch, length))
        enc, (X, S, G, _) = encode_rows(params, sources)
        for b, source in enumerate(sources):
            ref, caches = encode_with_cache(params, source)
            alone = encode_one(params, source)
            for got in (enc.annotations[b], alone.annotations[0]):
                assert np.array_equal(got, ref.annotations[0])
            for got in (enc.att_keys[b], alone.att_keys[0]):
                assert np.array_equal(got, ref.att_keys[0])
            for d, ran in enumerate((caches["f_caches"], caches["b_caches"])):
                steps = (X[d], S[:, d], G[:, d, 0], G[:, d, 1], G[:, d, 2])
                assert all(array.shape[:2] == (length, batch) for array in steps)
                for k, cache in enumerate(ran):   # caches in the order the steps ran
                    for name, got, want in zip("x h_prev z r n".split(), steps, cache):
                        assert np.array_equal(got[k, b], want), f"d_hid {d_hid} dir {d} {k} {name}"


class TestAttention:
    def test_singleton_source(self, tiny_params):
        bound = BoundModel(tiny_params, [4])
        context, alpha = attention_context(tiny_params, bound.initial(), bound.enc)
        np.testing.assert_allclose(context, bound.enc.annotations[0, 0], atol=1e-15)
        assert alpha.tolist() == [1.0]

    def test_identical_annotations_convexity(self, tiny_params):
        row = np.linspace(-1.0, 1.0, 2 * tiny_params.dims.d_hid)
        enc = manual_encoded(tiny_params, np.tile(row, (4, 1)))
        context, alpha = attention_context(tiny_params, np.zeros(tiny_params.dims.d_hid), enc)
        np.testing.assert_allclose(context, row, atol=1e-12)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_hand_set_scores(self):
        # scores [ln 3, 0] -> alpha [0.75, 0.25]
        dims = Dims(d_emb=2, d_hid=2, n_src=4, n_tgt=4)
        p = init_params(RngStream(1), dims)
        t = p.tensors
        t["att.Wq"][:] = 0.0
        t["att.b"][:] = 0.0
        t["att.v"][:] = [2.0, 0.0]
        t["att.Wk"][:] = 0.0
        t["att.Wk"][0, 0] = math.atanh(math.log(3.0) / 2.0)
        enc = manual_encoded(p, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        context, alpha = attention_context(p, np.zeros(2), enc)
        np.testing.assert_allclose(alpha, [0.75, 0.25], atol=1e-12)
        np.testing.assert_allclose(context, 0.75 * enc.annotations[0, 0], atol=1e-12)

    def test_alpha_is_distribution_every_step(self, tiny_params):
        bound = BoundModel(tiny_params, [3, 4, 3, 4])
        h = bound.initial()
        for prev in (BOS, 3, 2, 1):
            _, alpha = attention_context(tiny_params, h, bound.enc)
            assert np.all(alpha >= 0)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
            h, _ = decoder_step(tiny_params, h, prev, bound.enc)

    def test_one_row_call_is_the_reference_attention(self):
        # the one-row call runs the kernel's attention: the reference
        # equations' bits, at every width
        for d_hid, seed in product([1, 5, 13, 24], range(3)):
            params = make_params(seed, d_emb=4, d_hid=d_hid, n_src=35, n_tgt=35, scale=0.3)
            rng = RngStream(seed)
            random_biases(params, rng)
            enc = encode_one(params, [3 + (5 * i) % 32 for i in range(16)])
            q = rng.uniform_vec(d_hid, -1.0, 1.0)
            context, alpha = attention_context(params, q, enc)
            want_context, want_alpha, _ = _attend(params, q, enc)
            assert np.array_equal(context, want_context) and np.array_equal(alpha, want_alpha)

    def test_state_dim_checked(self, tiny_params):
        enc = encode_one(tiny_params, [3, 4])
        for h in (np.zeros(3), np.zeros((1, 4))):
            with pytest.raises(ContractError):
                attention_context(tiny_params, h, enc)


class TestDecoderStep:
    def test_zero_noise_deterministic(self, tiny_params):
        bound = BoundModel(tiny_params, [3, 4])
        h = bound.initial()
        h1, lp1 = decoder_step(tiny_params, h, BOS, bound.enc, np.zeros(4))
        h2, lp2 = decoder_step(tiny_params, h, BOS, bound.enc, None)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(lp1, lp2)
        assert h1.shape == h.shape

    def test_uniform_model_logprobs(self, tiny_params):
        p = uniform_readout(tiny_params)
        bound = BoundModel(p, [3])
        _, lp = decoder_step(p, bound.initial(), BOS, bound.enc)
        np.testing.assert_allclose(lp, np.full(4, -math.log(4)), atol=1e-15)

    def test_step_distribution_normalized(self, tiny_params):
        bound = BoundModel(tiny_params, [3, 4, 3])
        h = bound.initial()
        prev = BOS
        for _ in range(5):
            h, lp = decoder_step(tiny_params, h, prev, bound.enc)
            assert np.exp(lp).sum() == pytest.approx(1.0, abs=1e-9)
            prev = int(np.argmax(lp))

    def test_noise_dim_checked(self, tiny_params):
        bound = BoundModel(tiny_params, [3])
        with pytest.raises(ContractError):
            decoder_step(tiny_params, bound.initial(), BOS, bound.enc, np.zeros(3))

    def test_prev_token_checked(self, tiny_params):
        bound = BoundModel(tiny_params, [3])
        for prev in (-1, tiny_params.dims.n_tgt):
            with pytest.raises(VocabError):
                decoder_step(tiny_params, bound.initial(), prev, bound.enc)

    def test_scalar_oracle_one_step(self):
        # 1-unit model, single-position source: context equals the annotation,
        # so the whole step reduces to scalar arithmetic done independently here
        dims = Dims(d_emb=1, d_hid=1, n_src=4, n_tgt=4)
        p = init_params(RngStream(2), dims)
        t = p.tensors
        t["src_embed"][3, 0] = 0.4
        for pre in ("enc_f", "enc_b"):
            t[f"{pre}.Wz"][:] = 0.3; t[f"{pre}.Uz"][:] = 0.1; t[f"{pre}.bz"][:] = 0.0
            t[f"{pre}.Wr"][:] = 0.2; t[f"{pre}.Ur"][:] = -0.1; t[f"{pre}.br"][:] = 0.1
            t[f"{pre}.Wn"][:] = 0.5; t[f"{pre}.Un"][:] = 0.4; t[f"{pre}.bn"][:] = -0.2
        t["init.W"][:] = [[0.6, -0.3]]
        t["init.b"][:] = 0.1
        t["tgt_embed"][BOS, 0] = -0.7
        t["dec.Wz"][:] = [[0.2, 0.3, -0.4]]; t["dec.Uz"][:] = 0.5; t["dec.bz"][:] = 0.0
        t["dec.Wr"][:] = [[-0.3, 0.2, 0.1]]; t["dec.Ur"][:] = 0.3; t["dec.br"][:] = -0.1
        t["dec.Wn"][:] = [[0.7, -0.5, 0.2]]; t["dec.Un"][:] = -0.6; t["dec.bn"][:] = 0.2
        t["out.W"][:] = [[0.5, 0.1, -0.2], [-0.3, 0.4, 0.0], [0.2, -0.1, 0.3], [0.0, 0.6, -0.5]]
        t["out.b"][:] = [0.05, -0.05, 0.1, 0.0]

        def sig(x):
            return 1.0 / (1.0 + math.exp(-x))

        def enc_cell(x, h):
            z = sig(0.3 * x + 0.1 * h)
            r = sig(0.2 * x - 0.1 * h + 0.1)
            n = math.tanh(0.5 * x + 0.4 * (r * h) - 0.2)
            return (1.0 - z) * h + z * n

        a = [enc_cell(0.4, 0.0), enc_cell(0.4, 0.0)]     # [forward, backward] states
        h0 = math.tanh(0.6 * a[0] - 0.3 * a[1] + 0.1)
        e, c0, c1 = -0.7, a[0], a[1]
        z = sig(0.2 * e + 0.3 * c0 - 0.4 * c1 + 0.5 * h0)
        r = sig(-0.3 * e + 0.2 * c0 + 0.1 * c1 + 0.3 * h0 - 0.1)
        n = math.tanh(0.7 * e - 0.5 * c0 + 0.2 * c1 - 0.6 * (r * h0) + 0.2)
        h1 = (1.0 - z) * h0 + z * n
        logits = [0.5 * h1 + 0.1 * c0 - 0.2 * c1 + 0.05,
                  -0.3 * h1 + 0.4 * c0 - 0.05,
                  0.2 * h1 - 0.1 * c0 + 0.3 * c1 + 0.1,
                  0.6 * c0 - 0.5 * c1]
        lse = math.log(sum(math.exp(v) for v in logits))
        expected = [v - lse for v in logits]

        bound = BoundModel(p, [3])
        h = bound.initial()
        assert h[0] == pytest.approx(h0, abs=1e-14)
        h_next, lp = decoder_step(p, h, BOS, bound.enc)
        assert h_next[0] == pytest.approx(h1, abs=1e-14)
        np.testing.assert_allclose(lp, expected, atol=1e-12)


class TestScoreSequence:
    def test_uniform_model_analytic(self, tiny_params):
        p = uniform_readout(tiny_params)
        assert score_sequence(p, [3, 4], [3, 3, EOS]) == pytest.approx(-3 * math.log(4), abs=1e-12)

    def test_matches_stepwise_replay(self, tiny_params):
        source, target = [3, 4, 3], [1, 3, 2, EOS]
        bound = BoundModel(tiny_params, source)
        H = bound.initial()[None]
        prev, total = BOS, 0.0
        for y in target:
            H, logp = bound.step_batch(H, np.array([prev]))
            total += float(logp[0, y])
            prev = y
        assert score_sequence(tiny_params, source, target) == total

    def test_enumeration_mass_normalizes(self, tiny_params):
        # all EOS-terminated sequences of length <= L plus all EOS-free
        # length-L prefixes partition the outcome space
        source, L = [3, 4], 3
        others = [tok for tok in range(4) if tok != EOS]
        total = 0.0
        for length in range(1, L + 1):
            for prefix in product(others, repeat=length - 1):
                total += math.exp(score_sequence(tiny_params, source, list(prefix) + [EOS]))
        for seq in product(others, repeat=L):
            total += math.exp(score_sequence(tiny_params, source, list(seq)))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_targets(self, tiny_params):
        with pytest.raises(ContractError):
            score_sequence(tiny_params, [3], [])
        for bad in (99, -1, 2**63, 2**70):
            with pytest.raises(VocabError):
                score_sequence(tiny_params, [3], [bad])
            with pytest.raises(VocabError):
                score_sequence(tiny_params, [bad], [3, EOS])


def test_bound_model_matches_module_ops(tiny_params):
    bound = BoundModel(tiny_params, [3, 4])
    h = bound.initial()
    h1, lp1 = bound.step(h, BOS, np.zeros(4))
    enc = encode_one(tiny_params, [3, 4])
    h0 = initial_rows(tiny_params, enc.annotations)[0]
    h2, lp2 = decoder_step(tiny_params, h0, BOS, enc)
    assert np.array_equal(h, h0)
    np.testing.assert_array_equal(h1, h2)
    np.testing.assert_array_equal(lp1, lp2)
    H, logp = bound.step_batch(h[None], np.array([BOS]))
    assert np.array_equal(H[0], h1) and np.array_equal(logp[0], lp1)


def per_vector_step(params, enc, q, prev):
    """The reference decoder step of one perturbed state q: (h, logp, the
    intermediates `step_rows` returns), one vector at a time."""
    t = params.tensors
    context, alpha, M = _attend(params, q, enc)
    h, (u, _, z, r, n) = _gru_fwd(t, "dec", np.concatenate([t["tgt_embed"][prev], context]), q)
    hc = np.concatenate([h, context])
    logp = log_softmax(t["out.W"] @ hc + t["out.b"])
    return h, logp, {"q": q, "M": M, "alpha": alpha, "context": context, "u": u,
                     "z": z, "r": r, "n": n, "hc": hc}


def random_biases(params, rng):
    """Every bias random and nonzero: init_params zeroes them, which hides
    where each `+ b` is summed."""
    for name, tensor in params.tensors.items():
        if name.split(".")[-1].startswith("b"):
            tensor[:] = rng.uniform_vec(tensor.shape, -0.3, 0.3)


@pytest.mark.parametrize("batch", [1, 2, 7, 8, 50, 64, 100])
def test_step_rows_bitwise_equal_per_vector_steps(batch):
    # every row of the batched step, and every intermediate training reads
    # from it, equals bit for bit the single-vector reference equations,
    # whatever the batch size, the widths and the other rows
    for d_hid, d_emb in product([1, 5, 13, 24], [1, 16]):
        params = make_params(batch, d_emb=d_emb, d_hid=d_hid, n_src=35, n_tgt=35, scale=0.3)
        rng = RngStream(batch)
        random_biases(params, rng)
        enc = encode_one(params, [3 + (5 * i) % 32 for i in range(16)])
        H = rng.uniform_vec((batch, d_hid), -1.0, 1.0)
        prev = rng.integers(0, 35, size=batch)
        noise = rng.uniform_vec((batch, d_hid), -0.3, 0.3)
        noise[::3] = 0.0
        H_next, logp, cache = step_rows(params, enc, H, prev, noise)
        assert set(cache) == {"q", "M", "alpha", "context", "u", "z", "r", "n", "hc"}
        for i in range(batch):
            h, expected, reference = per_vector_step(params, enc, H[i] + noise[i], prev[i])
            where = f"d_hid {d_hid} d_emb {d_emb} row {i}"
            assert np.array_equal(H_next[i], h), where
            assert np.array_equal(logp[i], expected), where
            for name, value in reference.items():
                assert cache[name][i].shape == value.shape, f"{where} {name}"
                assert np.array_equal(cache[name][i], value), f"{where} {name}"
        alone_h, alone_lp, _ = step_rows(params, enc, H[-1:], prev[-1:], noise[-1:])
        assert np.array_equal(alone_h[0], H_next[-1]) and np.array_equal(alone_lp[0], logp[-1])


def test_step_reads_weights_changed_in_place_after_a_new_bind():
    # training changes tensors in place (`tensor -= ...`), so neither the
    # params object nor a tensor changes identity; a source bound, or a
    # training group run, after the change must step with the new values
    params = make_params(4, d_emb=4, d_hid=5, n_src=35, n_tgt=35, scale=0.3)
    t = params.tensors
    rng = RngStream(4)
    random_biases(params, rng)
    pair = SequencePair((3, 9, 4), (5, 7, EOS))
    for name in ("dec.Wz", "dec.Ur", "dec.Un", "dec.bn", "dec.Wn"):
        # a bind and a group on the old values first, as training runs them
        BoundModel(params, pair.source).step_batch(np.zeros((1, 5)), np.array([BOS]))
        forward_rows(params, [pair])
        t[name] -= rng.uniform_vec(t[name].shape, 0.1, 0.5)
        model = BoundModel(params, pair.source)
        q = rng.uniform_vec((1, 5), -1.0, 1.0)
        h_next, logp = model.step_batch(q, np.array([6]))
        h, expected, _ = per_vector_step(params, model.enc, q[0], 6)
        assert np.array_equal(h_next[0], h) and np.array_equal(logp[0], expected), name
        steps = forward_rows(params, [pair])[1]["steps"]
        _, (_, _, z, r, n) = _gru_fwd(t, "dec", steps["u"][0, 0], steps["q"][0, 0])
        for got, want in zip((steps["z"], steps["r"], steps["n"]), (z, r, n)):
            assert np.array_equal(got[0, 0], want), name


def test_kernels_leave_every_input_unchanged():
    # the step's sums and activations run in place, but only in buffers the
    # kernel allocated itself: every array passed in (states, tokens, noise,
    # the encoding, the GRU stacks, the encoder's input products and states)
    # and every weight keeps its bits
    params = make_params(3, d_emb=4, d_hid=5, n_src=35, n_tgt=35, scale=0.3)
    rng = RngStream(3)
    random_biases(params, rng)
    sources = rng.integers(3, 35, size=(2, 6))
    enc, (Xd, S, G, stacks) = encode_rows(params, sources)
    H = rng.uniform_vec((4, 5), -1.0, 1.0)
    prev = rng.integers(0, 35, size=4)
    noise = rng.uniform_vec((4, 5), -0.3, 0.3)
    W, *gru = stacks
    WX = (W[:, :, None, None] @ Xd[:, None, ..., None])[..., 0]
    one = EncodedSource(enc.annotations[:1], enc.att_keys[:1], enc.dec_gru)
    wx = (one.dec_gru[0][:, None] @ rng.uniform_vec((4, 14), -1.0, 1.0)[:, :, None])[..., 0]
    inputs = [H, prev, noise, enc.annotations, enc.att_keys, *enc.dec_gru, WX, S, *stacks, wx,
              *params.tensors.values()]
    saved = [a.tobytes() for a in inputs]
    step_rows(params, one, H, prev, noise)
    step_rows(params, one, H, prev)
    _attend_rows(params, one, H)
    _gru_step(wx, H, *one.dec_gru[1:])
    for k in range(S.shape[0]):
        h, zr, n = _gru_step(WX[:, :, k], S[k], *gru)
        assert np.array_equal(zr, G[k, :, :2]) and np.array_equal(n, G[k, :, 2])
        if k + 1 < S.shape[0]:
            assert np.array_equal(h, S[k + 1])
    encode_rows(params, sources)
    assert [a.tobytes() for a in inputs] == saved
