import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npad.core import (
    ContractError,
    RngStream,
    categorical_rows,
    derive_seed,
    derive_seeds,
    gaussian_vec,
    log_softmax,
    sigmoid,
    softmax,
)
import reference


def logits(data, bound):
    """A vector, or a matrix of up to six rows, of finite logits in [-bound, bound]."""
    size = data.draw(st.integers(1, 20))
    row = st.lists(st.floats(-bound, bound), min_size=size, max_size=size)
    if data.draw(st.booleans()):
        return np.array(data.draw(row))
    return np.array(data.draw(st.lists(row, min_size=1, max_size=6)))


class TestSoftmax:
    def test_symmetry(self):
        assert softmax(np.array([0.0, 0.0])).tolist() == [0.5, 0.5]

    def test_shift_invariance_constant(self):
        for c in (-3.0, 0.0, 17.5):
            out = softmax(np.full(4, c))
            np.testing.assert_allclose(out, [0.25] * 4, atol=1e-15)

    def test_large_logits_no_overflow(self):
        # extended-precision oracle: p0 = 1/(1+e^-1000), p1 = e^-1000 * p0;
        # e^-1000 < 1e-434 underflows to 0 in float64
        out = softmax(np.array([1000.0, 0.0]))
        assert out[0] == pytest.approx(1.0, abs=1e-15)
        assert out[1] == pytest.approx(0.0, abs=1e-300)
        assert np.all(np.isfinite(out))

    @given(st.data())
    def test_sums_to_one(self, data):
        x = logits(data, 100)
        out = softmax(x)
        assert out.shape == x.shape
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-12)
        assert np.all(out > 0)

    @given(st.data(), st.floats(-100, 100))
    def test_shift_invariance(self, data, c):
        x = logits(data, 50)
        np.testing.assert_allclose(softmax(x), softmax(x + c), atol=1e-12)

    @given(st.data())
    def test_log_softmax_consistent(self, data):
        x = logits(data, 50)
        np.testing.assert_allclose(np.exp(log_softmax(x)), softmax(x), atol=1e-12)

    @given(st.data())
    def test_rows_equal_the_one_vector_reference(self, data):
        # each row of a 2-D input, and a 1-D input, gets bitwise the
        # one-vector reference's values
        x = logits(data, 100)
        for fn, ref in ((softmax, reference.softmax), (log_softmax, reference.log_softmax)):
            out = fn(x)
            for got, row in zip(np.atleast_2d(out), np.atleast_2d(x)):
                assert np.array_equal(got, ref(row))


def test_sigmoid_matches_reference():
    xs = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
    out = sigmoid(xs)
    assert np.all(np.isfinite(out))
    assert out[2] == 0.5
    assert out[1] == pytest.approx(1.0 / (1.0 + math.exp(5.0)), rel=1e-15)
    assert out[3] == pytest.approx(1.0 / (1.0 + math.exp(-5.0)), rel=1e-15)


class TestGaussianVec:
    def test_sigma_zero_is_exact_zero(self):
        out = gaussian_vec(RngStream(3), 4, 0.0)
        assert out.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_sigma_zero_consumes_no_draws(self):
        a, b = RngStream(3), RngStream(3)
        gaussian_vec(a, 4, 0.0)
        np.testing.assert_array_equal(gaussian_vec(a, 4, 1.0), gaussian_vec(b, 4, 1.0))

    def test_same_seed_same_vector(self):
        one = gaussian_vec(RngStream(11), 4, 1.0)
        two = gaussian_vec(RngStream(11), 4, 1.0)
        np.testing.assert_array_equal(one, two)

    def test_sample_std(self):
        # 1e5 draws at sigma=0.3: std of the sample std is ~0.00067, so
        # [0.297, 0.303] is a ~4.5-sigma band
        draws = gaussian_vec(RngStream(5), 100_000, 0.3)
        assert 0.297 <= draws.std() <= 0.303
        assert abs(draws.mean()) < 0.005

    def test_negative_sigma_rejected(self):
        with pytest.raises(ContractError):
            gaussian_vec(RngStream(0), 3, -0.1)


class TestCategoricalSample:
    """Sampling properties of `categorical_rows`, one uniform per row."""

    def test_point_mass(self):
        P = np.tile([0.0, 1.0, 0.0], (50, 1))
        assert categorical_rows(P, RngStream(9).uniform_vec(50)).tolist() == [1] * 50

    def test_determinism(self):
        P = np.tile([0.2, 0.3, 0.5], (20, 1))
        a = categorical_rows(P, RngStream(4).uniform_vec(20))
        b = categorical_rows(P, RngStream(4).uniform_vec(20))
        assert np.array_equal(a, b)

    def test_fair_coin_frequency(self):
        # binomial: sd of the frequency is ~0.0016 at n=1e5; 0.01 is >6 sigma
        n = 100_000
        picks = categorical_rows(np.tile([0.5, 0.5], (n, 1)), RngStream(21).uniform_vec(n))
        assert 0.49 <= np.mean(picks == 0) <= 0.51

    @given(st.integers(0, 2**32), st.integers(2, 8))
    @settings(max_examples=50)
    def test_never_selects_zero_probability(self, seed, size):
        P = np.zeros((16, size))
        P[:, size // 2] = 1.0
        assert categorical_rows(P, RngStream(seed).uniform_vec(16)).tolist() == [size // 2] * 16


def searchsorted_pick(p, u):
    """Reference pick: binary search on the cumulative sum, clip, step back over zeros."""
    idx = min(int(np.searchsorted(np.cumsum(p), u, side="right")), p.size - 1)
    while idx > 0 and p[idx] == 0.0:
        idx -= 1
    return idx


class TestCategoricalRows:
    NEAR_ONE = (1.0 - 1e-12, float(np.nextafter(1.0, 0.0)))

    @given(st.data())
    @settings(max_examples=200)
    def test_rows_equal_per_row_samples(self, data):
        # zero-probability entries and uniforms next to 1 included
        size = data.draw(st.integers(1, 8))
        weights = st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]),
                           min_size=size, max_size=size).filter(any)
        P = np.array(data.draw(st.lists(weights, min_size=1, max_size=6)))
        P /= P.sum(axis=1, keepdims=True)
        uniforms = st.sampled_from((0.0,) + self.NEAR_ONE) | st.floats(0.0, 1.0, exclude_max=True)
        u = np.array(data.draw(st.lists(uniforms, min_size=len(P), max_size=len(P))))
        assert categorical_rows(P, u).tolist() == [searchsorted_pick(p, x) for x, p in zip(u, P)]

    def test_sum_below_one_steps_back_over_trailing_zeros(self):
        # ten 0.1s sum to 1 - 2^-53: a uniform at that value passes every
        # cumulative sum and lands on the last token with mass
        P = np.array([[0.1] * 10 + [0.0, 0.0], [0.0, 0.5, 0.5] + [0.0] * 9])
        u = np.array([self.NEAR_ONE[1], 0.0])
        assert categorical_rows(P, u).tolist() == [9, 1]
        assert [searchsorted_pick(p, x) for x, p in zip(u, P)] == [9, 1]


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(42, i) for i in range(100)]
        assert seeds == [derive_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_base_seed_separates_families(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ContractError):
            derive_seed(1, -1)

    def test_child_streams_nest(self):
        root = RngStream(77)
        a = root.child(3)
        b = RngStream(77).child(3)
        assert a.seed == b.seed
        np.testing.assert_array_equal(a.normal_vec(5), b.normal_vec(5))

    def test_array_derivation_equals_derive_seed(self):
        # derive_seeds is derive_seed elementwise, bases taken modulo 2^64 as
        # derive_seed takes them, over arrays or Python ints of any size
        bases = [0, 1, 2**32 - 1, 2**63, 2**64 - 1, -5, 2**70 + 3]
        indices = [0, 1, 2, 49, 2**32, 2**62]
        for base in bases:
            got = derive_seeds(base, np.array(indices))
            assert got.dtype == np.uint64
            assert got.tolist() == [derive_seed(base, i) for i in indices]
        got = derive_seeds(bases, 3)
        assert got.tolist() == [derive_seed(base, 3) for base in bases]
        assert derive_seeds(7, 3).tolist() == [derive_seed(7, 3)]
        with pytest.raises(ContractError):
            derive_seeds(1, [0, -1])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 10_000), max_size=8),
           st.integers(0, 1))
    def test_nested_derivation_equals_derive_seed(self, seed, chains, which):
        got = derive_seeds(derive_seeds(seed, np.array(chains, dtype=np.int64)), which)
        assert got.tolist() == [derive_seed(derive_seed(seed, m), which) for m in chains]


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestManyStreams:
    """`RngStream.many` seeds its PCG64s from arrays, without numpy's
    SeedSequence: each must be the generator RngStream(s) builds."""

    @staticmethod
    def assert_same(seeds):
        many = RngStream.many(seeds)
        assert len(many) == len(seeds)
        for stream, seed in zip(many, seeds):
            one = RngStream(seed)
            words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert np.array_equal(stream._gen.bit_generator.seed_seq.words, words)
            assert stream.seed == one.seed
            assert stream._gen.bit_generator.state == one._gen.bit_generator.state
            assert stream.normal_vec(3).tolist() == one.normal_vec(3).tolist()
            assert stream.uniform_vec(3).tolist() == one.uniform_vec(3).tolist()

    def test_edge_seeds_match_seed_sequence(self):
        # 2^32 - 1 is one entropy word and 2^32 two, the high one set
        self.assert_same(SEEDS)
        self.assert_same(SEEDS[::-1])
        self.assert_same([2**32 - 1])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
    def test_any_64_bit_seeds_match_seed_sequence(self, seeds):
        self.assert_same(seeds)

    def test_takes_uint64_arrays_and_masks_ints_as_rng_stream_does(self):
        seeds = derive_seeds(5, np.arange(10))
        assert [s.seed for s in RngStream.many(seeds)] == seeds.tolist()
        assert [s.seed for s in RngStream.many([-1, 2**64 + 2])] == [2**64 - 1, 2]
        assert RngStream.many([]) == []


def test_stream_replay_is_identical():
    def run(stream):
        return [float(stream.uniform_vec(())) for _ in range(5)] + list(stream.normal_vec(3))

    assert run(RngStream(123)) == run(RngStream(123))
