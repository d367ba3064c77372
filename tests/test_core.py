import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npad.core import (
    ContractError,
    RngStream,
    categorical_rows,
    categorical_sample,
    derive_seed,
    gaussian_vec,
    log_softmax,
    sigmoid,
    softmax,
)


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

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            softmax(np.array([1.0, np.inf]))
        with pytest.raises(ContractError):
            softmax(np.array([np.nan, 0.0]))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    def test_sums_to_one(self, xs):
        out = softmax(np.array(xs))
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out > 0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
           st.floats(-100, 100))
    def test_shift_invariance(self, xs, c):
        base = softmax(np.array(xs))
        shifted = softmax(np.array(xs) + c)
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_log_softmax_consistent(self, xs):
        np.testing.assert_allclose(np.exp(log_softmax(np.array(xs))),
                                   softmax(np.array(xs)), atol=1e-12)


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
    def test_point_mass(self):
        rng = RngStream(9)
        for _ in range(50):
            assert categorical_sample(rng, np.array([0.0, 1.0, 0.0])) == 1

    def test_determinism(self):
        probs = np.array([0.2, 0.3, 0.5])
        a = [categorical_sample(RngStream(4).child(i), probs) for i in range(20)]
        b = [categorical_sample(RngStream(4).child(i), probs) for i in range(20)]
        assert a == b

    def test_fair_coin_frequency(self):
        # binomial: sd of the frequency is ~0.0016 at n=1e5; 0.01 is >6 sigma
        rng = RngStream(21)
        n = 100_000
        zeros = sum(categorical_sample(rng, np.array([0.5, 0.5])) == 0 for _ in range(n))
        assert 0.49 <= zeros / n <= 0.51

    def test_invalid_distributions_rejected(self):
        rng = RngStream(0)
        with pytest.raises(ContractError):
            categorical_sample(rng, np.array([0.5, 0.6]))
        with pytest.raises(ContractError):
            categorical_sample(rng, np.array([1.5, -0.5]))
        with pytest.raises(ContractError):
            categorical_sample(rng, np.array([np.nan, 1.0]))

    @given(st.integers(0, 2**32), st.integers(2, 8))
    @settings(max_examples=50)
    def test_never_selects_zero_probability(self, seed, size):
        probs = np.zeros(size)
        probs[size // 2] = 1.0
        assert categorical_sample(RngStream(seed), probs) == size // 2


class FixedUniform:
    """A stream stand-in whose uniform draw is always u."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


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
        picks = categorical_rows(P, u).tolist()
        assert picks == [categorical_sample(FixedUniform(x), p) for x, p in zip(u, P)]
        assert picks == [searchsorted_pick(p, x) for x, p in zip(u, P)]

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


def test_stream_replay_is_identical():
    def run(stream):
        return [stream.uniform() for _ in range(5)] + list(stream.normal_vec(3))

    assert run(RngStream(123)) == run(RngStream(123))
