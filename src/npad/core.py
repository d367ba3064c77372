"""Dense float64 primitives and seeded randomness used by every other module.

Everything here is pure: values are immutable once built and safe to share
across workers. Each worker owns its RngStream exclusively.
"""
from __future__ import annotations

from numbers import Integral, Real

import numpy as np
from numpy.random.bit_generator import ISeedSequence

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment
# The array forms below keep every operand uint64: int64 with uint64 promotes
# to float64. Their constants are arrays of one: under numpy 2.4 a uint64
# array times a Python int or a numpy scalar took 1.2 to 2 times as long.
_SPLITMIX_ADD, _SPLITMIX_MUL1, _SPLITMIX_MUL2 = np.array(
    [[_GAMMA], [0xBF58476D1CE4E5B9], [0x94D049BB133111EB]], dtype=np.uint64)
_ONE64, _S27, _S30, _S31, _S32 = np.array([[1], [27], [30], [31], [32]], dtype=np.uint64)
_S16 = np.array([16], dtype=np.uint32)


class ContractError(ValueError):
    """An argument violated a documented precondition."""


def is_integer(value) -> bool:
    """An int or a numpy integer; a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A real number (int, float or numpy number); a bool is not one."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _splitmix64(x: int) -> int:
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def derive_seed(base_seed: int, index: int) -> int:
    """Child seed for stream `index` under `base_seed`.

    Fixed mixing function of both arguments, so the family of streams derived
    from one base seed nests: growing the index range never changes the seeds
    already handed out.
    """
    if index < 0:
        raise ContractError(f"stream index must be >= 0, got {index}")
    return _splitmix64((base_seed + (index + 1) * _GAMMA) & MASK64)


def _uint64(values) -> np.ndarray:
    """An integer array, or integers each taken modulo 2^64 as a flat array,
    as uint64 of at least one dimension (an array of one is never a numpy
    scalar, whose arithmetic warns on overflow)."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        values = np.array([int(v) & MASK64 for v in np.asarray(values, dtype=object).flat],
                          dtype=np.uint64)
    return np.atleast_1d(values.astype(np.uint64, copy=False))


def derive_seeds(base_seeds, indices) -> np.ndarray:
    """`derive_seed` elementwise, as a uint64 array: element i is
    derive_seed(base_seeds[i], indices[i]), where either may be one integer
    that every element shares."""
    if np.any(np.asarray(indices) < 0):
        raise ContractError(f"stream indices must be >= 0, got {indices}")
    x = _uint64(base_seeds) + (_uint64(indices) + _ONE64) * _SPLITMIX_ADD
    x = (x ^ x >> _S30) * _SPLITMIX_MUL1
    x = (x ^ x >> _S27) * _SPLITMIX_MUL2
    return x ^ x >> _S31


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """A SeedSequence hash's running constant before its first call and after
    each of its `calls` calls (times `mult` per call), as a uint32 column."""
    constants = [init]
    for _ in range(calls):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    return np.array(constants, dtype=np.uint32)[:, None]


# numpy's SeedSequence (numpy/random/bit_generator.pyx) with its default
# pool of 4 words. Its hash constants follow from the number of calls alone,
# not from the data: the pool takes 4 + 4 * 3 calls of the first hash, and
# 4 uint64 state words (8 uint32 words) 8 calls of the second.
_POOL = 4
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_MIX_L, _MIX_R = np.array([[0xCA01F9DD], [0x4973F715]], dtype=np.uint32)
# the pool words each pass hashes its source word into
_OTHERS = [np.array([i for i in range(_POOL) if i != src]) for src in range(_POOL)]


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of row i of `values` with its i-th call's
    constants: XOR constants[i], multiply by constants[i + 1]."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ values >> _S16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> _S16


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """Row i is `np.random.SeedSequence(seeds[i]).generate_state(4, np.uint64)`,
    the words that seed a PCG64, for a uint64 array of seeds.

    SeedSequence's pool hash on (words, seeds) uint32 arrays. A seed's
    entropy is its low and high 32-bit words, then zeros to fill the pool; a
    seed below 2^32 is its low word alone, which hashes the same since the
    pool pads with zeros too. Each pass hashes one source word into the
    other three pool words at once."""
    entropy = np.zeros((_POOL, seeds.size), dtype=np.uint32)
    entropy[0], entropy[1] = seeds.astype(np.uint32), (seeds >> _S32).astype(np.uint32)
    pool = _hashmix(entropy, _POOL_HASH[:_POOL + 1])
    for src, dst in enumerate(_OTHERS):
        calls = _POOL + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _POOL_HASH[calls:calls + 4]))
    # 8 uint32 words from the pool cycled twice, two per uint64 word, low first
    words = _hashmix(np.concatenate([pool, pool]), _STATE_HASH).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << _S32).T)


class _StateWords(ISeedSequence):
    """The seed sequence of one PCG64 whose state words are already known."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words   # PCG64 asks for 4 uint64 words


class RngStream:
    """Deterministic random stream: same seed, same call sequence, same draws."""

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @classmethod
    def many(cls, seeds) -> list["RngStream"]:
        """`[RngStream(s) for s in seeds]`, seeded in one pass: each PCG64
        gets the words numpy's `SeedSequence(s)` would give it
        (`_seed_states`), so the generators and their draws are the same."""
        seeds = _uint64(seeds)
        streams = [cls.__new__(cls) for _ in range(seeds.size)]
        for stream, seed, words in zip(streams, seeds.tolist(), _seed_states(seeds)):
            stream.seed = seed
            stream._gen = np.random.Generator(np.random.PCG64(_StateWords(words)))
        return streams

    def child(self, index: int) -> "RngStream":
        return RngStream(derive_seed(self.seed, index))

    def uniform_vec(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def normal_vec(self, shape, out: np.ndarray | None = None) -> np.ndarray:
        """Standard normals of `shape`, drawn into `out` (a C-contiguous float64
        array of that shape) when it is given: the same draws either way."""
        return self._gen.standard_normal(shape, out=out)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max-subtraction): each row is
    positive and sums to 1. Unchecked; the callers pass finite floats."""
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Stable log-softmax along the last axis; exp of the result matches softmax()."""
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    total = np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    return np.subtract(shifted, total, out=shifted)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, both from one exp(-|x|): the numerator is
    max(e, 1) = 1 where x >= 0 (there e <= 1) and max(e, 0) = e below."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def gaussian_vec(rng: RngStream, dim: int, sigma: float) -> np.ndarray:
    """dim i.i.d. draws from N(0, sigma^2): a one-vector helper the benchmark reads.

    sigma == 0 returns the exact zero vector without consuming any draws, so
    a zero-noise stream is bitwise identical to no stream at all.
    """
    if dim < 1:
        raise ContractError(f"dim must be >= 1, got {dim}")
    if sigma < 0:
        raise ContractError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return np.zeros(dim)
    return rng.normal_vec(dim) * sigma


def categorical_rows(P: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise categorical pick: row i of P (B, V) picks with its uniform u[i].

    The pick is the number of cumulative probabilities at or below u[i]
    (the last index past the end), stepped back over zero-probability
    entries. Unchecked: each row of P must be a distribution.
    """
    cum = np.cumsum(P, axis=1)
    idx = np.minimum((cum <= u[:, None]).sum(axis=1), P.shape[1] - 1)
    # the last nonzero entry at or before each index (0 when there is none)
    last = np.maximum.accumulate(np.where(P != 0.0, np.arange(P.shape[1]), 0), axis=1)
    return last[np.arange(idx.size), idx]
