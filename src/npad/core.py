"""Dense float64 primitives and seeded randomness used by every other module.

Everything here is pure: values are immutable once built and safe to share
across workers. Each worker owns its RngStream exclusively.
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment


class ContractError(ValueError):
    """An argument violated a documented precondition."""


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


class RngStream:
    """Deterministic random stream: same seed, same call sequence, same draws."""

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, index: int) -> "RngStream":
        return RngStream(derive_seed(self.seed, index))

    def uniform(self) -> float:
        """One draw from U[0, 1)."""
        return float(self._gen.random())

    def uniform_vec(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def normal_vec(self, dim: int) -> np.ndarray:
        return self._gen.standard_normal(dim)

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
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Stable log-softmax along the last axis; exp of the result matches softmax()."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, both from one exp(-|x|)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def gaussian_vec(rng: RngStream, dim: int, sigma: float) -> np.ndarray:
    """dim i.i.d. draws from N(0, sigma^2).

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
