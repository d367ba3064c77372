"""Noisy parallel decoding: M independent chains of an inner decoder with
annealed Gaussian noise injected into the hidden transition, rescored under
the non-noisy model.

Chain m derives its seed as a fixed function of (base_seed, m), so the chain
set for M parallel processes is a strict superset of the set for any M' < M:
growing M can only improve the selected score. Chain 0 optionally runs with
zero noise, which guarantees the selection is never worse than a single run
of the inner decoder.

This is the only module that draws random numbers while decoding: chain m's
private Gaussian stream, scaled by sigma_t = sigma0 / t at step t, and a
sampling chain's private uniforms, both drawn up front. All chains run as
the searches of one `decode.search_rows` call, so every step of every chain
is a row of one batched step; each noisy row takes the next standard normal
row of its chain's stream. Rows never interact, so each chain's result is
bitwise the one it gets when run alone. A zero-noise chain's own score is
its non-noisy replay; the distinct outputs of the noisy chains are rescored
together as rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, RngStream, categorical_rows, derive_seed
from .decode import DecodeLimits, Hypothesis, force_scores, greedy_pick, resolve_limits, search_rows

INNER_DECODERS = ("greedy", "beam", "sample")


@dataclass(frozen=True)
class NpadConfig:
    chains: int
    sigma0: float
    inner: str = "greedy"
    beam_width: int = 1
    include_zero_chain: bool = True
    base_seed: int = 0
    limits: DecodeLimits | None = None

    def __post_init__(self):
        if self.chains < 1:
            raise ContractError(f"chain count must be >= 1, got {self.chains}")
        if not 0 <= self.sigma0 < float("inf"):
            raise ContractError(f"sigma0 must be finite and >= 0, got {self.sigma0}")
        if self.inner not in INNER_DECODERS:
            raise ContractError(f"inner decoder must be one of {INNER_DECODERS}, got {self.inner!r}")
        if self.beam_width < 1:
            raise ContractError(f"beam width must be >= 1, got {self.beam_width}")


@dataclass
class ChainResult:
    chain_index: int
    hypothesis: Hypothesis
    noisy_logp: float
    rescored_logp: float
    sigma0_effective: float


def _sigma0(cfg: NpadConfig, m: int) -> float:
    return 0.0 if (m == 0 and cfg.include_zero_chain) else cfg.sigma0


def _stream(cfg: NpadConfig, m: int, which: int) -> RngStream:
    """Chain m's private stream: 0 for its noise, 1 for its sampling uniforms."""
    return RngStream(derive_seed(derive_seed(cfg.base_seed, m), which))


def _chain_noise(cfg: NpadConfig, chains: list[int], draws: int, dim: int):
    """The chains' noise as `search_rows` takes it, or None when no chain is
    noisy. Each noisy chain draws `draws` standard normal rows of its stream
    up front; at step t its rows take the next ones in order, times
    sigma0 / t. A zero-noise chain draws nothing and gets zero rows.
    """
    sigma0 = np.array([_sigma0(cfg, m) for m in chains])
    noisy = np.flatnonzero(sigma0)
    if not noisy.size:
        return None
    # the noisy chains' draws back to back, then the zero-noise chains' zero row
    table = np.zeros((noisy.size * draws + 1, dim))
    start = np.zeros(len(chains), dtype=np.int64)
    for k, i in enumerate(noisy):
        start[i] = k * draws
        table[start[i]:start[i] + draws] = _stream(cfg, chains[i], 0).normal_vec((draws, dim))
    used = np.zeros(len(chains), dtype=np.int64)

    def noise(t, beams):
        # a chain's rows are contiguous: each takes the next unused row of its chain
        nth = start[beams] + used[beams] + np.arange(beams.size) - np.searchsorted(beams, beams)
        used[:] += np.bincount(beams, minlength=len(chains))
        return table[np.where(sigma0[beams] > 0, nth, -1)] * (sigma0[beams] / t)[:, None]

    return noise


def _sampler(cfg: NpadConfig, chains: list[int], steps: int):
    """The sampling `pick`: each chain draws its `steps` uniforms up front and
    picks its step-t token with the t-th."""
    u = np.array([_stream(cfg, m, 1).uniform_vec(steps) for m in chains])
    return lambda t, logp, beams: categorical_rows(np.exp(logp), u[beams, t - 1])


def run_chains(model, cfg: NpadConfig, chains) -> list[ChainResult]:
    """Run the given chains of the configuration against a bound model, as
    the searches of one `search_rows` call.

    Chain m's result does not depend on which other chains run with it.
    """
    chains = list(chains)
    for m in chains:
        if not 0 <= m < cfg.chains:
            raise ContractError(f"chain index {m} outside 0..{cfg.chains - 1}")
    limits = resolve_limits(model, cfg.limits)
    width = cfg.beam_width if cfg.inner == "beam" else 1
    if cfg.inner == "sample":
        pick = _sampler(cfg, chains, limits.max_len)
    else:
        pick = greedy_pick if cfg.inner == "greedy" else None
    # a beam chain has one row at step 1 and at most `width` rows after it
    found = search_rows(model, len(chains), width, pick=pick, limits=limits,
                        noise=_chain_noise(cfg, chains, 1 + (limits.max_len - 1) * width,
                                           model.state_dim))
    hyps = [best for best, _ in found]
    sigmas = [_sigma0(cfg, m) for m in chains]
    # a zero-noise chain's own score is its replay; only noisy outputs are rescored
    distinct = list(dict.fromkeys(tuple(h.tokens) for h, s in zip(hyps, sigmas) if s))
    rescored = dict(zip(distinct, force_scores(model, distinct)))
    return [ChainResult(m, h, h.logp, rescored[tuple(h.tokens)] if s else h.logp, s)
            for m, h, s in zip(chains, hyps, sigmas)]


def select_best(results: list[ChainResult]) -> ChainResult:
    """Argmax of the non-noisy rescore; ties go to the lowest chain index.

    Completed chains are preferred: an unfinished prefix's log-probability is
    not comparable to a complete sequence's. Only when every chain is
    incomplete is the best incomplete one returned.
    """
    pool = [r for r in results if r.hypothesis.complete] or results
    best = pool[0]
    for r in pool[1:]:
        if r.rescored_logp > best.rescored_logp:
            best = r
    return best


def npad_search(model, cfg: NpadConfig):
    """Run all chains against a bound model; returns (best, all results)."""
    results = run_chains(model, cfg, range(cfg.chains))
    return select_best(results), results
