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
sampling chain's private uniforms. Greedy and sampling chains advance in
lockstep as the rows of one batched step and draw their noise up front as a
(max_len, d) table; a beam chain's live hypotheses are the rows of its own
steps, and it draws one row per live hypothesis as it goes. Rows never
interact, so each chain's result is bitwise the one it gets when run alone.
A zero-noise chain's own score is its non-noisy replay; the distinct outputs
of the noisy chains are rescored together as rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, RngStream, categorical_rows, derive_seed
from .decode import (
    DecodeLimits,
    Hypothesis,
    beam_search,
    force_scores,
    greedy_pick,
    lockstep_search,
    resolve_limits,
)

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


def _noise_table(cfg: NpadConfig, m: int, steps: int, dim: int) -> np.ndarray:
    """Chain m's noise for steps 1..steps, drawn up front: row t-1 is sigma_t
    times a standard normal row, and zeros, drawing nothing, where sigma_t is 0."""
    sigmas = _sigma0(cfg, m) / np.arange(1, steps + 1)
    drawn = np.count_nonzero(sigmas)          # sigma_t decreases: zeros come last
    out = np.zeros((steps, dim))
    out[:drawn] = _stream(cfg, m, 0).normal_vec((drawn, dim)) * sigmas[:drawn, None]
    return out


def _live_noise(cfg: NpadConfig, m: int, dim: int):
    """Chain m's noise drawn as it goes: at step t, one sigma_t row per live
    row, or None, drawing nothing, where sigma_t is 0."""
    rng, sigma0 = _stream(cfg, m, 0), _sigma0(cfg, m)
    return lambda t, rows: rng.normal_vec((rows.size, dim)) * (sigma0 / t) if sigma0 / t else None


def _lockstep(model, cfg: NpadConfig, chains: list[int], limits: DecodeLimits):
    """Greedy or sampling chains as the rows of one lockstep decode."""
    noise = None
    if any(_sigma0(cfg, m) for m in chains):
        table = np.stack([_noise_table(cfg, m, limits.max_len, model.state_dim) for m in chains])

        def noise(t, rows):
            return table[rows, t - 1]

    if cfg.inner == "greedy":
        pick = greedy_pick
    else:
        samplers = [_stream(cfg, m, 1) for m in chains]

        def pick(logp, rows):
            return categorical_rows(np.exp(logp), np.array([samplers[r].uniform() for r in rows]))

    return lockstep_search(model, len(chains), pick, noise, limits)


def run_chains(model, cfg: NpadConfig, chains) -> list[ChainResult]:
    """Run the given chains of the configuration against a bound model.

    Chain m's result does not depend on which other chains run with it.
    """
    chains = list(chains)
    for m in chains:
        if not 0 <= m < cfg.chains:
            raise ContractError(f"chain index {m} outside 0..{cfg.chains - 1}")
    limits = resolve_limits(model, cfg.limits)
    if cfg.inner == "beam":
        hyps = [beam_search(model, cfg.beam_width, _live_noise(cfg, m, model.state_dim), limits)[0]
                for m in chains]
    else:
        hyps = _lockstep(model, cfg, chains, limits)
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
