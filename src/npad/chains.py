"""Noisy parallel decoding: M independent chains of an inner decoder with
annealed Gaussian noise injected into the hidden transition, rescored under
the non-noisy model.

Chain m derives its seed as a fixed function of (base_seed, m), so the chain
set for M parallel processes is a strict superset of the set for any M' < M:
growing M can only improve the selected score. Chain 0 optionally runs with
zero noise, which guarantees the selection is never worse than a single run
of the inner decoder.

Greedy and sampling chains advance in lockstep as the rows of one batched
step; a beam chain's live hypotheses are the rows of its own steps. Rows never
interact, so each chain's result is bitwise the one it gets when run alone.
The distinct chain outputs are then rescored together as rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, RngStream, categorical_rows, derive_seed
from .decode import (
    DecodeLimits,
    Hypothesis,
    NoiseSchedule,
    ScheduledNoise,
    beam_search,
    force_scores,
    lockstep_search,
    resolve_limits,
)

INNER_DECODERS = ("greedy", "beam", "sample")


@dataclass(frozen=True)
class NpadConfig:
    chains: int
    schedule: NoiseSchedule
    inner: str = "greedy"
    beam_width: int = 1
    include_zero_chain: bool = True
    base_seed: int = 0
    limits: DecodeLimits | None = None

    def __post_init__(self):
        if self.chains < 1:
            raise ContractError(f"chain count must be >= 1, got {self.chains}")
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
    return 0.0 if (m == 0 and cfg.include_zero_chain) else cfg.schedule.sigma0


def _noise(cfg: NpadConfig, m: int, dim: int) -> ScheduledNoise | None:
    """Chain m's private noise stream; None for a zero-noise chain."""
    sigma0 = _sigma0(cfg, m)
    if sigma0 == 0.0:
        return None
    return ScheduledNoise(RngStream(derive_seed(derive_seed(cfg.base_seed, m), 0)),
                          NoiseSchedule(sigma0), dim)


def _lockstep(model, cfg: NpadConfig, chains: list[int], limits: DecodeLimits):
    """Greedy or sampling chains as the rows of one lockstep decode."""
    noises = [_noise(cfg, m, model.state_dim) for m in chains]
    noise = None
    if any(noises):
        # Each chain's whole stream up front: the values its per-step draws would take.
        table = np.stack([n.table(limits.max_len) if n else np.zeros((limits.max_len, model.state_dim))
                          for n in noises])

        def noise(t, rows):
            return table[rows, t - 1]

    if cfg.inner == "greedy":
        def pick(logp, rows):
            return np.argmax(logp, axis=1)
    else:
        samplers = [RngStream(derive_seed(derive_seed(cfg.base_seed, m), 1)) for m in chains]

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
        hyps = [beam_search(model, cfg.beam_width, _noise(cfg, m, model.state_dim), limits)[0]
                for m in chains]
    else:
        hyps = _lockstep(model, cfg, chains, limits)
    distinct = list(dict.fromkeys(tuple(h.tokens) for h in hyps))
    rescored = dict(zip(distinct, force_scores(model, distinct)))
    return [ChainResult(m, h, h.logp, rescored[tuple(h.tokens)], _sigma0(cfg, m))
            for m, h in zip(chains, hyps)]


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
