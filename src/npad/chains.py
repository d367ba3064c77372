"""Noisy parallel decoding: M independent chains of an inner decoder with
annealed Gaussian noise injected into the hidden transition, rescored under
the non-noisy model.

The chains are configured by the experiment cell itself (`evaluate.Cell`).
Chain m derives its seed as a fixed function of (seed, m), so the chain
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


@dataclass
class ChainResult:
    chain_index: int
    hypothesis: Hypothesis
    noisy_logp: float
    rescored_logp: float
    sigma0_effective: float


def _sigma0(cell, m: int) -> float:
    return 0.0 if (m == 0 and cell.include_zero_chain) else cell.sigma0 or 0.0


def _stream(seed: int, m: int, which: int) -> RngStream:
    """Chain m's private stream: 0 for its noise, 1 for its sampling uniforms."""
    return RngStream(derive_seed(derive_seed(seed, m), which))


def _chain_noise(cell, seed: int, chains: list[int], draws: int, dim: int):
    """The chains' noise as `search_rows` takes it, or None when no chain is
    noisy. Each noisy chain draws `draws` standard normal rows of its stream
    up front; at step t its rows take the next ones in order, times
    sigma0 / t. A zero-noise chain draws nothing and gets zero rows.
    """
    sigma0 = np.array([_sigma0(cell, m) for m in chains])
    noisy = np.flatnonzero(sigma0)
    if not noisy.size:
        return None
    # the noisy chains' draws back to back, then the zero-noise chains' zero row
    table = np.zeros((noisy.size * draws + 1, dim))
    start = np.zeros(len(chains), dtype=np.int64)
    for k, i in enumerate(noisy):
        start[i] = k * draws
        table[start[i]:start[i] + draws] = _stream(seed, chains[i], 0).normal_vec((draws, dim))
    used = np.zeros(len(chains), dtype=np.int64)

    def noise(t, beams):
        # a chain's rows are contiguous: each takes the next unused row of its chain
        nth = start[beams] + used[beams] + np.arange(beams.size) - np.searchsorted(beams, beams)
        used[:] += np.bincount(beams, minlength=len(chains))
        return table[np.where(sigma0[beams] > 0, nth, -1)] * (sigma0[beams] / t)[:, None]

    return noise


def _sampler(seed: int, chains: list[int], steps: int):
    """The sampling `pick`: each chain draws its `steps` uniforms up front and
    picks its step-t token with the t-th."""
    u = np.array([_stream(seed, m, 1).uniform_vec(steps) for m in chains])
    return lambda t, logp, beams: categorical_rows(np.exp(logp), u[beams, t - 1])


def run_chains(model, cell, seed: int, chains,
               limits: DecodeLimits | None = None) -> list[ChainResult]:
    """Run the given chains of a sample or npad `evaluate.Cell` against a
    bound model, as the searches of one `search_rows` call.

    The cell has `cell.chains or 1` chains. Chain m adds noise of scale
    `cell.sigma0 or 0.0`, or none when it is the zero chain (m = 0 under
    `cell.include_zero_chain`). A sample cell's chains sample their tokens;
    the others search greedily, or as a beam when `cell.beam_width` is above
    1. Every stream derives from `seed`, and chain m's result does not depend
    on which other chains run with it.
    """
    chains = list(chains)
    count = cell.chains or 1
    for m in chains:
        if not 0 <= m < count:
            raise ContractError(f"chain index {m} outside 0..{count - 1}")
    limits = resolve_limits(model, limits)
    if cell.strategy == "sample":
        width, pick = 1, _sampler(seed, chains, limits.max_len)
    else:
        width = cell.beam_width or 1
        pick = greedy_pick if width == 1 else None
    # a beam chain has one row at step 1 and at most `width` rows after it
    found = search_rows(model, len(chains), width, pick=pick, limits=limits,
                        noise=_chain_noise(cell, seed, chains,
                                           1 + (limits.max_len - 1) * width, model.state_dim))
    hyps = [best for best, _ in found]
    sigmas = [_sigma0(cell, m) for m in chains]
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


def npad_search(model, cell, seed: int, limits: DecodeLimits | None = None):
    """Run every chain of a sample or npad cell against a bound model (see
    `run_chains`); returns (best, all results)."""
    results = run_chains(model, cell, seed, range(cell.chains or 1), limits)
    return select_best(results), results
