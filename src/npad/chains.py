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
sampling chain's private uniforms, both drawn in blocks as the steps need
them. All chains run as the searches of one `decode.search_rows` call
(two when the zero chain runs first, below), so every step of every chain
is a row of one batched step; each noisy row takes the next standard normal
row of its chain's stream. Rows never interact, so each chain's result is
bitwise the one it gets when run alone.

A zero-noise chain's own score is its non-noisy replay. Noisy greedy and
sampling chains are rescored inside the same search: each step also runs
one non-noisy replay row per distinct noisy prefix (`search_rows`'s
`replay`), with no rescoring pass after it. A noisy beam chain's output is
known only when its search ends, and replaying every live beam row would
cost about `width` times the rows, so the distinct outputs of noisy beam
chains are rescored by one forced search after it (`decode.forced_scores`).

Selection reads only the non-noisy score, which never rises (no
log-probability is above 0). So when the caller keeps no chain results, a
greedy or sampling chain strictly below a completed chain's score stops
early (`search_rows`'s `prune`): `select_best` prefers completed chains and
ties stay, so the selection keeps every bit. A greedy npad cell's zero
chain then runs alone first, as plain greedy, and the other chains run as a
second search whose bound starts at its score if it completed: the bound
acts from step 1, not from the first completion. Sampling cells, npad
without the zero chain and npad around beam keep the one search; a sampled
chain's score bounds too little to pay for a second search.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, RngStream, categorical_rows, derive_seeds
from .decode import DecodeLimits, Hypothesis, default_limits, forced_scores, greedy_pick, search_rows


@dataclass
class ChainResult:
    chain_index: int
    hypothesis: Hypothesis
    noisy_logp: float
    rescored_logp: float
    sigma0_effective: float


def _sigma0(cell, m: int) -> float:
    return 0.0 if (m == 0 and cell.include_zero_chain) else cell.sigma0 or 0.0


def _streams(seed: int, chains, which: int) -> list[RngStream]:
    """The chains' private streams, `which` 0 for their noise and 1 for their
    sampling uniforms: chain m's is RngStream(derive_seed(derive_seed(seed,
    m), which)), and all are seeded in one pass (`RngStream.many`)."""
    return RngStream.many(derive_seeds(derive_seeds(seed, np.asarray(chains)), which))


def _blocks(width: int, source_len: int, max_len: int) -> tuple[int, int]:
    """A chain's drawn rows as (first block, cap). A chain of beam `width`
    has one row at step 1 and at most `width` rows after it: at most
    `1 + (max_len - 1) * width` in all, and `1 + source_len * width` for an
    output one token longer than its source, which sizes the first block
    (at least 16)."""
    return max(16, 1 + source_len * width), 1 + (max_len - 1) * width


def _grown(table, need: int, blocks: tuple[int, int], live, draw):
    """`table` (chains, rows, ...) widened to hold `need` rows per chain: its
    rows start at the first of `blocks` (`_blocks`) and double, at least
    `need` and at most the cap. The grown table is allocated once, and each
    chain in `live` draws all its new rows straight into them with one
    `draw(i, out)` call; the others' new rows stay zero. Successive draws
    from one stream equal one draw of their total, so a chain's rows do not
    depend on when they were drawn."""
    first, cap = blocks
    have = table.shape[1]
    grown = np.zeros((table.shape[0], min(cap, max(need, 2 * have, first))) + table.shape[2:])
    grown[:, :have] = table
    for i in live:
        draw(i, grown[i, have:])
    return grown


def _chain_noise(cell, seed: int, chains: list[int], dim: int, blocks: tuple[int, int]):
    """The chains' noise as `search_rows` takes it, or None when no chain is
    noisy. Each noisy chain draws standard normal rows of its stream in
    `blocks` (`_grown`) as its steps need them; at step t its rows take the
    next ones in order, times sigma0 / t. A zero-noise chain draws nothing
    and gets zero rows.
    """
    sigma0 = np.array([_sigma0(cell, m) for m in chains])
    if not sigma0.any():
        return None
    noisy = np.flatnonzero(sigma0)
    streams = dict(zip(noisy.tolist(), _streams(seed, np.asarray(chains)[noisy], 0)))
    table = np.zeros((len(chains), 0, dim))
    used = np.zeros(len(chains), dtype=np.int64)

    def noise(t, beams):
        nonlocal table
        # a chain's rows are contiguous: each takes the next unused row of its chain
        nth = used[beams] + np.arange(beams.size) - np.searchsorted(beams, beams)
        used[:] += np.bincount(beams, minlength=len(chains))
        need = int(nth.max()) + 1
        if need > table.shape[1]:
            table = _grown(table, need, blocks,
                           [i for i in np.unique(beams).tolist() if i in streams],
                           lambda i, out: streams[i].normal_vec(out.shape, out=out))
        rows = table[beams, nth]
        rows *= (sigma0[beams] / t)[:, None]
        return rows

    return noise


def _sampler(seed: int, chains: list[int], blocks: tuple[int, int]):
    """The sampling `pick`: each chain draws uniforms in `blocks` (`_grown`)
    as its steps need them, and picks its step-t token with the t-th."""
    streams = _streams(seed, chains, 1)
    u = np.zeros((len(chains), 0))

    def pick(t, logp, beams):
        nonlocal u
        if t > u.shape[1]:
            u = _grown(u, t, blocks, beams.tolist(),
                       lambda i, out: np.copyto(out, streams[i].uniform_vec(out.size)))
        return categorical_rows(np.exp(logp), u[beams, t - 1])

    return pick


def run_chains(model, cell, seed: int, chains, limits: DecodeLimits | None = None,
               prune: bool = False) -> list[ChainResult]:
    """Run the given chains of a sample or npad `evaluate.Cell` against a
    bound model, as the searches of one `search_rows` call (two under
    `prune`, see below).

    The cell has `cell.chains or 1` chains. Chain m adds noise of scale
    `cell.sigma0 or 0.0`, or none when it is the zero chain (m = 0 under
    `cell.include_zero_chain`). A sample cell's chains sample their tokens;
    the others search greedily, or as a beam when `cell.beam_width` is above
    1. Every stream derives from `seed`, and chain m's result does not depend
    on which other chains run with it.

    Noisy greedy and sampling chains are rescored by their replay rows in
    the search, noisy beam chains by a forced search after it (see above).
    With `prune`, greedy and sampling chains that cannot win stop early, and
    their results are the prefixes they stopped at. A greedy npad cell that
    runs its zero chain among others then runs it alone first, and the
    others as a second search pruned from its completed score (see above);
    the results stay in the order of `chains`.
    """
    chains = list(chains)
    count = cell.chains or 1
    for m in chains:
        if not 0 <= m < count:
            raise ContractError(f"chain index {m} outside 0..{count - 1}")
    limits = limits or default_limits(model.source_len)
    if not (prune and cell.strategy == "npad" and (cell.beam_width or 1) == 1
            and cell.include_zero_chain and 0 in chains and len(chains) > 1):
        return _search(model, cell, seed, chains, limits, -np.inf if prune else None)
    [zero] = _search(model, cell, seed, [0], limits, None)
    rest = iter(_search(model, cell, seed, [m for m in chains if m], limits,
                        zero.rescored_logp if zero.hypothesis.complete else -np.inf))
    return [zero if m == 0 else next(rest) for m in chains]


def _search(model, cell, seed: int, chains: list[int], limits: DecodeLimits,
            prune: float | None) -> list[ChainResult]:
    """`run_chains`'s one search of the given chains, pruned from the bound
    `prune` (`search_rows`)."""
    sigmas = [_sigma0(cell, m) for m in chains]
    width = cell.beam_width or 1
    blocks = _blocks(width, model.source_len, limits.max_len)
    noise = _chain_noise(cell, seed, chains, model.state_dim, blocks)
    if width > 1:
        hyps = [best for best, _ in search_rows(model, len(chains), width, noise=noise,
                                                limits=limits)]
        # a zero-noise chain's own score is its replay; only noisy outputs are rescored
        distinct = list(dict.fromkeys(tuple(h.tokens) for h, s in zip(hyps, sigmas) if s))
        replays = dict(zip(distinct, forced_scores(model, distinct, limits.max_len)))
        rescored = [replays[tuple(h.tokens)] if s else h.logp for h, s in zip(hyps, sigmas)]
    else:
        pick = _sampler(seed, chains, blocks) if cell.strategy == "sample" else greedy_pick
        found, replayed = search_rows(model, len(chains), pick=pick, noise=noise, limits=limits,
                                      replay=np.array(sigmas) > 0, prune=prune)
        hyps = [best for best, _ in found]
        rescored = [r if s else h.logp for h, s, r in zip(hyps, sigmas, replayed.tolist())]
    return [ChainResult(m, h, h.logp, r, s) for m, h, r, s in zip(chains, hyps, rescored, sigmas)]


def select_best(results: list[ChainResult]) -> ChainResult:
    """Argmax of the non-noisy rescore; `max` keeps the first of equal
    scores, so ties go to the lowest chain index (results run in chain
    order).

    Completed chains are preferred: an unfinished prefix's log-probability is
    not comparable to a complete sequence's. Only when every chain is
    incomplete is the best incomplete one returned.
    """
    pool = [r for r in results if r.hypothesis.complete] or results
    return max(pool, key=lambda r: r.rescored_logp)


def npad_search(model, cell, seed: int, limits: DecodeLimits | None = None,
                keep_chains: bool = True):
    """Run every chain of a sample or npad cell against a bound model (see
    `run_chains`); returns (best, all results). Without `keep_chains` the
    chains that can no longer win stop early, and the results are None."""
    results = run_chains(model, cell, seed, range(cell.chains or 1), limits, not keep_chains)
    return select_best(results), results if keep_chains else None
