"""Inner decoding strategies: greedy, beam, diverse beam, and an exhaustive
oracle for tiny instances, plus the lockstep engine and batched rescoring.

Nothing here draws a random number. An engine that can run noisy takes a
`noise(t, rows)` callable giving the step-t noise rows of its batch rows,
and a lockstep decode takes its token rule as a `pick` callable; the chains
module builds both from each chain's private streams. Engines operate on the
batched step interface of `model.BoundModel` (or any object with the same
surface) and advance all their rows through one `step_batch` call per step:
independent decodes in lockstep, a beam's live hypotheses, an exhaustive
search level or a set of sequences being rescored. A model bound to one
source is `model.BoundModel(params, source)`.

Scores are raw cumulative log-probabilities; no length normalization is
applied anywhere. Top-K ties break by (score desc, parent index asc, token
index asc) and completed-hypothesis ties lexicographically by token indices,
so runs are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ContractError
from .model import VocabError

MAX_EXACT_SPACE = 10**6
# Rows per kernel call in the exhaustive search: bounds its (rows, source_len,
# d_hid) attention temporaries, which a whole level of prefixes would not.
EXACT_ROWS = 1024


class SearchSpaceError(ValueError):
    """Exhaustive decoding was asked for an intractably large space."""


@dataclass(frozen=True)
class DecodeLimits:
    max_len: int

    def __post_init__(self):
        if self.max_len < 1:
            raise ContractError(f"max_len must be >= 1, got {self.max_len}")


def default_limits(source_len: int) -> DecodeLimits:
    return DecodeLimits(max_len=2 * source_len + 5)


def resolve_limits(model, limits: DecodeLimits | None) -> DecodeLimits:
    if limits is not None:
        return limits
    return default_limits(getattr(model, "source_len", 1))


@dataclass
class Hypothesis:
    tokens: list[int]
    logp: float
    complete: bool


def force_scores(model, sequences) -> list[float]:
    """Non-noisy log-probability of each token sequence, teacher-forced
    together as rows of one batch.

    Rows run longest first, so the rows still running at step t are a prefix
    of the batch. Each value is bitwise the one-sequence replay.
    """
    seqs = [list(s) for s in sequences]
    if not seqs:
        return []
    if not all(seqs):
        raise ContractError("cannot score an empty token sequence")
    if any(not 0 <= tok < model.n_tokens for s in seqs for tok in s):
        raise VocabError(f"token index out of range (|V_tgt|={model.n_tokens})")
    order = sorted(range(len(seqs)), key=lambda i: -len(seqs[i]))
    lengths = np.array([len(seqs[i]) for i in order])
    forced = np.zeros((len(seqs), lengths[0]), dtype=np.int64)
    for row, i in enumerate(order):
        forced[row, :lengths[row]] = seqs[i]
    running = (lengths > np.arange(lengths[0])[:, None]).sum(axis=1)   # rows still running at step t
    index = np.arange(len(seqs))
    H = np.tile(model.initial().h, (len(seqs), 1))
    prev = np.full(len(seqs), model.bos)
    totals = np.zeros(len(seqs))
    for t, b in enumerate(running):
        H, logp = model.step_batch(H[:b], prev[:b])
        prev = forced[:b, t]
        totals[:b] += logp[index[:b], prev]
    scores = [0.0] * len(seqs)
    for row, i in enumerate(order):
        scores[i] = float(totals[row])
    return scores


def force_score(model, tokens) -> float:
    """Non-noisy log-probability of `tokens` under the bound model (replay)."""
    return force_scores(model, [tokens])[0]


def lockstep_search(model, n: int, pick, noise=None,
                    limits: DecodeLimits | None = None) -> list[Hypothesis]:
    """Run n independent decodes in lockstep, one batch row each.

    `pick(logp, rows)` chooses the next token of each running row from its
    (len(rows), V) log-probabilities; `rows` holds the decode indices of the
    batch rows. `noise(t, rows)` gives their step-t noise rows, or None. A
    decode leaves the batch at EOS or max_len; its score accumulates the same
    (possibly noisy) distributions its tokens were picked from.
    """
    limits = resolve_limits(model, limits)
    rows = np.arange(n)
    H = np.tile(model.initial().h, (n, 1))
    prev = np.full(n, model.bos)
    scores = np.zeros(n)
    tokens = np.zeros((n, limits.max_len), dtype=np.int64)
    out: list = [None] * n
    for t in range(1, limits.max_len + 1):
        H, logp = model.step_batch(H, prev, noise(t, rows) if noise else None)
        prev = np.asarray(pick(logp, rows))
        scores += logp[np.arange(rows.size), prev]
        tokens[:, t - 1] = prev
        ended = prev == model.eos
        if t == limits.max_len:
            ended[:] = True
        if ended.any():
            for i in np.flatnonzero(ended):
                out[rows[i]] = Hypothesis(tokens[i, :t].tolist(), float(scores[i]),
                                          bool(prev[i] == model.eos))
            keep = ~ended
            rows, H, prev, scores, tokens = rows[keep], H[keep], prev[keep], scores[keep], tokens[keep]
            if not rows.size:
                break
    return out


def greedy_pick(logp, rows):
    """The argmax token of each row: `lockstep_search`'s greedy `pick`."""
    return np.argmax(logp, axis=1)


def greedy_search(model, limits: DecodeLimits | None = None) -> Hypothesis:
    """Stepwise argmax decoding; stops at EOS or max_len."""
    return lockstep_search(model, 1, greedy_pick, None, limits)[0]


def _better_completed(a: Hypothesis, b: Hypothesis | None) -> bool:
    """True when `a` should replace `b`: higher score, lexicographic on ties."""
    if b is None:
        return True
    if a.logp != b.logp:
        return a.logp > b.logp
    return a.tokens < b.tokens


def _best(hyps):
    best = None
    for hyp in hyps:
        if _better_completed(hyp, best):
            best = hyp
    return best


def _beam_engine(model, width: int, eta: float, noise, limits: DecodeLimits):
    """Shared beam loop; eta > 0 adds the per-parent sibling rank penalty.

    The live hypotheses are the rows of one step. Live width starts at
    `width` and shrinks by one for every hypothesis that completes; the
    search stops when it reaches zero or max_len is hit. Penalties affect
    selection only: stored scores stay unpenalized.
    """
    if width < 1:
        raise ContractError(f"beam width must be >= 1, got {width}")
    if not math.isfinite(eta) or eta < 0:
        raise ContractError(f"eta must be finite and >= 0, got {eta}")
    n_tokens = model.n_tokens
    H = model.initial().h[None]
    prev = np.array([model.bos])
    scores = np.zeros(1)
    live: list[list[int]] = [[]]
    completed: list[Hypothesis] = []
    k_live = width
    for t in range(1, limits.max_len + 1):
        H, logp = model.step_batch(H, prev, noise(t, np.arange(len(live))) if noise else None)
        raw = scores[:, None] + logp
        sel = raw
        if eta:
            # rank r of each token among its parent's expansions: score desc, token asc
            rank = np.empty_like(logp)
            np.put_along_axis(rank, np.argsort(-logp, axis=1, kind="stable"),
                              np.arange(1.0, n_tokens + 1), axis=1)
            sel = raw - eta * rank
        # A stable sort of the row-major candidates keeps ties in (parent, token) order.
        top = np.argsort(-sel, axis=None, kind="stable")[:k_live]
        kept = []
        next_live = []
        for flat in top:
            pi, tok = divmod(int(flat), n_tokens)
            tokens = live[pi] + [tok]
            if tok == model.eos:
                completed.append(Hypothesis(tokens, float(raw[pi, tok]), True))
                k_live -= 1
            else:
                kept.append(flat)
                next_live.append(tokens)
        live = next_live
        if k_live <= 0 or not live:
            break
        kept = np.array(kept)
        H, prev, scores = H[kept // n_tokens], kept % n_tokens, raw.ravel()[kept]
    if completed:
        return _best(completed), completed
    return _best(Hypothesis(tokens, float(scores[i]), False)
                 for i, tokens in enumerate(live)), []


def beam_search(model, width: int, noise=None, limits: DecodeLimits | None = None):
    """Beam search; returns (best completed hypothesis, all completed).

    If nothing completes within max_len, the best live hypothesis is returned
    flagged incomplete and the completed list is empty. `noise(t, rows)`,
    when given, supplies the step-t noise rows of the live hypotheses `rows`,
    as `lockstep_search` takes it.
    """
    return _beam_engine(model, width, 0.0, noise, resolve_limits(model, limits))


def diverse_beam_search(model, width: int, eta: float, limits: DecodeLimits | None = None):
    """Beam search where the r-th ranked expansion of each parent has its
    selection score reduced by eta * r. Reported scores are unpenalized.
    """
    return _beam_engine(model, width, eta, None, resolve_limits(model, limits))


def exact_search(model, limits: DecodeLimits | None = None) -> Hypothesis:
    """Enumerate every EOS-terminated sequence up to max_len; return the argmax.

    Runs level by level: every prefix of one length is a row of one step.
    Ties break lexicographically by token indices. Tractable only for tiny
    vocabularies and lengths; refuses spaces above 10^6 sequences.
    """
    limits = resolve_limits(model, limits)
    if model.n_tokens ** limits.max_len > MAX_EXACT_SPACE:
        raise SearchSpaceError(
            f"search space {model.n_tokens}^{limits.max_len} exceeds {MAX_EXACT_SPACE}")
    eos = model.eos
    others = np.array([tok for tok in range(model.n_tokens) if tok != eos])
    H = model.initial().h[None]
    prev = np.array([model.bos])
    scores = np.zeros(1)
    prefixes = np.zeros((1, 0), dtype=np.int64)
    best: Hypothesis | None = None
    for depth in range(1, limits.max_len + 1):
        steps = [model.step_batch(H[i:i + EXACT_ROWS], prev[i:i + EXACT_ROWS])
                 for i in range(0, prev.size, EXACT_ROWS)]
        H = np.concatenate([h for h, _ in steps])
        logp = np.concatenate([lp for _, lp in steps])
        ends = scores + logp[:, eos]
        ties = np.flatnonzero(ends == ends.max())
        i = min(ties, key=lambda k: prefixes[k].tolist())
        cand = Hypothesis(prefixes[i].tolist() + [eos], float(ends[i]), True)
        if _better_completed(cand, best):
            best = cand
        if depth == limits.max_len:
            break
        n = scores.size
        scores = (scores[:, None] + logp[:, others]).ravel()
        prev = np.tile(others, n)
        prefixes = np.hstack([np.repeat(prefixes, others.size, axis=0), prev[:, None]])
        H = np.repeat(H, others.size, axis=0)
    return best
