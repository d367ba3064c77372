"""Inner decoding strategies: greedy, beam, diverse beam, and an exhaustive
oracle for tiny instances, plus the shared search engine, the one forced
search (`forced_scores`) and sequence scoring (`score_sequence`). The
benchmark's one-sequence helper `force_score` is one call of it; nothing
here calls it.

Nothing here draws a random number. `search_rows` is the one search loop:
it runs any number of independent greedy, picked or beam searches, taking a
noisy run's noise as a `noise(t, beams)` callable and a picked run's token
rule as a `pick` callable; the chains module builds both from each chain's
private streams. A picked run can also replay its noisy searches under the
non-noisy model in its own steps (`replay`), one row per distinct prefix.
Engines operate on the batched step interface of `model.BoundModel` (or any
object with the same surface) and advance all their rows together, one
`step_batch` call per KERNEL_ROWS rows per step: every live hypothesis of
every search with its replay rows, or an exhaustive search level. A model
bound to one source is `model.BoundModel(params, source)`.

Scores are raw cumulative log-probabilities; no length normalization is
applied anywhere. Beam top-K bounds each search's expansions by their K-th
score and stable-sorts only those within the bound (`_first_k`), so ties
break by (score desc, parent index asc, token index asc), as a stable sort
of every expansion would break them. Hypotheses rank by `_rank`: score
desc, then token indices lexicographically, so of two equal scores the
lexicographically smaller sequence wins whatever its length, and runs are
reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backprop import pair_nlls
from .core import ContractError, is_integer
from .model import _vocab_indices
from .tasks import SequencePair

MAX_EXACT_SPACE = 10**6
# Largest sigma0 and eta a decode takes. The noise z * sigma0 / t (z a
# standard normal draw) and the rank penalty eta * r (r at most the
# vocabulary size) pass through the readout and add up over the steps; near
# the float maximum (1.8e308) they overflow to inf and the scores turn NaN.
# From 1e100 they stay finite unless the weights, vocabulary and decode
# length together grow them by more than 1e200.
MAX_SCALE = 1e100
# Rows per kernel call: bounds the (rows, source_len, d_hid) attention
# temporaries, which a whole exhaustive-search level or the live rows of many
# wide beams would not.
KERNEL_ROWS = 1024


class SearchSpaceError(ValueError):
    """Exhaustive decoding was asked for an intractably large space."""


@dataclass(frozen=True)
class DecodeLimits:
    max_len: int

    def __post_init__(self):
        if not is_integer(self.max_len):
            raise ContractError(f"max_len must be an integer, got {self.max_len!r}")
        if self.max_len < 1:
            raise ContractError(f"max_len must be >= 1, got {self.max_len}")


def default_limits(source_len: int) -> DecodeLimits:
    return DecodeLimits(max_len=2 * source_len + 5)


@dataclass
class Hypothesis:
    tokens: list[int]
    logp: float
    complete: bool


def _step(model, H, prev, noise=None):
    """One step of all rows, in `step_batch` calls of at most KERNEL_ROWS
    rows. Rows never interact, so the split does not change a bit."""
    if prev.size <= KERNEL_ROWS:
        return model.step_batch(H, prev, noise)
    steps = [model.step_batch(H[i:i + KERNEL_ROWS], prev[i:i + KERNEL_ROWS],
                              None if noise is None else noise[i:i + KERNEL_ROWS])
             for i in range(0, prev.size, KERNEL_ROWS)]
    return np.concatenate([h for h, _ in steps]), np.concatenate([lp for _, lp in steps])


def forced_scores(model, sequences, max_len: int) -> list[float]:
    """Each sequence's non-noisy log-probability under the bound model: one
    forced search of max_len steps feeds search s the tokens of sequence s
    (teacher forcing) and scores it as it scores its own output. Each must be
    one such a search emits: target-vocabulary indices (else VocabError),
    non-empty, EOS only last and none only at max_len tokens (else ContractError)."""
    limits = DecodeLimits(max_len)
    seqs = [_vocab_indices(seq, model.n_tokens, "tgt") for seq in sequences]
    forced = np.zeros((len(seqs), max((seq.size for seq in seqs), default=0)), dtype=np.int64)
    for s, seq in enumerate(seqs):
        if not (0 < seq.size <= max_len and not np.any(seq[:-1] == model.eos)
                and (seq[-1] == model.eos or seq.size == max_len)):
            raise ContractError(f"no search of max_len={max_len} emits {seq.tolist()}")
        forced[s, :seq.size] = seq
    found = search_rows(model, len(seqs), pick=lambda t, logp, beams: forced[beams, t - 1],
                        limits=limits)
    return [best.logp for best, _ in found]


def force_score(model, tokens) -> float:
    """The benchmark's non-noisy log-probability of `tokens` under the bound
    model: `forced_scores` at max_len len(tokens), so one without EOS is a prefix."""
    return forced_scores(model, [tokens], len(tokens))[0]


def score_sequence(params, source, target) -> float:
    """Non-noisy log-probability of `target` given `source`: the one-pair call
    of training's forward (`backprop.pair_nlls`), bitwise the forced search
    (`forced_scores`) of `target` on the bound source. A `target` without EOS
    is scored as a prefix, so unfinished decodes can be rescored."""
    # 0.0 - nll, not -nll: a target of probability 1 scores +0.0, as a search does
    return 0.0 - pair_nlls(params, [SequencePair(tuple(source), tuple(target))])[0]


def greedy_pick(t, logp, beams):
    """The argmax token of each row: `search_rows`'s greedy `pick`."""
    return np.argmax(logp, axis=1)


def _rank(hyp: Hypothesis):
    """The order of hypotheses, best first: score desc, then tokens lexicographically."""
    return -hyp.logp, hyp.tokens


def _top_k(raw, logp, beams, k_live, eta):
    """The flat (row, token) indices of each search's k_live best expansions
    of the rows' scores `raw`, grouped by search in rank order. eta > 0 lowers
    the r-th ranked expansion of each parent by eta * r for selection only."""
    n_tokens = logp.shape[1]
    sel = raw
    if eta:
        # rank r of each token among its parent's expansions: score desc, token asc
        rank = np.empty_like(logp)
        np.put_along_axis(rank, np.argsort(-logp, axis=1, kind="stable"),
                          np.arange(1.0, n_tokens + 1), axis=1)
        sel = raw - eta * rank
    neg = -sel.ravel()
    if k_live.size == 1:                # a lone search: its block is every row
        return _first_k(neg, k_live[0])
    # A search's rows are one contiguous block, rows edges[s]:edges[s + 1], so
    # its row-major candidates are in (parent, token) order.
    edges = np.searchsorted(beams, np.arange(k_live.size + 1)).tolist()
    return np.concatenate([_first_k(neg[a * n_tokens:b * n_tokens], k) + a * n_tokens
                           for a, b, k in zip(edges, edges[1:], k_live.tolist()) if a < b])


def _first_k(neg, k):
    """The first k indices of a stable ascending argsort of the flat `neg`.

    Only the candidates, the values not above the k-th smallest, are sorted.
    They keep their flat order, so a stable sort of them orders ties as the
    full sort does. A NaN k-th value (fewer than k non-NaN values) or k at
    least the number of values makes every value a candidate. A NaN beside a
    finite k-th value is a candidate too, but sorts after the k values not
    above it, outside the first k."""
    kth = min(k, neg.size) - 1
    bound = np.partition(neg, kth)[kth]
    candidates = np.flatnonzero(~(neg > bound))
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


def search_rows(model, n: int, width: int = 1, eta: float = 0.0, pick=None, noise=None,
                limits: DecodeLimits | None = None, replay=None, prune: float | None = None):
    """Run n independent searches together and return (best, completed) for
    each: every live row of every search is a row of one step (one
    `step_batch` call per KERNEL_ROWS rows).

    `beams` maps each row to its search, and a search's rows are contiguous.
    With `pick(t, logp, beams)` each search keeps one row and the rule picks
    its next token. Without it each search is a beam of `width` whose r-th
    ranked expansion per parent loses eta * r at selection; a beam's live
    width shrinks by one for every hypothesis that completes. `noise(t,
    beams)` gives the rows' step-t noise, or None. A search ends when its last
    row ends at EOS or when max_len is hit. Scores accumulate the same
    (possibly noisy) distributions the tokens were chosen from.

    `best` is the best completed hypothesis, or, when nothing completes
    within max_len, the best live one flagged incomplete with `completed`
    empty.

    `replay`, a boolean mask over the searches of a pick run, also scores
    each marked search's output under the non-noisy model in the same step
    calls. Step t runs one zero-noise replay row per distinct prefix of
    length t - 1 among the marked live searches, fed the prefix's last token;
    once `pick` has chosen token t, each marked search adds its replay row's
    log-probability of that token to its total, which starts at 0.0. The
    totals add in the order a search adds its scores and rows never
    interact, so each is bitwise `score_sequence` of the search's tokens. The
    call then returns (results, replayed), replayed[s] being search s's
    total (0.0 unmarked).

    `prune` (pick runs only), None or a starting bound, ends each search
    that can no longer be selected by its non-noisy score
    (`chains.select_best`): its replay total if marked, else its own score,
    neither of which rises, as no log-probability is above 0. The bound
    starts at `prune`, a completed selection score from outside the call
    (-inf if none), and after each step's EOS filter rises to the best
    completed search's score; a live search strictly below it ends, its best
    the prefix flagged incomplete. As selection prefers completed searches,
    it could never win. Ties and NaN totals stay, so the lowest-index winner
    stays. Only for a caller that keeps no other result.
    """
    if not is_integer(width):
        raise ContractError(f"beam width must be an integer, got {width!r}")
    if width < 1:
        raise ContractError(f"beam width must be >= 1, got {width}")
    if not 0 <= float(eta) <= MAX_SCALE:
        raise ContractError(f"eta must be finite, >= 0 and <= {MAX_SCALE:g}, got {eta}")
    if (replay is not None or prune is not None) and pick is None:
        raise ContractError("only pick searches can replay or prune")
    limits = limits or default_limits(model.source_len)
    beams = np.arange(n)
    h0 = model.initial()
    H = np.tile(h0, (n, 1))
    prev = np.full(n, model.bos)
    scores = np.zeros(n)
    # columns grow by doubling as steps advance, so memory follows the steps taken
    tokens = np.zeros((n, min(limits.max_len, 64)), dtype=np.int64)
    k_live = np.full(n, width)
    completed: list[list[Hypothesis]] = [[] for _ in range(n)]
    live: list[list[Hypothesis]] = [[] for _ in range(n)]
    bound = prune                       # the best completed selection score so far
    # each search's replay row (-1 unmarked), the replay rows' states and
    # previous tokens, and each search's replay total
    node = np.full(n, -1) if replay is None else np.where(replay, 0, -1)
    RH = h0[None][:int(replay is not None and np.any(replay))]    # the empty prefix, if marked
    Rprev = np.full(RH.shape[0], model.bos)
    replayed = np.zeros(n)
    for t in range(1, limits.max_len + 1):
        if not beams.size:
            break
        if t > tokens.shape[1]:
            grow = min(tokens.shape[1], limits.max_len - tokens.shape[1])
            tokens = np.hstack([tokens, np.zeros((tokens.shape[0], grow), dtype=np.int64)])
        rows = beams.size
        step_noise = noise(t, beams) if noise else None
        if Rprev.size:
            H, prev = np.concatenate([H, RH]), np.concatenate([prev, Rprev])
            if step_noise is not None:
                step_noise = np.concatenate([step_noise,
                                             np.zeros((Rprev.size, step_noise.shape[1]))])
        H, logp = _step(model, H, prev, step_noise)
        if Rprev.size:
            H, RH, logp, Rlogp = H[:rows], H[rows:], logp[:rows], logp[rows:]
        if pick is None:
            raw = scores[:, None] + logp
            chosen = _top_k(raw, logp, beams, k_live, eta)
            (parent, prev), scores = np.divmod(chosen, model.n_tokens), raw.ravel()[chosen]
            H, beams, tokens = H[parent], beams[parent], tokens[parent]
        else:
            prev = pick(t, logp, beams)
            scores = scores + logp[np.arange(rows), prev]
            if Rprev.size:
                mine = node[beams]
                on = mine >= 0
                replayed[beams[on]] += Rlogp[mine[on], prev[on]]
        tokens[:, t - 1] = prev
        ended = dropped = prev == model.eos
        if bound is not None:
            total = np.where(node[beams] >= 0, replayed[beams], scores)
            if ended.any():
                bound = np.maximum(bound, total[ended].max())
            dropped = ended | (total < bound)
            for i in np.flatnonzero(dropped & ~ended):
                live[beams[i]].append(Hypothesis(tokens[i, :t].tolist(), float(scores[i]), False))
        if dropped.any():
            for i in np.flatnonzero(ended):
                completed[beams[i]].append(
                    Hypothesis(tokens[i, :t].tolist(), float(scores[i]), True))
            k_live -= np.bincount(beams[ended], minlength=n)
            keep = ~dropped
            H, prev, scores = H[keep], prev[keep], scores[keep]
            beams, tokens = beams[keep], tokens[keep]
        if Rprev.size:
            # the marked live searches' prefixes of length t, each distinct one a replay row
            on = node[beams] >= 0
            marked = beams[on]
            keys, node[marked] = np.unique(node[marked] * model.n_tokens + prev[on],
                                           return_inverse=True)
            RH, Rprev = RH[keys // model.n_tokens], keys % model.n_tokens
    for i, s in enumerate(beams):
        live[s].append(Hypothesis(tokens[i].tolist(), float(scores[i]), False))
    found = [(min(done, key=_rank), done) if done else (min(live[s], key=_rank), [])
             for s, done in enumerate(completed)]
    return found if replay is None else (found, replayed)


def greedy_search(model, limits: DecodeLimits | None = None) -> Hypothesis:
    """Stepwise argmax decoding; stops at EOS or max_len."""
    return search_rows(model, 1, pick=greedy_pick, limits=limits)[0][0]


def beam_search(model, width: int, limits: DecodeLimits | None = None):
    """Beam search; returns (best completed hypothesis, all completed).

    If nothing completes within max_len, the best live hypothesis is returned
    flagged incomplete and the completed list is empty.
    """
    return search_rows(model, 1, width, limits=limits)[0]


def diverse_beam_search(model, width: int, eta: float, limits: DecodeLimits | None = None):
    """Beam search where the r-th ranked expansion of each parent has its
    selection score reduced by eta * r. Reported scores are unpenalized.
    """
    return search_rows(model, 1, width, eta, limits=limits)[0]


def exact_search(model, limits: DecodeLimits | None = None) -> Hypothesis:
    """Enumerate every EOS-terminated sequence up to max_len; return the argmax.

    Runs level by level: every prefix of one length is a row of one step.
    Ties break lexicographically by token indices. Tractable only for tiny
    vocabularies and lengths; refuses spaces above 10^6 sequences.
    """
    limits = limits or default_limits(model.source_len)
    # for V >= 2, V^L > bound iff V^min(L, bit_length(bound)) does: a huge L stays cheap
    if model.n_tokens ** min(limits.max_len, MAX_EXACT_SPACE.bit_length()) > MAX_EXACT_SPACE:
        raise SearchSpaceError(
            f"search space {model.n_tokens}^{limits.max_len} exceeds {MAX_EXACT_SPACE}")
    eos = model.eos
    others = np.array([tok for tok in range(model.n_tokens) if tok != eos])
    H = model.initial()[None]
    prev = np.array([model.bos])
    scores = np.zeros(1)
    prefixes = np.zeros((1, 0), dtype=np.int64)
    found = []                          # each depth's best
    for depth in range(1, limits.max_len + 1):
        H, logp = _step(model, H, prev)
        ends = scores + logp[:, eos]
        # ties go to the first prefix, the least: prefixes run parent by parent, children by token
        i = int(np.argmax(ends))
        found.append(Hypothesis(prefixes[i].tolist() + [eos], float(ends[i]), True))
        if depth == limits.max_len:
            break
        n = scores.size
        scores = (scores[:, None] + logp[:, others]).ravel()
        prev = np.tile(others, n)
        prefixes = np.hstack([np.repeat(prefixes, others.size, axis=0), prev[:, None]])
        H = np.repeat(H, others.size, axis=0)
    return min(found, key=_rank)
