"""Synthetic sequence-to-sequence tasks at desk scale.

Three task kinds, all deterministic functions of the source:

  copy               target repeats the source
  reverse            target is the source reversed
  lexical-translate  a seeded random bijection maps source words to target
                     words, then the order is reversed

Generated sources are unique within one call, so slicing a single generated
corpus into train/valid/test gives disjoint splits that share the same task
definition (the translate bijection is part of the seed).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, RngStream
from .model import EOS, Vocab


class ConfigError(ValueError):
    """A task or experiment configuration is invalid."""


TASK_KINDS = ("copy", "reverse", "lexical-translate")
N_SPECIALS = 3  # pad, bos, eos precede the content words


@dataclass(frozen=True)
class SequencePair:
    source: tuple[int, ...]
    target: tuple[int, ...]      # EOS-terminated

    def __post_init__(self):
        if not self.source or not self.target:
            raise ContractError("source and target must be non-empty")


@dataclass
class TaskData:
    kind: str
    src_vocab: Vocab
    tgt_vocab: Vocab
    pairs: list[SequencePair]


def _content_vocab(prefix: str, size: int) -> Vocab:
    return Vocab.from_content(f"{prefix}{i:02d}" for i in range(size))


# The largest vocabulary gen_task builds. A `Vocab` holds about 130 bytes a
# word (its symbol, the tuple slot and the index entry), so a translate
# task's two vocabularies of MAX_VOCAB words take about 13 MB,
# and a default `npad train` model over them (d_emb 16, d_hid 32) has 6.5
# million parameters, within `train.MAX_PARAMS`. Every draw then has a range
# below 2^32, on the 32-bit path that `_attempts` replays.
MAX_VOCAB = 50_000
# The most pairs one gen_task call makes. A pair of two 20-word sides over
# words above index 256 (which Python does not share) holds about 1.5 KB with
# its tuples, its 41 int objects and its unique-source entry, so `npad
# gen-data` at MAX_PAIRS such pairs peaks at about 400 MB.
MAX_PAIRS = 250_000
# 32-bit words drawn from the data stream at a time. In 4 s greedy-translate
# runs the benchmark's peak RSS read 47.1-47.5 MB at 4,096, 51.1-51.3 MB at
# 65,536 and 50.3 MB with two numpy draws per pair.
WORD_CHUNK = 4096
_LOW32 = (1 << 32) - 1


def _attempts(rng: RngStream, lo: int, hi: int, vocab_size: int, table=None):
    """Each attempt of gen_task: (source, table[content]), or (source, None)
    without a table, where content is `rng.integers(0, vocab_size,
    size=length)` after `length = rng.integers(lo, hi + 1)` and the source
    is content + N_SPECIALS, bit for bit, from the stream's 32-bit words
    drawn WORD_CHUNK at a time.

    numpy draws an integer in [0, r), r <= 2^32, by Lemire's method on the
    generator's 32-bit words (each 64-bit PCG64 output low half first, a
    spare half kept for the next call): word w gives (w * r) >> 32, unless
    (w * r) mod 2^32 < (2^32 - r) mod r, when w is rejected and the next
    word tried; r = 1 takes no word. `integers(0, 2^32)` gives the words
    themselves. So a chunk is mapped at once under both ranges, and an
    attempt is a length word (none when lo == hi) and then `length` token
    words. An attempt whose words hold a rejection under either range, and
    every attempt of a one-word vocabulary, which draws no token words, is
    drawn word by word (`sequential`). Words past the last attempt are drawn
    but never read, which is harmless to a stream that only this call reads.
    """
    r_len = hi - lo + 1
    words, pos = np.empty(0, np.uint64), 0

    def more():
        nonlocal words, pos
        chunk = rng.integers(0, 1 << 32, size=WORD_CHUNK).view(np.uint64)
        words, pos = np.concatenate([words[pos:], chunk]), 0

    def draw(r: int) -> int:
        nonlocal pos
        threshold = ((1 << 32) - r) % r      # 0 when r == 1, which takes no word
        while r > 1:
            if pos == words.size:
                more()
            m = int(words[pos]) * r
            pos += 1
            if m & _LOW32 >= threshold:
                return m >> 32
        return 0

    def sequential():
        content = [draw(vocab_size) for _ in range(lo + draw(r_len))]
        source = tuple(c + N_SPECIALS for c in content)
        return source, None if table is None else tuple(int(table[c]) for c in content)

    if vocab_size == 1:
        while True:
            yield sequential()
    step = int(r_len > 1)
    while True:
        words, pos = words[pos:], 0
        m = words * np.uint64(r_len)
        lengths = ((m >> np.uint64(32)) + np.uint64(lo)).tolist() if step else None
        rejected = (m & np.uint64(_LOW32)) < ((1 << 32) - r_len) % r_len
        m = words * np.uint64(vocab_size)
        content = m >> np.uint64(32)
        rejected |= (m & np.uint64(_LOW32)) < ((1 << 32) - vocab_size) % vocab_size
        sources = (content + np.uint64(N_SPECIALS)).tolist()
        mapped = None if table is None else table[content].tolist()
        # the attempts up to the first rejected word, or the end of the words
        limit = int(np.argmax(rejected)) if rejected.any() else words.size
        p = 0
        while p + step <= limit:
            start = p + step
            end = start + (lengths[p] if step else lo)
            if end > limit:
                break
            yield tuple(sources[start:end]), None if mapped is None else tuple(mapped[start:end])
            p = end
        pos = p
        if limit < words.size:
            yield sequential()
        else:
            more()


def gen_task(kind: str, vocab_size: int, length_range: tuple[int, int],
             count: int, seed: int) -> TaskData:
    """Generate `count` pairs with unique sources, deterministically from `seed`.

    A vocabulary above MAX_VOCAB, a count above the number of distinct
    sources and a count above MAX_PAIRS are refused before anything is
    drawn."""
    if kind not in TASK_KINDS:
        raise ConfigError(f"unknown task kind {kind!r}, expected one of {TASK_KINDS}")
    if not 1 <= vocab_size <= MAX_VOCAB:
        raise ConfigError(f"vocab_size must be >= 1 and <= {MAX_VOCAB}, got {vocab_size}")
    lo, hi = length_range
    if not 1 <= lo <= hi <= 20:
        raise ContractError(f"length range must satisfy 1 <= lo <= hi <= 20, got {length_range}")
    if count < 1:
        raise ContractError("count must be >= 1")
    distinct = sum(vocab_size ** length for length in range(lo, hi + 1))
    if count > distinct:
        raise ConfigError(
            f"cannot generate {count} unique sources for {kind}: only {distinct} exist "
            f"(vocab_size={vocab_size}, lengths={length_range})")
    if count > MAX_PAIRS:
        raise ConfigError(f"count is {count} pairs, more than the {MAX_PAIRS} allowed")

    rng = RngStream(seed)
    mapping_rng, data_rng = rng.child(0), rng.child(1)
    if kind == "lexical-translate":
        src_vocab = _content_vocab("s", vocab_size)
        tgt_vocab = _content_vocab("t", vocab_size)
        table = mapping_rng.permutation(vocab_size) + N_SPECIALS
    else:
        src_vocab = tgt_vocab = _content_vocab("w", vocab_size)
        table = None

    pairs: list[SequencePair] = []
    seen: set[tuple[int, ...]] = set()
    for attempts, (source, mapped) in enumerate(_attempts(data_rng, lo, hi, vocab_size, table), 1):
        if attempts > 200 * count:
            raise ConfigError(
                f"could not generate {count} unique sources for {kind} "
                f"(vocab_size={vocab_size}, lengths={length_range})")
        if source in seen:
            continue
        seen.add(source)
        if kind == "copy":
            body = source
        elif kind == "reverse":
            body = source[::-1]
        else:
            body = mapped[::-1]
        pairs.append(SequencePair(source, body + (EOS,)))
        if len(pairs) == count:
            return TaskData(kind, src_vocab, tgt_vocab, pairs)


def split_pairs(pairs: list[SequencePair], *sizes: int) -> list[list[SequencePair]]:
    """Slice a corpus into consecutive disjoint splits of the given sizes."""
    if any(size < 0 for size in sizes):
        raise ContractError(f"split sizes must be >= 0, got {sizes}")
    if sum(sizes) > len(pairs):
        raise ContractError(f"cannot split {len(pairs)} pairs into sizes {sizes}")
    out, start = [], 0
    for size in sizes:
        out.append(pairs[start:start + size])
        start += size
    return out
