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


def gen_task(kind: str, vocab_size: int, length_range: tuple[int, int],
             count: int, seed: int) -> TaskData:
    """Generate `count` pairs with unique sources, deterministically from `seed`."""
    if kind not in TASK_KINDS:
        raise ConfigError(f"unknown task kind {kind!r}, expected one of {TASK_KINDS}")
    if vocab_size < 1:
        raise ConfigError("vocab_size must be >= 1")
    lo, hi = length_range
    if not 1 <= lo <= hi <= 20:
        raise ContractError(f"length range must satisfy 1 <= lo <= hi <= 20, got {length_range}")
    if count < 1:
        raise ContractError("count must be >= 1")

    rng = RngStream(seed)
    mapping_rng, data_rng = rng.child(0), rng.child(1)
    if kind == "lexical-translate":
        src_vocab = _content_vocab("s", vocab_size)
        tgt_vocab = _content_vocab("t", vocab_size)
        bijection = mapping_rng.permutation(vocab_size)
    else:
        src_vocab = tgt_vocab = _content_vocab("w", vocab_size)
        bijection = None

    pairs: list[SequencePair] = []
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(pairs) < count:
        attempts += 1
        if attempts > 200 * count:
            raise ConfigError(
                f"could not generate {count} unique sources for {kind} "
                f"(vocab_size={vocab_size}, lengths={length_range})")
        length = int(data_rng.integers(lo, hi + 1))
        content = data_rng.integers(0, vocab_size, size=length)
        source = tuple(int(c) + N_SPECIALS for c in content)
        if source in seen:
            continue
        seen.add(source)
        if kind == "copy":
            body = source
        elif kind == "reverse":
            body = tuple(reversed(source))
        else:
            body = tuple(int(bijection[c]) + N_SPECIALS for c in reversed(content))
        pairs.append(SequencePair(source, body + (EOS,)))
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
