import hashlib
import itertools

import numpy as np
import pytest

from npad import tasks
from npad.core import ContractError, RngStream
from npad.model import EOS
from npad.tasks import MAX_PAIRS, MAX_VOCAB, ConfigError, SequencePair, gen_task, split_pairs
import reference


def test_copy_is_identity_plus_eos():
    data = gen_task("copy", 5, (1, 6), 50, seed=3)
    for pair in data.pairs:
        assert pair.target == pair.source + (EOS,)


def test_reverse_reverses():
    data = gen_task("reverse", 5, (1, 6), 50, seed=3)
    for pair in data.pairs:
        assert pair.target == tuple(reversed(pair.source)) + (EOS,)


def test_translate_is_a_length_preserving_bijection():
    data = gen_task("lexical-translate", 6, (1, 6), 80, seed=9)
    mapping = {}
    for pair in data.pairs:
        body = pair.target[:-1]
        assert pair.target[-1] == EOS
        assert len(body) == len(pair.source)
        for s, t in zip(pair.source, reversed(body)):
            assert mapping.setdefault(s, t) == t
    assert len(set(mapping.values())) == len(mapping)
    assert data.src_vocab.symbols != data.tgt_vocab.symbols


def test_same_seed_same_dataset():
    a = gen_task("lexical-translate", 6, (2, 8), 100, seed=42)
    b = gen_task("lexical-translate", 6, (2, 8), 100, seed=42)
    assert a.pairs == b.pairs
    assert a.src_vocab == b.src_vocab


def test_different_seed_different_dataset():
    a = gen_task("copy", 6, (2, 8), 100, seed=1)
    b = gen_task("copy", 6, (2, 8), 100, seed=2)
    assert a.pairs != b.pairs


def test_sources_unique():
    data = gen_task("copy", 4, (1, 5), 200, seed=11)
    sources = [p.source for p in data.pairs]
    assert len(set(sources)) == len(sources)


def test_lengths_within_range():
    data = gen_task("copy", 4, (2, 5), 100, seed=6)
    assert all(2 <= len(p.source) <= 5 for p in data.pairs)


def test_exhausted_source_space_rejected():
    # vocab 1, lengths 1..2: only 2 unique sources exist
    with pytest.raises(ConfigError, match="only 2 exist"):
        gen_task("copy", 1, (1, 2), 5, seed=0)
    with pytest.raises(ConfigError, match="only 2 exist"):
        gen_task("copy", 1, (1, 2), 10**6, seed=0)     # refused before any draw


def test_vocabulary_and_count_bounds():
    with pytest.raises(ConfigError, match="vocab_size"):
        gen_task("copy", MAX_VOCAB + 1, (1, 5), 10, seed=0)
    with pytest.raises(ConfigError, match=f"more than the {MAX_PAIRS} allowed"):
        gen_task("copy", 8, (1, 8), MAX_PAIRS + 1, seed=0)
    assert len(gen_task("lexical-translate", MAX_VOCAB, (1, 2), 3, seed=0).tgt_vocab) == MAX_VOCAB + 3


VOCAB_SIZES = (1, 2, 3, 7, 32, 1000)
LENGTH_RANGES = ((1, 1), (3, 3), (1, 20), (12, 20))


def distinct_sources(vocab_size, length_range):
    lo, hi = length_range
    return sum(vocab_size ** length for length in range(lo, hi + 1))


@pytest.mark.parametrize("kind", tasks.TASK_KINDS)
@pytest.mark.parametrize("seed", [0, 101, 2**63])
def test_corpus_equals_per_pair_draws(kind, seed, monkeypatch):
    # 7-word chunks: most attempts straddle a chunk boundary or need several
    monkeypatch.setattr(tasks, "WORD_CHUNK", 7)
    for vocab_size, length_range in itertools.product(VOCAB_SIZES, LENGTH_RANGES):
        count = min(distinct_sources(vocab_size, length_range), 150)
        new = gen_task(kind, vocab_size, length_range, count, seed)
        old = reference.gen_task(kind, vocab_size, length_range, count, seed)
        assert new == old, (vocab_size, length_range)


@pytest.mark.parametrize("kind", tasks.TASK_KINDS)
def test_exhausted_space_fails_like_per_pair_draws(kind):
    for vocab_size, length_range in itertools.product((1, 2, 3), LENGTH_RANGES[:3]):
        count = distinct_sources(vocab_size, length_range) + 1
        if count > 30:
            continue
        with pytest.raises(ConfigError, match="unique sources"):
            reference.gen_task(kind, vocab_size, length_range, count, 0)
        # refused before any draw
        with pytest.raises(ConfigError, match=f"only {count - 1} exist"):
            gen_task(kind, vocab_size, length_range, count, 0)


@pytest.mark.parametrize("r", [3 * 2**30, 2**31 + 1, 10**9 + 7])
@pytest.mark.parametrize("chunk", [5, tasks.WORD_CHUNK])
def test_replay_matches_integers_under_rejections(r, chunk, monkeypatch):
    """Each attempt is a scalar length draw and a sized draw of range r,
    which rejects up to a quarter of the words."""
    monkeypatch.setattr(tasks, "WORD_CHUNK", chunk)
    for seed in (1, 2, 3):
        gen = np.random.Generator(np.random.PCG64(seed))
        attempts = tasks._attempts(RngStream(seed), 1, 6, r)
        for source, mapped in itertools.islice(attempts, 400):
            content = gen.integers(0, r, size=int(gen.integers(1, 7)))
            assert source == tuple(int(c) + tasks.N_SPECIALS for c in content)
            assert mapped is None
    words = RngStream(1).integers(0, 2**32, size=4000).view(np.uint64)
    rejected = (words * np.uint64(r) & np.uint64(2**32 - 1)) < (2**32 - r) % r
    assert rejected.sum() > 20            # the rule is exercised, not skipped


def corpus_digest(pairs) -> str:
    text = "".join(" ".join(map(str, p.source)) + "\t" + " ".join(map(str, p.target)) + "\n"
                   for p in pairs)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("args, digest", [
    (("lexical-translate", 32, (12, 20), 1650, 101),
     "49d42a83360d20a0c5a78d084d0e6d68b1d0cb693d40d1b5d19c283159e5960e"),
    (("reverse", 10, (2, 8), 2200, 301),
     "92e09c0e091c1c4aa088035a50a9e0e925df2d82e954a19b214a41381c5f1fa5"),
])
def test_acceptance_corpora_are_pinned(args, digest):
    """The corpora C1-C9 train on, as the per-pair draws generated them."""
    assert corpus_digest(gen_task(*args[:4], seed=args[4]).pairs) == digest


def test_bad_configs_rejected():
    with pytest.raises(ConfigError):
        gen_task("mystery", 4, (1, 5), 10, seed=0)
    with pytest.raises(ConfigError):
        gen_task("copy", 0, (1, 5), 10, seed=0)
    with pytest.raises(ContractError):
        gen_task("copy", 4, (0, 5), 10, seed=0)
    with pytest.raises(ContractError):
        gen_task("copy", 4, (1, 25), 10, seed=0)


def test_split_pairs_disjoint_slices():
    data = gen_task("copy", 5, (1, 6), 30, seed=3)
    a, b, c = split_pairs(data.pairs, 20, 6, 4)
    assert len(a) == 20 and len(b) == 6 and len(c) == 4
    assert not (set(a) & set(b)) and not (set(b) & set(c)) and not (set(a) & set(c))
    with pytest.raises(ContractError):
        split_pairs(data.pairs, 25, 10)
    with pytest.raises(ContractError):
        split_pairs(data.pairs, 3, -1)       # would shorten the first split to 2


def test_sequence_pair_validation():
    with pytest.raises(ContractError):
        SequencePair((), (2,))
