import pytest

from npad.core import ContractError
from npad.model import EOS
from npad.tasks import ConfigError, SequencePair, gen_task, split_pairs


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
    with pytest.raises(ConfigError):
        gen_task("copy", 1, (1, 2), 5, seed=0)


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
