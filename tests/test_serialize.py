import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npad.model import EOS, Vocab
from npad.serialize import (
    FormatError,
    atomic_write,
    load_model,
    load_pairs,
    load_sources,
    load_vocab,
    save_model,
    save_pairs,
    save_vocab,
)
from npad.tasks import gen_task
from conftest import damaged, make_params


def test_model_round_trip(tmp_path, tiny_params):
    path = str(tmp_path / "m.bin")
    save_model(path, tiny_params)
    loaded = load_model(path)
    assert loaded.dims == tiny_params.dims
    for name, tensor in tiny_params.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name], tensor)


def test_model_save_is_byte_deterministic(tmp_path, tiny_params):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_model(a, tiny_params)
    save_model(b, tiny_params)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_model_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "junk.bin")
    with open(path, "wb") as f:
        f.write(b"NOTMODEL" + b"\x00" * 24)
    with pytest.raises(FormatError):
        load_model(path)


def test_model_truncation_rejected(tmp_path, tiny_params):
    path = str(tmp_path / "m.bin")
    save_model(path, tiny_params)
    blob = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(blob[:len(blob) - 10])
    with pytest.raises(FormatError):
        load_model(path)


def write_bytes(path, blob) -> str:
    with open(path, "wb") as f:
        f.write(blob)
    return str(path)


def saved_model(path, params) -> bytearray:
    save_model(str(path), params)
    return bytearray(open(path, "rb").read())


# The first tensor is src_embed (5 x 3 in the tiny model); its shape field
# follows the 32-byte header, its name length, its name and its rank.
SRC_EMBED_SHAPE = 32 + 4 + len(b"src_embed") + 4


def test_model_shape_field_checked_before_payload(tmp_path, tiny_params):
    # a 200000 x 200000 shape field would ask for about 320 GB
    blob = saved_model(tmp_path / "m.bin", tiny_params)
    blob[SRC_EMBED_SHAPE:SRC_EMBED_SHAPE + 8] = struct.pack("<2I", 200000, 200000)
    with pytest.raises(FormatError, match="shape"):
        load_model(write_bytes(tmp_path / "m.bin", blob))


def test_model_payload_checked_against_file_size(tmp_path, tiny_params):
    # header and shape field agree on a 4e9-token vocabulary, about 96 GB of
    # payload that the file does not hold
    blob = saved_model(tmp_path / "m.bin", tiny_params)
    blob[12:16] = struct.pack("<I", 4_000_000_000)
    blob[SRC_EMBED_SHAPE:SRC_EMBED_SHAPE + 4] = struct.pack("<I", 4_000_000_000)
    with pytest.raises(FormatError, match="truncated"):
        load_model(write_bytes(tmp_path / "m.bin", blob))


def metadata_offsets(params) -> list[int]:
    """Byte offsets of the header and of every tensor's length, name, rank
    and shape fields."""
    offsets, pos = list(range(32)), 32
    for name, tensor in params.tensors.items():
        meta = 4 + len(name.encode()) + 4 + 4 * tensor.ndim
        offsets += range(pos, pos + meta)
        pos += meta + 8 * tensor.size
    return offsets


TINY = make_params(7)
TINY_OFFSETS = metadata_offsets(TINY)


@pytest.fixture(scope="module")
def tiny_blob(tmp_path_factory):
    return saved_model(tmp_path_factory.mktemp("fuzz") / "m.bin", TINY)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_model_truncations_and_bit_flips(tmp_path_factory, tiny_blob, data):
    # every truncation and every flipped bit in a length, name, rank, shape or
    # header field ends in FormatError; a flip in the float payload either
    # loads or ends in FormatError (a non-finite value), never in another error
    path = tmp_path_factory.getbasetemp() / "fuzzed.bin"
    cut = data.draw(st.integers(0, len(tiny_blob) - 1))
    with pytest.raises(FormatError):
        load_model(write_bytes(path, tiny_blob[:cut]))
    for offset in (data.draw(st.sampled_from(TINY_OFFSETS)),
                   data.draw(st.integers(0, len(tiny_blob) - 1))):
        flipped = bytearray(tiny_blob)
        flipped[offset] ^= 1 << data.draw(st.integers(0, 7))
        try:
            load_model(write_bytes(path, flipped))
        except FormatError:
            continue
        assert offset not in TINY_OFFSETS, f"flip at byte {offset} loaded"


def test_vocab_round_trip(tmp_path):
    v = Vocab.from_content([f"w{i}" for i in range(5)])
    path = str(tmp_path / "vocab.txt")
    save_vocab(path, v)
    assert load_vocab(path) == v
    lines = open(path).read().splitlines()
    assert lines[EOS] == "</s>"
    assert lines[3] == "w0"


def test_pairs_round_trip(tmp_path):
    data = gen_task("lexical-translate", 5, (1, 6), 40, seed=2)
    path = str(tmp_path / "pairs.tsv")
    save_pairs(path, data.pairs, data.src_vocab, data.tgt_vocab)
    loaded = load_pairs(path, data.src_vocab, data.tgt_vocab)
    assert loaded == data.pairs
    first = open(path).readline().rstrip("\n")
    assert "\t" in first and "</s>" not in first


def test_load_sources_accepts_pairs_and_bare_lines(tmp_path):
    data = gen_task("copy", 5, (2, 4), 10, seed=2)
    pair_path = str(tmp_path / "pairs.tsv")
    save_pairs(pair_path, data.pairs, data.src_vocab, data.tgt_vocab)
    bare_path = str(tmp_path / "bare.txt")
    with open(bare_path, "w") as f:
        for p in data.pairs:
            f.write(" ".join(data.src_vocab.decode(p.source)) + "\n")
    expected = [p.source for p in data.pairs]
    assert load_sources(pair_path, data.src_vocab) == expected
    assert load_sources(bare_path, data.src_vocab) == expected


def test_pairs_missing_tab_rejected(tmp_path):
    path = str(tmp_path / "bad.tsv")
    with open(path, "w") as f:
        f.write("w00 w01 no tab here\n")
    v = Vocab.from_content(["w00", "w01"])
    with pytest.raises(FormatError):
        load_pairs(path, v, v)


def test_atomic_write_leaves_no_partial_file(tmp_path):
    path = str(tmp_path / "out.txt")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as f:
            f.write("partial")
            raise RuntimeError("boom")
    assert not os.path.exists(path)
    assert os.listdir(tmp_path) == []


def test_atomic_write_replaces_existing(tmp_path):
    path = str(tmp_path / "out.txt")
    with atomic_write(path) as f:
        f.write("one")
    with atomic_write(path) as f:
        f.write("two")
    assert open(path).read() == "two"


FUZZ_TASK = gen_task("lexical-translate", 5, (1, 4), 6, seed=3)


@pytest.fixture(scope="module")
def text_blobs(tmp_path_factory):
    """The bytes of a saved source vocab and of a saved pair file."""
    root = tmp_path_factory.mktemp("text")
    save_vocab(str(root / "v.txt"), FUZZ_TASK.src_vocab)
    save_pairs(str(root / "p.tsv"), FUZZ_TASK.pairs, FUZZ_TASK.src_vocab, FUZZ_TASK.tgt_vocab)
    return {"vocab": (root / "v.txt").read_bytes(), "pairs": (root / "p.tsv").read_bytes()}


LOADERS = {
    "vocab": load_vocab,
    "pairs": lambda path: load_pairs(path, FUZZ_TASK.src_vocab, FUZZ_TASK.tgt_vocab),
    "sources": lambda path: load_sources(path, FUZZ_TASK.src_vocab),
}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_text_truncations_and_bit_flips(tmp_path_factory, text_blobs, data):
    # a damaged vocab, pair or source file loads or ends in FormatError,
    # never in another error (invalid UTF-8, an unknown word, an empty source)
    path = str(tmp_path_factory.getbasetemp() / "fuzzed.txt")
    kind = data.draw(st.sampled_from(sorted(LOADERS)))
    write_bytes(path, damaged(data, text_blobs["pairs" if kind == "sources" else kind]))
    try:
        LOADERS[kind](path)
    except FormatError:
        pass


def test_text_errors_name_the_line(tmp_path):
    v = FUZZ_TASK.src_vocab
    for body, message in ((b"s00\t\n\xff\n", "not UTF-8"),
                          (b"s00\tt00\ns00 s99\tt00\n", ":2: unknown"),
                          (b"s00\tt00\n \tt00\n", ":2: empty source")):
        path = write_bytes(tmp_path / "p.tsv", body)
        with pytest.raises(FormatError, match=message):
            load_pairs(path, v, FUZZ_TASK.tgt_vocab)
    with pytest.raises(FormatError, match="not UTF-8"):
        load_vocab(write_bytes(tmp_path / "v.txt", b"<pad>\n<s>\n</s>\n\xc3\n"))
