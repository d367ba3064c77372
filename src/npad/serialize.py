"""File formats: model container, vocab files, dataset and source files.
The results CSV is written by `evaluate.write_results_csv` and read back by
`cli.cmd_report`.

Exact layouts are documented in docs/formats.md and round-trip tested.
Output files are written atomically (write to a temp file, then rename), so
readers never observe partial writes.
"""
from __future__ import annotations

import io
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .core import ContractError
from .model import EOS, Dims, ModelParams, Vocab, VocabError, tensor_shapes
from .tasks import SequencePair

MODEL_MAGIC = b"NPADMDL\x01"
MODEL_VERSION = 1


class FormatError(ValueError):
    """A file does not match its documented schema."""


@contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Write-then-rename; the target appears only after a complete write."""
    tmp = f"{path}.tmp{os.getpid()}"
    f = open(tmp, mode)
    try:
        yield f
        f.close()
        os.replace(tmp, path)
    except BaseException:
        f.close()
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_vocab(path: str, vocab: Vocab) -> None:
    with atomic_write(path) as f:
        for symbol in vocab.symbols:
            f.write(symbol + "\n")


def _lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, without their line ends (LF, CRLF or CR)."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text (byte {e.start})") from e
    return [line.rstrip("\n") for line in io.StringIO(text, newline=None)]


def _encode(vocab: Vocab, text: str, where: str, source: bool = False) -> tuple[int, ...]:
    try:
        tokens = tuple(vocab.encode(text.split()))
    except VocabError as e:
        raise FormatError(f"{where}: {e}") from e
    if source and not tokens:
        raise FormatError(f"{where}: empty source")
    return tokens


def load_vocab(path: str) -> Vocab:
    try:
        return Vocab(tuple(_lines(path)))
    except ContractError as e:
        raise FormatError(f"{path}: {e}") from e


def save_pairs(path: str, pairs: list[SequencePair], src_vocab: Vocab, tgt_vocab: Vocab) -> None:
    """One pair per line: source tokens, tab, target tokens (EOS implicit)."""
    with atomic_write(path) as f:
        for pair in pairs:
            src = " ".join(src_vocab.decode(pair.source))
            body = pair.target[:-1] if pair.target[-1] == EOS else pair.target
            f.write(src + "\t" + " ".join(tgt_vocab.decode(body)) + "\n")


def load_pairs(path: str, src_vocab: Vocab, tgt_vocab: Vocab) -> list[SequencePair]:
    pairs = []
    for ln, line in enumerate(_lines(path), start=1):
        if not line:
            continue
        if "\t" not in line:
            raise FormatError(f"{path}:{ln}: expected 'source<TAB>target'")
        src_text, tgt_text = line.split("\t", 1)
        pairs.append(SequencePair(_encode(src_vocab, src_text, f"{path}:{ln}", source=True),
                                  _encode(tgt_vocab, tgt_text, f"{path}:{ln}") + (EOS,)))
    return pairs


def load_sources(path: str, src_vocab: Vocab) -> list[tuple[int, ...]]:
    """Sources only; accepts either pair files or one source per line."""
    return [_encode(src_vocab, line.split("\t", 1)[0], f"{path}:{ln}", source=True)
            for ln, line in enumerate(_lines(path), start=1) if line]


def save_model(path: str, params: ModelParams) -> None:
    d = params.dims
    with atomic_write(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<6I", MODEL_VERSION, d.n_src, d.n_tgt, d.d_emb, d.d_hid,
                            len(params.tensors)))
        for name, tensor in params.tensors.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", tensor.ndim))
            f.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            f.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_model(path: str) -> ModelParams:
    """Read a model container, checking each length, name and shape field
    against the header dimensions and the bytes left before reading on."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            if n > size - f.tell():
                raise FormatError(f"{path}: truncated model file while reading {what}")
            return f.read(n)

        if read(8, "magic") != MODEL_MAGIC:
            raise FormatError(f"{path}: not a model file (bad magic)")
        version, n_src, n_tgt, d_emb, d_hid, n_tensors = struct.unpack("<6I", read(24, "header"))
        if version != MODEL_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        try:
            dims = Dims(d_emb=d_emb, d_hid=d_hid, n_src=n_src, n_tgt=n_tgt)
        except ValueError as e:
            raise FormatError(f"{path}: {e}") from e
        expected = tensor_shapes(dims)
        if n_tensors != len(expected):
            raise FormatError(f"{path}: {n_tensors} tensors, expected {len(expected)}")
        tensors = {}
        for _ in range(n_tensors):
            name_len, = struct.unpack("<I", read(4, "tensor name length"))
            name = read(name_len, "tensor name").decode("utf-8", "replace")
            if name not in expected or name in tensors:
                raise FormatError(f"{path}: unexpected or repeated tensor {name!r}")
            shape = expected[name]
            ndim, = struct.unpack("<I", read(4, f"tensor {name} rank"))
            stored = struct.unpack(f"<{ndim}I", read(4 * ndim, f"tensor {name} shape"))
            if stored != shape:
                raise FormatError(f"{path}: tensor {name} has shape {stored}, expected {shape}")
            data = np.frombuffer(read(8 * math.prod(shape), f"tensor {name}"), dtype="<f8")
            tensors[name] = data.reshape(shape).astype(np.float64)
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after last tensor")
    try:
        return ModelParams(dims, tensors)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e
