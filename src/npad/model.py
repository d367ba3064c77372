"""Conditional recurrent sequence model.

Architecture (all float64, documented in docs/model.md):

  * source/target token embeddings
  * single-layer bidirectional GRU encoder; per-position annotations are the
    concatenated forward/backward states
  * additive attention: score(h, a_i) = v . tanh(Wq h + Wk a_i + b)
  * GRU decoder whose previous hidden state can be perturbed by an additive
    noise vector before the transition (the attention query sees the
    perturbed state too)
  * readout over [h_t ; context] followed by log-softmax

The decoder predicts token t from the state reached after consuming token
t-1 (a begin-of-sequence marker feeds the first step).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ContractError, RngStream, log_softmax, sigmoid, softmax

PAD, BOS, EOS = 0, 1, 2
PAD_TOKEN, BOS_TOKEN, EOS_TOKEN = "<pad>", "<s>", "</s>"
SPECIAL_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN)


class VocabError(ValueError):
    """A token or token index is outside the vocabulary."""


@dataclass(frozen=True)
class Vocab:
    """Ordered token list; indices 0..2 are reserved for PAD, BOS, EOS."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 3 or tuple(self.symbols[:3]) != SPECIAL_TOKENS:
            raise ContractError(f"vocab must start with {SPECIAL_TOKENS}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ContractError("vocab symbols must be unique")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise VocabError(f"unknown token {token!r}") from None

    def token(self, idx: int) -> str:
        if not 0 <= idx < len(self.symbols):
            raise VocabError(f"token index {idx} out of range (|V|={len(self.symbols)})")
        return self.symbols[idx]

    def encode(self, tokens) -> list[int]:
        return [self.index(t) for t in tokens]

    def decode(self, indices) -> list[str]:
        return [self.token(i) for i in indices]

    @staticmethod
    def from_content(content_tokens) -> "Vocab":
        return Vocab(SPECIAL_TOKENS + tuple(content_tokens))


@dataclass(frozen=True)
class Dims:
    d_emb: int
    d_hid: int
    n_src: int
    n_tgt: int

    def __post_init__(self):
        if min(self.d_emb, self.d_hid) < 1 or min(self.n_src, self.n_tgt) < 3:
            raise ContractError(f"bad model dims: {self}")

    @property
    def d_ann(self) -> int:
        return 2 * self.d_hid

    @property
    def d_dec_in(self) -> int:
        return self.d_emb + 2 * self.d_hid


def _gru_shapes(d_in: int, d_hid: int) -> dict[str, tuple]:
    return {
        "Wz": (d_hid, d_in), "Wr": (d_hid, d_in), "Wn": (d_hid, d_in),
        "Uz": (d_hid, d_hid), "Ur": (d_hid, d_hid), "Un": (d_hid, d_hid),
        "bz": (d_hid,), "br": (d_hid,), "bn": (d_hid,),
    }


def tensor_shapes(dims: Dims) -> dict[str, tuple]:
    """Name -> shape for every learned tensor; fixed order defines the file layout."""
    shapes: dict[str, tuple] = {
        "src_embed": (dims.n_src, dims.d_emb),
        "tgt_embed": (dims.n_tgt, dims.d_emb),
    }
    for pre in ("enc_f", "enc_b"):
        for k, s in _gru_shapes(dims.d_emb, dims.d_hid).items():
            shapes[f"{pre}.{k}"] = s
    shapes["att.Wq"] = (dims.d_hid, dims.d_hid)
    shapes["att.Wk"] = (dims.d_hid, dims.d_ann)
    shapes["att.b"] = (dims.d_hid,)
    shapes["att.v"] = (dims.d_hid,)
    for k, s in _gru_shapes(dims.d_dec_in, dims.d_hid).items():
        shapes[f"dec.{k}"] = s
    shapes["init.W"] = (dims.d_hid, dims.d_ann)
    shapes["init.b"] = (dims.d_hid,)
    shapes["out.W"] = (dims.n_tgt, dims.d_hid + dims.d_ann)
    shapes["out.b"] = (dims.n_tgt,)
    return shapes


@dataclass
class ModelParams:
    """All learned weights, keyed by tensor name (see tensor_shapes)."""

    dims: Dims
    tensors: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        expected = tensor_shapes(self.dims)
        if set(self.tensors) != set(expected):
            missing = set(expected) - set(self.tensors)
            extra = set(self.tensors) - set(expected)
            raise ContractError(f"tensor set mismatch: missing={missing} extra={extra}")
        for name, shape in expected.items():
            t = self.tensors[name]
            if t.shape != shape:
                raise ContractError(f"tensor {name}: shape {t.shape}, expected {shape}")
            if not np.all(np.isfinite(t)):
                raise ContractError(f"tensor {name} has non-finite entries")

    def copy(self) -> "ModelParams":
        return ModelParams(self.dims, {k: v.copy() for k, v in self.tensors.items()})

    def n_params(self) -> int:
        return sum(t.size for t in self.tensors.values())


def init_params(rng: RngStream, dims: Dims, scale: float = 0.08) -> ModelParams:
    """Uniform [-scale, scale] weights, zero biases."""
    tensors = {}
    for name, shape in tensor_shapes(dims).items():
        if name.split(".")[-1].startswith("b"):
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = rng.uniform_vec(shape, -scale, scale)
    return ModelParams(dims, tensors)


@dataclass
class EncodedSource:
    """B encoded sources of one length: per-position annotations plus cached
    attention keys, and the decoder GRU stacks."""

    annotations: np.ndarray        # (B, source_len, 2*d_hid)
    att_keys: np.ndarray           # (B, source_len, d_hid): Wk a_i + b, cached
    dec_gru: tuple                 # the decoder GRU's `_gru_stacks`, made at encode time

    @property
    def source_len(self) -> int:
        return self.annotations.shape[1]


def _vocab_indices(tokens, n: int, side: str) -> np.ndarray:
    """`tokens` as int64 indices into the vocabulary V_side ("src" or "tgt")
    of n tokens. An index outside it, one beyond int64 too, is a VocabError."""
    try:
        idx = np.asarray(tokens, dtype=np.int64)
    except OverflowError:
        idx = None
    if idx is None or np.any(idx < 0) or np.any(idx >= n):
        raise VocabError(f"token index out of range (|V_{side}|={n})")
    return idx


def _gru_stacks(tensors: dict, pre: str):
    """Copies of GRU `pre`'s gate tensors stacked per gate for `_gru_step`:
    (W (3, d_hid, d_in), U_zr (2, 1, d_hid, d_hid), U_n, b_zr, b_n)."""
    W, U, b = (np.array([tensors[f"{pre}.{m}{g}"] for g in "zrn"]) for m in "WUb")
    return W, U[:2, None], U[2:], b[:2, None], b[2:]


def _gru_step(wx, h, Uzr, Un, bzr, bn):
    """One GRU step (docs/model.md) of states h (..., B, d_hid) from the gates'
    input products wx (..., 3, B, d_hid) and `_gru_stacks`'s U and b, with
    h's leading axes: returns (h', zr, n), z and r stacked in zr."""
    # each sum Wx + Uh + b runs in the gemv output's buffer: (Uh + Wx) + b is
    # bitwise (Wx + Uh) + b, since IEEE addition commutes exactly
    a = (Uzr @ h[..., None, :, :, None])[..., 0]
    a += wx[..., :2, :, :]
    a += bzr
    zr = sigmoid(a)
    n = (Un @ (zr[..., 1, :, :] * h)[..., None])[..., 0]
    n += wx[..., 2, :, :]
    n += bn
    np.tanh(n, out=n)
    z = zr[..., 0, :, :]
    h_new = 1.0 - z
    h_new *= h
    h_new += z * n
    return h_new, zr, n


def encode_rows(params: ModelParams, sources):
    """Bidirectional encode of B sources of one length, (B, L) token indices:
    the two directions run as the rows of each step, with every input
    product W_g x made up front (docs/model.md, "Encoder"). Row b is bitwise
    the one-vector-per-step encoder on source b.

    Returns the sources stacked into one EncodedSource ((B, L, ...) arrays)
    and, for backpropagation, the arrays the steps ran on, in their order:
    the inputs (2, L, B, d_emb), the states before each step (L, 2, B,
    d_hid), the gates z, r, n (L, 2, 3, B, d_hid) and the `_gru_stacks`.
    """
    src = _vocab_indices(sources, params.dims.n_src, "src")
    if src.ndim != 2 or src.size == 0:
        raise ContractError("source must be a non-empty index sequence")
    t = params.tensors
    B, L = src.shape
    d_hid = params.dims.d_hid
    stacks = tuple(np.array(s) for s in zip(_gru_stacks(t, "enc_f"), _gru_stacks(t, "enc_b")))
    W, *gru = stacks                                  # (2, ...): direction 0 forward, 1 backward
    X = t["src_embed"][src.T]                                 # (L, B, d_emb)
    Xd = np.stack([X, X[::-1]])                               # direction d's input at its step k
    # one gemv per gate, never one [Wz; Wr; Wn] product, which changes bits
    WX = (W[:, :, None, None] @ Xd[:, None, ..., None])[..., 0]   # (2, 3, L, B, d_hid)
    S = np.zeros((L + 1, 2, B, d_hid))                        # S[k]: the states before step k
    G = np.empty((L, 2, 3, B, d_hid))                         # z, r, n of step k
    for k in range(L):
        S[k + 1], G[k, :, :2], G[k, :, 2] = _gru_step(WX[:, :, k], S[k], *gru)
    ann = np.empty((B, L, 2 * d_hid))
    ann[:, :, :d_hid] = S[1:, 0].transpose(1, 0, 2)
    ann[:, :, d_hid:] = S[:0:-1, 1].transpose(1, 0, 2)        # the backward direction ran from the right
    enc = EncodedSource(ann, ann @ t["att.Wk"].T + t["att.b"], _gru_stacks(t, "dec"))
    return enc, (Xd, S[:-1], G, stacks)


def initial_rows(params: ModelParams, annotations: np.ndarray) -> np.ndarray:
    """Decoder initial state of each of B sources' (B, L, 2*d_hid) annotations: (B, d_hid)."""
    abar = annotations.mean(axis=1)
    return np.tanh(_matvec_rows(params.tensors["init.W"], abar) + params.tensors["init.b"])


def _matvec_rows(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row i is W @ X[i]: a stack of gemv calls, never one gemm.

    A gemm's per-row bits depend on the batch size; a stack of gemv calls
    gives each row exactly the bits of the single-vector product.
    """
    if X.shape[0] == 1:
        # the same gemv, without the stacked call's overhead, which costs more at B = 1
        return (W @ X[0])[None]
    return (W @ X[:, :, None])[:, :, 0]


def _attend_rows(params: ModelParams, enc: EncodedSource, Q: np.ndarray):
    """Additive attention of each query row of Q (B, d_hid) over the
    annotations: (M (B, L, d_hid) pre-activations, alpha (B, L), context C (B, 2*d_hid))."""
    t = params.tensors
    M = np.add(enc.att_keys, Q[:, None, :] @ t["att.Wq"].T)
    np.tanh(M, out=M)
    alpha = softmax(M @ t["att.v"])
    C = (np.swapaxes(enc.annotations, -1, -2) @ alpha[:, :, None])[:, :, 0]
    return M, alpha, C


def attention_context(params: ModelParams, h: np.ndarray, enc: EncodedSource):
    """Context vector and attention weights of one decoder state row h
    (d_hid,) over one encoded source (a stack of one): the one-row call of
    `_attend_rows`."""
    if h.shape != (params.dims.d_hid,):
        raise ContractError(f"state dim {h.shape} != d_hid {params.dims.d_hid}")
    _, alpha, C = _attend_rows(params, enc, h[None])
    return C[0], alpha[0]


def step_rows(params: ModelParams, enc: EncodedSource, H: np.ndarray, prev: np.ndarray,
              noise: np.ndarray | None = None):
    """The batched decoder step: one transition for each row of H (B, d_hid).

    `prev` (B,) holds each row's previous target token and `noise` (B, d_hid)
    each row's noise (None for none). Returns (H' (B, d_hid), logp (B,
    |V_tgt|), cache), where cache maps the per-row intermediates
    backpropagation reads to their (B, ...) arrays: "q" (perturbed previous
    state), "M" (attention pre-activations, (B, L, d_hid)), "alpha",
    "context", "u" (GRU input), the GRU gates "z", "r", "n" and "hc" (the
    readout input [H'; context]).

    Row i's bits equal those of the single-vector step on row i alone, for
    every B: products are stacks of per-row gemv calls and reductions run
    along each row. Rows never interact. `enc` holds one source for every
    row, or one per row. Arguments are not checked here; the decoders build
    them and `decoder_step` checks one-row calls.
    """
    t = params.tensors
    Q = H if noise is None else H + noise
    M, alpha, C = _attend_rows(params, enc, Q)
    U = np.concatenate([t["tgt_embed"][prev], C], axis=1)
    W, *gru = enc.dec_gru
    Hn, zr, n = _gru_step((W[:, None] @ U[:, :, None])[..., 0], Q, *gru)
    HC = np.concatenate([Hn, C], axis=1)
    logits = _matvec_rows(t["out.W"], HC)
    logits += t["out.b"]
    cache = {"q": Q, "M": M, "alpha": alpha, "context": C, "u": U, "z": zr[0], "r": zr[1], "n": n,
             "hc": HC}
    return Hn, log_softmax(logits), cache


def decoder_step(params: ModelParams, h: np.ndarray, prev_token: int,
                 enc: EncodedSource, noise: np.ndarray | None = None):
    """One decoder transition of the state row h (d_hid,): the checked
    one-row call of `step_rows`.

    The noise vector is added to the previous hidden state before anything
    else happens: the attention query and the GRU both see the perturbed
    state. Pass None (or zeros) for non-noisy stepping. Returns the next
    state row and the log-probability vector over the following token.
    """
    dims = params.dims
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (dims.d_hid,):
            raise ContractError(f"noise dim {noise.shape} != d_hid {dims.d_hid}")
        noise = noise[None]
    if not 0 <= prev_token < dims.n_tgt:
        raise VocabError(f"target token index {prev_token} out of range (|V_tgt|={dims.n_tgt})")
    H, logp, _ = step_rows(params, enc, h[None], np.array([prev_token]), noise)
    return H[0], logp[0]


class BoundModel:
    """A model bound to one source, encoded as a stack of one (`encode_rows`
    on [source]): the step interface decoders use.

    Decoding engines only rely on this surface (n_tokens, eos, bos,
    state_dim, source_len, initial() giving the initial state row, and
    step_batch()), which keeps them testable against hand-built table models.
    """

    def __init__(self, params: ModelParams, source):
        self.params = params
        self.enc = encode_rows(params, [source])[0]
        self.n_tokens = params.dims.n_tgt
        self.eos = EOS
        self.bos = BOS
        self.state_dim = params.dims.d_hid
        self.source_len = self.enc.source_len

    def initial(self) -> np.ndarray:
        """The decoder's initial state row (d_hid,)."""
        return initial_rows(self.params, self.enc.annotations)[0]

    def step(self, h: np.ndarray, prev_token: int, noise: np.ndarray | None = None):
        """`decoder_step` on this source. No decoder calls it; it stays only
        because the benchmark's tracer (`tracing.decode_instrumentation`)
        reads `step` from every bound model it wraps."""
        return decoder_step(self.params, h, prev_token, self.enc, noise)

    def step_batch(self, H: np.ndarray, prev: np.ndarray, noise: np.ndarray | None = None):
        """`step_rows` on this source: (H (B, d), prev (B,), noise (B, d) | None) -> (H', logp)."""
        return step_rows(self.params, self.enc, H, prev, noise)[:2]
