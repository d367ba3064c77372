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

from .core import ContractError, RngStream, sigmoid, softmax

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
    """Per-position annotations (rows) plus cached attention keys and decoder GRU stacks."""

    annotations: np.ndarray        # (source_len, 2*d_hid), or (B, source_len, 2*d_hid)
    att_keys: np.ndarray           # (source_len, d_hid): Wk a_i + b, cached; (B, ...) likewise
    dec_gru: tuple                 # the decoder GRU's `_gru_stacks`, made at encode time

    @property
    def source_len(self) -> int:
        return self.annotations.shape[-2]


@dataclass
class DecoderState:
    h: np.ndarray
    t: int = 0


def _check_sources(dims: Dims, sources) -> np.ndarray:
    src = np.asarray(sources, dtype=np.int64)
    if src.ndim != 2 or src.size == 0:
        raise ContractError("source must be a non-empty index sequence")
    if np.any(src < 0) or np.any(src >= dims.n_src):
        raise VocabError(f"source token index out of range (|V_src|={dims.n_src})")
    return src


def encode(params: ModelParams, source) -> EncodedSource:
    """Bidirectional encode of one source: the one-row call of `encode_rows`."""
    enc = encode_rows(params, np.asarray(source, dtype=np.int64)[None])[0]
    return EncodedSource(enc.annotations[0], enc.att_keys[0], enc.dec_gru)


def _gru_stacks(tensors: dict, pre: str):
    """Copies of GRU `pre`'s gate tensors stacked per gate for `_gru_step`:
    (W (3, d_hid, d_in), U_zr (2, 1, d_hid, d_hid), U_n, b_zr, b_n)."""
    W, U, b = (np.array([tensors[f"{pre}.{m}{g}"] for g in "zrn"]) for m in "WUb")
    return W, U[:2, None], U[2:], b[:2, None], b[2:]


def _gru_step(wx, h, Uzr, Un, bzr, bn):
    """One GRU step (docs/model.md) of states h (..., B, d_hid) from the gates'
    input products wx (..., 3, B, d_hid) and `_gru_stacks`'s U and b, with
    h's leading axes: returns (h', zr, n), z and r stacked in zr."""
    zr = sigmoid(wx[..., :2, :, :] + (Uzr @ h[..., None, :, :, None])[..., 0] + bzr)
    n = np.tanh(wx[..., 2, :, :] + (Un @ (zr[..., 1, :, :] * h)[..., None])[..., 0] + bn)
    return (1.0 - zr[..., 0, :, :]) * h + zr[..., 0, :, :] * n, zr, n


def encode_rows(params: ModelParams, sources):
    """Bidirectional encode of B sources of one length, (B, L) token indices:
    the two directions run as the rows of each step, with every input
    product W_g x made up front (docs/model.md, "Encoder"). Row b is bitwise
    the one-vector-per-step encoder on source b.

    Returns the sources stacked into one EncodedSource ((B, L, ...) arrays)
    and, for backpropagation, each direction's step inputs and gates
    (x, h_prev, z, r, n), (L, B, ...) arrays whose axis 0 runs in the order
    the steps ran.
    """
    src = _check_sources(params.dims, sources)
    t = params.tensors
    B, L = src.shape
    d_hid = params.dims.d_hid
    dirs = ("enc_f", "enc_b")                                 # direction 0 forward, 1 backward
    W, *gru = (np.array(s) for s in zip(*(_gru_stacks(t, pre) for pre in dirs)))   # (2, ...)
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
    steps = {pre: (Xd[d], S[:-1, d], G[:, d, 0], G[:, d, 1], G[:, d, 2])
             for d, pre in enumerate(dirs)}
    return enc, steps


def initial_rows(params: ModelParams, annotations: np.ndarray) -> np.ndarray:
    """Decoder initial state of each of B sources' (B, L, 2*d_hid) annotations: (B, d_hid)."""
    abar = annotations.mean(axis=1)
    return np.tanh(_matvec_rows(params.tensors["init.W"], abar) + params.tensors["init.b"])


def initial_state(params: ModelParams, enc: EncodedSource) -> DecoderState:
    return DecoderState(h=initial_rows(params, enc.annotations[None])[0], t=0)


def _attend(params: ModelParams, query: np.ndarray, enc: EncodedSource, want_cache: bool = False):
    """Additive attention over the annotations for one query vector."""
    M = np.tanh(enc.att_keys + query @ params.tensors["att.Wq"].T)
    scores = M @ params.tensors["att.v"]
    alpha = softmax(scores)
    context = enc.annotations.T @ alpha
    if want_cache:
        return context, alpha, M
    return context, alpha


def attention_context(params: ModelParams, state: DecoderState, enc: EncodedSource):
    """Context vector and attention weights for the given decoder state."""
    if state.h.shape != (params.dims.d_hid,):
        raise ContractError(f"state dim {state.h.shape} != d_hid {params.dims.d_hid}")
    return _attend(params, state.h, enc)


def _matvec_rows(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row i is W @ X[i]: a stack of gemv calls, never one gemm.

    A gemm's per-row bits depend on the batch size; a stack of gemv calls
    gives each row exactly the bits of the single-vector product.
    """
    if X.shape[0] == 1:
        # the same gemv, without the stacked call's overhead, which costs more at B = 1
        return (W @ X[0])[None]
    return (W @ X[:, :, None])[:, :, 0]


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def step_rows_with_cache(params: ModelParams, enc: EncodedSource, H: np.ndarray,
                         prev: np.ndarray, noise: np.ndarray | None = None):
    """`step_rows` plus the per-row intermediates backpropagation reads.

    Returns (H', logp, cache) where cache maps "q" (perturbed previous
    state), "M" (attention pre-activations, (B, L, d_hid)), "alpha",
    "context", "u" (GRU input) and the GRU gates "z", "r", "n" to their
    (B, ...) arrays.
    """
    t = params.tensors
    Q = H if noise is None else H + noise
    M = np.tanh(enc.att_keys + Q[:, None, :] @ t["att.Wq"].T)          # (B, L, d_hid)
    alpha = _softmax_rows(M @ t["att.v"])
    C = (np.swapaxes(enc.annotations, -1, -2) @ alpha[:, :, None])[:, :, 0]
    U = np.concatenate([t["tgt_embed"][prev], C], axis=1)
    W, *gru = enc.dec_gru
    Hn, zr, n = _gru_step((W[:, None] @ U[:, :, None])[..., 0], Q, *gru)
    logits = _matvec_rows(t["out.W"], np.concatenate([Hn, C], axis=1)) + t["out.b"]
    cache = {"q": Q, "M": M, "alpha": alpha, "context": C, "u": U, "z": zr[0], "r": zr[1], "n": n}
    return Hn, _log_softmax_rows(logits), cache


def step_rows(params: ModelParams, enc: EncodedSource, H: np.ndarray, prev: np.ndarray,
              noise: np.ndarray | None = None):
    """The batched decoder step: one transition for each row of H (B, d_hid).

    `prev` (B,) holds each row's previous target token and `noise` (B, d_hid)
    each row's noise (None for none). Returns (H' (B, d_hid), logp (B, |V_tgt|)).

    Row i's bits equal those of the single-vector step on row i alone, for
    every B: products are stacks of per-row gemv calls and reductions run
    along each row. Rows never interact. Arguments are not checked here; the
    decoders build them and `decoder_step` checks single-vector calls.
    """
    return step_rows_with_cache(params, enc, H, prev, noise)[:2]


def decoder_step(params: ModelParams, state: DecoderState, prev_token: int,
                 enc: EncodedSource, noise: np.ndarray | None = None):
    """One decoder transition: a one-row call of `step_rows`.

    The noise vector is added to the previous hidden state before anything
    else happens: the attention query and the GRU both see the perturbed
    state. Pass None (or zeros) for non-noisy stepping. Returns the next
    state and the log-probability vector over the following token.
    """
    dims = params.dims
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (dims.d_hid,):
            raise ContractError(f"noise dim {noise.shape} != d_hid {dims.d_hid}")
        noise = noise[None]
    if not 0 <= prev_token < dims.n_tgt:
        raise VocabError(f"target token index {prev_token} out of range (|V_tgt|={dims.n_tgt})")
    H, logp = step_rows(params, enc, state.h[None], np.array([prev_token]), noise)
    return DecoderState(h=H[0], t=state.t + 1), logp[0]


def score_sequence(params: ModelParams, source, target) -> float:
    """Total log-probability of `target` given `source` under the non-noisy
    model: `force_score` on the bound source.

    The value is a complete-sequence log-probability when `target` ends with
    EOS; prefixes are accepted so that unfinished decodes can still be
    rescored.
    """
    from .decode import force_score          # decode imports this module

    return force_score(BoundModel(params, source), target)


class BoundModel:
    """A model bound to one encoded source: the step interface decoders use.

    Decoding engines only rely on this surface (n_tokens, eos, bos,
    state_dim, source_len, initial(), step_batch()), which keeps them
    testable against hand-built table models.
    """

    def __init__(self, params: ModelParams, source):
        self.params = params
        self.enc = encode(params, source)
        self.n_tokens = params.dims.n_tgt
        self.eos = EOS
        self.bos = BOS
        self.state_dim = params.dims.d_hid
        self.source_len = self.enc.source_len

    def initial(self) -> DecoderState:
        return initial_state(self.params, self.enc)

    def step(self, state: DecoderState, prev_token: int, noise: np.ndarray | None = None):
        return decoder_step(self.params, state, prev_token, self.enc, noise)

    def step_batch(self, H: np.ndarray, prev: np.ndarray, noise: np.ndarray | None = None):
        """`step_rows` on this source: (H (B, d), prev (B,), noise (B, d) | None) -> (H', logp)."""
        return step_rows(self.params, self.enc, H, prev, noise)
