"""Per-vector references: softmax, attention, the GRU cell and the
bidirectional encoder one vector at a time, training that force-decodes
and backpropagates one pair at a time, the way training ran before batches
ran as rows, and corpus generation with two numpy draws per pair, the way it
ran before the data stream's words were replayed in chunks. `npad.core`,
`npad.model`, `npad.train` and `npad.tasks` are checked against them bit for
bit.
"""
import numpy as np

from npad.core import ContractError, RngStream, sigmoid
from npad.decode import score_sequence
from npad.model import BOS, EOS, EncodedSource, _gru_stacks, step_rows
from npad.tasks import N_SPECIALS, ConfigError, SequencePair, TaskData, _content_vocab
from npad.train import DivergenceError, zero_grads


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax of one vector."""
    e = np.exp(x - np.max(x))
    return e / e.sum()


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Stable log-softmax of one vector."""
    shifted = x - np.max(x)
    return shifted - np.log(np.exp(shifted).sum())


def _attend(params, query: np.ndarray, enc: EncodedSource):
    """Additive attention over one source's annotations (the 2-D view of a
    stack of one) for one query vector: (context, alpha, M)."""
    M = np.tanh(enc.att_keys[0] + query @ params.tensors["att.Wq"].T)
    alpha = softmax(M @ params.tensors["att.v"])
    return enc.annotations[0].T @ alpha, alpha, M


def _gru_fwd(tensors: dict, pre: str, x: np.ndarray, hprev: np.ndarray):
    """One GRU cell step, one vector; returns (h, cache) with cache = (x, hprev, z, r, n)."""
    z = sigmoid(tensors[f"{pre}.Wz"] @ x + tensors[f"{pre}.Uz"] @ hprev + tensors[f"{pre}.bz"])
    r = sigmoid(tensors[f"{pre}.Wr"] @ x + tensors[f"{pre}.Ur"] @ hprev + tensors[f"{pre}.br"])
    n = np.tanh(tensors[f"{pre}.Wn"] @ x + tensors[f"{pre}.Un"] @ (r * hprev) + tensors[f"{pre}.bn"])
    h = (1.0 - z) * hprev + z * n
    return h, (x, hprev, z, r, n)


def encode_with_cache(params, source):
    """Bidirectional encode of one source, one vector per GRU step, as a
    stack of one, plus the per-position GRU caches (x, h_prev, z, r, n)."""
    t = params.tensors
    src = np.asarray(source, dtype=np.int64)
    X = t["src_embed"][src]
    L, d_hid = src.size, params.dims.d_hid
    ann = np.empty((L, 2 * d_hid))
    f_caches, b_caches = [], []
    h = np.zeros(d_hid)
    for i in range(L):
        h, cache = _gru_fwd(t, "enc_f", X[i], h)
        ann[i, :d_hid] = h
        f_caches.append(cache)
    h = np.zeros(d_hid)
    for i in range(L - 1, -1, -1):
        h, cache = _gru_fwd(t, "enc_b", X[i], h)
        ann[i, d_hid:] = h
        b_caches.append(cache)
    enc = EncodedSource(ann[None], (ann @ t["att.Wk"].T + t["att.b"])[None], _gru_stacks(t, "dec"))
    return enc, {"src": src, "f_caches": f_caches, "b_caches": b_caches}


def forward_pair(params, pair):
    """Force-decode one pair with zero noise; returns (nll, cache for backprop)."""
    enc, enc_cache = encode_with_cache(params, pair.source)
    abar = enc.annotations[0].mean(axis=0)
    h0 = np.tanh(params.tensors["init.W"] @ abar + params.tensors["init.b"])
    steps = []
    H = h0[None]
    prev = BOS
    loss = 0.0
    for y in pair.target:
        H, logp, rows = step_rows(params, enc, H, np.array([prev]))
        loss -= float(logp[0, y])
        step = {name: value[0] for name, value in rows.items()}
        step.update(prev=prev, y=int(y), h=H[0], probs=np.exp(logp[0]))
        steps.append(step)
        prev = int(y)
    cache = {"enc": enc, "enc_cache": enc_cache, "abar": abar, "h0": h0, "steps": steps}
    return loss, cache


def pair_nll(params, pair) -> float:
    return -score_sequence(params, pair.source, pair.target)


def _gru_back(tensors, g, pre, dh, cache):
    """Backward through one GRU cell; accumulates into g, returns (dx, dhprev)."""
    x, hprev, z, r, n = cache
    dz = dh * (n - hprev)
    dn = dh * z
    dhp = dh * (1.0 - z)
    dn_pre = dn * (1.0 - n * n)
    g[f"{pre}.Wn"] += np.outer(dn_pre, x)
    g[f"{pre}.Un"] += np.outer(dn_pre, r * hprev)
    g[f"{pre}.bn"] += dn_pre
    dx = tensors[f"{pre}.Wn"].T @ dn_pre
    tmp = tensors[f"{pre}.Un"].T @ dn_pre
    dr = tmp * hprev
    dhp = dhp + tmp * r
    dz_pre = dz * z * (1.0 - z)
    g[f"{pre}.Wz"] += np.outer(dz_pre, x)
    g[f"{pre}.Uz"] += np.outer(dz_pre, hprev)
    g[f"{pre}.bz"] += dz_pre
    dx += tensors[f"{pre}.Wz"].T @ dz_pre
    dhp += tensors[f"{pre}.Uz"].T @ dz_pre
    dr_pre = dr * r * (1.0 - r)
    g[f"{pre}.Wr"] += np.outer(dr_pre, x)
    g[f"{pre}.Ur"] += np.outer(dr_pre, hprev)
    g[f"{pre}.br"] += dr_pre
    dx += tensors[f"{pre}.Wr"].T @ dr_pre
    dhp += tensors[f"{pre}.Ur"].T @ dr_pre
    return dx, dhp


def backward_pair(params, cache, g) -> None:
    """Accumulate d(nll)/d(theta) for one force-decoded pair into g."""
    t = params.tensors
    d_emb, d_hid = params.dims.d_emb, params.dims.d_hid
    A = cache["enc"].annotations[0]
    L = A.shape[0]
    dA = np.zeros_like(A)

    carry = np.zeros(d_hid)
    for step in reversed(cache["steps"]):
        dlogits = step["probs"].copy()
        dlogits[step["y"]] -= 1.0
        hc = np.concatenate([step["h"], step["context"]])
        g["out.W"] += np.outer(dlogits, hc)
        g["out.b"] += dlogits
        dhc = t["out.W"].T @ dlogits
        dh = dhc[:d_hid] + carry
        dctx = dhc[d_hid:].copy()

        gru = (step["u"], step["q"], step["z"], step["r"], step["n"])
        du, dq = _gru_back(t, g, "dec", dh, gru)
        g["tgt_embed"][step["prev"]] += du[:d_emb]
        dctx += du[d_emb:]

        alpha, M, q = step["alpha"], step["M"], step["q"]
        dalpha = A @ dctx
        dA += np.outer(alpha, dctx)
        ds = alpha * (dalpha - float(alpha @ dalpha))
        g["att.v"] += M.T @ ds
        dpre = np.outer(ds, t["att.v"]) * (1.0 - M * M)
        dpre_sum = dpre.sum(axis=0)
        g["att.Wq"] += np.outer(dpre_sum, q)
        g["att.Wk"] += dpre.T @ A
        g["att.b"] += dpre_sum
        dq = dq + t["att.Wq"].T @ dpre_sum
        dA += dpre @ t["att.Wk"]

        carry = dq

    h0, abar = cache["h0"], cache["abar"]
    dpre0 = carry * (1.0 - h0 * h0)
    g["init.W"] += np.outer(dpre0, abar)
    g["init.b"] += dpre0
    dA += (t["init.W"].T @ dpre0) / L

    ec = cache["enc_cache"]
    dX = np.zeros((L, d_emb))
    carry_f = np.zeros(d_hid)
    for i in range(L - 1, -1, -1):
        df = dA[i, :d_hid] + carry_f
        dx, carry_f = _gru_back(t, g, "enc_f", df, ec["f_caches"][i])
        dX[i] += dx
    carry_b = np.zeros(d_hid)
    for i in range(L):
        db = dA[i, d_hid:] + carry_b
        dx, carry_b = _gru_back(t, g, "enc_b", db, ec["b_caches"][L - 1 - i])
        dX[i] += dx
    np.add.at(g["src_embed"], ec["src"], dX)


def nll_loss(params, batch):
    """`train.nll_loss` one pair at a time."""
    if not batch:
        raise ContractError("batch must be non-empty")
    g = zero_grads(params)
    total = 0.0
    for pair in batch:
        loss, cache = forward_pair(params, pair)
        total += loss
        backward_pair(params, cache, g)
    scale = 1.0 / len(batch)
    loss = total * scale
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss!r}")
    for name in g:
        g[name] *= scale
    return loss, g


def valid_nll(params, pairs):
    """`train.valid_nll` as one `score_sequence` per pair, summed in order."""
    total = 0.0
    tokens = 0
    for pair in pairs:
        total += pair_nll(params, pair)
        tokens += len(pair.target)
    return total / len(pairs), total / tokens


def gen_task(kind: str, vocab_size: int, length_range: tuple[int, int],
             count: int, seed: int) -> TaskData:
    """`npad.tasks.gen_task` with a `data_rng.integers` call for each
    attempt's length and another for its content (unchecked arguments; an
    exhausted source space fails after 200 x count attempts)."""
    lo, hi = length_range
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
