"""Force-decoding losses and exact gradients with a batch's pairs as rows.

Consecutive pairs of equal source and target lengths run as the rows of one
forward and backward pass, and the loss and gradient bits are those of
running the pairs one at a time in batch order: every product is the
per-pair gemv or gemm call, and every gradient tensor adds its per-(pair,
step) terms in the order the per-pair backward visits them (docs/model.md,
"Training").
"""
from __future__ import annotations

import numpy as np

from .model import (
    BOS,
    ModelParams,
    _matvec_rows,
    _vocab_indices,
    encode_rows,
    initial_rows,
    step_rows,
)
from .tasks import SequencePair


# Most pairs in one group: bounds the per-step rows a group keeps for
# backpropagation.
WINDOW = 16
# Bytes of weight-gradient terms formed at once before they are summed.
TERM_BYTES = 1 << 17


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(t) for name, t in params.tensors.items()}


def forward_rows(params: ModelParams, pairs: list[SequencePair], keep_cache: bool = True):
    """Force-decode pairs of one source and one target length with zero noise,
    as the rows of each encoder and decoder step. Returns (nll (B,), cache
    for backprop); nll[b] is bitwise pair b's forced search score, negated.
    The cache holds each decoder step's rows in (T, B, ...) arrays, so it
    grows as T x source length; without `keep_cache` it is None.
    """
    dims, d = params.dims, params.dims.d_hid
    sources = [pair.source for pair in pairs]
    enc, enc_steps = encode_rows(params, sources)
    targets = _vocab_indices([pair.target for pair in pairs], dims.n_tgt, "tgt")
    (B, T), L = targets.shape, enc.source_len
    shapes = {"q": (d,), "hc": (d + dims.d_ann,), "u": (dims.d_dec_in,), "z": (d,), "r": (d,),
              "n": (d,), "alpha": (L,), "M": (L, d), "probs": (dims.n_tgt,)}
    steps = {name: np.empty((T, B) + shape) for name, shape in shapes.items()} if keep_cache else {}
    rows = np.arange(B)
    H = initial_rows(params, enc.annotations)
    prev = np.full(B, BOS)
    nll = np.zeros(B)
    for j, y in enumerate(targets.T):
        H, logp, cache = step_rows(params, enc, H, prev)
        nll -= logp[rows, y]
        for name, kept in steps.items():
            kept[j] = logp if name == "probs" else cache[name]
        prev = y
    if not keep_cache:
        return nll, None
    np.exp(steps["probs"], out=steps["probs"])
    return nll, {"sources": np.array(sources, dtype=np.int64), "targets": targets, "enc": enc,
                 "enc_steps": enc_steps, "steps": steps}


def _gru_back_rows(stacks, dh: np.ndarray, hprev, z, r, n):
    """Backward through one `model._gru_step`, given its GRU's `params.gru`, its
    states' gradients dh (..., B, d_hid), h_prev and gates, with its leading
    axes. Returns (dx, dh_prev) and the gates' pre-activation gradients (dz,
    dr, dn), the weight gradients' row factors."""
    W, Uzr, Un = (np.swapaxes(m, -1, -2) for m in stacks[:3])
    dn = dh * z * (1.0 - n * n)
    tmp = (Un @ dn[..., None])[..., 0]
    dz = dh * (n - hprev) * z * (1.0 - z)
    dr = tmp * hprev * r * (1.0 - r)
    D = np.stack([dz, dr, dn], axis=-3)[..., None]
    dx = (W[..., None, :, :] @ D)[..., 0]                      # W_g^T d_g over (z, r, n)
    du = (Uzr @ D[..., :2, :, :, :])[..., 0]                   # U_g^T d_g over (z, r)
    dhp = dh * (1.0 - z) + tmp * r + du[..., 0, :, :] + du[..., 1, :, :]
    return dx[..., 2, :, :] + dx[..., 0, :, :] + dx[..., 1, :, :], dhp, (dz, dr, dn)


def _gru_terms(pre: str, x: np.ndarray, hprev: np.ndarray, r: np.ndarray, d) -> dict:
    """One GRU's weight-gradient terms as row factors in visit order, last
    step first, from its steps' inputs x, h_prev and reset gates r, (S, B,
    ...) arrays in the order the steps ran, and d = (dz, dr, dn), the gates'
    pre-activation gradients: W_g and U_g get outer(d_g, x) and outer(d_g,
    h_prev) (outer(d_n, r * h_prev) for the candidate), b_g gets d_g.
    Overwrites r with r * h_prev.
    """
    terms = {}
    for gate, dg, h in zip("zrn", d, (hprev, hprev, np.multiply(r, hprev, out=r))):
        terms.update({f"{pre}.W{gate}": (dg[::-1], x[::-1]), f"{pre}.U{gate}": (dg[::-1], h[::-1]),
                      f"{pre}.b{gate}": (dg[::-1],)})
    return terms


def backward_rows(params: ModelParams, cache) -> dict:
    """Backpropagate a `forward_rows` group. Returns the weight-gradient
    terms of every pair, unsummed: tensor -> row factors whose axis 0 runs in
    the order the per-pair backward visits the terms and axis 1 over the rows
    (`_group_terms` reads them). The terms reuse the cache's arrays: once a
    step's gates and attention are read, its z, n, alpha and M hold dz, dn,
    ds and dpre.

    Every vector is bitwise the per-pair backward's: the same elementwise
    expressions, and products as stacked gemv or gemm calls, one per row.
    """
    t = params.tensors
    d_emb, d_hid = params.dims.d_emb, params.dims.d_hid
    enc, st, targets = cache["enc"], cache["steps"], cache["targets"]
    A = enc.annotations                                    # (B, L, 2*d_hid)
    B, L = A.shape[:2]
    T = targets.shape[1]
    rows = np.arange(B)
    Wq, Wk, v = t["att.Wq"], t["att.Wk"], t["att.v"]
    dA = np.zeros_like(A)
    dlogits, q, z, r, n, ds, dpre = (st[k] for k in ("probs", "q", "z", "r", "n", "alpha", "M"))
    dr, dv, dpre_sum, du_emb = (np.empty((T, B, w)) for w in (d_hid, d_hid, d_hid, d_emb))

    carry = np.zeros((B, d_hid))
    for j in range(T - 1, -1, -1):
        dlogits[j, rows, targets[:, j]] -= 1.0
        dhc = _matvec_rows(t["out.W"].T, dlogits[j])
        dh = dhc[:, :d_hid] + carry
        dctx = dhc[:, d_hid:].copy()

        du, dq, (z[j], dr[j], n[j]) = _gru_back_rows(params.gru["dec"], dh, q[j], z[j], r[j], n[j])
        du_emb[j] = du[:, :d_emb]
        dctx += du[:, d_emb:]

        alpha, M = ds[j], dpre[j]           # the forward's values until overwritten below
        dalpha = (A @ dctx[:, :, None])[:, :, 0]
        dA += alpha[:, :, None] * dctx[:, None, :]
        ds[j] = alpha * (dalpha - (alpha[:, None, :] @ dalpha[:, :, None])[:, 0])
        dv[j] = (np.swapaxes(M, 1, 2) @ ds[j][:, :, None])[:, :, 0]
        dpre[j] = ds[j][:, :, None] * v * (1.0 - M * M)
        dpre_sum[j] = dpre[j].sum(axis=1)
        dq = dq + _matvec_rows(Wq.T, dpre_sum[j])
        dA += dpre[j] @ Wk
        carry = dq

    terms = _gru_terms("dec", st["u"], q, r, (z, dr, n))
    terms.update({"out.W": (dlogits[::-1], st["hc"][::-1]), "out.b": (dlogits[::-1],),
                  "att.v": (dv[::-1],), "att.Wq": (dpre_sum[::-1], q[::-1]),
                  "att.Wk": (dpre[::-1],), "att.b": (dpre_sum[::-1],)})
    prev = np.vstack([np.full(B, BOS), targets.T[:-1]])
    terms["tgt_embed"] = (prev[::-1], du_emb[::-1])

    # initial state
    dpre0 = carry * (1.0 - q[0] * q[0])
    terms.update({"init.W": (dpre0[None], A.mean(axis=1)[None]), "init.b": (dpre0[None],)})
    dA += _matvec_rows(t["init.W"].T, dpre0)[:, None, :] / L

    # encoder: both directions as the rows of each step; step k read positions k and L-1-k
    X, S, G = cache["enc_steps"]
    z, r, n = (G[:, :, g] for g in range(3))               # (L, 2, B, d_hid) views
    dr = np.empty_like(r)
    carry = np.zeros((2, B, d_hid))
    dX = np.zeros((L, B, d_emb))
    for k in range(L - 1, -1, -1):
        dh = np.stack([dA[:, k, :d_hid], dA[:, L - 1 - k, d_hid:]]) + carry
        dx, carry, (z[k], dr[k], n[k]) = _gru_back_rows(params.gru["enc"], dh, S[k], z[k], r[k], n[k])
        dX[k] += dx[0]
        dX[L - 1 - k] += dx[1]
    for d, pre in enumerate(("enc_f", "enc_b")):
        terms.update(_gru_terms(pre, X[d], S[:, d], r[:, d], (z[:, d], dr[:, d], n[:, d])))
    terms["src_embed"] = (cache["sources"].T, dX)
    return terms


def _add_terms(g: np.ndarray, count: int, fill) -> None:
    """Add `count` terms onto g in order, with the bits of `g += term` one
    term at a time: fill(i, j, out) writes terms i..j-1 into out. Terms are
    formed into a buffer of about TERM_BYTES whose slot 0 holds g, and the
    buffer is summed into g along axis 0 each time it fills or the terms end.
    """
    size = max(1, TERM_BYTES // g.nbytes)
    buf = np.empty((min(size, count) + 1,) + g.shape)
    for i in range(0, count, size):
        j = min(count, i + size)
        fill(i, j, buf[1:1 + j - i])
        _sum_in_order(buf[:1 + j - i], g)


def _sum_in_order(buf: np.ndarray, g: np.ndarray) -> None:
    """g = g + buf[1] + buf[2] + ..., one addition after another."""
    buf[0] = g
    if g.size == 1:
        # with no other axis to loop over, add.reduce would sum pairwise
        g[...] = np.add.accumulate(buf, axis=0)[-1]
    else:
        # numpy reduces a non-innermost axis by sequential adds
        np.add.reduce(buf, axis=0, out=g)


def _pair_major(f: np.ndarray) -> np.ndarray:
    """An (S, B, ...) factor as one (S * B, ...) array, pair after pair."""
    return np.swapaxes(f, 0, 1).reshape(-1, *f.shape[2:])


def _group_terms(name: str, enc, factors):
    """(count, fill) for the terms of tensor `name` of one group, pair after
    pair: fill(i, j, out) writes terms i..j-1."""
    if name == "att.Wk":
        # dpre.T @ A of each term's step and pair; dpre is gathered per fill,
        # not copied pair-major for the whole group, as it is (S, B, L, d_hid)
        dpre, A = factors[0], enc.annotations
        steps = len(dpre)

        def fill(i, j, out):
            k = np.arange(i, j)
            rows = k // steps
            np.matmul(np.swapaxes(dpre[k % steps, rows], 1, 2), A[rows], out=out)
        return steps * dpre.shape[1], fill
    a, *b = (_pair_major(f) for f in factors)
    if b:
        # np.outer(a, b), except that einsum adds each product onto +0.0 and
        # so forms a -0.0 product as +0.0. The sums they go into start at +0.0,
        # and a sum is -0.0 only when both addends are, so no sum ever holds
        # -0.0 and adding either zero gives the same bits.
        def fill(i, j, out):
            np.einsum("ki,kj->kij", a[i:j], b[0][i:j], out=out)
    else:
        def fill(i, j, out):
            out[...] = a[i:j]
    return len(a), fill


def _groups(pairs: list[SequencePair], order) -> list[list[int]]:
    """The indices `order` visits, cut into groups: maximal runs of
    consecutive pairs of equal source and target lengths, at most WINDOW each."""
    groups: list[list[int]] = []
    last = None
    for i in order:
        key = (len(pairs[i].source), len(pairs[i].target))
        if key != last or len(groups[-1]) == WINDOW:
            groups.append([])
        groups[-1].append(i)
        last = key
    return groups


def batch_gradients(params: ModelParams, batch: list[SequencePair]):
    """Sum of the pairs' losses and gradients: (total nll, tensor -> gradient).

    Each group of the batch (`_groups`, in batch order) runs as the rows of
    one forward and backward pass, and adds its terms before the next runs.
    """
    g = zero_grads(params)
    total = 0.0
    for ix in _groups(batch, range(len(batch))):
        nll, cache = forward_rows(params, [batch[i] for i in ix])
        for value in nll.tolist():          # in batch order, one addition at a time
            total += value
        terms = backward_rows(params, cache)
        for name, tensor in g.items():
            if name.endswith("_embed"):
                tokens, rows = terms[name]
                np.add.at(tensor, _pair_major(tokens), _pair_major(rows))
            else:
                _add_terms(tensor, *_group_terms(name, cache["enc"], terms[name]))
    return total, g


def pair_nlls(params: ModelParams, pairs: list[SequencePair]) -> list[float]:
    """Each pair's negative log-likelihood: a forward pass without the
    backprop cache over the groups of the pairs sorted by their lengths.
    `decode.score_sequence` is its one-pair call."""
    nll = np.empty(len(pairs))
    by_length = sorted(range(len(pairs)),
                       key=lambda i: (len(pairs[i].source), len(pairs[i].target)))
    for ix in _groups(pairs, by_length):
        nll[ix] = forward_rows(params, [pairs[i] for i in ix], keep_cache=False)[0]
    return nll.tolist()
