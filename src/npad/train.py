"""Maximum-likelihood training: full-length backpropagation through time,
global-norm gradient clipping, minibatch SGD with optional per-parameter
adaptive scaling, and a finite-difference gradient verifier.

Gradients are dictionaries keyed exactly like ModelParams.tensors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backprop import batch_gradients, pair_nlls, zero_grads
from .core import ContractError, RngStream
from .model import ModelParams
from .tasks import SequencePair


# The largest model `npad train` builds, in parameters. Training holds about
# seven float64 copies of them at once (the caller's parameters, the working
# copy, the best checkpoint, the adaptive accumulator, the gradient, its
# clipped copy and the update's temporaries): a few pairs trained with
# d_hid 700, 9.9 million parameters, peaked at about 610 MB.
MAX_PARAMS = 10**7


class DivergenceError(RuntimeError):
    """Training overflowed or produced a non-finite loss, gradient or validation NLL."""


@dataclass
class TrainConfig:
    epochs: int
    lr: float = 0.2
    lr_decay: float = 1.0            # multiplicative, per epoch
    clip_norm: float = 1.0
    batch_size: int = 16
    patience: int = 10
    seed: int = 0
    adaptive: bool = True            # per-parameter Adagrad-style scaling
    stop_below_token_nll: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        for name in ("lr", "lr_decay", "clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)}")
        if self.clip_norm <= 0:
            raise ContractError("clip_norm must be > 0")
        for name in ("lr", "lr_decay", "patience"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")


def nll_loss(params: ModelParams, batch: list[SequencePair]):
    """Mean per-sentence negative log-likelihood of the batch, with gradients.

    The batch's pairs run as rows (`backprop.batch_gradients`); loss and
    gradients are bitwise those of force-decoding and backpropagating the
    pairs one at a time in batch order (tests/reference.py).
    """
    if not batch:
        raise ContractError("batch must be non-empty")
    total, g = batch_gradients(params, batch)
    scale = 1.0 / len(batch)
    loss = total * scale
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss!r}")
    for name in g:
        g[name] *= scale
        if not np.all(np.isfinite(g[name])):
            raise DivergenceError(f"non-finite gradient in {name}")
    return loss, g


def grad_global_norm(g: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(t * t)) for t in g.values())))


def clip_gradients(g: dict[str, np.ndarray], clip_norm: float) -> dict[str, np.ndarray]:
    """Renormalize to clip_norm when the global L2 norm exceeds it; otherwise
    return the buffer unchanged (same arrays). Direction is always preserved.
    """
    if clip_norm <= 0:
        raise ContractError("clip_norm must be > 0")
    norm = grad_global_norm(g)
    if norm <= clip_norm:
        return g
    scale = clip_norm / norm
    return {name: t * scale for name, t in g.items()}


@dataclass
class TraceRow:
    epoch: int
    train_nll: float           # mean per-sentence nll over the epoch
    valid_nll: float           # mean per-sentence nll on the validation set
    valid_nll_token: float     # total nll / total target tokens


def valid_nll(params: ModelParams, pairs: list[SequencePair]) -> tuple[float, float]:
    """Mean per-sentence and per-token NLL: the per-pair values, computed
    as rows, summed in pair order."""
    if not pairs:
        raise ContractError("validation set must be non-empty")
    total = 0.0
    tokens = 0
    for pair, value in zip(pairs, pair_nlls(params, pairs)):
        total += value
        tokens += len(pair.target)
    return total / len(pairs), total / tokens


def train(params: ModelParams, dataset: list[SequencePair],
          valid: list[SequencePair], cfg: TrainConfig):
    """Minibatch SGD with clipping; keeps the best-validation checkpoint.

    Batches bucket pairs by target then source length (stable within the
    epoch shuffle), so equal-length pairs run as one group in backprop;
    since the loss is computed per sequence no padding or masking is needed.
    Returns (best params, per-epoch trace). Deterministic given cfg.seed.
    """
    for name, pairs in (("training", dataset), ("validation", valid)):
        if not pairs:
            raise ContractError(f"{name} set must be non-empty")
    if set(dataset) & set(valid):
        raise ContractError("train and validation sets must be disjoint")
    rng = RngStream(cfg.seed)
    params = params.copy()
    accum = zero_grads(params) if cfg.adaptive else None

    best_params = params.copy()
    best_valid = float("inf")
    bad_epochs = 0
    trace: list[TraceRow] = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(1, cfg.epochs + 1):
                order = rng.permutation(len(dataset))
                ordered = sorted((dataset[i] for i in order),
                                 key=lambda p: (len(p.target), len(p.source)))
                batches = [ordered[i:i + cfg.batch_size]
                           for i in range(0, len(ordered), cfg.batch_size)]
                batch_order = rng.permutation(len(batches))
                lr = cfg.lr * cfg.lr_decay ** (epoch - 1)
                epoch_total = 0.0
                for bi in batch_order:
                    batch = batches[bi]
                    loss, g = nll_loss(params, batch)
                    epoch_total += loss * len(batch)
                    g = clip_gradients(g, cfg.clip_norm)
                    for name, tensor in params.tensors.items():
                        if accum is not None:
                            accum[name] += g[name] * g[name]
                            tensor -= lr * g[name] / (np.sqrt(accum[name]) + 1e-8)
                        else:
                            tensor -= lr * g[name]
                v_sent, v_tok = valid_nll(params, valid)
                if not math.isfinite(v_sent):
                    raise DivergenceError(f"non-finite validation NLL {v_sent!r} "
                                          f"after epoch {epoch}")
                trace.append(TraceRow(epoch, epoch_total / len(dataset), v_sent, v_tok))
                if v_sent < best_valid:
                    best_valid = v_sent
                    best_params = params.copy()
                    bad_epochs = 0
                else:
                    bad_epochs += 1
                if cfg.stop_below_token_nll is not None and v_tok < cfg.stop_below_token_nll:
                    break
                if bad_epochs > cfg.patience:
                    break
    except FloatingPointError as e:
        raise DivergenceError(f"{e} in epoch {epoch}") from None
    return best_params, trace


def relative_errors(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> np.ndarray:
    """Elementwise |a - n| / max(|a|, |n|, floor).

    The floor keeps finite-difference rounding noise on near-zero gradients
    from registering as large relative errors.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


@dataclass
class GradCheckReport:
    per_tensor: dict[str, float]
    max_rel_error: float
    tolerance: float
    analytic: dict[str, np.ndarray]
    numeric: dict[str, np.ndarray]

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(params: ModelParams, pair: SequencePair,
               tolerance: float = 1e-4, h: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences."""
    if params.n_params() > 5000:
        raise ContractError(f"model too large to finite-difference ({params.n_params()} params)")
    _, analytic = nll_loss(params, [pair])
    numeric = {}
    for name, tensor in params.tensors.items():
        num = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            orig = tensor[idx]
            tensor[idx] = orig + h
            up = pair_nlls(params, [pair])[0]
            tensor[idx] = orig - h
            down = pair_nlls(params, [pair])[0]
            tensor[idx] = orig
            num[idx] = (up - down) / (2.0 * h)
        numeric[name] = num
    per_tensor = {}
    for name in params.tensors:
        err = relative_errors(analytic[name], numeric[name])
        per_tensor[name] = float(err.max()) if err.size else 0.0
    return GradCheckReport(per_tensor, max(per_tensor.values()), tolerance, analytic, numeric)
