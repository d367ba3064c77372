"""Hand-set step models for decoder tests.

A TableModel defines its per-step next-token distributions directly via a
(t, prev_token) -> probability row lookup, so every sequence probability can
be computed by hand. A scalar hidden state lets tests couple injected noise
to the first-step logits (noise_weight shifts token 0's logit by that many
units per unit of perturbation).

The batched interface carries each row's step count next to its hidden
value: a row of H is [h, t]. Noise rows stay state_dim = 1 wide.
"""
import numpy as np

from npad.model import DecoderState


class TableModel:
    bos = 1
    eos = 2
    state_dim = 1
    source_len = 1

    def __init__(self, rows, n_tokens=3, default=None, noise_weight=0.0):
        self.rows = {k: np.asarray(v, dtype=np.float64) for k, v in rows.items()}
        self.n_tokens = n_tokens
        self.default = np.asarray(default if default is not None else [1.0] * n_tokens,
                                  dtype=np.float64)
        self.noise_weight = noise_weight

    def initial(self):
        return DecoderState(h=np.zeros(2), t=0)

    def step(self, state, prev_token, noise=None):
        row = self.rows.get((state.t, prev_token), self.default).copy()
        with np.errstate(divide="ignore"):
            logits = np.log(row / row.sum())
        if self.noise_weight and noise is not None:
            logits[0] += self.noise_weight * float(state.h[0] + noise[0])
        shifted = logits - logits.max()
        with np.errstate(divide="ignore"):
            logp = shifted - np.log(np.exp(shifted).sum())
        return DecoderState(h=np.zeros(1), t=state.t + 1), logp

    def step_batch(self, H, prev, noise=None):
        """`step` on each row in turn."""
        H_next, logps = np.empty_like(H), []
        for i, (h, t) in enumerate(H):
            state, logp = self.step(DecoderState(h=np.array([h]), t=int(t)), int(prev[i]),
                                    None if noise is None else noise[i])
            H_next[i] = [state.h[0], state.t]
            logps.append(logp)
        return H_next, np.array(logps)


def point_mass_eos(n_tokens=3):
    """EOS is forced at every step."""
    row = [0.0] * n_tokens
    row[TableModel.eos] = 1.0
    return TableModel({}, n_tokens=n_tokens, default=row)


def garden_path(noise_weight=0.0):
    """Step-1 argmax (token 0) leads into low step-2 mass; token 1 is the
    globally best opener. Hand-computed sequence probabilities:

        [2]       0.01
        [0, 2]    0.6  * 0.5  = 0.3
        [1, 2]    0.39 * 0.98 = 0.3822   <- global argmax
        [0, 0, 2] 0.6  * 0.25 * 0.9 = 0.135  (and smaller for the rest)
    """
    rows = {
        (0, TableModel.bos): [0.6, 0.39, 0.01],
        (1, 0): [0.25, 0.25, 0.5],
        (1, 1): [0.01, 0.01, 0.98],
        (2, 0): [0.05, 0.05, 0.9],
        (2, 1): [0.05, 0.05, 0.9],
    }
    return TableModel(rows, noise_weight=noise_weight)


class RecordingModel(TableModel):
    """A TableModel that keeps the noise each row receives: `noise` holds
    (step, noise row) for every row of every noisy step, `calls` counts the
    `step_batch` calls and `silent_steps` those made without noise."""

    def __init__(self, *args, state_dim=1, **kwargs):
        super().__init__(*args, **kwargs)
        self.state_dim = state_dim
        self.noise = []
        self.calls = 0
        self.silent_steps = 0

    def step_batch(self, H, prev, noise=None):
        self.calls += 1
        if noise is None:
            self.silent_steps += 1
        else:
            self.noise += [(int(t) + 1, row) for (_, t), row in zip(H, noise)]
        return super().step_batch(H, prev, noise)
