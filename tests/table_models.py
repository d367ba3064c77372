"""Hand-set step models for decoder tests.

A TableModel defines its per-step next-token distributions directly via a
(t, prev_token) -> probability row lookup, so every sequence probability can
be computed by hand. A scalar hidden state lets tests couple injected noise
to the first-step logits (noise_weight shifts token 0's logit by that many
units per unit of perturbation).

A state row carries the step count next to the hidden value: a row of H is
[h, t], and `initial()` returns [0, 0]. Noise rows stay state_dim = 1 wide.
"""
import numpy as np


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
        return np.zeros(2)

    def _logits(self, t, prev_token):
        """The table's log-probabilities at step t after prev_token."""
        row = self.rows.get((t, prev_token), self.default)
        with np.errstate(divide="ignore"):
            return np.log(row / row.sum())

    def step_batch(self, H, prev, noise=None):
        """All rows at once: row [h, t] after prev gets the table's logits for
        (t, prev), token 0's shifted by noise_weight * (h + its noise), and
        steps to [0, t + 1]. The logits are made once per distinct (t, prev)."""
        keys, which = np.unique(np.stack([H[:, 1].astype(np.int64), prev]), axis=1,
                                return_inverse=True)
        logits = np.array([self._logits(t, p) for t, p in keys.T.tolist()])[which.ravel()]
        if self.noise_weight and noise is not None:
            logits[:, 0] += self.noise_weight * (H[:, 0] + noise[:, 0])
        shifted = logits - logits.max(axis=1, keepdims=True)
        with np.errstate(divide="ignore"):
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        H_next = np.zeros_like(H)
        H_next[:, 1] = H[:, 1] + 1
        return H_next, logp


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
