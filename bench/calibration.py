"""Machine-speed calibration for the end-to-end timings.

The machines this benchmark runs on share their cores with other tenants, and
their speed swings by up to 2x in phases that last seconds. The slowdown shows
in CPU time as much as in wall time, so it is not preemption that a CPU clock
could leave out. An untraced run therefore runs a short calibration probe
every PROBE_INTERVAL_S from a timer signal: a fixed kernel of the same kind of
work as the library's decoder step (a Python loop over small numpy operations
at the translate sizes), written here and unaffected by any change to the
library. At a moment when probes take `d` seconds, the machine runs at
REFERENCE_PROBE_S / d of its reference speed, so a raw interval scales to
*reference seconds*, the time the same work would take at the reference
speed:

    reference seconds = raw seconds * REFERENCE_PROBE_S / d

where `d` is the median duration of the NEAREST probes. Probe time is never
part of a measured interval: an interval with probes inside is split at them
and its pieces are scaled one by one.

REFERENCE_PROBE_S and the kernel are part of the benchmark's definition:
changing either changes every end-to-end timing.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# The reference speed: a probe duration within the range the probe takes
# (1.2 to 2.3 ms) on the 2-core VM the benchmark was sized on (Intel Xeon at
# 2.1 GHz, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_PROBE_S = 1.6e-3
PROBE_STEPS = 40
# A timer signal starts a probe this often.
PROBE_INTERVAL_S = 0.02
NEAREST = 7

_rng = np.random.default_rng(20160512)
_D_EMB, _D_HID, _N_OUT, _SRC_LEN = 16, 24, 35, 16
_W_IN = 0.1 * _rng.standard_normal((3 * _D_HID, _D_EMB + 2 * _D_HID))
_U = 0.1 * _rng.standard_normal((3 * _D_HID, _D_HID))
_W_Q = 0.1 * _rng.standard_normal((_D_HID, _D_HID))
_V = 0.1 * _rng.standard_normal(_D_HID)
_W_OUT = 0.1 * _rng.standard_normal((_N_OUT, 3 * _D_HID))
_ANN = _rng.standard_normal((_SRC_LEN, 2 * _D_HID))
_KEYS = _ANN[:, :_D_HID].copy()
_EMB = _rng.standard_normal((_N_OUT, _D_EMB))


def probe_kernel() -> list[int]:
    """A fixed attention-GRU decoder loop; returns the greedy tokens."""
    h = np.zeros(_D_HID)
    prev, tokens = 0, []
    for _ in range(PROBE_STEPS):
        scores = np.tanh(_KEYS + h @ _W_Q.T) @ _V
        alpha = np.exp(scores - scores.max())
        alpha /= alpha.sum()
        context = _ANN.T @ alpha
        g = _W_IN @ np.concatenate([_EMB[prev], context])
        uh = _U @ h
        z = 1.0 / (1.0 + np.exp(-(g[:_D_HID] + uh[:_D_HID])))
        r = 1.0 / (1.0 + np.exp(-(g[_D_HID:2 * _D_HID] + uh[_D_HID:2 * _D_HID])))
        n = np.tanh(g[2 * _D_HID:] + r * uh[2 * _D_HID:])
        h = (1.0 - z) * h + z * n
        logits = _W_OUT @ np.concatenate([h, context])
        logits = logits - logits.max()
        logp = logits - np.log(np.exp(logits).sum())
        prev = int(logp.argmax())
        tokens.append(prev)
    return tokens


class Clock:
    """Runs a calibration probe every PROBE_INTERVAL_S from a timer signal
    while it is entered, and scales raw intervals to reference seconds
    afterwards.

    The probes run in the main thread between bytecodes, so they land inside
    library calls as well as between them; the library's state is never
    touched. Only the main thread may enter a Clock.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.mids: list[float] = []
        self.durations: list[float] = []
        self._saved = None

    def probe(self, *_signal) -> None:
        t0 = time.perf_counter()
        probe_kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.mids.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)

    def __enter__(self) -> "Clock":
        self.probe()
        self._saved = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self.probe()

    def factor(self, t: float) -> float:
        """Reference seconds per raw second at time `t`."""
        if not self.durations:
            raise ValueError("no calibration probes recorded")
        mids = self.mids
        hi = bisect.bisect_left(mids, t)
        lo = hi - 1
        picked = []
        while len(picked) < NEAREST and (lo >= 0 or hi < len(mids)):
            if hi >= len(mids) or (lo >= 0 and t - mids[lo] <= mids[hi] - t):
                picked.append(self.durations[lo])
                lo -= 1
            else:
                picked.append(self.durations[hi])
                hi += 1
        return REFERENCE_PROBE_S / statistics.median(picked)

    def _pieces(self, a: float, b: float):
        """The parts of [a, b] outside probes, as (start, end) pairs."""
        cursor = a
        for k in range(bisect.bisect_right(self.ends, a), len(self.starts)):
            if self.starts[k] >= b:
                break
            if self.starts[k] > cursor:
                yield cursor, self.starts[k]
            cursor = max(cursor, self.ends[k])
        if b > cursor:
            yield cursor, b

    def unprobed(self, a: float, b: float) -> float:
        """Raw seconds of the interval [a, b], probe time left out."""
        return sum(y - x for x, y in self._pieces(a, b))

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds of the raw interval [a, b], probe time left out."""
        return sum((y - x) * self.factor(0.5 * (x + y)) for x, y in self._pieces(a, b))

    def speed(self) -> float:
        """The run's median machine speed relative to the reference."""
        return REFERENCE_PROBE_S / statistics.median(self.durations)
