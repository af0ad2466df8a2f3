"""Streaming statistics over per-superstep timing series.

Small, dependency-free primitives in the ``aetherops.telemetry`` idiom
(``ewma`` / ``detect_drift``), plus two pieces the engine's own
telemetry needs:

* :class:`EwmaBaseline` — an *online* EWMA mean/variance tracker that
  scores each new observation as it arrives (the per-superstep anomaly
  flags in ``repro report`` and the live monitor's alerts come from
  here);
* :func:`straggler_scores` — per-worker skew over a supersteps×workers
  timing matrix: how much slower each worker runs than its peers on the
  barrier-synchronized phases (``repro report``'s straggler table).

Everything operates on plain sequences/ndarrays so the report tool can
run on a trace file alone, with no engine in the process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ewma",
    "detect_drift",
    "straggler_scores",
    "EwmaBaseline",
]


def ewma(values, alpha: float = 0.3) -> list[float]:
    """Exponentially weighted moving average, seeded on the first value."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    out: list[float] = []
    level = None
    for v in values:
        v = float(v)
        level = v if level is None else alpha * v + (1.0 - alpha) * level
        out.append(level)
    return out


def detect_drift(
    values,
    alpha_fast: float = 0.5,
    alpha_slow: float = 0.05,
    threshold: float = 0.5,
    warmup: int = 5,
) -> list[int]:
    """Indices where the fast EWMA has drifted from the slow EWMA by
    more than ``threshold`` (relative).  Catches sustained level shifts
    that per-point z-scores miss: a series that slowly doubles never has
    a single outlying step, but its fast tracker walks away from the
    long-memory baseline.  The first ``warmup`` points are never flagged
    (both trackers start at the same seed)."""
    fast = ewma(values, alpha_fast)
    slow = ewma(values, alpha_slow)
    flags = []
    for i, (f, s) in enumerate(zip(fast, slow)):
        if i < warmup:
            continue
        denom = abs(s) if s else 1e-12
        if abs(f - s) / denom > threshold:
            flags.append(i)
    return flags


def straggler_scores(matrix, eps: float = 1e-9) -> np.ndarray:
    """Per-worker skew score over a ``supersteps × workers`` timing
    matrix: the mean over supersteps of (worker's time / that
    superstep's mean worker time).  1.0 is a perfectly balanced worker;
    2.0 means it ran at twice the average and (on barrier-synchronized
    phases) set the critical path.  Supersteps whose mean is below
    ``eps`` carry no signal and are skipped; all-skipped input returns
    ones (no evidence of skew)."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("need a supersteps x workers matrix")
    means = m.mean(axis=1)
    rows = means > eps
    if not rows.any():
        return np.ones(m.shape[1])
    return (m[rows] / means[rows, None]).mean(axis=0)


@dataclass
class EwmaBaseline:
    """Online EWMA mean/variance with per-observation anomaly scoring.

    ``update(x)`` returns the |z|-score of ``x`` against the baseline
    *before* ``x`` is folded in, so a spike scores against normal
    history rather than against itself.  The first ``warmup``
    observations always score 0 (the baseline isn't trustworthy yet).
    """

    alpha: float = 0.3
    warmup: int = 3
    n: int = 0
    mean: float = 0.0
    var: float = 0.0

    def update(self, value: float) -> float:
        value = float(value)
        score = 0.0
        std = self.std
        if self.n >= self.warmup and std > 0.0:
            # |z|-score; a flat baseline has no spread to be anomalous against
            score = abs(value - self.mean) / std
        if self.n == 0:
            self.mean = value
        else:
            delta = value - self.mean
            incr = self.alpha * delta
            self.mean += incr
            # Welford-style EWMA variance (West 1979)
            self.var = (1.0 - self.alpha) * (self.var + delta * incr)
        self.n += 1
        return score

    @property
    def std(self) -> float:
        return float(np.sqrt(self.var))
