"""Popularity snapshots and online estimation of the IRM/SNM split.

The capacity split is one float, the SNM share w_snm (the IRM share is
1 - w_snm): the windowed empirical class ratio with optional
exponential smoothing. It stands in for the learned predictor and
converges to the same target quantity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindow, HybridCacheError


@dataclass(frozen=True)
class PopularitySnapshot:
    """Empirical per-content request frequencies over a slot or window."""

    slot: int
    freq: np.ndarray  # position = content id (0 unused); all zero if no requests

    def __post_init__(self):
        if self.freq.any():
            total = float(self.freq.sum())
            if abs(total - 1.0) > 1e-9:
                raise HybridCacheError(f"frequencies sum to {total}, not 1")


class AllocationEstimator:
    """Stateful windowed estimator fed one slot of class counts at a time.

    Keeps the window's (n_snm, n_irm) pairs and their running totals, so
    an estimate reads the window's share without summing it again. The
    share is blended with the last estimate:
    w = smoothing * prior + (1 - smoothing) * raw.
    """

    def __init__(self, window: int = 10, smoothing: float = 0.3):
        if window < 1:
            raise HybridCacheError("window must be >= 1")
        if not (0.0 <= smoothing <= 1.0):
            raise HybridCacheError("smoothing must lie in [0, 1]")
        self.window = window
        self.smoothing = smoothing
        self._counts = deque(maxlen=window)
        self._snm = self._irm = 0  # the sums over _counts
        self._prior = None

    def observe(self, n_snm: int, n_irm: int) -> None:
        if len(self._counts) == self.window:
            old_snm, old_irm = self._counts[0]
            self._snm -= old_snm
            self._irm -= old_irm
        self._counts.append((n_snm, n_irm))
        self._snm += n_snm
        self._irm += n_irm

    def estimate(self) -> float:
        """The SNM share of the window, blended with the last estimate."""
        total = self._snm + self._irm
        if total == 0:
            raise EmptyWindow("no requests in the estimation window")
        w_snm = raw = self._snm / total
        if self._prior is not None:
            w_snm = self.smoothing * self._prior + (1.0 - self.smoothing) * raw
        if not (0.0 <= w_snm <= 1.0):
            raise HybridCacheError("w_snm must lie in [0, 1]")
        self._prior = w_snm
        return w_snm
