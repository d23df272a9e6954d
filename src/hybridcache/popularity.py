"""Popularity snapshots and online estimation of the IRM/SNM split.

The capacity-allocation proportions are the windowed empirical class
ratios with optional exponential smoothing; they stand in for the
learned predictor and converge to the same target quantity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import EmptyWindow


@dataclass(frozen=True)
class AllocationEstimate:
    """Capacity-split proportions; w_irm + w_snm == 1 exactly."""

    w_irm: float
    w_snm: float

    def __post_init__(self):
        if not (0.0 <= self.w_snm <= 1.0):
            raise ValueError("w_snm must lie in [0, 1]")
        if self.w_irm != 1.0 - self.w_snm:
            raise ValueError("w_irm must equal 1 - w_snm")

    @classmethod
    def from_snm(cls, w_snm: float) -> "AllocationEstimate":
        return cls(w_irm=1.0 - w_snm, w_snm=w_snm)


@dataclass(frozen=True)
class PopularitySnapshot:
    """Empirical per-content request frequencies over a slot or window."""

    slot: int
    freq: dict  # content_id -> frequency in [0, 1]; empty if no requests

    def __post_init__(self):
        if self.freq:
            total = sum(self.freq.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"frequencies sum to {total}, not 1")


def estimate_allocation(
    history: Sequence[tuple],
    smoothing: float = 0.0,
    prior: Optional[float] = None,
) -> AllocationEstimate:
    """Estimate the SNM share from per-slot (n_snm, n_irm) counts.

    The raw ratio over the window is exponentially blended with the
    prior estimate: w = smoothing * prior + (1 - smoothing) * raw.
    """
    if not (0.0 <= smoothing <= 1.0):
        raise ValueError("smoothing must lie in [0, 1]")
    total_snm = sum(s for s, _ in history)
    total_irm = sum(i for _, i in history)
    if total_snm + total_irm == 0:
        raise EmptyWindow("no requests in the estimation window")
    raw = total_snm / (total_snm + total_irm)
    if prior is None:
        w_snm = raw
    else:
        w_snm = smoothing * prior + (1.0 - smoothing) * raw
    return AllocationEstimate.from_snm(w_snm)


class AllocationEstimator:
    """Stateful windowed estimator fed one slot of class counts at a time."""

    def __init__(self, window: int = 10, smoothing: float = 0.3):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.smoothing = smoothing
        self._counts = deque(maxlen=window)
        self._prior = None

    def observe(self, n_snm: int, n_irm: int) -> None:
        self._counts.append((n_snm, n_irm))

    def estimate(self) -> AllocationEstimate:
        est = estimate_allocation(
            self._counts, smoothing=self.smoothing, prior=self._prior
        )
        self._prior = est.w_snm
        return est
