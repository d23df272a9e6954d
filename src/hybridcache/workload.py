"""Request trace generation: Zipf draws for IRM, rate pulses for SNM.

All randomness goes through numpy's default_rng (PCG64), so a trace is
fully reproducible from (catalog, config, seed) on any platform.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Optional

import numpy as np

from .catalog import Catalog
from .errors import BadUniform, EmptyLibrary, TraceParseError, UnknownContent


def zipf_pmf(n: int, delta: float) -> np.ndarray:
    """Rank-based Zipf probabilities p[f] proportional to (f+1)^-delta.

    Index 0 is rank 1 (the most popular content).
    """
    if n < 1:
        raise EmptyLibrary("zipf_pmf needs n >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-delta)
    return weights / weights.sum()


@dataclass(frozen=True)
class ParetoVolume:
    """Pareto law for SNM total request volumes: shape beta, scale n_min."""

    beta: float
    n_min: float

    def __post_init__(self):
        if self.beta <= 1:
            raise ValueError("beta must exceed 1 (finite mean)")
        if self.n_min <= 0:
            raise ValueError("n_min must be positive")


def sample_pareto_volume(model: ParetoVolume, u: float) -> float:
    """Inverse-CDF draw: v = n_min * (1 - u)^(-1/beta), v >= n_min."""
    if not (0.0 <= u < 1.0):
        raise BadUniform(f"u={u} outside [0, 1)")
    return model.n_min * (1.0 - u) ** (-1.0 / model.beta)


@dataclass(frozen=True)
class TraceStats:
    """Generation-side bookkeeping, most notably the IRM fallback count."""

    total_requests: int
    snm_intended: int
    snm_served: int
    fallback_count: int

    @property
    def snm_share(self) -> float:
        if self.total_requests == 0:
            return 0.0
        return self.snm_served / self.total_requests


@dataclass(frozen=True)
class RequestTrace:
    horizon: int
    events: tuple  # ordered (slot, content_id) pairs, slots ascending
    stats: Optional[TraceStats] = field(default=None, compare=False)

    @cached_property
    def csr(self) -> tuple:
        """The events as compressed sparse rows: (ids, offsets).

        ids is an int32 array of content ids in event order; slot t's ids
        are ids[offsets[t - 1]:offsets[t]]. Built on first use and kept,
        since a trace is usually run several times.
        """
        n = len(self.events)
        ids = np.fromiter(map(itemgetter(1), self.events), np.int32, n)
        slots = np.fromiter(map(itemgetter(0), self.events), np.int32, n)
        if n and (slots[0] < 1 or slots[-1] > self.horizon):
            raise ValueError(f"event slots must lie in [1, {self.horizon}]")
        if (slots[1:] < slots[:-1]).any():
            raise ValueError("event slots must be non-decreasing")
        offsets = np.searchsorted(
            slots, np.arange(1, self.horizon + 2, dtype=np.int32)
        )
        ids.flags.writeable = False
        return ids, offsets

    def events_by_slot(self) -> list:
        """Per-slot id arrays (views into the CSR ids), index t-1 for slot t."""
        ids, offsets = self.csr
        return np.split(ids, offsets[1:-1])


def generate_trace(
    catalog: Catalog,
    horizon: int,
    requests_per_slot: int,
    w_snm: float,
    delta: float,
    seed: int,
) -> RequestTrace:
    """Generate a slotted request trace over the catalog.

    Each of the R requests in a slot is SNM with probability w_snm,
    IRM otherwise. IRM requests are i.i.d. Zipf over the IRM items;
    SNM requests are drawn from the currently active SNM items with
    probability proportional to their pulse rates. Slots with no
    active SNM item fall back to IRM draws (counted in the stats), so
    every slot carries exactly R events.
    """
    if horizon < 1 or requests_per_slot < 1:
        raise ValueError("horizon and requests_per_slot must be >= 1")
    if not catalog.items:
        raise EmptyLibrary("catalog is empty")

    rng = np.random.default_rng(seed)
    irm_ids = catalog.irm_ids
    zipf = zipf_pmf(len(irm_ids), delta) if len(irm_ids) else None
    # an SNM item's pulse rate is volume / lifespan inside its window
    snm_rates = catalog.snm_volume / (catalog.snm_expiry - catalog.snm_arrival)

    events = []
    snm_intended = 0
    snm_served = 0
    fallback = 0
    for slot in range(1, horizon + 1):
        active = catalog.snm_active_mask(slot)
        is_snm = rng.random(requests_per_slot) < w_snm
        n_snm = int(is_snm.sum())
        n_irm = requests_per_slot - n_snm
        snm_intended += n_snm
        if n_snm and not active.any():
            fallback += n_snm
            n_irm += n_snm
            n_snm = 0
        if n_irm:
            if zipf is None:
                # all-SNM catalog with an empty slot: fall back to a
                # uniform draw over the whole library
                slot_irm = rng.choice(catalog.ids, size=n_irm)
            else:
                slot_irm = rng.choice(irm_ids, size=n_irm, p=zipf)
            events.extend((slot, cid) for cid in slot_irm.tolist())
        if n_snm:
            rates = snm_rates[active]
            probs = rates / rates.sum()
            slot_snm = rng.choice(catalog.snm_ids[active], size=n_snm, p=probs)
            events.extend((slot, cid) for cid in slot_snm.tolist())
            snm_served += n_snm

    stats = TraceStats(
        total_requests=horizon * requests_per_slot,
        snm_intended=snm_intended,
        snm_served=snm_served,
        fallback_count=fallback,
    )
    return RequestTrace(horizon=horizon, events=tuple(events), stats=stats)


TRACE_HEADER = ["slot", "content_id"]


def save_trace(trace: RequestTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for slot, content_id in trace.events:
            writer.writerow([slot, content_id])


def load_trace(path, catalog: Catalog) -> RequestTrace:
    """Load a trace CSV, validating every id against the catalog.

    Slots must be >= 1 and non-decreasing from row to row.
    """
    known = {it.id for it in catalog.items}
    events = []
    horizon = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise TraceParseError("bad trace header", line=1)
        for lineno, row in enumerate(reader, start=2):
            try:
                slot, content_id = int(row[0]), int(row[1])
            except (ValueError, IndexError) as exc:
                raise TraceParseError(str(exc), line=lineno) from exc
            if slot < 1:
                raise TraceParseError(f"slot {slot} is below 1", line=lineno)
            if slot < horizon:
                raise TraceParseError(
                    f"slot {slot} follows slot {horizon}", line=lineno
                )
            if content_id not in known:
                raise UnknownContent(
                    f"line {lineno}: content id {content_id} not in catalog"
                )
            events.append((slot, content_id))
            horizon = slot
    return RequestTrace(horizon=horizon, events=tuple(events))
