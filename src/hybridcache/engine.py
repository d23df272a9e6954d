"""Time-slotted simulation loop and regret accounting.

Every policy has the same two calls: place(t) returns the cache for
slot t, and update(placement, tally) feeds it the slot's request tally
once the slot is served. A policy keeps whatever it reads (counts,
estimates, learning state) from those tallies, so it sees only slots
before t when it places at t, and the loop does not know which policy
it drives.

Each slot is scored against a clairvoyant oracle that knows the slot's
true request counts; the oracle's hits depend only on the trace, the
catalog and C, so they are computed for every slot before the loop.

The trace is counted once (RequestTrace.slot_counts) and the count is
shared by the oracle and every run. The loop walks the trace a chunk of
slots at a time: one scatter of the chunk's counts builds its dense
tallies, and its hits are read once the chunk's slots are placed and
fed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import Catalog
from .errors import HybridCacheError
from .policy import Fill, Placement, exact_knapsack, make_policy
from .popularity import PopularitySnapshot  # noqa: F401  perfbench/probe.py patches this name
from .workload import CHUNK_CELLS, RequestTrace


@dataclass(frozen=True)
class SlotRecord:
    hit_ratio: float
    oracle_hit_ratio: float
    regret_increment: float


@dataclass(frozen=True)
class RunMetrics:
    per_slot: tuple  # SlotRecord per slot, t = 1..T
    cumulative_regret: np.ndarray
    summary: dict


def _tally_chunks(trace: RequestTrace, id_space: int):
    """Yield (t0, tallies) for successive chunks of the trace's slots.

    tallies[r, id] is the request count of an id in slot t0 + r; the
    array is read-only, so each row is a read-only tally. A chunk
    (RequestTrace.chunk_bounds, at most CHUNK_CELLS cells and events) is
    built by scattering its slots' (id, count) pairs from the trace's
    shared RequestTrace.slot_counts into zeros.
    """
    starts, ids, counts = trace.slot_counts
    edges = starts.tolist()
    # each pair's cell in a flat table of every slot's tally
    cells = np.arange(0, trace.horizon * id_space, id_space).repeat(np.diff(starts))
    cells += ids
    for start, stop in trace.chunk_bounds(id_space, CHUNK_CELLS):
        lo, hi = edges[start], edges[stop]
        tallies = np.zeros((stop - start, id_space), dtype=np.int64)
        tallies.reshape(-1)[cells[lo:hi] - start * id_space] = counts[lo:hi]
        tallies.flags.writeable = False
        yield start + 1, tallies


def slot_step(placements: Sequence[Placement], tallies: np.ndarray) -> np.ndarray:
    """Serve a chunk of slots, each against its frozen cache; returns their hits.

    tallies[r, id] is the request count of an id in the chunk's r-th
    slot, and placements[r] is that slot's cache. The cached ids of all
    the slots are gathered from the flat tallies at once; a slot's hits
    are the difference of their running sum across its ids.
    """
    cached = [p.cached for p in placements]
    lengths = np.fromiter(map(len, cached), dtype=np.int64, count=len(cached))
    width = tallies.shape[1]
    cells = np.concatenate(cached) + np.arange(
        0, len(cached) * width, width
    ).repeat(lengths)
    running = np.zeros(len(cells) + 1, dtype=np.int64)
    tallies.reshape(-1)[cells].cumsum(out=running[1:])
    ends = np.zeros(len(cached) + 1, dtype=np.int64)
    lengths.cumsum(out=ends[1:])
    return np.diff(running[ends])


def oracle_placement(
    trace: RequestTrace, catalog: Catalog, capacity: float
) -> np.ndarray:
    """Clairvoyant per-slot optimum over each slot's true request tally.

    Returns the oracle's hits in every slot of the trace, as an int64
    array indexed t - 1. It fits ids by the policies' rule (Fill). When
    every item has the same size the optimum caches the Fill.count most
    requested ids of a slot, so its hits are read from the trace's
    running sums of descending counts; otherwise a slot's hits are the
    optimal value of a 0/1 knapsack (integer sizes only) over its
    requested ids and their counts (RequestTrace.slot_counts).
    """
    fill = Fill(catalog.sizes, capacity)
    if fill.count is not None:
        starts, sums = trace.ranked_count_sums
        # a slot holds no more distinct ids than the trace has sums
        k = min(fill.count, len(sums))
        take = np.minimum(np.diff(starts), k)
        hits = np.zeros(trace.horizon, dtype=np.int64)
        some = take > 0
        hits[some] = sums[starts[:-1][some] + take[some] - 1]
        return hits
    starts, ids, counts = trace.slot_counts
    edges = starts.tolist()
    hits = [
        exact_knapsack(counts[lo:hi], catalog.sizes[ids[lo:hi] - 1], capacity)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    # the knapsack's sums of whole counts are exact in float64
    return np.array(hits, dtype=np.int64)


def cumulative_regret(
    achieved: Sequence[float], oracle: Sequence[float]
) -> np.ndarray:
    """Prefix sums of the per-slot gaps max(0, oracle - achieved)."""
    if len(achieved) != len(oracle):
        raise HybridCacheError(f"achieved has {len(achieved)} slots, oracle {len(oracle)}")
    gaps = np.maximum(0.0, np.asarray(oracle, float) - np.asarray(achieved, float))
    return np.cumsum(gaps)


def run_simulation(
    catalog: Catalog,
    trace: RequestTrace,
    policy_name: str,
    capacity: float,
    seed: int,
    exploration_beta: float = 2.0,
    alloc_window: int = 10,
    alloc_smoothing: float = 0.3,
    config_hash: str = "",
) -> RunMetrics:
    """Drive one policy over one trace and score it slot by slot.

    The policy places at the start of slot t from slots < t only;
    deterministic given (catalog, trace, policy, seed).
    """
    if trace.horizon < 1:
        raise HybridCacheError("trace horizon must be >= 1")
    low, high = trace.id_range
    n_ids = len(catalog.ids)
    if low < 1 or high > n_ids:
        raise HybridCacheError(f"trace requests an id outside the catalog's 1..{n_ids}")
    policy = make_policy(
        policy_name,
        catalog,
        capacity,
        np.random.default_rng(seed),
        exploration_beta=exploration_beta,
        alloc_window=alloc_window,
        alloc_smoothing=alloc_smoothing,
    )
    oracle_hits = oracle_placement(trace, catalog, capacity)
    hits = []
    for t0, tallies in _tally_chunks(trace, catalog.id_space):
        placements = []
        for t, tally in enumerate(tallies, start=t0):
            placement = policy.place(t)
            policy.update(placement, tally)
            placements.append(placement)
        hits.append(slot_step(placements, tallies))
    hits = np.concatenate(hits)

    totals = np.diff(trace.offsets)
    served = totals > 0

    def ratio(n):
        return np.divide(n, totals, out=np.zeros(trace.horizon), where=served)

    achieved, oracle = ratio(hits), ratio(oracle_hits)
    increments = np.maximum(0.0, oracle - achieved)
    regret = cumulative_regret(achieved, oracle)
    records = tuple(
        map(SlotRecord, achieved.tolist(), oracle.tolist(), increments.tolist())
    )
    total_events = len(trace.ids)
    summary = {
        "policy": policy_name,
        "seed": seed,
        "config_hash": config_hash,
        "mean_hit_ratio": int(hits.sum()) / total_events if total_events else 0.0,
        "slot_mean_hit_ratio": float(np.mean(achieved)),
        "final_regret": float(regret[-1]),
    }
    return RunMetrics(per_slot=records, cumulative_regret=regret, summary=summary)
