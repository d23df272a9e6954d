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

The loop walks the trace a chunk of slots at a time: one np.bincount
tallies the whole chunk, and its hits are read once the chunk's slots
are placed and fed back.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import Catalog
from .errors import LengthMismatch, UnknownContent
from .policy import Fill, Placement, exact_knapsack, make_policy
from .popularity import PopularitySnapshot  # noqa: F401  perfbench/probe.py patches this name
from .workload import RequestTrace


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


# the most tally cells, and the most events, of one chunk of slots; a
# chunk holds one slot at least
CHUNK_CELLS = 2**16


def _tally_chunks(trace: RequestTrace, id_space: int):
    """Yield (t0, tallies) for successive chunks of the trace's slots.

    tallies[r, id] is the request count of an id in slot t0 + r; the
    array is read-only, so each row is a read-only tally. One bincount
    builds a chunk: each event's key is its id plus its row times
    id_space, as int32.
    """
    bounds = trace.offsets.tolist()
    most_rows = max(1, CHUNK_CELLS // id_space)
    start = 0
    while start < trace.horizon:
        # the last slot index whose events end within CHUNK_CELLS events
        by_events = bisect.bisect_right(bounds, bounds[start] + CHUNK_CELLS) - 1
        stop = max(start + 1, min(start + most_rows, by_events))
        rows = np.arange(0, (stop - start) * id_space, id_space, dtype=np.int32)
        # added in place: one chunk-sized array less at the memory peak
        keys = rows.repeat(np.diff(trace.offsets[start:stop + 1]))
        keys += trace.ids[bounds[start]:bounds[stop]]
        tallies = np.bincount(keys, minlength=len(rows) * id_space)
        tallies = tallies.reshape(len(rows), id_space)
        tallies.flags.writeable = False
        yield start + 1, tallies
        start = stop


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
    requested ids.
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
    hits = []
    for _, tallies in _tally_chunks(trace, catalog.id_space):
        for tally in tallies:
            ids = np.flatnonzero(tally)
            hits.append(exact_knapsack(tally[ids], catalog.sizes[ids - 1], capacity))
    # the knapsack's sums of whole counts are exact in float64
    return np.array(hits, dtype=np.int64)


def cumulative_regret(
    achieved: Sequence[float], oracle: Sequence[float]
) -> np.ndarray:
    """Prefix sums of the per-slot gaps max(0, oracle - achieved)."""
    if len(achieved) != len(oracle):
        raise LengthMismatch(
            f"achieved has {len(achieved)} slots, oracle {len(oracle)}"
        )
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
        raise ValueError("trace horizon must be >= 1")
    ids, n_ids = trace.ids, len(catalog.ids)
    if len(ids) and not 1 <= ids.min() <= ids.max() <= n_ids:
        raise UnknownContent(f"trace requests an id outside the catalog's 1..{n_ids}")
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
