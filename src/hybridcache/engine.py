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
"""

from __future__ import annotations

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


def slot_step(placement: Placement, tally: np.ndarray) -> int:
    """Serve one slot against a frozen cache; returns the hits.

    tally[id] is the slot's request count of an id.
    """
    return int(tally[placement.cached].sum())


def oracle_placement(
    trace: RequestTrace, catalog: Catalog, capacity: float
) -> np.ndarray:
    """Clairvoyant per-slot optimum over each slot's true request tally.

    Returns the oracle's hits in every slot of the trace, as an int64
    array indexed t - 1. It fits ids by the policies' rule (Fill). When
    every item has the same size the optimum caches the Fill.count most
    requested ids of a slot, so its hits are read from the trace's
    running sums of descending counts; otherwise an exact knapsack
    (integer sizes only) runs per slot over the requested ids.
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
    for slot_ids in trace.events_by_slot():
        tally = np.bincount(slot_ids, minlength=catalog.id_space)
        ids = np.flatnonzero(tally)
        placement = exact_knapsack(
            tally[ids].astype(float).tolist(),
            catalog.sizes[ids - 1].tolist(),
            capacity,
            ids=ids.tolist(),
        )
        hits.append(slot_step(placement, tally))
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
    hits = np.zeros(trace.horizon, dtype=np.int64)
    offsets = trace.offsets.tolist()
    for t in range(1, trace.horizon + 1):
        placement = policy.place(t)
        tally = np.bincount(ids[offsets[t - 1]:offsets[t]], minlength=catalog.id_space)
        hits[t - 1] = slot_step(placement, tally)
        policy.update(placement, tally)

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
