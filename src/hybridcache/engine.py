"""Time-slotted simulation loop and regret accounting.

Per slot: estimate the IRM/SNM split from past requests, let the
policy place under capacity C, serve the slot's requests, feed the
policy its observations, and score against a clairvoyant oracle that
knows the slot's true request counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import Catalog
from .errors import BadInput, EmptyWindow, LengthMismatch
from .policy import (
    Placement,
    PolicyContext,
    exact_knapsack,
    make_policy,
)
from .popularity import AllocationEstimate, AllocationEstimator, PopularitySnapshot
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
    cached = np.fromiter(placement.cached, np.int64, len(placement.cached))
    return int(tally[cached].sum())


def oracle_placement(tally: np.ndarray, catalog: Catalog, capacity: float) -> int:
    """Clairvoyant per-slot optimum over the slot's true request tally.

    Returns the oracle's hits. When every item has the same size the
    optimum caches the capacity // size most requested ids, so its hits
    are the sum of the largest counts; otherwise an exact knapsack
    (integer sizes only) runs over the requested ids.
    """
    if capacity < 0:
        raise BadInput("capacity must be >= 0")
    size = catalog.uniform_size
    if size is not None:
        requested = tally[tally > 0]
        k = int(capacity // size)
        if k >= len(requested):
            return int(requested.sum())
        return int(np.partition(requested, -k)[-k:].sum()) if k else 0
    ids = np.flatnonzero(tally)
    placement = exact_knapsack(
        tally[ids].astype(float).tolist(),
        catalog.sizes[ids - 1].tolist(),
        capacity,
        ids=ids.tolist(),
    )
    return slot_step(placement, tally)


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
    policy = make_policy(
        policy_name, catalog, capacity, exploration_beta=exploration_beta
    )
    rng = np.random.default_rng(seed)
    irm_ids = catalog.irm_ids
    n_ids = len(catalog.items) + 1

    estimator = AllocationEstimator(window=alloc_window, smoothing=alloc_smoothing)
    # requests per id over slots < t; position = content id
    all_counts = np.zeros(n_ids, dtype=np.int64)
    total_all = 0

    records = []
    total_hits = 0

    for t, slot_ids in enumerate(trace.events_by_slot(), start=1):
        try:
            alloc = estimator.estimate()
        except EmptyWindow:
            alloc = AllocationEstimate.from_snm(0.5)

        # each policy gets only the inputs it reads
        inputs = {}
        if policy.name == "hybrid":
            inputs["snm_candidates"] = catalog.active_snm_ids(t)
            # IRM ids by descending count, ties by lower id
            order = np.lexsort((irm_ids, -all_counts[irm_ids]))
            inputs["irm_ranking"] = irm_ids[order]
        elif policy.name == "popular":
            inputs["history_popularity"] = PopularitySnapshot(
                slot=t - 1, freq=all_counts / max(total_all, 1)
            )
        ctx = PolicyContext(slot=t, alloc=alloc, rng=rng, **inputs)
        placement = policy.place(ctx)

        tally = np.bincount(slot_ids, minlength=n_ids)
        total = len(slot_ids)
        hits = slot_step(placement, tally)
        hit_ratio = hits / total if total else 0.0
        total_hits += hits

        policy.update(ctx, placement, tally)

        oracle_hits = oracle_placement(tally, catalog, capacity)
        oracle_ratio = oracle_hits / total if total else 0.0
        increment = max(0.0, oracle_ratio - hit_ratio)
        records.append(
            SlotRecord(
                hit_ratio=hit_ratio,
                oracle_hit_ratio=oracle_ratio,
                regret_increment=increment,
            )
        )

        all_counts += tally
        n_irm = int(tally[irm_ids].sum())
        estimator.observe(total - n_irm, n_irm)
        total_all += total

    achieved = [r.hit_ratio for r in records]
    regret = cumulative_regret(achieved, [r.oracle_hit_ratio for r in records])
    total_events = len(trace.ids)
    summary = {
        "policy": policy_name,
        "seed": seed,
        "config_hash": config_hash,
        "mean_hit_ratio": total_hits / total_events if total_events else 0.0,
        "slot_mean_hit_ratio": float(np.mean(achieved)),
        "final_regret": float(regret[-1]),
    }
    return RunMetrics(
        per_slot=tuple(records), cumulative_regret=regret, summary=summary
    )
