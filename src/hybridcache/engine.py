"""Time-slotted simulation loop and regret accounting.

Per slot: estimate the IRM/SNM split from past requests, let the
policy place under capacity C, serve the slot's requests, feed the
policy its observations, and score against a clairvoyant oracle that
knows the slot's true request counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import Catalog
from .errors import EmptyWindow, LengthMismatch
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


def slot_step(placement: Placement, counts: Counter) -> tuple:
    """Serve one slot's request tally against a frozen cache.

    Returns (hits, total requests).
    """
    cached = placement.cached
    hits = sum(c for cid, c in counts.items() if cid in cached)
    return hits, counts.total()


def oracle_placement(counts: Counter, sizes: dict, capacity: float) -> tuple:
    """Clairvoyant per-slot optimum: exact knapsack over true counts.

    Returns (placement, oracle hit ratio for this slot).
    """
    ids = sorted(counts)
    values = [float(counts[cid]) for cid in ids]
    item_sizes = [sizes[cid] for cid in ids]
    placement = exact_knapsack(values, item_sizes, capacity, ids=ids)
    total = counts.total()
    hits = sum(counts[cid] for cid in placement.cached)
    return placement, hits / total if total else 0.0


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
    sizes = {it.id: it.size for it in catalog.items}
    irm_ids = catalog.irm_ids
    irm_set = set(irm_ids.tolist())

    estimator = AllocationEstimator(window=alloc_window, smoothing=alloc_smoothing)
    # requests per id over slots < t; position = content id
    all_counts = np.zeros(len(catalog.items) + 1, dtype=np.int64)
    total_irm = 0
    total_all = 0

    events_by_slot = trace.events_by_slot()
    records = []
    total_hits = 0

    for t in range(1, trace.horizon + 1):
        try:
            alloc = estimator.estimate()
        except EmptyWindow:
            alloc = AllocationEstimate.from_snm(0.5)

        # IRM ids by descending count, ties by lower id; a zero total
        # means its counts are all 0, which max(total, 1) keeps at 0
        irm_counts = all_counts[irm_ids]
        order = np.lexsort((irm_ids, -irm_counts))
        irm_popularity = irm_counts[order] / max(total_irm, 1)
        irm_ranking = tuple(zip(irm_ids[order].tolist(), irm_popularity.tolist()))
        history = PopularitySnapshot(slot=t - 1, freq=all_counts / max(total_all, 1))

        ctx = PolicyContext(
            slot=t,
            alloc=alloc,
            snm_candidates=tuple(catalog.active_snm_ids(t)),
            irm_ranking=irm_ranking,
            history_popularity=history,
            rng=rng,
        )
        placement = policy.place(ctx)

        counts = Counter(events_by_slot[t - 1])
        hits, total = slot_step(placement, counts)
        hit_ratio = hits / total if total else 0.0
        total_hits += hits

        policy.update(ctx, placement, counts)

        _, oracle_ratio = oracle_placement(counts, sizes, capacity)
        increment = max(0.0, oracle_ratio - hit_ratio)
        records.append(
            SlotRecord(
                hit_ratio=hit_ratio,
                oracle_hit_ratio=oracle_ratio,
                regret_increment=increment,
            )
        )

        all_counts[list(counts)] += list(counts.values())
        n_irm = sum(c for cid, c in counts.items() if cid in irm_set)
        estimator.observe(total - n_irm, n_irm)
        total_all += total
        total_irm += n_irm

    achieved = [r.hit_ratio for r in records]
    regret = cumulative_regret(achieved, [r.oracle_hit_ratio for r in records])
    total_events = len(trace.events)
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
